"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run pytest with -s or check captured
output) and asserts the criterion at its stated tolerance.  The heavy Monte
Carlo sweeps are shared through session fixtures, so the whole module runs
in a few minutes.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from cransim.cell import Z_95, mean_halfwidth, sweep_cell
from cransim.experiments import run as run_experiment
from cransim.geometry import (
    ChannelParams,
    SubframeDrop,
    activation_probabilities,
    build_layout,
    cloud_sinrs,
    draw_subframe,
    synthesize_layout,
)
from cransim.link import load_calibration, segment_tb, simulate_cbs
from cransim.policy import build_policy_tables
from cransim.rng import substream
from cransim.scheduling import finalize_records, sweep_network
from oracles import cbler, comp_outage_prob, raw_throughput, tb_channel_outage_prob

SNR_GRID = [float(g) for g in range(-20, 42, 2)]
CELL_TRIALS = 100_000
NET_SUBFRAMES = 10_000
DENSITY_SUBFRAMES = 12_000


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def curves():
    return load_calibration()


@pytest.fixture(scope="session")
def tables(curves):
    return build_policy_tables(curves)


@pytest.fixture(scope="session")
def cell_sweeps(curves, tables):
    return sweep_cell(
        SNR_GRID, tables, curves, n_trials=CELL_TRIALS, seed=1405,
        c_max_values=(math.inf, 50e6), policies=("MRS", "CAS"),
    )


@pytest.fixture(scope="session")
def net_layout():
    return synthesize_layout(substream(4242, "layout", 0))


@pytest.fixture(scope="session")
def budget_sweep(curves, tables, net_layout):
    params = ChannelParams(alpha=3.7, snr_ref_db=20.0)
    budgets = tuple(4e6 * k for k in range(26)) + (math.inf,)
    acc = sweep_network(
        net_layout, params, curves, tables, subframes=range(NET_SUBFRAMES),
        seed=1889, density_grid=(0.1,), budget_grid=budgets, modes=("LP", "CP"),
        policies=("MRS", "CAS"),
    )
    return acc, budgets


@pytest.fixture(scope="session")
def density_sweep(curves, tables, net_layout):
    params = ChannelParams(alpha=3.7, snr_ref_db=20.0)
    densities = tuple(np.logspace(-2, 0, 10))
    acc = sweep_network(
        net_layout, params, curves, tables, subframes=range(DENSITY_SUBFRAMES),
        seed=771, density_grid=densities, budget_grid=(math.inf, 30e6),
        modes=("CP",), policies=("MRS", "CAS"),
    )
    return acc, densities


def sigma_of(record):
    return record.eps_hw / 1.959963984540054


def test_criterion_1_calibration_anchors(curves):
    tb10 = curves.catalog[10].tb_bits
    tb11 = curves.catalog[11].tb_bits
    # locate the crossing SNR independently: where the 2-iteration CBLER of
    # MCS 10 falls through 0.25
    gamma_star = brentq(lambda g: cbler(curves, 10, g, 2) - 0.25, -20.0, 60.0)
    v10 = cbler(curves, 10, gamma_star, 2)
    v11 = cbler(curves, 11, gamma_star, 8)
    top = raw_throughput(curves.catalog[26])
    ok = (
        tb10 == 8064
        and tb11 == 9216
        and abs(v10 - 0.25) < 1e-3
        and abs(v11 - 0.25) < 1e-3
        and top == pytest.approx(33.024e6)
    )
    report(
        "calibration-anchors", ok,
        f"tb10={tb10} tb11={tb11} crossing@{gamma_star:.3f}dB "
        f"cbler=({v10:.4f},{v11:.4f}) top={top/1e6:.3f}Mbit/s",
    )


def test_criterion_2_segmentation_and_outage_algebra(curves):
    worst = 0.0
    cs = [1, 2, 3, 6, 13]
    for k, eps in enumerate(np.linspace(0.0, 1.0, 100)):
        c = cs[k % len(cs)]
        direct = 1.0 - (1.0 - float(eps)) ** c
        worst = max(worst, abs(tb_channel_outage_prob(float(eps), c) - direct))
    conserved = all(
        sum(segment_tb(e.tb_bits)[1]) == e.tb_bits for e in curves.catalog
    )
    ok = worst < 1e-12 and conserved
    report("segmentation-outage-algebra", ok,
           f"max |err|={worst:.2e} conservation={conserved}")


def test_criterion_3_sampler_fidelity(curves):
    rng = np.random.default_rng(333)
    n = 100_000
    worst_tv = 0.0
    for _ in range(20):
        m = int(rng.integers(0, 27))
        b8 = curves.catalog[m].midpoints_db[-1]
        gamma = float(rng.uniform(b8 + 0.2, b8 + 6.0))
        u = rng.random((1, n))
        iters, failed = simulate_cbs(curves, m, np.full(n, gamma), u)
        iters = iters[0]
        failed = failed[0]
        p_fail = float(cbler(curves, m, gamma, curves.i_max))
        pmf = np.array([
            (cbler(curves, m, gamma, i - 1) - cbler(curves, m, gamma, i))
            for i in range(1, curves.i_max + 1)
        ]) / (1.0 - p_fail)
        ok_iters = iters[~failed]
        emp = np.bincount(ok_iters, minlength=curves.i_max + 1)[1:] / len(ok_iters)
        tv = 0.5 * float(np.abs(emp - pmf).sum())
        worst_tv = max(worst_tv, tv)
    ok = worst_tv < 0.01
    report("sampler-fidelity", ok, f"worst TV={worst_tv:.4f} over 20 points")


def test_criterion_4_pooled_outage_oracle():
    rng = np.random.default_rng(444)
    checked = 0
    for _ in range(250):
        n_raps = int(rng.integers(1, 5))
        dists = []
        for _ in range(n_raps):
            k = int(rng.integers(1, 5))
            values = sorted(rng.choice(60, size=k, replace=False).tolist())
            weights = rng.integers(1, 9, size=k)
            total = int(weights.sum())
            probs = [Fraction(int(w), total) for w in weights]
            dists.append((values, probs))
        budget = int(rng.integers(0, 130))
        expected = 0
        for combo in itertools.product(*[list(zip(*d)) for d in dists]):
            if sum(v for v, _ in combo) > budget:
                p = 1
                for _, q in combo:
                    p *= q
                expected += p
        assert comp_outage_prob(dists, budget) == expected
        checked += 1
    half = Fraction(1, 2)
    example = comp_outage_prob([([1, 3], [half, half])] * 2, 4)
    ok = example == Fraction(1, 4) and checked == 250
    report("pooled-outage-oracle", ok,
           f"{checked} enumerations matched exactly; 2-RAP example={example}")


def test_criterion_5_outage_curve_shape(cell_sweeps):
    grid = np.array(SNR_GRID)
    mrs_c = cell_sweeps[("MRS", 50e6)]
    mrs_u = cell_sweeps[("MRS", math.inf)]
    cas_c = cell_sweeps[("CAS", 50e6)]
    cas_u = cell_sweeps[("CAS", math.inf)]

    eps_c = np.array([r.eps for r in mrs_c])
    window = (grid >= 10) & (grid <= 30)
    j_star = int(np.flatnonzero(window)[np.argmax(eps_c[window])])
    left, right = j_star, j_star
    while grid[left] >= 10:
        left -= 1
    while grid[right] <= 30:
        right += 1
    s_peak = sigma_of(mrs_c[j_star])
    interior_max = (
        eps_c[j_star] > eps_c[left] + 3 * (s_peak + sigma_of(mrs_c[left]))
        and eps_c[j_star] > eps_c[right] + 3 * (s_peak + sigma_of(mrs_c[right]))
    )

    hi = len(grid) - 1
    diff_hi = mrs_c[hi].eps - mrs_u[hi].eps
    s_hi = math.sqrt(sigma_of(mrs_c[hi]) ** 2 + sigma_of(mrs_u[hi]) ** 2)
    constrained_worse = diff_hi > 3 * s_hi

    worst_ratio_margin = math.inf
    for rc, ru in zip(cas_c, cas_u):
        sigma = math.sqrt(sigma_of(rc) ** 2 + 4 * sigma_of(ru) ** 2)
        worst_ratio_margin = min(
            worst_ratio_margin, 2 * ru.eps + 3 * sigma - rc.eps
        )
    cas_within = worst_ratio_margin >= 0

    ok = interior_max and constrained_worse and cas_within
    report(
        "outage-curve-shape", ok,
        f"peak eps={eps_c[j_star]:.3f}@{grid[j_star]:g}dB "
        f"high-SNR diff={diff_hi:.4f} (3sigma={3*s_hi:.4f}) "
        f"CAS 2x margin={worst_ratio_margin:+.4f}",
    )


def test_criterion_6_throughput_band(cell_sweeps):
    grid = np.array(SNR_GRID)
    mrs = np.array([r.t_eff_bps for r in cell_sweeps[("MRS", 50e6)]])
    cas = np.array([r.t_eff_bps for r in cell_sweeps[("CAS", 50e6)]])
    better = cas > mrs
    best_width = 0.0
    width = 0
    for flag in better:
        width = width + 1 if flag else 0
        best_width = max(best_width, (width - 1) * 2.0)
    ok = best_width >= 5.0
    report("throughput-band", ok,
           f"longest contiguous CAS>MRS band = {best_width:g} dB")


def _records(acc, n_subframes):
    """``finalize_records`` keyed by arm, (density, budget, mode, policy)."""
    return {(r.ue_density_per_km2, r.c_max_bit_iter_s, r.mode, r.policy): r
            for r in finalize_records(acc, n_subframes)}


def _paired_gain(acc, n_subframes, density, c, policy):
    """Mean and standard error of the per-subframe CP - LP sum throughput of
    one arm, from exact integer sums: with d = a - b per subframe,
    sum d = sum a - sum b and sum d^2 = sum a^2 + sum b^2 - 2 sum ab."""
    di, bi, pi = (acc.axes[k].index(v) for k, v in ((0, density), (1, c), (3, policy)))
    a, b = ((di, bi, acc.axes[2].index(mode), pi) for mode in ("CP", "LP"))
    sum_d = int(acc.bits_per_cell[a].sum()) - int(acc.bits_per_cell[b].sum())
    sum_d2 = (int(acc.sumsq_bits[a]) + int(acc.sumsq_bits[b])
              - 2 * int(acc.cross_bits[di, bi, pi]))
    mean, hw = mean_halfwidth(n_subframes, sum_d, sum_d2)
    return mean, hw / Z_95


def test_criterion_7_pooling_dominance(budget_sweep):
    acc, budgets = budget_sweep
    records = _records(acc, NET_SUBFRAMES)
    finite = [c for c in budgets if math.isfinite(c)]
    density = 0.1
    ok_all = True
    details = []
    for policy in ("MRS", "CAS"):
        means = {}
        for mode in ("LP", "CP"):
            for c in budgets:
                means[(mode, c)] = records[density, c, mode, policy].sum_throughput_bps
        # paired CP-vs-LP comparison on identical drops, at the budgets where
        # either mode delivers bits (elsewhere the margin is exactly 0)
        margins = {}
        for c in finite:
            if means[("LP", c)] or means[("CP", c)]:
                d_mean, d_sem = _paired_gain(acc, NET_SUBFRAMES, density, c, policy)
                margins[c] = d_mean + 3 * d_sem
        worst = min(margins.values())
        dominance = worst >= 0
        # exact monotonicity on fixed drops
        monotone = all(
            all(
                means[(mode, b)] <= means[(mode, c)] + 1e-9
                for b, c in zip(finite, finite[1:])
            )
            for mode in ("LP", "CP")
        )
        # computational diversity: CP hits 90% of its plateau first
        reach = {}
        for mode in ("LP", "CP"):
            plateau = means[(mode, math.inf)]
            reach[mode] = next(
                (c for c in finite if means[(mode, c)] >= 0.9 * plateau), math.inf
            )
        steeper = reach["CP"] < reach["LP"]
        ok_all = ok_all and dominance and monotone and steeper
        per_budget = " ".join(f"{c/1e6:g}M:{m/1e6:+.2f}" for c, m in margins.items())
        details.append(
            f"{policy}: min CP-LP margin={worst/1e6:+.2f}Mbit/s (per budget {per_budget}) "
            f"90% at CP={reach['CP']/1e6 if math.isfinite(reach['CP']) else 'inf'} "
            f"LP={reach['LP']/1e6 if math.isfinite(reach['LP']) else 'inf'}"
        )
    report("pooling-dominance", ok_all, "; ".join(details))


def test_criterion_8_density_sweep(density_sweep):
    acc, densities = density_sweep
    records = _records(acc, DENSITY_SUBFRAMES)
    mrs = [records[d, 30e6, "CP", "MRS"] for d in densities]
    means = np.array([r.sum_throughput_bps for r in mrs])
    sems = np.array([r.sum_throughput_hw_bps / Z_95 for r in mrs])
    peak = int(np.argmax(means))
    last = len(densities) - 1
    decline = means[peak] - means[last]
    sigma = math.sqrt(sems[peak] ** 2 + sems[last] ** 2)
    non_monotone = peak < last and decline > 3 * sigma

    worst_gap = 0.0
    for d in densities:
        t30 = records[d, 30e6, "CP", "CAS"].sum_throughput_bps
        tinf = records[d, math.inf, "CP", "CAS"].sum_throughput_bps
        worst_gap = max(worst_gap, abs(t30 - tinf) / tinf)
    cas_close = worst_gap <= 0.05

    ok = non_monotone and cas_close
    report(
        "density-sweep", ok,
        f"MRS@30M peak {means[peak]/1e6:.1f}Mbit/s at lambda={densities[peak]:.3f} "
        f"vs {means[last]/1e6:.1f} at lambda=1 (3sigma={3*sigma/1e6:.2f}); "
        f"max CAS gap={worst_gap:.3%}",
    )


def test_criterion_9_geometry(net_layout):
    region_area = 400.0
    area_err = abs(net_layout.areas_km2.sum() - region_area) / region_area

    raps = np.array([[2.0, 1.25], [6.0, 1.25]])
    two = build_layout(raps, (0.0, 0.0, 8.0, 2.5), cloud_group=(0, 1))
    n = 30_000
    hits = np.zeros(2)
    for t in range(n):
        drop = draw_subframe(two, 0.1, substream(91, "net", 0, t))
        hits += drop.active
    p = activation_probabilities(two, 0.1)
    sig = np.sqrt(p * (1 - p) / n)
    activation_ok = bool(np.all(np.abs(hits / n - p) < 3 * sig))

    alpha, s, snr_db = 3.7, 0.1, 20.0
    ch = ChannelParams(alpha=alpha, s=s, snr_ref_db=snr_db)
    d_serve, g_serve = 0.5, 1.2
    d_int_own, d_cross, g_cross = 0.8, 3.2, 0.7   # the interferer is in cell 1
    drop = SubframeDrop(
        active=np.array([True, True]),
        active_idx=np.array([0, 1]),
        ue_xy=np.array([[2.0 + d_serve, 1.25], [6.0 - d_int_own, 1.25]]),
        fading=np.array([[g_serve, 0.3], [g_cross, 0.9]]),
    )
    got = cloud_sinrs([drop], two, ch)[2][0]
    num = g_serve * d_serve ** (alpha * (s - 1.0))
    den = 10 ** (-snr_db / 10) + g_cross * d_cross ** (-alpha) * d_int_own ** (s * alpha)
    sinr_ok = got == pytest.approx(num / den, rel=1e-12)

    ok = area_err < 1e-6 and activation_ok and sinr_ok
    report(
        "geometry-conservation", ok,
        f"area err={area_err:.2e} activation 3sigma ok={activation_ok} "
        f"SINR oracle ok={sinr_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    def cell_cfg(out):
        return {
            "experiment": "cell_outage", "seed": 17, "output_dir": str(out),
            "cell": {"snr_grid_db": [0.0, 12.0, 24.0],
                     "policies": ["MRS", "CAS"],
                     "c_max_mbit_iter_s": [None, 50.0], "n_trials": 2000},
        }

    def net_cfg(out):
        return {
            "experiment": "net_sweep", "seed": 23, "output_dir": str(out),
            "network": {
                "synthesize": {"n_total": 32, "n_cloud": 6,
                               "region_km": [0.0, 0.0, 10.0, 10.0],
                               "min_sep_km": 1.0, "layout_seed": 3},
                "budget_grid_mbit_iter_s": [20.0, 60.0, None],
                "density_grid_per_km2": [0.1],
                "modes": ["LP", "CP"], "policies": ["MRS", "CAS"],
                "n_subframes": 600,
            },
        }

    def outputs(path):
        return {
            p.name: p.read_bytes()
            for p in sorted(Path(path).iterdir())
            if p.name != "manifest.json"
        }

    ok = True
    for name, cfg_fn in (("cell", cell_cfg), ("net", net_cfg)):
        runs = {}
        for tag, workers in (("a1", 1), ("b1", 1), ("w8", 8)):
            out = tmp_path / f"{name}_{tag}"
            run_experiment(cfg_fn(out), workers=workers)
            runs[tag] = outputs(out)
        ok = ok and runs["a1"] == runs["b1"] == runs["w8"]
    report("determinism", ok, "byte-identical results at 1 and 8 workers")
