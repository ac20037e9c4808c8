import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from calibration import crossing_calibration, default_calibration
from cransim.cell import (
    Z_95,
    draw_cell_trials,
    mean_halfwidth,
    simulate_trials,
    summarize_cell_point,
    sweep_cell,
    wilson_halfwidth,
)
from cransim.link import SUBFRAME_S, LinkCurves, catalog_from_dict, load_calibration
from cransim.policy import build_policy_tables
from cransim.rng import substream
from oracles import (
    OUTAGE_BOTH,
    OUTAGE_CHANNEL,
    OUTAGE_COMPUTATIONAL,
    OUTAGE_NONE,
    CellTrialConfig,
    run_cell_trial,
)


@pytest.fixture(scope="module")
def curves():
    return load_calibration()


@pytest.fixture(scope="module")
def tables(curves):
    return build_policy_tables(curves)


class StepCurve:
    """Every CB succeeds at exactly ``converge_at`` iterations: the waterfalls
    of the earlier iterations sit at +inf dB, the later ones at -inf dB."""

    def __init__(self, converge_at=4, i_max=8):
        self.i_max = i_max
        mids = tuple(math.inf if i < converge_at else -math.inf for i in range(1, i_max + 1))
        self.catalog = [SimpleNamespace(slopes_per_db=(1.0,) * i_max, midpoints_db=mids)] * 27


def pick_gamma_for(table, mcs_index):
    lo = table.thresholds_db[mcs_index]
    hi = table.thresholds_db[mcs_index + 1]
    return 0.5 * (lo + hi)


def test_trial_stub_curve_computational_outage(tables):
    # hand arithmetic: 2 CBs x 4032 bits x 4 iterations = 32256 > 30000
    cfg = CellTrialConfig(snr_db=10.0, c_max_bit_iter_s=30e6, n_trials=1)
    gamma = pick_gamma_for(tables["MRS"], 10)
    rng = substream(0, "cell", 0)
    tb, mcs, kind = run_cell_trial(cfg, gamma, tables["MRS"], StepCurve(), rng)
    assert mcs.index == 10
    assert tb.effort_bit_iters == 32256
    assert not tb.channel_outage
    assert kind == OUTAGE_COMPUTATIONAL


def test_trial_effort_exactly_at_budget_is_fine(tables):
    cfg = CellTrialConfig(snr_db=10.0, c_max_bit_iter_s=32.256e6, n_trials=1)
    gamma = pick_gamma_for(tables["MRS"], 10)
    rng = substream(0, "cell", 0)
    _, _, kind = run_cell_trial(cfg, gamma, tables["MRS"], StepCurve(), rng)
    assert kind == OUTAGE_NONE  # strict inequality on the budget


def test_trial_infinite_budget_never_computational(tables, curves):
    cfg = CellTrialConfig(snr_db=0.0, n_trials=1)
    rng = substream(1, "cell", 0)
    for gamma in (-30.0, -5.0, 3.0, 15.0, 50.0):
        _, _, kind = run_cell_trial(cfg, gamma, tables["MRS"], curves, rng)
        assert kind in (OUTAGE_NONE, OUTAGE_CHANNEL)


def test_trial_below_floor_uses_fallback(tables, curves):
    cfg = CellTrialConfig(snr_db=0.0, n_trials=1)
    rng = substream(2, "cell", 0)
    tb, mcs, kind = run_cell_trial(cfg, -60.0, tables["MRS"], curves, rng)
    assert mcs.index == 0
    assert tb.channel_outage  # hopeless SNR
    assert tb.effort_bit_iters == mcs.tb_bits * curves.i_max


def test_trial_both_outage_kinds(tables, curves):
    cfg = CellTrialConfig(snr_db=0.0, c_max_bit_iter_s=1e3, n_trials=1)
    rng = substream(3, "cell", 0)
    # hopeless SNR with a tiny budget: channel outage and budget overrun
    _, _, kind = run_cell_trial(cfg, -60.0, tables["MRS"], curves, rng)
    assert kind == OUTAGE_BOTH


def test_simulate_trials_unconstrained_identities(tables, curves):
    rng = substream(10, "cell", 0)
    gamma, u = draw_cell_trials(rng, 10.0, 20_000, curves.max_cbs)
    block = simulate_trials(gamma, tables["MRS"], curves, u)
    (rec,) = summarize_cell_point(10.0, "MRS", (math.inf,), block)
    assert rec.eps_comp == 0.0
    assert rec.eps == rec.eps_channel
    # the effective throughput is the mean delivered rate over all trials,
    # not (1 - eps) * t_raw, the product of two means
    delivered = np.where(block.channel_fail, 0, block.bits) / 1e-3
    assert rec.t_eff_bps == pytest.approx(delivered.mean(), rel=1e-12)
    assert rec.t_eff_hw_bps == pytest.approx(
        Z_95 * delivered.std(ddof=1) / math.sqrt(len(delivered)), rel=1e-9)
    assert rec.eps >= max(rec.eps_channel, rec.eps_comp)
    assert 0.0 <= rec.eps <= 1.0


def test_summarize_no_trials(tables, curves):
    block = simulate_trials(np.empty(0), tables["MRS"], curves, np.empty((curves.max_cbs, 0)))
    (rec,) = summarize_cell_point(0.0, "MRS", (50e6,), block)
    assert rec.n_trials == rec.n_success == 0
    assert rec.eps == rec.eps_channel == rec.eps_comp == 0.0


def test_simulate_trials_matches_scalar_trials(tables, curves):
    # differential oracle: trial i draws its code-block uniforms from a fresh
    # substream, so the vector path's u[i, :c] are the oracle's first c draws
    n = 400
    gamma = np.random.default_rng(21).uniform(-30.0, 40.0, n)
    u = np.array([substream(21, "cell", 0, i).random(curves.max_cbs)
                  for i in range(n)])
    block = simulate_trials(gamma, tables["MRS"], curves, u.T)
    scalar = [
        run_cell_trial(CellTrialConfig(snr_db=0.0), g, tables["MRS"], curves,
                       substream(21, "cell", 0, i))
        for i, g in enumerate(gamma)
    ]
    for i, (tb, mcs, _) in enumerate(scalar):
        assert block.bits[i] == mcs.tb_bits
        assert block.effort[i] == tb.effort_bit_iters
        assert block.channel_fail[i] == tb.channel_outage
    efforts = sorted(tb.effort_bit_iters for tb, _, _ in scalar)
    # a budget equal to a realised effort pins the strict inequality: its
    # per-subframe budget c_max * SUBFRAME_S must be that effort exactly
    median = efforts[len(efforts) // 2]
    c_at_effort = median / SUBFRAME_S
    assert c_at_effort * SUBFRAME_S == median
    for c_max in (c_at_effort, 20e6, math.inf):
        kinds = [
            run_cell_trial(CellTrialConfig(snr_db=0.0, c_max_bit_iter_s=c_max),
                           g, tables["MRS"], curves, substream(21, "cell", 0, i))[2]
            for i, g in enumerate(gamma)
        ]
        (rec,) = summarize_cell_point(0.0, "MRS", (c_max,), block)
        n_tx = n  # below the table floor the lowest MCS is sent
        n_channel = sum(k in (OUTAGE_CHANNEL, OUTAGE_BOTH) for k in kinds)
        n_comp = sum(k in (OUTAGE_COMPUTATIONAL, OUTAGE_BOTH) for k in kinds)
        n_lost = sum(k != OUTAGE_NONE for k in kinds)
        assert rec.n_trials == n_tx
        assert rec.n_success == n_tx - n_lost
        assert rec.eps == n_lost / n_tx
        assert rec.eps_channel == n_channel / n_tx
        assert rec.eps_comp == n_comp / n_tx
        if math.isfinite(c_max):
            assert 0 < n_comp < n_tx  # the budget binds on some trials only


def _curves_and_tables(calibration):
    curves = LinkCurves(*catalog_from_dict(calibration))
    return curves, build_policy_tables(curves)


TRIAL_MODELS = {"default": _curves_and_tables(default_calibration()),
                "crossing": _curves_and_tables(crossing_calibration())}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(TRIAL_MODELS)), policy=st.sampled_from(["MRS", "CAS"]),
       single=st.booleans(),
       snrs=st.lists(st.one_of(st.floats(-40.0, 60.0),
                               st.sampled_from([math.inf, -math.inf])), max_size=80),
       mcs=st.integers(0, 25), seed=st.integers(0, 2**32 - 1))
def test_simulate_trials_matches_oracle_bitwise(name, policy, single, snrs, mcs, seed):
    # the one-sort grouping against the per-MCS gather/scatter loop, with
    # trials below the table floor, +-inf SNRs, empty input and single-MCS blocks
    curves, tables = TRIAL_MODELS[name]
    table = tables[policy]
    rng = np.random.default_rng(seed)
    gamma = np.array(snrs, dtype=float)
    if single:
        lo, hi = table.thresholds_db[mcs], table.thresholds_db[mcs + 1]
        gamma = lo + (hi - lo) * rng.random(len(snrs))
    u = rng.random((curves.max_cbs, len(gamma)))
    got = simulate_trials(gamma, table, curves, u)
    want = oracles.simulate_trials(gamma, table, curves, u.T)
    if single:
        assert len(np.unique(got.bits)) <= 1
    for field in ("bits", "effort", "channel_fail"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), field


def test_decode_stops_once_every_cb_has_decoded(tables, curves, monkeypatch):
    # work count: the elements of the cdf rows the decoder asks for
    evaluated = []
    row = LinkCurves.success_cdf

    def counting(self, *args):
        f = row(self, *args)
        evaluated.append(f.size)
        return f

    monkeypatch.setattr(LinkCurves, "success_cdf", counting)
    n = 20_000
    # high SNR under CAS: nearly every trial decodes at the first iteration
    gamma, u = draw_cell_trials(substream(12, "cell", 0), 30.0, n, curves.max_cbs)
    simulate_trials(gamma, tables["CAS"], curves, u)
    assert sum(evaluated) < curves.i_max * n / 4
    # every CB of every trial fails: all i_max rows for every trial
    evaluated.clear()
    block = simulate_trials(np.full(n, -40.0), tables["CAS"], curves, u)
    assert block.channel_fail.all()
    assert sum(evaluated) == curves.i_max * n


def test_sweep_low_snr_outage_near_one(tables, curves):
    res = sweep_cell([-20.0], tables, curves, n_trials=4000, seed=5,
                     c_max_values=(math.inf,), policies=("MRS", "CAS"))
    for key, records in res.items():
        assert records[0].eps >= 0.9


def test_sweep_deterministic(tables, curves):
    kwargs = dict(
        snr_grid_db=[0.0, 10.0], tables=tables, curves=curves,
        n_trials=2000, seed=99, c_max_values=(math.inf, 50e6),
    )
    a = sweep_cell(**kwargs)
    b = sweep_cell(**kwargs)
    for key in a:
        assert a[key] == b[key]


def test_sweep_grid_indices_match_the_full_sweep(tables, curves):
    # a grid point draws from its own substream, whichever points a call sweeps
    kwargs = dict(tables=tables, curves=curves, n_trials=2000, seed=99,
                  c_max_values=(math.inf, 50e6))
    full = sweep_cell([0.0, 10.0, 20.0], **kwargs)
    part = sweep_cell([0.0, 10.0, 20.0], **kwargs, grid_indices=(2, 0))
    for key, records in full.items():
        assert part[key] == (records[2], records[0])


def test_sweep_rejects_repeated_values(tables, curves):
    # a repeated grid value would write its records more than once
    kwargs = dict(snr_grid_db=[0.0, 10.0], tables=tables, curves=curves, n_trials=20,
                  seed=3, c_max_values=(math.inf, 50e6), policies=("MRS", "CAS"))
    for key, value in (("snr_grid_db", [0.0, 0.0, 10.0]), ("c_max_values", (50e6, 50e6)),
                       ("policies", ("MRS", "MRS"))):
        with pytest.raises(ValueError, match="must not repeat a value"):
            sweep_cell(**dict(kwargs, **{key: value}))


def test_sweep_single_trial_runs(tables, curves):
    res = sweep_cell([10.0], tables, curves, n_trials=1, seed=0,
                     c_max_values=(math.inf,), policies=("MRS",))
    rec = res[("MRS", math.inf)][0]
    assert rec.n_trials == 1


def test_constrained_eps_dominates_unconstrained(tables, curves):
    res = sweep_cell([20.0], tables, curves, n_trials=30_000, seed=11,
                     c_max_values=(math.inf, 50e6), policies=("MRS",))
    un = res[("MRS", math.inf)][0]
    con = res[("MRS", 50e6)][0]
    # same trials: constrained outage can only add computational losses
    assert con.eps >= un.eps
    assert con.eps_channel == un.eps_channel
    assert con.eps_comp > 0.0


def test_complexity_metric_counts_outage_effort(curves, tables):
    res = sweep_cell([20.0], tables, curves, n_trials=30_000, seed=12,
                     c_max_values=(math.inf, 50e6), policies=("MRS",))
    un = res[("MRS", math.inf)][0]
    con = res[("MRS", 50e6)][0]
    # identical trials, fewer successes: per-success effort inflates
    assert con.effort_per_success_bit_iter_s >= un.effort_per_success_bit_iter_s


def test_complexity_inflation_at_every_snr(curves, tables):
    grid = [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0]
    res = sweep_cell(grid, tables, curves, n_trials=20_000, seed=13,
                     c_max_values=(math.inf, 50e6), policies=("MRS",))
    for un, con in zip(res[("MRS", math.inf)], res[("MRS", 50e6)]):
        # same trials and same nominal-effort numerator, denominator can
        # only shrink under the constraint
        assert con.effort_per_success_bit_iter_s >= un.effort_per_success_bit_iter_s


def test_cas_outage_below_mrs_under_constraint(curves, tables):
    # the conservative policy never does worse in the mid-SNR band when the
    # budget binds
    grid = [10.0, 16.0, 22.0, 28.0, 34.0, 40.0]
    res = sweep_cell(grid, tables, curves, n_trials=50_000, seed=14,
                     c_max_values=(50e6,), policies=("MRS", "CAS"))
    for mrs, cas in zip(res[("MRS", 50e6)], res[("CAS", 50e6)]):
        sigma = math.hypot(mrs.eps_hw, cas.eps_hw) / 1.96
        assert cas.eps <= mrs.eps + 3 * sigma


def test_wilson_halfwidth_against_scipy():
    from scipy.stats import binomtest

    for k, n in [(5, 50), (500, 1000), (0, 20), (20, 20)]:
        hw = wilson_halfwidth(k, n)
        ci = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        expected = (ci.high - ci.low) / 2.0
        assert hw == pytest.approx(expected, rel=1e-6, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**20), max_size=40))
def test_mean_halfwidth_matches_exact_arithmetic(values):
    # from the exact sums the helper rounds only where exact rational
    # arithmetic must: it equals the Fraction computation bit for bit
    n = len(values)
    mean, hw = mean_halfwidth(n, sum(values), sum(v * v for v in values))
    if n == 0:
        assert math.isnan(mean) and hw == 0.0
        return
    exact_mean = Fraction(sum(values), n)
    assert mean == float(exact_mean) / SUBFRAME_S
    if n == 1:
        assert hw == 0.0
        return
    var_of_mean = sum((v - exact_mean) ** 2 for v in values) / ((n - 1) * n)
    assert hw == Z_95 * math.sqrt(float(var_of_mean)) / SUBFRAME_S
    x = np.array(values, dtype=np.int64)
    assert mean == pytest.approx(x.mean() / SUBFRAME_S, rel=1e-12)
    assert hw == pytest.approx(Z_95 * np.std(x, ddof=1) / math.sqrt(n) / SUBFRAME_S,
                               rel=1e-9, abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        CellTrialConfig(snr_db=0.0, n_trials=0)
    with pytest.raises(ValueError):
        CellTrialConfig(snr_db=0.0, c_max_bit_iter_s=0.0)
