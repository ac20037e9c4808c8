import json
import math
import warnings
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

import oracles
from calibration import crossing_calibration, default_calibration
from cransim.link import (
    CalibrationError,
    LinkCurves,
    catalog_from_dict,
    load_calibration,
    segment_tb,
    simulate_cbs,
    simulate_tb_batch,
)
from oracles import cbler, iteration_pmf, simulate_tb, tb_channel_outage_prob


@pytest.fixture(scope="module")
def curves():
    return load_calibration()


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_segment_tb_examples():
    assert segment_tb(8064) == (2, [4032, 4032])
    assert segment_tb(6144) == (1, [6144])
    assert segment_tb(13000) == (3, [4334, 4333, 4333])
    assert segment_tb(1) == (1, [1])
    assert segment_tb(6145) == (2, [3073, 3072])


def test_segment_tb_rejects_nonpositive():
    with pytest.raises(ValueError):
        segment_tb(0)


@given(st.integers(min_value=1, max_value=2_000_000))
def test_segment_tb_properties(tb):
    n, cbs = segment_tb(tb)
    assert n == math.ceil(tb / 6144)
    assert sum(cbs) == tb
    assert max(cbs) - min(cbs) <= 1
    assert all(c <= 6144 for c in cbs)


def test_segmentation_conserves_bits_for_all_mcs(curves):
    for entry in curves.catalog:
        n, cbs = segment_tb(entry.tb_bits)
        assert sum(cbs) == entry.tb_bits


# ---------------------------------------------------------------------------
# outage algebra
# ---------------------------------------------------------------------------

def test_tb_channel_outage_examples():
    assert tb_channel_outage_prob(0.0, 5) == 0.0
    assert abs(tb_channel_outage_prob(0.1, 2) - 0.19) < 1e-12
    assert tb_channel_outage_prob(0.25, 1) == 0.25
    assert tb_channel_outage_prob(1.0, 3) == 1.0


def test_tb_channel_outage_domain_errors():
    with pytest.raises(ValueError):
        tb_channel_outage_prob(-0.01, 2)
    with pytest.raises(ValueError):
        tb_channel_outage_prob(1.01, 2)
    with pytest.raises(ValueError):
        tb_channel_outage_prob(0.5, 0)


@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=40),
)
def test_tb_channel_outage_matches_complement_product(eps, c):
    # oracle: multiply the survival probability factor by factor
    survive = 1.0
    for _ in range(c):
        survive *= 1.0 - eps
    assert tb_channel_outage_prob(eps, c) == pytest.approx(1.0 - survive, abs=1e-12)


# ---------------------------------------------------------------------------
# CBLER curves
# ---------------------------------------------------------------------------

def test_cbler_basic_shape(curves):
    assert cbler(curves, 0, -50.0, 8) > 0.999
    assert cbler(curves, 0, 50.0, 8) < 1e-6
    assert cbler(curves, 12, 5.0, 0) == 1.0


def test_cbler_monotone_in_snr_and_iterations(curves):
    grid = np.linspace(-30, 60, 301)
    for m in range(27):
        prev = np.ones_like(grid)
        for i in range(1, curves.i_max + 1):
            vals = cbler(curves, m, grid, i)
            assert np.all(np.diff(vals) <= 1e-15), f"MCS {m} iter {i} not monotone in SNR"
            assert np.all(vals <= prev + 1e-15), f"MCS {m} iter {i} not monotone in i"
            prev = vals


def test_cbler_degenerate_snr(curves):
    assert cbler(curves, 5, math.inf, 3) == 0.0
    assert cbler(curves, 5, -math.inf, 3) == 1.0
    with pytest.raises(ValueError):
        cbler(curves, 5, math.nan, 3)


def test_midpoints_strictly_decreasing(curves):
    for entry in curves.catalog:
        mids = entry.midpoints_db
        assert all(mids[i] > mids[i + 1] for i in range(len(mids) - 1))


# ---------------------------------------------------------------------------
# iteration pmf
# ---------------------------------------------------------------------------

class _TabularCurve:
    """Stub curve whose CBLER after i iterations is ``values[i]`` at 0 dB:
    unit-slope waterfalls with midpoints logit(values[i])."""

    def __init__(self, values):
        self.i_max = len(values) - 1
        with np.errstate(divide="ignore"):
            mids = tuple(logit(values[1:]))
        self.catalog = [SimpleNamespace(slopes_per_db=(1.0,) * self.i_max, midpoints_db=mids)]


def test_iteration_pmf_hand_case():
    # telescoping-difference oracle: cbler = [1, 0.6, 0.3, 0.1]
    curve = _TabularCurve([1.0, 0.6, 0.3, 0.1])
    pmf, p_fail = iteration_pmf(curve, 0, 0.0)
    assert p_fail == pytest.approx(0.1)
    assert pmf == pytest.approx([0.4 / 0.9, 0.3 / 0.9, 0.2 / 0.9])
    assert pmf.sum() == pytest.approx(1.0)


def test_iteration_pmf_instant_convergence():
    curve = _TabularCurve([1.0, 0.0, 0.0, 0.0])
    pmf, p_fail = iteration_pmf(curve, 0, 0.0)
    assert p_fail == 0.0
    assert pmf == pytest.approx([1.0, 0.0, 0.0])


def test_iteration_pmf_degenerate(curves):
    pmf, p_fail = iteration_pmf(curves, curves.catalog[3], -math.inf)
    assert pmf is None
    assert p_fail == 1.0


def test_iteration_pmf_sums_to_one(curves):
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(0, 27))
        gamma = float(rng.uniform(-10, 40))
        pmf, p_fail = iteration_pmf(curves, curves.catalog[m], gamma)
        if pmf is not None:
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(pmf >= -1e-15)


def test_crossing_success_probabilities(curves):
    # success within 2 iterations of MCS 10 equals success within 8 of
    # MCS 11 (both 0.75) at the calibrated crossing SNR
    gamma = 6.0 + math.log(3.0) / 4.0
    assert 1.0 - cbler(curves, 10, gamma, 2) == pytest.approx(0.75, abs=1e-9)
    assert 1.0 - cbler(curves, 11, gamma, 8) == pytest.approx(0.75, abs=1e-9)


# ---------------------------------------------------------------------------
# TB simulation
# ---------------------------------------------------------------------------

def test_simulate_tb_saturated_snr(curves):
    rng = np.random.default_rng(0)
    entry = curves.catalog[26]
    tb = simulate_tb(entry, curves, math.inf, rng)
    assert not tb.channel_outage
    assert all(i == 1 for i in tb.cb_iters)
    assert tb.effort_bit_iters == entry.tb_bits


def test_simulate_tb_hopeless_snr(curves):
    rng = np.random.default_rng(0)
    entry = curves.catalog[26]
    tb = simulate_tb(entry, curves, -math.inf, rng)
    assert tb.channel_outage
    assert all(i == curves.i_max for i in tb.cb_iters)
    assert tb.effort_bit_iters == entry.tb_bits * curves.i_max


def test_simulate_tb_invariants(curves):
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(0, 27))
        entry = curves.catalog[m]
        gamma = float(rng.uniform(-10, 40))
        tb = simulate_tb(entry, curves, gamma, rng)
        assert sum(tb.cb_bits) == entry.tb_bits
        assert tb.channel_outage == any(tb.cb_failed)
        for failed, iters in zip(tb.cb_failed, tb.cb_iters):
            if failed:
                assert iters == curves.i_max
        assert tb.effort_bit_iters <= entry.tb_bits * curves.i_max
        if tb.effort_bit_iters == entry.tb_bits * curves.i_max:
            assert all(i == curves.i_max for i in tb.cb_iters)
        assert tb.effort_bit_iters >= tb.num_cbs * min(tb.cb_bits)


def test_simulate_tb_rejects_nan(curves):
    with pytest.raises(ValueError):
        simulate_tb(curves.catalog[0], curves, math.nan, np.random.default_rng(0))


def test_batch_mean_effort_matches_analytic_expectation(curves):
    # analytic-expectation oracle: E[effort] = sum_r K_r * E[I_r] from the pmf
    rng = np.random.default_rng(123)
    n = 200_000
    for m, gamma in [(10, 5.9), (26, 22.3), (3, -1.0)]:
        entry = curves.catalog[m]
        pmf, p_fail = iteration_pmf(curves, entry, gamma)
        ii = np.arange(1, curves.i_max + 1)
        e_iters = (1.0 - p_fail) * float(pmf @ ii) + p_fail * curves.i_max
        expected = entry.tb_bits * e_iters
        # per-CB iteration variance bounds the standard error of the mean
        e2 = (1.0 - p_fail) * float(pmf @ ii ** 2) + p_fail * curves.i_max ** 2
        var_cb = e2 - e_iters ** 2
        _, cb_bits = segment_tb(entry.tb_bits)
        var_tb = sum(k * k * var_cb for k in cb_bits)
        u = rng.random((n, curves.max_cbs))
        effort, _ = simulate_tb_batch(curves, m, np.full(n, gamma), u.T)
        se = math.sqrt(var_tb / n)
        assert abs(effort.mean() - expected) < 3.0 * se


def test_batch_matches_scalar_path(curves):
    gamma = 7.3
    m = 12
    ss = np.random.SeedSequence(99)
    rng_a = np.random.Generator(np.random.Philox(ss))
    rng_b = np.random.Generator(np.random.Philox(ss))
    n_cbs = int(curves.num_cbs[m])
    tb = simulate_tb(curves.catalog[m], curves, gamma, rng_a)
    u = rng_b.random(n_cbs).reshape(n_cbs, 1)
    effort, fail = simulate_tb_batch(curves, m, np.array([gamma]), u)
    iters, _ = simulate_cbs(curves, m, np.array([gamma]), u)
    assert effort[0] == tb.effort_bit_iters
    assert bool(fail[0]) == tb.channel_outage
    assert tuple(iters[:, 0]) == tb.cb_iters


# ---------------------------------------------------------------------------
# calibration file handling
# ---------------------------------------------------------------------------

def test_default_calibration_round_trip(tmp_path):
    data = default_calibration()
    path = tmp_path / "cal.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    curves = load_calibration(path)
    assert len(curves.catalog) == 27
    assert curves.catalog[10].tb_bits == 8064
    assert curves.catalog[11].tb_bits == 9216


def test_generator_reproduces_shipped_calibration():
    shipped = resources.files("cransim.data").joinpath("default_calibration.json")
    generated = json.dumps(default_calibration(), indent=2, sort_keys=True) + "\n"
    assert generated == shipped.read_text()


def test_catalog_modulation_bands(curves):
    for entry in curves.catalog:
        if entry.index <= 10:
            assert entry.modulation == "QPSK"
        elif entry.index <= 20:
            assert entry.modulation == "QAM16"
        else:
            assert entry.modulation == "QAM64"


def test_tb_bits_strictly_increasing(curves):
    tb = [e.tb_bits for e in curves.catalog]
    assert all(a < b for a, b in zip(tb, tb[1:]))
    assert tb[-1] == 33024


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["mcs"][10].__setitem__("tb_bits", 8000), "anchor"),
        (lambda d: d["mcs"][5].__setitem__("modulation", "QAM64"), "modulation"),
        (lambda d: d["mcs"][3].__setitem__("tb_bits", 10_000_000), "increasing"),
        (lambda d: d["mcs"][7]["waterfall"].__setitem__(2, [4.0, 50.0]), "decreasing"),
        (lambda d: d["mcs"].pop(), "27"),
    ],
)
def test_loader_rejects_invalid_calibrations(mutate, message):
    data = default_calibration()
    mutate(data)
    with pytest.raises(CalibrationError, match=message):
        catalog_from_dict(data)


def cdf_rows(curves, m, gamma):
    """Rows 1..i_max of ``success_cdf``, each on the row before it as its
    floor, stacked along a last axis."""
    rows, f = [], None
    for i in range(1, curves.i_max + 1):
        f = curves.success_cdf(m, gamma, i, f)
        rows.append(f)
    return np.stack(rows, axis=-1)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=26), st.floats(-20, 50))
def test_success_cdf_is_nondecreasing(m, gamma):
    curves = load_calibration()
    cdf = cdf_rows(curves, m, np.array([gamma]))[0]
    assert 0.0 <= cdf[0] and cdf[-1] <= 1.0
    assert np.all(np.diff(cdf) >= 0.0)


def test_success_cdf_rejects_nan(curves):
    with pytest.raises(ValueError):
        curves.success_cdf(3, np.array([1.0, math.nan]), 1)


# ---------------------------------------------------------------------------
# the row kernel and the iteration-by-iteration decoder against their
# trial-major oracles, bit for bit
# ---------------------------------------------------------------------------

CURVE_SETS = {
    "default": LinkCurves(*catalog_from_dict(default_calibration())),
    "crossing": LinkCurves(*catalog_from_dict(crossing_calibration())),
}

snr_lists = st.lists(
    st.one_of(st.floats(-40.0, 60.0), st.sampled_from([math.inf, -math.inf])),
    max_size=40,
)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_crossing_calibration_binds_the_running_max():
    curves = CURVE_SETS["crossing"]
    for entry in curves.catalog:
        g = entry.midpoints_db[1] - 1.0
        raw = expit(np.multiply(entry.slopes_per_db, g - np.array(entry.midpoints_db)))
        assert raw[0] > raw[1]
        f1 = curves.success_cdf(entry.index, g, 1)
        f2 = curves.success_cdf(entry.index, g, 2, f1)
        assert f2 == f1 == raw[0]


def test_logistic_within_4_ulps_of_expit():
    # row 1 of MCS 0 with slope 1 and midpoint 0 is the bare logistic of the
    # SNR; numpy's exp and scipy's expit may round differently, by a few ulps
    data = default_calibration()
    data["mcs"][0]["waterfall"][0] = [1.0, 0.0]
    curves = LinkCurves(*catalog_from_dict(data))
    x = np.concatenate([np.linspace(-800.0, 800.0, 1_600_001), [0.0, math.inf, -math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # exp overflows silently to 0 success
        got = curves.success_cdf(0, x, 1)
    want = expit(x)
    assert got[-3:].tolist() == [0.5, 1.0, 0.0]
    assert got.min() == 0.0 and got.max() == 1.0
    # both lie in [0, 1], where the ulp distance is the difference of the bit patterns
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CURVE_SETS)), gamma=snr_lists, data=st.data())
def test_success_cdf_matches_oracle_bitwise(name, gamma, data):
    curves = CURVE_SETS[name]
    g = np.array(gamma, dtype=float)
    scalar_m = data.draw(st.integers(0, 26))
    vector_m = np.array(
        data.draw(st.lists(st.integers(0, 26), min_size=len(g), max_size=len(g))),
        dtype=np.int64,
    )
    g0 = g[0] if len(g) else 0.0
    for m, snr in ((scalar_m, g), (vector_m, g), (scalar_m, g0), (vector_m, g0)):
        assert_bitwise(cdf_rows(curves, m, snr), oracles.success_cdf(curves, m, snr)[..., 1:])


def decode_oracle(curves, m, gamma, u):
    """``simulate_cbs`` by the oracles: the whole trial-major cdf, then
    ``cb_outcomes``, handed back CB-major."""
    iters, failed = oracles.cb_outcomes(oracles.success_cdf(curves, m, gamma), u.T)
    return iters.T, failed.T


def halving_finish_rows(n, i_max):
    """Iteration at which each of ``n`` trials finishes (i_max + 1: it
    fails) such that after every row fewer than half of the trials still
    live remain: n_i = (n_{i-1} - 1) // 2 trials outlive row i."""
    rows = np.ones(n, dtype=np.int64)
    live = n
    for i in range(1, i_max + 1):
        live = max((live - 1) // 2, 0)
        rows[:live] += 1
    return rows


def cbs_finishing_at(curves, m, gamma, rows, n_cbs, rng):
    """CB-major uniforms whose trial t finishes at iteration ``rows[t]``:
    one CB sits exactly on F(rows[t]) (above F(i_max) when it fails), the
    others at or below F(1)."""
    cdf = oracles.success_cdf(curves, m, gamma)
    n = len(gamma)
    u = rng.random((n_cbs, n)) * cdf[:, 1]
    top = np.minimum(rows, curves.i_max)
    fails = rows > curves.i_max
    u[0] = cdf[np.arange(n), top]
    u[0, fails] = 0.5 * (1.0 + cdf[fails, curves.i_max])
    return u


REGIMES = ("random", "halving", "decode_at_1", "all_fail")


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(CURVE_SETS)), gamma=snr_lists,
       regime=st.sampled_from(REGIMES), per_trial=st.booleans(),
       n_cbs=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_simulate_cbs_matches_oracle_bitwise(name, gamma, regime, per_trial, n_cbs, seed):
    # scalar MCS, or one MCS per trial over all max_cbs slots with the padded
    # ones decoded too (as _policy_tbs passes them); +-inf SNRs, empty input,
    # the crossing calibration, and trial sets on which the decoder drops
    # trials after every row, never, stops after row 1, or runs to i_max
    curves = CURVE_SETS[name]
    rng = np.random.default_rng(seed)
    n = len(gamma)
    m = rng.integers(0, 27, n) if per_trial else int(rng.integers(0, 27))
    if per_trial:
        n_cbs = curves.max_cbs
    g = np.array(gamma, dtype=float)
    if regime == "random":
        u = rng.random((n_cbs, n))
        # ties: about a third of the uniforms equal a value of their trial's cdf
        cdf = oracles.success_cdf(curves, m, g)
        tie = rng.random(u.shape) < 0.3
        u[tie] = cdf[np.arange(n), rng.integers(0, curves.i_max + 1, u.shape)][tie]
    elif regime == "halving":
        mids = np.array([e.midpoints_db for e in curves.catalog])
        g = np.broadcast_to(mids[m, 3], n).copy()
        rows = rng.permutation(halving_finish_rows(n, curves.i_max))
        u = cbs_finishing_at(curves, m, g, rows, n_cbs, rng)
    else:
        g = np.full(n, math.inf if regime == "decode_at_1" else -math.inf)
        u = rng.random((n_cbs, n))
    got = simulate_cbs(curves, m, g, u)
    for a, b in zip(got, decode_oracle(curves, m, g, u)):
        assert_bitwise(a, b)
    if regime == "decode_at_1":
        assert np.all(got[0] == 1) and not got[1].any()
    if regime == "all_fail":
        assert np.all(got[0] == curves.i_max) and got[1].all()


class CountingCurves:
    """``LinkCurves`` whose ``success_cdf`` records the length of every row
    it evaluates."""

    def __init__(self, curves):
        self.curves, self.i_max, self.row_lengths = curves, curves.i_max, []

    def success_cdf(self, *args):
        f = self.curves.success_cdf(*args)
        self.row_lengths.append(f.size)
        return f


def test_simulate_cbs_drops_trials_once_fewer_than_half_are_live():
    curves = CURVE_SETS["default"]
    n, m = 64, 10
    g = np.full(n, curves.catalog[m].midpoints_db[3])
    # the rows are strictly increasing here, so each trial finishes exactly
    # at its row
    assert np.all(np.diff(oracles.success_cdf(curves, m, g[:1])[0]) > 0)
    rows = np.random.default_rng(5).permutation(halving_finish_rows(n, curves.i_max))
    u = cbs_finishing_at(curves, m, g, rows, 2, np.random.default_rng(6))
    counting = CountingCurves(curves)
    iters, failed = simulate_cbs(counting, m, g, u)
    assert counting.row_lengths == [64, 31, 15, 7, 3, 1]
    assert np.array_equal(iters.max(axis=0), rows) and not failed.any()
    for a, b in zip((iters, failed), decode_oracle(curves, m, g, u)):
        assert_bitwise(a, b)
    # where the running max binds, the trials kept after a drop carry their
    # floor: the crossing calibration just below its row-2 midpoint
    crossing = CURVE_SETS["crossing"]
    g2 = np.full(n, crossing.catalog[m].midpoints_db[1] - 0.2)
    u2 = cbs_finishing_at(crossing, m, g2, rows, 2, np.random.default_rng(7))
    counting2 = CountingCurves(crossing)
    got = simulate_cbs(counting2, m, g2, u2)
    assert counting2.row_lengths[1] < n
    for a, b in zip(got, decode_oracle(crossing, m, g2, u2)):
        assert_bitwise(a, b)
    # a trial set that is never under half live is never cut down
    counting.row_lengths.clear()
    u[0] = 0.5 * (1.0 + oracles.success_cdf(curves, m, g)[:, -1])
    simulate_cbs(counting, m, g, u)
    assert counting.row_lengths == [n] * curves.i_max
