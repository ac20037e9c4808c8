import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

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
from oracles import iteration_pmf, simulate_tb, tb_channel_outage_prob


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
    assert curves.cbler(0, -50.0, 8) > 0.999
    assert curves.cbler(0, 50.0, 8) < 1e-6
    assert curves.cbler(12, 5.0, 0) == 1.0


def test_cbler_monotone_in_snr_and_iterations(curves):
    grid = np.linspace(-30, 60, 301)
    for m in range(27):
        prev = np.ones_like(grid)
        for i in range(1, curves.i_max + 1):
            vals = curves.cbler(m, grid, i)
            assert np.all(np.diff(vals) <= 1e-15), f"MCS {m} iter {i} not monotone in SNR"
            assert np.all(vals <= prev + 1e-15), f"MCS {m} iter {i} not monotone in i"
            prev = vals


def test_cbler_degenerate_snr(curves):
    assert curves.cbler(5, math.inf, 3) == 0.0
    assert curves.cbler(5, -math.inf, 3) == 1.0
    with pytest.raises(ValueError):
        curves.cbler(5, math.nan, 3)


def test_midpoints_strictly_decreasing(curves):
    for entry in curves.catalog:
        mids = entry.midpoints_db
        assert all(mids[i] > mids[i + 1] for i in range(len(mids) - 1))


# ---------------------------------------------------------------------------
# iteration pmf
# ---------------------------------------------------------------------------

class _TabularCurve:
    """Stub curve with hand-set per-iteration CBLER values."""

    def __init__(self, values):
        self.values = values
        self.i_max = len(values) - 1

    def cbler(self, mcs_index, gamma_db, iters):
        return self.values[iters]


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
    assert 1.0 - curves.cbler(10, gamma, 2) == pytest.approx(0.75, abs=1e-9)
    assert 1.0 - curves.cbler(11, gamma, 8) == pytest.approx(0.75, abs=1e-9)


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
        effort, _, _ = simulate_tb_batch(curves, m, np.full(n, gamma), u)
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
    u = rng_b.random(n_cbs).reshape(1, n_cbs)
    effort, fail, iters = simulate_tb_batch(curves, m, np.array([gamma]), u)
    assert effort[0] == tb.effort_bit_iters
    assert bool(fail[0]) == tb.channel_outage
    assert tuple(iters[0]) == tb.cb_iters


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


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=26), st.floats(-20, 50))
def test_success_cdf_is_nondecreasing(m, gamma):
    curves = load_calibration()
    cdf = curves.success_cdf(m, np.array([gamma]))[0]
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= -1e-15)


# ---------------------------------------------------------------------------
# iteration-major kernels against their trial-major oracles, bit for bit
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
        cdf = curves.success_cdf(entry.index, g)
        assert cdf[2] == cdf[1] == raw[0]


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
        assert_bitwise(curves.success_cdf(m, snr), oracles.success_cdf(curves, m, snr))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CURVE_SETS)), gamma=snr_lists,
       n_cbs=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_simulate_cbs_matches_oracle_bitwise(name, gamma, n_cbs, seed):
    curves = CURVE_SETS[name]
    rng = np.random.default_rng(seed)
    cdf = curves.success_cdf(rng.integers(0, 27, len(gamma)), np.array(gamma, dtype=float))
    u = rng.random((len(gamma), n_cbs))
    # ties: about a third of the uniforms equal a value of their trial's cdf
    tie = rng.random(u.shape) < 0.3
    cols = rng.integers(0, curves.i_max + 1, u.shape)
    u[tie] = np.take_along_axis(cdf, cols, axis=1)[tie]
    cases = [(cdf, u), (np.ascontiguousarray(cdf), u)]
    if len(gamma):
        cases.append((cdf[0], u[0]))
    for c, draws in cases:
        for got, want in zip(simulate_cbs(c, draws), oracles.cb_outcomes(c, draws)):
            assert_bitwise(got, want)
