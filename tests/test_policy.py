import math

import numpy as np
import pytest

from calibration import crossing_calibration, default_calibration
from cransim.link import LinkCurves, catalog_from_dict, load_calibration
from cransim.policy import (
    GRID_MAX_DB,
    GRID_MIN_DB,
    GRID_STEP_DB,
    ConfigurationError,
    build_policy_table,
    build_policy_tables,
    select_mcs_index,
    snr_margin,
)
from oracles import cbler, raw_throughput, select_mcs, tb_channel_outage_prob


@pytest.fixture(scope="module")
def curves():
    return load_calibration()


@pytest.fixture(scope="module")
def tables(curves):
    return build_policy_tables(curves)


def table_index(table, gamma_db):
    """The raw table lookup, -1 below the floor (where the policy sends MCS 0)."""
    return np.searchsorted(table.thresholds_db, gamma_db, side="right") - 1


def tb_outage(curves, m, gamma, iters):
    eps_cb = cbler(curves, m, gamma, iters)
    return tb_channel_outage_prob(eps_cb, int(curves.num_cbs[m]))


def test_thresholds_strictly_increasing(tables):
    for table in tables.values():
        t = table.thresholds_db
        assert all(a < b for a, b in zip(t, t[1:]))


def test_threshold_meets_target_and_is_minimal(curves, tables):
    # direct re-evaluation oracle at grid neighbors
    for table in tables.values():
        for m, thr in enumerate(table.thresholds_db):
            assert tb_outage(curves, m, thr, table.iteration_budget) <= 0.1 + 1e-12
            assert tb_outage(curves, m, thr - 0.02, table.iteration_budget) > 0.1


def cbler_thresholds(curves, iteration_budget, eps_hat):
    """The grid search of ``build_policy_table`` on the oracle ``cbler``,
    with the TB outage 1 - (1 - eps_cb)^C in its log1p/expm1 form."""
    grid = GRID_MIN_DB + GRID_STEP_DB * np.arange(
        int(round((GRID_MAX_DB - GRID_MIN_DB) / GRID_STEP_DB)) + 1)
    thresholds = []
    for m in range(len(curves.catalog)):
        eps_cb = cbler(curves, m, grid, iteration_budget)
        with np.errstate(divide="ignore"):
            ok = -np.expm1(int(curves.num_cbs[m]) * np.log1p(-eps_cb)) <= eps_hat
        assert ok.any()
        thresholds.append(float(grid[np.argmax(ok)]))
    return tuple(thresholds)


@pytest.mark.parametrize("eps_hat", [1e-12, 1e-8, 1e-4, 1e-3, 0.01, 0.1, 0.3])
@pytest.mark.parametrize("calibration", [default_calibration, crossing_calibration])
def test_thresholds_match_the_cbler_oracle(calibration, eps_hat):
    # the tables chain success_cdf rows; the oracle takes the running min of
    # the complementary waterfalls: the thresholds agree bit for bit
    curves = LinkCurves(*catalog_from_dict(calibration()))
    for table in build_policy_tables(curves, eps_hat).values():
        assert table.thresholds_db == cbler_thresholds(curves, table.iteration_budget, eps_hat)


def test_mrs_thresholds_not_above_cas(tables):
    t8 = tables["MRS"].thresholds_db
    t2 = tables["CAS"].thresholds_db
    assert all(a <= b for a, b in zip(t8, t2))


def test_eps_hat_one_collapses_to_floor(curves):
    table = build_policy_table(curves, 8, eps_hat=1.0)
    assert all(t == -20.0 for t in table.thresholds_db)


def test_unreachable_target_names_mcs(curves):
    from cransim.link import LinkCurves, catalog_from_dict

    with pytest.raises(ValueError):
        build_policy_table(curves, 8, eps_hat=0.0)
    # a shallow-slope calibration cannot reach the target anywhere on the grid
    data = default_calibration()
    for rec in data["mcs"]:
        rec["waterfall"] = [[0.01, b] for _, b in rec["waterfall"]]
    shallow = LinkCurves(*catalog_from_dict(data))
    with pytest.raises(ConfigurationError, match="MCS 0"):
        build_policy_table(shallow, 8, eps_hat=0.1)


def test_select_mcs_extremes(curves, tables):
    table = tables["MRS"]
    assert select_mcs(table, -100.0) is None
    assert select_mcs(table, 100.0).index == 26
    assert select_mcs(table, math.inf).index == 26
    with pytest.raises(ValueError):
        select_mcs(table, math.nan)


def test_select_mcs_between_thresholds(tables):
    # linear-scan oracle against the searchsorted implementation
    table = tables["MRS"]
    gamma = 0.5 * (table.thresholds_db[10] + table.thresholds_db[11])
    best = None
    for m, thr in enumerate(table.thresholds_db):
        if thr <= gamma:
            best = m
    assert best == 10
    assert select_mcs(table, gamma).index == 10


def test_select_mcs_nondecreasing_in_snr(tables):
    table = tables["CAS"]
    grid = np.linspace(-30, 60, 2000)
    idx = table_index(table, grid)
    assert np.all(np.diff(idx) >= 0)


def test_select_mcs_index_fallback(tables):
    table = tables["MRS"]
    idx = select_mcs_index(table, np.array([-100.0, 100.0]))
    assert list(idx) == [0, 26]


def test_raw_throughput_values(curves):
    assert raw_throughput(curves.catalog[11]) == pytest.approx(9.216e6)
    assert raw_throughput(curves.catalog[26]) == pytest.approx(33.024e6)
    assert raw_throughput(None) == 0.0


def test_snr_margin_report(tables):
    report = snr_margin(tables["CAS"], tables["MRS"])
    margins = np.array(report)
    assert np.all(margins >= 0.0)
    assert np.all(margins <= 3.0)
    # recompute from the shipped calibration: margins match the per-band
    # midpoint offsets up to one 0.01 dB grid step
    expected = np.array([1.9] * 10 + [1.0] + [2.0] * 16)
    assert np.all(np.abs(margins - expected) < 0.011)


def test_snr_margin_identical_tables(tables):
    report = snr_margin(tables["MRS"], tables["MRS"])
    assert all(m == 0.0 for m in report)


def test_mrs_rate_dominates_cas_pointwise(curves, tables):
    grid = np.linspace(-30, 60, 1500)
    mrs = table_index(tables["MRS"], grid)
    cas = table_index(tables["CAS"], grid)
    tb = np.concatenate([[0], curves.tb_bits])  # -1 maps to 0 bits
    assert np.all(tb[mrs + 1] >= tb[cas + 1])


def test_constraint_satisfaction_analytic(curves, tables):
    # any SNR at or above its selected threshold meets the outage target
    rng = np.random.default_rng(2024)
    for name, table in tables.items():
        gammas = rng.uniform(table.thresholds_db[0], 60.0, 10_000)
        idx = table_index(table, gammas)
        for m in range(27):
            rows = gammas[idx == m]
            if len(rows) == 0:
                continue
            worst = rows.min()
            assert tb_outage(curves, m, worst, table.iteration_budget) <= 0.1 + 1e-12


def test_constraint_satisfaction_empirical(curves, tables):
    # simulate TBs at the selected MCS and count outages after the budgeted
    # number of iterations
    from cransim.link import simulate_cbs

    rng = np.random.default_rng(77)
    n_tb = 10_000
    for name, table in tables.items():
        budget = table.iteration_budget
        for gamma in rng.uniform(table.thresholds_db[0], 45.0, 30):
            m = select_mcs(table, gamma).index
            c = int(curves.num_cbs[m])
            u = rng.random((n_tb, c))
            iters, failed = simulate_cbs(curves, m, np.full(n_tb, gamma), u.T)
            # failure within the iteration budget: success requires all CBs
            # decoded in at most `budget` iterations
            late = iters > budget
            tb_fail = (failed | late).any(axis=0)
            p = tb_fail.mean()
            sigma = math.sqrt(0.1 * 0.9 / n_tb)
            assert p <= 0.1 + 3 * sigma
