import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim import geometry
from cransim.geometry import ChannelParams, cloud_sinrs, draw_subframe, synthesize_layout
from cransim.link import SUBFRAME_S, load_calibration
from cransim.policy import build_policy_tables
from cransim.rng import substream
from cransim.scheduling import (
    CP,
    LP,
    NetworkAccumulator,
    _policy_tbs,
    comp_outage_masks,
    merge_accumulators,
    sweep_network,
)
from oracles import (
    CHANNEL_AND_COMPUTATIONAL,
    CHANNEL_OUTAGE,
    COMPUTATIONAL_OUTAGE,
    DECODED,
    comp_outage_prob,
    schedule_subframe,
)


@dataclass(frozen=True)
class FakeTb:
    effort_bit_iters: float
    channel_outage: bool = False


def test_budget_validation():
    # the library entry point rejects what validate_config rejects for configs
    curves = load_calibration()
    tables = build_policy_tables(curves)
    layout = synthesize_layout(substream(5, "layout", 0), n_total=24, n_cloud=4,
                               region=(0.0, 0.0, 9.0, 9.0), min_sep_km=1.0)
    kwargs = dict(subframes=range(1), seed=11, density_grid=(0.1,))
    with pytest.raises(ValueError, match="LP or CP"):
        sweep_network(layout, ChannelParams(), curves, tables,
                      modes=(LP, "XX"), **kwargs)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_network(layout, ChannelParams(), curves, tables,
                          budget_grid=(10e6, bad), **kwargs)
        with pytest.raises(ValueError, match="nonnegative"):
            sweep_network(layout, ChannelParams(), curves, tables,
                          **dict(kwargs, density_grid=(0.1, bad)))
    empty = synthesize_layout(substream(5, "layout", 0), n_total=24, n_cloud=0,
                              region=(0.0, 0.0, 9.0, 9.0), min_sep_km=1.0)
    with pytest.raises(ValueError, match="n_cloud"):
        sweep_network(empty, ChannelParams(), curves, tables, **kwargs)
    with pytest.raises(ValueError, match="subframes"):
        sweep_network(layout, ChannelParams(), curves, tables, subframes=range(0), seed=11,
                      density_grid=(0.1,))


def test_sweep_network_rejects_repeated_values():
    # a repeated grid value would be swept once, or its arm counted twice
    curves = load_calibration()
    tables = build_policy_tables(curves)
    layout = synthesize_layout(substream(5, "layout", 0), n_total=24, n_cloud=4,
                               region=(0.0, 0.0, 9.0, 9.0), min_sep_km=1.0)
    sweep = partial(sweep_network, layout, ChannelParams(), curves, tables,
                    subframes=range(1), seed=11)
    for repeated in (dict(density_grid=(0.1, 0.1)),
                     dict(density_grid=(0.1,), budget_grid=(10e6, math.inf, 10e6)),
                     dict(density_grid=(0.1,), modes=(CP, CP)),
                     dict(density_grid=(0.1,), policies=("MRS", "CAS", "MRS"))):
        with pytest.raises(ValueError, match="must not repeat a value"):
            sweep(**repeated)


def test_zero_budget_drops_everything():
    tbs = [(0, 1.0, FakeTb(5)), (1, 2.0, FakeTb(5))]
    out = schedule_subframe(tbs, CP, 0.0)
    assert all(
        d in (COMPUTATIONAL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)
        for d in out.dispositions
    )


def test_cp_hand_trace():
    # exhaustive hand-trace oracle: efforts [10, 20, 40]k, pool 35k
    tbs = [(0, 1.0, FakeTb(10_000)), (1, 2.0, FakeTb(20_000)), (2, 3.0, FakeTb(40_000))]
    out = schedule_subframe(tbs, CP, 35_000)
    assert out.dispositions == (DECODED, DECODED, COMPUTATIONAL_OUTAGE)
    assert out.charged == (10_000.0, 20_000.0, 5_000.0)
    assert out.total_effort == 35_000.0
    assert out.budget_remaining == 0.0


def test_exact_budget_is_not_outage():
    tbs = [(0, 1.0, FakeTb(35_000))]
    out = schedule_subframe(tbs, CP, 35_000)
    assert out.dispositions == (DECODED,)
    out = schedule_subframe(tbs, LP, 35_000)
    assert out.dispositions == (DECODED,)


def test_infinite_budget_defers_to_channel_flags():
    tbs = [
        (0, 1.0, FakeTb(1e12, channel_outage=True)),
        (1, 2.0, FakeTb(1e12, channel_outage=False)),
    ]
    out = schedule_subframe(tbs, CP, math.inf)
    assert out.dispositions == (CHANNEL_OUTAGE, DECODED)


def test_lp_single_tb_over_budget():
    tbs = [(4, 0.0, FakeTb(60_001))]
    out = schedule_subframe(tbs, LP, 60_000)
    assert out.dispositions == (COMPUTATIONAL_OUTAGE,)
    assert out.charged == (60_000.0,)


def test_channel_and_computational_combination():
    tbs = [(0, 1.0, FakeTb(50, True)), (1, 2.0, FakeTb(100, True))]
    out = schedule_subframe(tbs, CP, 60)
    assert out.dispositions == (CHANNEL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)


def test_low_sinr_processed_first():
    # the high-SINR TB is the one sacrificed regardless of input order
    tbs = [(0, 9.0, FakeTb(30)), (1, 1.0, FakeTb(30))]
    out = schedule_subframe(tbs, CP, 40)
    assert out.dispositions == (COMPUTATIONAL_OUTAGE, DECODED)


def test_tie_broken_by_rap_index():
    tbs = [(5, 1.0, FakeTb(30)), (2, 1.0, FakeTb(30))]
    out = schedule_subframe(tbs, CP, 40)
    # rap 2 wins the tie, rap 5 overflows
    assert out.dispositions == (COMPUTATIONAL_OUTAGE, DECODED)


def test_dropped_tbs_consume_nothing():
    tbs = [
        (0, 1.0, FakeTb(30)),
        (1, 2.0, FakeTb(50)),
        (2, 3.0, FakeTb(10)),
    ]
    out = schedule_subframe(tbs, CP, 40)
    assert out.dispositions == (DECODED, COMPUTATIONAL_OUTAGE, COMPUTATIONAL_OUTAGE)
    assert out.charged == (30.0, 10.0, 0.0)
    assert out.budget_remaining == 0.0


def test_lp_per_rap_independence():
    tbs = [(0, 1.0, FakeTb(80)), (1, 5.0, FakeTb(80)), (1, 4.0, FakeTb(30))]
    out = schedule_subframe(tbs, LP, 100)
    # rap 0 fits; rap 1 decodes its low-SINR TB then overflows on the other
    assert out.dispositions == (DECODED, COMPUTATIONAL_OUTAGE, DECODED)
    assert out.charged == (80.0, 70.0, 30.0)


@st.composite
def tb_lists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    tbs = []
    for _ in range(n):
        rap = draw(st.integers(min_value=0, max_value=3))
        sinr = draw(st.floats(min_value=-30, max_value=60, allow_nan=False))
        effort = draw(st.integers(min_value=1, max_value=100))
        failed = draw(st.booleans())
        tbs.append((rap, sinr, FakeTb(float(effort), failed)))
    return tbs


@settings(max_examples=300, deadline=None)
@given(tb_lists(), st.integers(min_value=1, max_value=400))
def test_cp_schedule_properties(tbs, pool):
    out = schedule_subframe(tbs, CP, float(pool))
    comp = [
        d in (COMPUTATIONAL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)
        for d in out.dispositions
    ]
    # budget conservation: total consumption never exceeds the pool
    assert out.total_effort <= pool + 1e-9
    processed = sum(
        c for c, is_comp in zip(out.charged, comp) if not is_comp
    )
    assert processed <= pool + 1e-9
    # computational drops form a suffix of the (sinr, rap) ordering
    order = sorted(range(len(tbs)), key=lambda i: (tbs[i][1], tbs[i][0]))
    flags = [comp[i] for i in order]
    assert flags == sorted(flags)
    # dispositions reflect channel flags for everything that fit
    for (rap, sinr, tb), d, is_comp in zip(tbs, out.dispositions, comp):
        if not is_comp:
            assert d == (CHANNEL_OUTAGE if tb.channel_outage else DECODED)


@settings(max_examples=200, deadline=None)
@given(tb_lists(), st.integers(min_value=1, max_value=400))
def test_lp_equals_cp_for_single_rap_pool(tbs, pool):
    # with n_cloud = 1 and all TBs on one RAP, CP and LP agree exactly
    single = [(0, sinr, tb) for _, sinr, tb in tbs]
    cp = schedule_subframe(single, CP, float(pool))
    lp = schedule_subframe(single, LP, float(pool))
    assert cp.dispositions == lp.dispositions
    assert cp.charged == lp.charged


@settings(max_examples=150, deadline=None)
@given(tb_lists(), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=100))
def test_cp_decoded_set_monotone_in_budget(tbs, pool, extra):
    small = schedule_subframe(tbs, CP, float(pool))
    large = schedule_subframe(tbs, CP, float(pool + extra))
    for d_small, d_large in zip(small.dispositions, large.dispositions):
        if d_small == DECODED:
            assert d_large == DECODED


@settings(max_examples=300, deadline=None)
@given(tb_lists(), st.booleans(), st.data())
def test_schedule_arrays_matches_oracle(tbs, pooled, data):
    # differential oracle for the sweep hot path: the whole budget grid in one
    # call, every row checked; LP carries one TB per RAP
    if not pooled:
        tbs = [(rap, sinr, tb) for rap, (_, sinr, tb) in enumerate(tbs)]
    order = sorted(range(len(tbs)), key=lambda i: (tbs[i][1], tbs[i][0]))
    efforts = [tbs[i][2].effort_bit_iters for i in order]
    # zero, exact-fit (a prefix sum under CP, one TB's effort under LP) and
    # unconstrained budgets, plus arbitrary ones
    edges = ([0.0, math.inf] + list(itertools.accumulate(efforts)) + efforts
             + data.draw(st.lists(st.integers(0, 400).map(float), max_size=4)))
    channel_fail = np.array([tb.channel_outage for _, _, tb in tbs])
    comp = comp_outage_masks(
        np.array([rap for rap, _, _ in tbs]),
        np.array([sinr for _, sinr, _ in tbs]),
        np.array([int(tb.effort_bit_iters) for _, _, tb in tbs]),
        edges, pooled, 0,
    )
    assert comp.shape == (len(edges), len(tbs))
    for limit, row in zip(edges, comp):
        out = schedule_subframe(tbs, CP if pooled else LP, limit)
        assert row.tolist() == [
            d in (COMPUTATIONAL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)
            for d in out.dispositions
        ]
        assert (~row & ~channel_fail).tolist() == [
            d == DECODED for d in out.dispositions
        ]


def _one_subframe_parts(sweep, subframes, density_indices=(0,)):
    """``{(density index, subframe): sweep over that subframe alone}``."""
    return {(di, t): sweep(subframes=range(t, t + 1), density_indices=(di,))
            for di in density_indices for t in subframes}


def _assert_merges_to(parts, acc):
    # every field is an exact sum: the parts merged in either order give the
    # bytes of the one-call sweep
    for merged in (merge_accumulators(parts), merge_accumulators(parts[::-1])):
        assert merged.axes == acc.axes
        for f in (f for f in fields(NetworkAccumulator) if f.name != "axes"):
            got, want = getattr(merged, f.name), getattr(acc, f.name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())


def test_sweep_network_matches_oracle():
    # every arm of a small sweep against the scalar scheduler, subframe by
    # subframe; LP gets c_max * SUBFRAME_S per RAP, CP n_cloud times that
    # pooled.  Each subframe is also swept alone, so its delivered bits are
    # checked one by one, and the one-call sweep's sums of squares and LP x CP
    # cross sums are checked against the oracle's per-subframe bits
    curves = load_calibration()
    tables = build_policy_tables(curves)
    layout = synthesize_layout(substream(5, "layout", 0), n_total=24, n_cloud=4,
                               region=(0.0, 0.0, 9.0, 9.0), min_sep_km=1.0)
    params = ChannelParams()
    budgets = (0.0, 10e6, 40e6, math.inf)
    subframes = range(20)
    sweep = partial(sweep_network, layout, params, curves, tables, seed=11,
                    density_grid=(0.3,), budget_grid=budgets)
    acc = sweep(subframes=subframes)
    parts = _one_subframe_parts(sweep, subframes)
    assert acc.axes == ((0.3,), budgets, (LP, CP), ("MRS", "CAS"))
    n_cells = layout.n_cloud
    for pi, policy in enumerate(("MRS", "CAS")):
        sf_bits = np.zeros((len(budgets), 2, len(subframes)), dtype=int)
        n_comp = np.zeros((len(budgets), 2), dtype=int)
        cell_bits = np.zeros((len(budgets), 2, n_cells), dtype=int)
        n_tbs = n_channel = 0
        for ti, t in enumerate(subframes):
            rng = substream(11, "net", 0, t)
            drop = draw_subframe(layout, 0.3, rng)
            targets, sinr = cloud_sinrs(drop, layout, params)
            u = rng.random((len(targets), curves.max_cbs))
            sinr_db = 10.0 * np.log10(sinr)
            tbs = _policy_tbs(sinr_db, tables[policy], curves, u)
            tb_list = [
                (int(rap), float(g), FakeTb(int(e), bool(f)))
                for rap, g, e, f in zip(targets, sinr_db, tbs.efforts, tbs.channel_fail)
            ]
            n_tbs += len(tb_list)
            n_channel += int(tbs.channel_fail.sum())
            for bi, c in enumerate(budgets):
                for mi, limit in enumerate((c * SUBFRAME_S,
                                            n_cells * c * SUBFRAME_S)):
                    out = schedule_subframe(tb_list, (LP, CP)[mi], limit)
                    bits = 0
                    for (rap, _, _), d, b in zip(tb_list, out.dispositions, tbs.bits):
                        n_comp[bi, mi] += d in (COMPUTATIONAL_OUTAGE,
                                                CHANNEL_AND_COMPUTATIONAL)
                        if d == DECODED:
                            bits += int(b)
                            cell_bits[bi, mi, layout.cloud_group.index(rap)] += int(b)
                    sf_bits[bi, mi, ti] = bits
        for ti, t in enumerate(subframes):
            part_bits = parts[0, t].bits_per_cell[0, :, :, pi].sum(axis=-1)
            assert part_bits.tolist() == sf_bits[:, :, ti].tolist()
        assert acc.n_comp[0, :, :, pi].tolist() == n_comp.tolist()
        assert acc.bits_per_cell[0, :, :, pi].tolist() == cell_bits.tolist()
        assert acc.n_tbs[0] == n_tbs and acc.n_channel[0, pi] == n_channel
        assert acc.sumsq_bits[0, :, :, pi].tolist() == (sf_bits ** 2).sum(axis=-1).tolist()
        assert acc.cross_bits[0, :, pi].tolist() == (sf_bits[:, 0] * sf_bits[:, 1]).sum(
            axis=-1).tolist()
        # the grid straddles the outage regime, and pooling changes decisions
        assert n_comp[0].tolist() == [n_tbs, n_tbs] and n_comp[-1].tolist() == [0, 0]
        assert 0 < n_comp[1:-1].sum() < 4 * n_tbs
        assert (n_comp[1:-1, 0] != n_comp[1:-1, 1]).any()
    _assert_merges_to(list(parts.values()), acc)


@settings(max_examples=300, deadline=None)
@given(st.lists(tb_lists() | st.just([]), min_size=1, max_size=5),
       st.lists(st.integers(1, 3), min_size=5, max_size=5), st.data())
def test_block_masks_match_oracle(blocks, gaps, data):
    # one CP call for a block of subframes, checked subframe by subframe:
    # subframe ids with gaps, empty subframes, SINRs that tie across
    # subframes, TBs in any order, and budgets at every per-subframe prefix
    # sum; a RAP carries one TB per subframe, as in a drop
    blocks = [[(rap, float(round(sinr) % 3), tb) for rap, (_, sinr, tb) in enumerate(tbs)]
              for tbs in blocks]
    ids = list(itertools.accumulate(gaps[:len(blocks)]))
    rows = [(sf, rap, sinr, int(tb.effort_bit_iters))
            for sf, tbs in zip(ids, blocks) for rap, sinr, tb in tbs]
    perm = data.draw(st.permutations(range(len(rows))))
    edges = [0.0, math.inf] + data.draw(st.lists(st.integers(0, 400).map(float), max_size=3))
    for tbs in blocks:
        order = sorted(tbs, key=lambda row: (row[1], row[0]))
        edges += itertools.accumulate(tb.effort_bit_iters for _, _, tb in order)
    sf, raps, sinr, efforts = (np.array([rows[i][k] for i in perm], dtype=dtype)
                               for k, dtype in enumerate((int, int, float, int)))
    comp = np.empty((len(edges), len(rows)), dtype=bool)
    comp[:, perm] = comp_outage_masks(raps, sinr, efforts, edges, True, sf)
    for limit, row in zip(edges, comp):
        assert row.tolist() == [
            d in (COMPUTATIONAL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)
            for tbs in blocks for d in schedule_subframe(tbs, CP, limit).dispositions
        ]


def test_block_sweep_matches_oracle(monkeypatch):
    # the block-batched sweep against the scalar scheduler, one subframe at a
    # time: sparse drops leave empty subframes between busy ones, SINRs
    # rounded to 1 dB tie across subframes, and CP budgets sit at exact
    # per-subframe prefix sums.  Each subframe swept alone gives its
    # delivered bits; the block's sums must hold the same bits
    curves = load_calibration()
    tables = build_policy_tables(curves)
    layout = synthesize_layout(substream(5, "layout", 0), n_total=24, n_cloud=4,
                               region=(0.0, 0.0, 9.0, 9.0), min_sep_km=1.0)
    n_cells, seed = layout.n_cloud, 3
    densities, subframes = (0.05, 0.3), range(5, 45)

    def rounded_sinrs(drop, layout, params):
        targets, sinr = cloud_sinrs(drop, layout, params)
        return targets, 10.0 ** (np.round(10.0 * np.log10(sinr)) / 10.0)

    monkeypatch.setattr(geometry, "cloud_sinrs", rounded_sinrs)
    drops = {}  # (density index, policy) -> one TB list per subframe
    params = ChannelParams()
    for di, density in enumerate(densities):
        for t in subframes:
            stream = substream(seed, "net", di, t)
            targets, sinr = rounded_sinrs(draw_subframe(layout, density, stream),
                                          layout, params)
            u = stream.random((len(targets), curves.max_cbs))
            sinr_db = 10.0 * np.log10(sinr)
            for policy in ("MRS", "CAS"):
                tbs = _policy_tbs(sinr_db, tables[policy], curves, u)
                drops.setdefault((di, policy), []).append([
                    (int(rap), float(g), FakeTb(int(e), bool(f)), int(b))
                    for rap, g, e, f, b in zip(targets, sinr_db, tbs.efforts,
                                               tbs.channel_fail, tbs.bits)])
    sizes = [len(tbs) for tbs in drops[0, "MRS"]]
    busy = [i for i, n in enumerate(sizes) if n]
    assert 0 in sizes[busy[0]:busy[-1]]
    ties = {}
    for di, policy in drops:
        for t, tbs in zip(subframes, drops[di, policy]):
            for _, g, _, _ in tbs:
                ties.setdefault((di, policy, g), set()).add(t)
    assert max(len(ts) for ts in ties.values()) > 1
    # budgets whose pooled limit n_cells * c * SUBFRAME_S is exactly the
    # cumulative effort of a prefix of some subframe's CP order
    prefix = sorted({p for tbs_list in drops.values() for tbs in tbs_list
                     for p in itertools.accumulate(
                         tb.effort_bit_iters for _, _, tb, _ in sorted(
                             tbs, key=lambda row: (row[1], row[0])))})
    exact = [p / n_cells / SUBFRAME_S for p in prefix]
    exact = [c for c, p in zip(exact, prefix) if n_cells * c * SUBFRAME_S == p]
    budgets = (0.0, *exact[::max(1, len(exact) // 8)], math.inf)
    assert len(budgets) > 6

    sweep = partial(sweep_network, layout, ChannelParams(), curves, tables, seed=seed,
                    density_grid=densities, budget_grid=budgets)
    acc = sweep(subframes=subframes)
    parts = _one_subframe_parts(sweep, subframes, density_indices=(0, 1))
    n_comp = np.zeros(acc.n_comp.shape, dtype=int)
    sf_bits = {}  # arm -> the oracle's delivered bits per subframe
    for (di, policy), tbs_list in drops.items():
        pi = ("MRS", "CAS").index(policy)
        assert acc.n_tbs[di] == sum(map(len, tbs_list))
        assert acc.n_channel[di, pi] == sum(tb.channel_outage for tbs in tbs_list
                                            for _, _, tb, _ in tbs)
        for (bi, c), (mi, mode) in itertools.product(enumerate(budgets),
                                                     enumerate((LP, CP))):
            arm = (di, bi, mi, pi)
            limit = (n_cells if mode == CP else 1) * c * SUBFRAME_S
            sf_bits[arm], cell_bits = [], [0] * n_cells
            for tbs in tbs_list:
                out = schedule_subframe([row[:3] for row in tbs], mode, limit)
                bits = 0
                for (rap, _, _, b), d in zip(tbs, out.dispositions):
                    n_comp[di, bi, mi, pi] += d in (COMPUTATIONAL_OUTAGE,
                                                    CHANNEL_AND_COMPUTATIONAL)
                    if d == DECODED:
                        bits += b
                        cell_bits[layout.cloud_group.index(rap)] += b
                sf_bits[arm].append(bits)
            assert [parts[di, t].bits_per_cell[arm].sum() for t in subframes] == sf_bits[arm]
            assert acc.bits_per_cell[arm].tolist() == cell_bits
            assert acc.sumsq_bits[arm] == sum(b * b for b in sf_bits[arm])
    for di, bi, pi in np.ndindex(acc.cross_bits.shape):
        lp, cp = sf_bits[di, bi, 0, pi], sf_bits[di, bi, 1, pi]
        assert acc.cross_bits[di, bi, pi] == sum(a * b for a, b in zip(lp, cp))
    assert acc.n_comp.tolist() == n_comp.tolist()
    # the prefix-sum budgets straddle the outage regime under CP
    assert 0 < n_comp[:, 1:-1, 1].sum() < n_comp[:, 0, 1].sum() * (len(budgets) - 2)
    _assert_merges_to(list(parts.values()), acc)


# ---------------------------------------------------------------------------
# pooled outage probability
# ---------------------------------------------------------------------------

def test_comp_outage_two_rap_example():
    dist = ([1, 3], [Fraction(1, 2), Fraction(1, 2)])
    assert comp_outage_prob([dist, dist], 4) == Fraction(1, 4)


def test_comp_outage_deterministic_sum_at_budget():
    dists = [([2], [1.0]), ([3], [1.0])]
    assert comp_outage_prob(dists, 5) == 0.0
    assert comp_outage_prob(dists, 4.999) == 1.0


def test_comp_outage_single_rap_reduces_to_tail():
    dist = ([10, 20, 30], [Fraction(1, 3)] * 3)
    assert comp_outage_prob([dist], 20) == Fraction(1, 3)


def _enumeration_oracle(dists, budget):
    total = 0
    for combo in itertools.product(*[list(zip(*d)) for d in dists]):
        s = sum(v for v, _ in combo)
        p = 1
        for _, q in combo:
            p *= q
        if s > budget:
            total += p
    return total


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_comp_outage_matches_enumeration(data):
    n_raps = data.draw(st.integers(min_value=1, max_value=4))
    dists = []
    for _ in range(n_raps):
        k = data.draw(st.integers(min_value=1, max_value=4))
        values = data.draw(
            st.lists(st.integers(0, 50), min_size=k, max_size=k, unique=True)
        )
        weights = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        total = sum(weights)
        probs = [Fraction(w, total) for w in weights]
        dists.append((values, probs))
    budget = data.draw(st.integers(min_value=0, max_value=120))
    assert comp_outage_prob(dists, budget) == _enumeration_oracle(dists, budget)
