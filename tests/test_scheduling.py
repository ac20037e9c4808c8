import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.scheduling import (
    CP,
    LP,
    ComplexityBudget,
    _schedule_arrays,
    _SubframeTbs,
    comp_outage_prob,
)
from oracles import (
    CHANNEL_AND_COMPUTATIONAL,
    CHANNEL_OUTAGE,
    COMPUTATIONAL_OUTAGE,
    DECODED,
    schedule_subframe,
)


@dataclass(frozen=True)
class FakeTb:
    effort_bit_iters: float
    channel_outage: bool = False


def cp_budget(c_max, n_cloud, subframe=1.0):
    return ComplexityBudget(CP, c_max, n_cloud, subframe)


def lp_budget(c_max, n_cloud=1, subframe=1.0):
    return ComplexityBudget(LP, c_max, n_cloud, subframe)


def test_budget_units():
    b = ComplexityBudget(CP, 50e6, 8, 1e-3)
    assert b.per_rap_bit_iters == pytest.approx(50_000.0)
    assert b.pooled_bit_iters == pytest.approx(400_000.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        ComplexityBudget("XX", 1.0, 1)
    with pytest.raises(ValueError):
        ComplexityBudget(CP, -1.0, 1)
    with pytest.raises(ValueError):
        ComplexityBudget(CP, 1.0, 0)


def test_zero_budget_drops_everything():
    tbs = [(0, 1.0, FakeTb(5)), (1, 2.0, FakeTb(5))]
    out = schedule_subframe(tbs, cp_budget(0.0, 1))
    assert all(
        d in (COMPUTATIONAL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)
        for d in out.dispositions
    )


def test_cp_hand_trace():
    # exhaustive hand-trace oracle: efforts [10, 20, 40]k, pool 35k
    tbs = [(0, 1.0, FakeTb(10_000)), (1, 2.0, FakeTb(20_000)), (2, 3.0, FakeTb(40_000))]
    out = schedule_subframe(tbs, cp_budget(35_000, 1))
    assert out.dispositions == (DECODED, DECODED, COMPUTATIONAL_OUTAGE)
    assert out.charged == (10_000.0, 20_000.0, 5_000.0)
    assert out.total_effort == 35_000.0
    assert out.budget_remaining == 0.0


def test_exact_budget_is_not_outage():
    tbs = [(0, 1.0, FakeTb(35_000))]
    out = schedule_subframe(tbs, cp_budget(35_000, 1))
    assert out.dispositions == (DECODED,)
    out = schedule_subframe(tbs, lp_budget(35_000))
    assert out.dispositions == (DECODED,)


def test_infinite_budget_defers_to_channel_flags():
    tbs = [
        (0, 1.0, FakeTb(1e12, channel_outage=True)),
        (1, 2.0, FakeTb(1e12, channel_outage=False)),
    ]
    out = schedule_subframe(tbs, cp_budget(math.inf, 2))
    assert out.dispositions == (CHANNEL_OUTAGE, DECODED)


def test_lp_single_tb_over_budget():
    tbs = [(4, 0.0, FakeTb(60_001))]
    out = schedule_subframe(tbs, lp_budget(60_000))
    assert out.dispositions == (COMPUTATIONAL_OUTAGE,)
    assert out.charged == (60_000.0,)


def test_channel_and_computational_combination():
    tbs = [(0, 1.0, FakeTb(50, True)), (1, 2.0, FakeTb(100, True))]
    out = schedule_subframe(tbs, cp_budget(60, 1))
    assert out.dispositions == (CHANNEL_OUTAGE, CHANNEL_AND_COMPUTATIONAL)


def test_low_sinr_processed_first():
    # the high-SINR TB is the one sacrificed regardless of input order
    tbs = [(0, 9.0, FakeTb(30)), (1, 1.0, FakeTb(30))]
    out = schedule_subframe(tbs, cp_budget(40, 1))
    assert out.dispositions == (COMPUTATIONAL_OUTAGE, DECODED)


def test_tie_broken_by_rap_index():
    tbs = [(5, 1.0, FakeTb(30)), (2, 1.0, FakeTb(30))]
    out = schedule_subframe(tbs, cp_budget(40, 1))
    # rap 2 wins the tie, rap 5 overflows
    assert out.dispositions == (COMPUTATIONAL_OUTAGE, DECODED)


def test_dropped_tbs_consume_nothing():
    tbs = [
        (0, 1.0, FakeTb(30)),
        (1, 2.0, FakeTb(50)),
        (2, 3.0, FakeTb(10)),
    ]
    out = schedule_subframe(tbs, cp_budget(40, 1))
    assert out.dispositions == (DECODED, COMPUTATIONAL_OUTAGE, COMPUTATIONAL_OUTAGE)
    assert out.charged == (30.0, 10.0, 0.0)
    assert out.budget_remaining == 0.0


def test_lp_per_rap_independence():
    tbs = [(0, 1.0, FakeTb(80)), (1, 5.0, FakeTb(80)), (1, 4.0, FakeTb(30))]
    out = schedule_subframe(tbs, lp_budget(100))
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
    budget = cp_budget(float(pool), 1)
    out = schedule_subframe(tbs, budget)
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
    cp = schedule_subframe(single, cp_budget(float(pool), 1))
    lp = schedule_subframe(single, lp_budget(float(pool)))
    assert cp.dispositions == lp.dispositions
    assert cp.charged == lp.charged


@settings(max_examples=150, deadline=None)
@given(tb_lists(), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=100))
def test_cp_decoded_set_monotone_in_budget(tbs, pool, extra):
    small = schedule_subframe(tbs, cp_budget(float(pool), 1))
    large = schedule_subframe(tbs, cp_budget(float(pool + extra), 1))
    for d_small, d_large in zip(small.dispositions, large.dispositions):
        if d_small == DECODED:
            assert d_large == DECODED


@settings(max_examples=300, deadline=None)
@given(tb_lists(), st.booleans(), st.data())
def test_schedule_arrays_matches_oracle(tbs, pooled, data):
    # differential oracle for the sweep hot path; LP carries one TB per RAP
    if not pooled:
        tbs = [(rap, sinr, tb) for rap, (_, sinr, tb) in enumerate(tbs)]
    order = sorted(range(len(tbs)), key=lambda i: (tbs[i][1], tbs[i][0]))
    efforts = [tbs[i][2].effort_bit_iters for i in order]
    # zero, exact-fit (a prefix sum under CP, one TB's effort under LP) and
    # unconstrained budgets, plus arbitrary ones
    edges = [0.0, math.inf] + list(itertools.accumulate(efforts)) + efforts
    c_max = data.draw(st.one_of(st.sampled_from(edges),
                                st.integers(0, 400).map(float)))
    budget = cp_budget(c_max, 1) if pooled else lp_budget(c_max)
    arrays = _SubframeTbs(
        raps=np.array([rap for rap, _, _ in tbs]),
        sinr_db=np.array([sinr for _, sinr, _ in tbs]),
        bits=np.zeros(len(tbs), dtype=np.int64),
        efforts=np.array([int(tb.effort_bit_iters) for _, _, tb in tbs]),
        channel_fail=np.array([tb.channel_outage for _, _, tb in tbs]),
    )
    limit = budget.pooled_bit_iters if pooled else budget.per_rap_bit_iters
    decoded, comp = _schedule_arrays(arrays, limit, pooled)
    out = schedule_subframe(tbs, budget)
    assert comp.tolist() == [
        d in (COMPUTATIONAL_OUTAGE, CHANNEL_AND_COMPUTATIONAL) for d in out.dispositions
    ]
    assert decoded.tolist() == [d == DECODED for d in out.dispositions]


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
