"""Substream keys and re-keyed generators against numpy's own derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.rng import _STREAM_IDS, substream, substreams

STREAMS = st.sampled_from(sorted(_STREAM_IDS))
# single-word seeds at the word edges, and multi-word ones
SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]),
                  st.integers(0, 2**64), st.integers(2**70, 2**200))
PREFIXES = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**100)),
                    max_size=3)
# every case also takes the last indices 0 and 2**32 - 1
LASTS = st.lists(st.integers(0, 2**32 - 1), max_size=16).map(
    lambda last: [0, 2**32 - 1, *last])


def _fresh(seed, stream, *indices):
    key = (_STREAM_IDS[stream], *indices)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, stream=STREAMS, prefix=PREFIXES, last=LASTS)
def test_keys_equal_seed_sequence_keys(seed, stream, prefix, last):
    for t, gen in zip(last, substreams(seed, stream, *prefix, last=last), strict=True):
        expected = np.random.SeedSequence(
            seed, spawn_key=(_STREAM_IDS[stream], *prefix, t)).generate_state(2, np.uint64)
        assert np.array_equal(gen.bit_generator.state["state"]["key"], expected)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, stream=STREAMS, prefix=PREFIXES, last=LASTS,
       n_even=st.integers(1, 3).map(lambda k: 2 * k),
       n_odd=st.integers(0, 3).map(lambda k: 2 * k + 1), n_float64=st.integers(1, 6))
def test_rekeyed_draws_equal_a_fresh_generator(seed, stream, prefix, last,
                                               n_even, n_odd, n_float64):
    # each item starts with 32-bit draws and ends with an odd total of them,
    # so it hands the next item a half-used 32-bit word, a partly used
    # Philox buffer and an advanced counter unless the re-keying resets them
    for t, gen in zip(last, substreams(seed, stream, *prefix, last=last), strict=True):
        fresh = _fresh(seed, stream, *prefix, t)
        for draw in (lambda g: g.random(n_even, dtype=np.float32),
                     lambda g: g.random(n_float64),
                     lambda g: g.standard_exponential(3),
                     lambda g: g.exponential(2.5, size=n_float64),
                     lambda g: g.random(n_odd, dtype=np.float32)):
            assert np.array_equal(draw(gen), draw(fresh))


def test_substream_is_the_one_index_case():
    for seed, stream, indices in [(0, "layout", (0,)), (7, "cell", (30,)),
                                  (2**80 + 3, "net", (9, 2**40, 2**32 - 1))]:
        assert np.array_equal(substream(seed, stream, *indices).random(7),
                              _fresh(seed, stream, *indices).random(7))


def test_generators_of_distinct_substream_calls_are_independent():
    a, b = substream(3, "net", 0, 1), substream(3, "net", 0, 1)
    first = a.random(5)
    assert np.array_equal(b.random(5), first)


def test_last_indices_may_be_any_integer_sequence():
    for last in (range(3, 6), np.arange(3, 6, dtype=np.uint64), [3, 4, 5]):
        draws = [g.random() for g in substreams(4, "net", 1, last=last)]
        assert draws == [_fresh(4, "net", 1, t).random() for t in (3, 4, 5)]
    assert list(substreams(4, "net", 1, last=[])) == []


@pytest.mark.parametrize("call, value", [
    (lambda: substream(-1, "net", 0, 0), "-1"),
    (lambda: substream(1, "net", -2, 0), "-2"),
    (lambda: substream(1, "net", 0, -3), "-3"),
    (lambda: substream(1, "net", 0, 2**32), str(2**32)),
    (lambda: list(substreams(1, "net", 0, last=[5, 2**70])), str(2**70)),
    (lambda: list(substreams(1, "net", 0, last=np.array([1, -4]))), "-4"),
])
def test_out_of_range_seed_and_indices_are_rejected(call, value):
    with pytest.raises(ValueError, match=f"got {value}$"):
        call()


def test_substream_needs_an_index():
    with pytest.raises(ValueError, match="at least one index"):
        substream(1, "net")
