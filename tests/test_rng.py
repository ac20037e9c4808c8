"""Substream keys against numpy's own SeedSequence derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.rng import _STREAM_IDS, substream

STREAMS = st.sampled_from(sorted(_STREAM_IDS))
# single-word seeds at the word edges, and multi-word ones
SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32]),
                  st.integers(0, 2**64), st.integers(2**70, 2**200))
INDICES = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**100)),
                   min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, stream=STREAMS, indices=INDICES)
def test_keys_equal_seed_sequence_keys(seed, stream, indices):
    # the cell and layout bytes depend on this key: the one numpy's Philox
    # takes from the SeedSequence of (stream id, *indices), counter at zero
    state = substream(seed, stream, *indices).bit_generator.state["state"]
    expected = np.random.SeedSequence(
        seed, spawn_key=(_STREAM_IDS[stream], *indices)).generate_state(2, np.uint64)
    assert np.array_equal(state["key"], expected)
    assert not state["counter"].any()


def test_generators_of_distinct_substream_calls_are_independent():
    a, b = substream(3, "net", 0, 1), substream(3, "net", 0, 1)
    first = a.random(5)
    assert np.array_equal(b.random(5), first)


@pytest.mark.parametrize("call, value", [
    (lambda: substream(-1, "net", 0, 0), "-1"),
    (lambda: substream(1, "net", -2, 0), "-2"),
    (lambda: substream(1, "net", 0, -3), "-3"),
    (lambda: substream(1, "net", 0, np.int64(-4)), "-4"),
])
def test_out_of_range_seed_and_indices_are_rejected(call, value):
    with pytest.raises(ValueError, match=f"got {value}$"):
        call()


def test_substream_needs_an_index():
    with pytest.raises(ValueError, match="at least one index"):
        substream(1, "net")
