"""Deterministic substream derivation for parallel sweeps.

Every random draw in the package comes from a counter-based Philox
generator with the key that ``Philox(SeedSequence(seed,
spawn_key=(stream_id, *indices)))`` gets, e.g. for ``(seed, "cell",
gamma_index)`` or ``(seed, "net", density_index, subframe_index)``.
Substreams are therefore a pure function of the root seed and the logical
coordinates of the work item, never of worker count or scheduling order,
which makes sweep outputs byte-identical for any degree of parallelism.

A Philox stream needs only its 128-bit key (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so ``substreams`` derives the keys of
many items that differ only in their last index in one numpy pass, bit for
bit as ``SeedSequence`` does:

- the pool of ``SeedSequence(seed, spawn_key=(stream_id, *prefix))`` has
  absorbed every entropy word but the last index; after n words its hash
  constant is ``INIT_A * MULT_A ** (4 * n)`` (mod 2**32);
- the last index, one 32-bit word, is hashed and mixed into each of the four
  pool words in uint32 arithmetic, vectorized over the indices;
- ``generate_state(2, np.uint64)`` runs on the mixed pools, and each uint64
  key word is assembled as ``lo | hi << 32``, independent of byte order.

``substreams`` yields one ``Generator`` and re-keys its Philox in place for
each index (key set, counter zeroed, buffer emptied, no half-used 32-bit
word), so an item's generator is valid only until the next item is drawn.
``substream`` is the one-index case.
"""

from __future__ import annotations

import numpy as np

# Fixed identifiers for the package's independent stream families.
_STREAM_IDS = {"cell": 1, "net": 2, "layout": 3}

# numpy.random.SeedSequence's hash constants (bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _n_words(value):
    """Number of 32-bit entropy words SeedSequence makes of an int."""
    return max(1, -(-value.bit_length() // 32))


def _hash_constants(init, mult, start):
    """The running hash constant before and after each of 4 consecutive
    hashes that begin ``start`` hashes in, as two ``(4, 1)`` uint32 arrays."""
    consts = np.array([init * pow(mult, start + k, 1 << 32) & _MASK32
                       for k in range(5)], dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# generate_state's constants do not depend on the pool
_GENERATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 0)


def _philox_keys(seed_seq, n_absorbed, last):
    """Philox keys ``(len(last), 2)`` of ``seed_seq``'s spawn key extended by
    each uint32 ``t`` in ``last``, after ``n_absorbed`` entropy words."""
    pool = seed_seq.pool[:, None]
    # absorbing n words into the 4-word pool took 4 n hashmix steps
    before, after = _hash_constants(_INIT_A, _MULT_A, 4 * n_absorbed)
    hashed = (last ^ before) * after
    hashed ^= hashed >> np.uint32(16)
    mixed = pool * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
    mixed ^= mixed >> np.uint32(16)
    # generate_state(2, np.uint64): one uint32 word per pool word
    before, after = _GENERATE_CONSTANTS
    words = (mixed ^ before) * after
    words ^= words >> np.uint32(16)
    words = words.astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def _check_index(name, value, limit=None):
    """Raise a ValueError naming ``value`` unless it is in [0, limit)."""
    if value < 0 or (limit is not None and value >= limit):
        bound = f"in [0, {limit})" if limit else "nonnegative"
        raise ValueError(f"{name} must be {bound}, got {value}")


def substreams(seed, stream, *prefix, last):
    """Yield the generator of ``(stream, *prefix, t)`` for each ``t`` in ``last``.

    One Generator is re-keyed in place for each index: use it before taking
    the next.  ``last`` holds integers in [0, 2**32).
    """
    seed, prefix = int(seed), tuple(int(i) for i in prefix)
    _check_index("seed", seed)
    for i in prefix:
        _check_index("substream index", i)
    last = np.asarray(last).reshape(-1)
    if last.size and not 0 <= last.min() <= last.max() < 1 << 32:
        for t in last.tolist():
            _check_index("last substream index", t, 1 << 32)
    spawn_key = (_STREAM_IDS[stream], *prefix)
    seed_seq = np.random.SeedSequence(seed, spawn_key=spawn_key)
    # a spawn key pads the seed's words to the pool size (4)
    n_absorbed = max(4, _n_words(seed)) + sum(map(_n_words, spawn_key))
    keys = _philox_keys(seed_seq, n_absorbed, last.astype(np.uint32))
    bit_generator = np.random.Philox(seed_seq)
    state = bit_generator.state          # zero counter, empty buffer
    generator = np.random.Generator(bit_generator)
    for key in keys:
        state["state"]["key"] = key
        bit_generator.state = state
        yield generator


def substream(seed, stream, *indices):
    """Generator for the work item addressed by ``(stream, *indices)``."""
    if not indices:
        raise ValueError("substream needs at least one index")
    return next(substreams(seed, stream, *indices[:-1], last=indices[-1:]))
