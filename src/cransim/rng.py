"""Deterministic substream derivation for parallel sweeps.

Every random draw in the package comes from a counter-based Philox
generator keyed by ``SeedSequence(seed, spawn_key=(stream_id, *indices))``,
e.g. ``(seed, "cell", gamma_index)`` or ``(seed, "net", density_index,
chunk_index)``.  Substreams are therefore a pure function of the root seed
and the logical coordinates of the work item, never of worker count or
scheduling order, which makes sweep outputs byte-identical for any degree
of parallelism.
"""

from __future__ import annotations

import numpy as np

# Fixed identifiers for the package's independent stream families.
_STREAM_IDS = {"cell": 1, "net": 2, "layout": 3}


def substream(seed, stream, *indices):
    """Generator for the work item addressed by ``(stream, *indices)``.

    ``seed`` and the indices are nonnegative integers.
    """
    if not indices:
        raise ValueError("substream needs at least one index")
    for name, value in (("seed", seed), *(("substream index", i) for i in indices)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    spawn_key = (_STREAM_IDS[stream], *map(int, indices))
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=spawn_key)))
