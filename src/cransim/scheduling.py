"""Computational budgeting: local versus pooled (cloud) processing.

Local processing (LP) grants each RAP its own per-subframe budget
c_max * SUBFRAME_S (1 ms); cloud processing (CP) pools n_cloud of those
budgets and serves the cloud group's transport blocks lowest-SINR-first
(ties broken by RAP index), so the blocks sacrificed to a budget shortfall
are always the ones sent at the highest MCSs.  The blocks decoded within the budget are
the longest prefix of that order whose cumulative effort is at most the
budget (under LP, each RAP's blocks against its own budget); the first
block that would overrun it, and every block after it, is in computational
outage.

Because that rule is a prefix condition, a subframe is scheduled against the
whole budget grid at once: under CP one cumulative sum of the sorted efforts
compared with every pooled budget, under LP (one block per RAP) one
comparison of each effort with every per-RAP budget.

The sweep takes a block of subframes at a time.  It derives the block's
Philox keys in one pass (``rng.substreams``); its loop over subframes only
re-keys one generator and draws (drop, cloud SINRs, code-block uniforms).
Each policy then decodes the whole block in one call, and CP schedules it
with one cumulative sum of the integer efforts in (subframe, SINR, RAP)
order, less each subframe's offset (exact).  Results accumulate as exact
integer sums into int64 arrays indexed ``[density, budget, mode, policy]``;
``merge_accumulators`` adds a run's (density, block) parts in any order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from . import geometry, link, rng
from .cell import mean_halfwidth
from .policy import select_mcs_index

LP = "LP"
CP = "CP"


# ---------------------------------------------------------------------------
# Network sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkRecord:
    """Sum/per-cell throughput for one (density, budget, mode, policy) arm."""

    ue_density_per_km2: float
    c_max_bit_iter_s: float
    mode: str
    policy: str
    n_subframes: int
    n_tbs: int
    sum_throughput_bps: float
    sum_throughput_hw_bps: float
    per_cell_throughput_bps: tuple
    comp_outage_rate: float
    channel_outage_rate: float


@dataclass(frozen=True)
class NetworkAccumulator:
    """Sweep totals as int64 arrays indexed ``[density, budget, mode, policy]``.

    ``axes`` holds the labels of those four axes.  Every policy sends one TB
    per active cloud cell, so the TB count is indexed ``[density]``; the
    channel-outage count does not depend on the budget or the mode and is
    indexed ``[density, policy]``; ``bits_per_cell`` adds a trailing
    cloud-cell axis.  ``sumsq_bits`` sums the squared bits delivered in each
    subframe, and ``cross_bits``, indexed ``[density, budget, policy]``, the
    product of each subframe's LP and CP bits (zeros unless both modes run),
    so a paired CP - LP difference has exact sums too.
    """

    axes: tuple
    n_tbs: np.ndarray
    n_channel: np.ndarray
    n_comp: np.ndarray
    sumsq_bits: np.ndarray
    bits_per_cell: np.ndarray
    cross_bits: np.ndarray


def _policy_tbs(sinr_db, table, curves, u):
    """MCS selection and decoding of one TB per SINR (dB) of a block, ``u``
    holding each TB's code-block uniforms in a row: bits, effort, outage."""
    sel = select_mcs_index(table, sinr_db)
    iters, failed = link.simulate_cbs(curves, sel, sinr_db, u.T)
    cb_bits = curves.cb_bits[sel].T   # zero in the padded CB slots of an MCS
    return SimpleNamespace(
        bits=curves.tb_bits[sel],
        efforts=(iters * cb_bits).sum(axis=0),
        channel_fail=(failed & (cb_bits > 0)).any(axis=0),
    )


def comp_outage_masks(raps, sinr_db, efforts, limits, pooled, subframe):
    """Computational-outage masks of a block's TBs, one row per budget.

    ``limits`` are the per-subframe budgets in bit-iterations: the pooled
    budget under CP (``pooled``), the per-RAP one under LP, where each RAP
    carries one TB per subframe so the check is per TB.  ``subframe`` gives
    each TB's nonnegative subframe id (a scalar for a single subframe);
    every subframe is scheduled against its own budget.  Returns a
    ``(len(limits), len(efforts))`` boolean array with the TBs in input order.
    """
    limits = np.asarray(limits, dtype=float)[:, None]
    if not pooled:
        return efforts > limits
    subframe = np.broadcast_to(subframe, np.shape(efforts))
    order = np.lexsort((raps, sinr_db, subframe))
    sorted_efforts = efforts[order]
    spent = np.cumsum(sorted_efforts)
    # less the effort of the earlier subframes: exact, as efforts are integers
    first = np.flatnonzero(np.diff(subframe[order], prepend=-1))
    earlier = np.repeat((spent - sorted_efforts)[first], np.diff(first, append=len(order)))
    comp = np.empty((len(limits), len(efforts)), dtype=bool)
    comp[:, order] = spent - earlier > limits
    return comp


def sweep_network(layout, params, curves, tables, *, subframes, seed,
                  density_grid, density_indices=None, budget_grid=(math.inf,),
                  modes=(LP, CP), policies=("MRS", "CAS")):
    """Monte Carlo sweep over UE density (UEs per km^2) and complexity budget.

    ``subframes`` is the (nonempty) range of subframe indices to simulate, and
    ``density_indices`` the indices into the density grid to sweep, all by
    default; the others stay zero.  No grid or list may repeat a value.

    All (budget, mode, policy) arms at one density share the same subframe
    drops and code-block uniforms (common random numbers), so budget and
    mode comparisons are paired.  Per-subframe substreams are keyed by
    ``(seed, "net", density_index, subframe_index)`` (all of a call's keys
    at one density in one pass), so a subframe's draws do not depend on how
    the subframes are split into blocks or spread across workers.

    Returns a NetworkAccumulator over the grid; use ``finalize_records`` to
    turn it into NetworkRecords.
    """
    axes = tuple(map(tuple, (density_grid, budget_grid, modes, policies)))
    densities, budgets, modes, policies = axes
    if any(len(set(a)) < len(a) for a in axes):
        raise ValueError("density_grid, budget_grid, modes and policies must not repeat a value")
    if not set(modes) <= {LP, CP}:
        raise ValueError(f"modes must be LP or CP, got {modes}")
    if not all(v >= 0 for v in densities + budgets):
        raise ValueError("densities and budgets must be nonnegative (budgets may be inf)")
    if layout.n_cloud < 1:
        raise ValueError("n_cloud must be >= 1")
    if not len(subframes):
        raise ValueError("subframes must be nonempty")
    shape = tuple(len(a) for a in axes)
    acc = NetworkAccumulator(
        axes=axes,
        n_tbs=np.zeros(shape[0], dtype=np.int64),
        n_channel=np.zeros((shape[0], shape[3]), dtype=np.int64),
        n_comp=np.zeros(shape, dtype=np.int64),
        sumsq_bits=np.zeros(shape, dtype=np.int64),
        bits_per_cell=np.zeros(shape + (layout.n_cloud,), dtype=np.int64),
        cross_bits=np.zeros((shape[0], shape[1], shape[3]), dtype=np.int64),
    )
    cloud = layout.cloud_idx
    per_rap = np.array(budgets, dtype=float)
    limits = {LP: per_rap * link.SUBFRAME_S, CP: layout.n_cloud * per_rap * link.SUBFRAME_S}
    for di in range(len(densities)) if density_indices is None else density_indices:
        drawn = []
        for stream in rng.substreams(seed, "net", di, last=subframes):
            drop = geometry.draw_subframe(layout, densities[di], stream)
            targets, sinr = geometry.cloud_sinrs(drop, layout, params)
            drawn.append((targets, sinr, stream.random((len(targets), curves.max_cbs))))
        targets, sinr, u = (np.concatenate(parts) for parts in zip(*drawn))
        sinr_db = 10.0 * np.log10(sinr)
        subframe = np.repeat(np.arange(len(subframes)), [len(d[0]) for d in drawn])
        acc.n_tbs[di] = len(targets)
        for pi, policy in enumerate(policies):
            tbs = _policy_tbs(sinr_db, tables[policy], curves, u)   # one TB per target
            acc.n_channel[di, pi] = tbs.channel_fail.sum()
            comp = np.stack([comp_outage_masks(targets, sinr_db, tbs.efforts,
                                               limits[mode], mode == CP, subframe)
                             for mode in modes], axis=1)   # [budget, mode, TB]
            acc.n_comp[di, :, :, pi] = comp.sum(axis=-1)
            bits = np.where(comp | tbs.channel_fail, 0, tbs.bits)
            np.add.at(acc.bits_per_cell[di, :, :, pi],
                      (..., np.searchsorted(cloud, targets)), bits)
            subframe_bits = np.zeros(comp.shape[:2] + (len(subframes),), dtype=np.int64)
            np.add.at(subframe_bits, (..., subframe), bits)
            acc.sumsq_bits[di, :, :, pi] = (subframe_bits * subframe_bits).sum(axis=-1)
            if len(modes) == 2:
                lp, cp = subframe_bits[:, modes.index(LP)], subframe_bits[:, modes.index(CP)]
                acc.cross_bits[di, :, pi] = (lp * cp).sum(axis=-1)
    return acc


def merge_accumulators(parts):
    """Merge the accumulators of a run's parts into one.

    Every field but ``axes`` is an exact sum and adds elementwise, in any
    order; a part holds zeros at the densities it did not sweep.
    """
    parts = list(parts)
    return replace(parts[0], **{f.name: sum(getattr(part, f.name) for part in parts)
                                for f in fields(NetworkAccumulator) if f.name != "axes"})


def finalize_records(acc, n_subframes):
    """Reduce a sweep accumulator to NetworkRecords, sorted by arm."""
    records = []
    for (di, density), (bi, c), (mi, mode), (pi, policy) in itertools.product(
        *(enumerate(a) for a in acc.axes)
    ):
        arm = (di, bi, mi, pi)
        n_tbs = int(acc.n_tbs[di])
        mean_tput, hw = mean_halfwidth(n_subframes, acc.bits_per_cell[arm].sum(),
                                       acc.sumsq_bits[arm])
        per_cell = tuple(
            float(b) / (n_subframes * link.SUBFRAME_S) for b in acc.bits_per_cell[arm]
        )
        records.append(
            NetworkRecord(
                ue_density_per_km2=float(density),
                c_max_bit_iter_s=float(c),
                mode=mode,
                policy=policy,
                n_subframes=n_subframes,
                n_tbs=n_tbs,
                sum_throughput_bps=mean_tput,
                sum_throughput_hw_bps=hw,
                per_cell_throughput_bps=per_cell,
                comp_outage_rate=int(acc.n_comp[arm]) / n_tbs if n_tbs else 0.0,
                channel_outage_rate=(int(acc.n_channel[di, pi]) / n_tbs
                                     if n_tbs else 0.0),
            )
        )
    records.sort(key=lambda r: (r.ue_density_per_km2, r.c_max_bit_iter_s,
                                r.mode, r.policy))
    return records
