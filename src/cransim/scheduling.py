"""Computational budgeting: local versus pooled (cloud) processing.

Local processing (LP) grants each RAP its own per-subframe budget
c_max * subframe; cloud processing (CP) pools n_cloud of those budgets and
serves the cloud group's transport blocks lowest-SINR-first (ties broken by
RAP index), so the blocks sacrificed to a budget shortfall are always the
ones sent at the highest MCSs.  The blocks decoded within the budget are
the longest prefix of that order whose cumulative effort is at most the
budget (under LP, each RAP's blocks against its own budget); the first
block that would overrun it, and every block after it, is in computational
outage.

Because that rule is a prefix condition, a subframe is scheduled against the
whole budget grid at once: under CP one cumulative sum of the sorted efforts
compared with every pooled budget, under LP (one block per RAP) one
comparison of each effort with every per-RAP budget.  The sweep accumulates
into arrays indexed ``[density, budget, mode, policy]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .link import SUBFRAME_S
from .policy import select_mcs_index

LP = "LP"
CP = "CP"


def comp_outage_prob(effort_dists, pooled_budget):
    """P(sum of independent per-RAP efforts strictly exceeds the budget).

    ``effort_dists`` is a list of ``(values, probabilities)`` pairs, one per
    RAP.  Exact convolution over the discrete supports; works with floats or
    ``fractions.Fraction``.
    """
    acc = {0: 1}
    for values, probs in effort_dists:
        if len(values) != len(probs):
            raise ValueError("values and probabilities must have equal length")
        nxt = {}
        for total, p in acc.items():
            for v, q in zip(values, probs):
                key = total + v
                nxt[key] = nxt.get(key, 0) + p * q
        acc = nxt
    return sum(p for total, p in acc.items() if total > pooled_budget)


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
    """Sweep totals as arrays indexed ``[density, budget, mode, policy]``.

    ``axes`` holds the labels of those four axes.  TB and channel-outage
    counts do not depend on the budget or the mode and are indexed
    ``[density, policy]``; ``bits_per_cell`` adds a trailing cloud-cell axis
    and ``per_subframe`` a trailing subframe axis (of length 0 unless the
    per-subframe throughputs were kept).
    """

    axes: tuple
    n_tbs: np.ndarray
    n_channel: np.ndarray
    n_comp: np.ndarray
    sum_tput: np.ndarray
    sumsq_tput: np.ndarray
    bits_per_cell: np.ndarray
    per_subframe: np.ndarray


@dataclass(frozen=True)
class _SubframeTbs:
    """Decoded-or-not raw material for one subframe and one policy."""

    raps: np.ndarray
    sinr_db: np.ndarray
    bits: np.ndarray
    efforts: np.ndarray
    channel_fail: np.ndarray


def _policy_tbs(targets, sinr_lin, table, curves, u, low_snr_fallback):
    """MCS selection and TB decoding for the active cloud cells."""
    from .link import simulate_cbs

    sinr_db = 10.0 * np.log10(sinr_lin)
    sel = select_mcs_index(table, sinr_db, low_snr_fallback)
    keep = sel >= 0
    raps = targets[keep]
    sel = sel[keep]
    gammas = sinr_db[keep]
    if len(raps) == 0:
        empty = np.empty(0)
        return _SubframeTbs(raps, empty, empty.astype(np.int64),
                            empty.astype(np.int64), empty.astype(bool))
    cdf = curves.success_cdf(sel, gammas)
    iters, failed = simulate_cbs(cdf, u[keep])
    valid = np.arange(curves.max_cbs)[None, :] < curves.num_cbs[sel][:, None]
    efforts = np.where(valid, iters * curves.cb_bits[sel], 0).sum(axis=1)
    channel_fail = (failed & valid).any(axis=1)
    return _SubframeTbs(
        raps=raps,
        sinr_db=gammas,
        bits=curves.tb_bits[sel],
        efforts=efforts,
        channel_fail=channel_fail,
    )


def comp_outage_masks(raps, sinr_db, efforts, limits, pooled):
    """Computational-outage masks of one subframe's TBs, one row per budget.

    ``limits`` are the budgets in bit-iterations: the pooled budget under CP
    (``pooled``), the per-RAP one under LP, where each RAP carries one TB so
    the check is per TB.  Returns a ``(len(limits), len(efforts))`` boolean
    array with the TBs in input order.
    """
    limits = np.asarray(limits, dtype=float)[:, None]
    if not pooled:
        return efforts > limits
    order = np.lexsort((raps, sinr_db))
    comp = np.empty((len(limits), len(efforts)), dtype=bool)
    comp[:, order] = np.cumsum(efforts[order]) > limits
    return comp


def sweep_network(layout, params, curves, tables, *, subframes, seed,
                  density_grid=None, budget_grid=(math.inf,),
                  modes=(LP, CP), policies=("MRS", "CAS"),
                  subframe_s=SUBFRAME_S, low_snr_fallback=True,
                  keep_subframe_sums=False):
    """Monte Carlo sweep over UE density and/or complexity budget.

    ``subframes`` is the range of subframe indices to simulate.

    All (budget, mode, policy) arms at one density share the same subframe
    drops and code-block uniforms (common random numbers), so budget and
    mode comparisons are paired.  Per-subframe substreams are derived from
    ``(seed, "net", density_index, subframe_index)``; results are therefore
    independent of how subframes are chunked across workers.

    Returns a NetworkAccumulator over the grid (repeated grid values count
    once); use ``finalize_records`` to turn it into NetworkRecords.
    """
    from .geometry import cloud_sinrs, draw_subframe
    from .rng import substream

    if density_grid is None:
        density_grid = (params.ue_density_per_km2,)
    axes = tuple(tuple(dict.fromkeys(a))
                 for a in (density_grid, budget_grid, modes, policies))
    densities, budgets, modes, policies = axes
    if not set(modes) <= {LP, CP}:
        raise ValueError(f"modes must be LP or CP, got {modes}")
    if not all(b >= 0 for b in budgets):
        raise ValueError("budgets must be nonnegative (may be inf)")
    if layout.n_cloud < 1:
        raise ValueError("n_cloud must be >= 1")
    shape = tuple(len(a) for a in axes)
    acc = NetworkAccumulator(
        axes=axes,
        n_tbs=np.zeros((shape[0], shape[3]), dtype=np.int64),
        n_channel=np.zeros((shape[0], shape[3]), dtype=np.int64),
        n_comp=np.zeros(shape, dtype=np.int64),
        sum_tput=np.zeros(shape),
        sumsq_tput=np.zeros(shape),
        bits_per_cell=np.zeros(shape + (layout.n_cloud,), dtype=np.int64),
        per_subframe=np.zeros(shape + (len(subframes) if keep_subframe_sums else 0,)),
    )
    cloud = np.array(layout.cloud_group)
    per_rap = np.array(budgets, dtype=float)
    limits = {LP: per_rap * subframe_s, CP: layout.n_cloud * per_rap * subframe_s}
    for di, density in enumerate(densities):
        dparams = replace(params, ue_density_per_km2=density)
        for ti, t in enumerate(subframes):
            rng = substream(seed, "net", di, t)
            drop = draw_subframe(layout, dparams, rng)
            targets, sinr = cloud_sinrs(drop, layout, dparams)
            u = rng.random((len(targets), curves.max_cbs))
            for pi, policy in enumerate(policies):
                tbs = _policy_tbs(targets, sinr, tables[policy], curves, u,
                                  low_snr_fallback)
                cells = np.searchsorted(cloud, tbs.raps)
                acc.n_tbs[di, pi] += len(tbs.raps)
                acc.n_channel[di, pi] += tbs.channel_fail.sum()
                for mi, mode in enumerate(modes):
                    comp = comp_outage_masks(tbs.raps, tbs.sinr_db, tbs.efforts,
                                             limits[mode], mode == CP)
                    bits = np.where(comp | tbs.channel_fail, 0, tbs.bits)
                    np.add.at(acc.bits_per_cell[di, :, mi, pi],
                              (slice(None), cells), bits)
                    acc.n_comp[di, :, mi, pi] += comp.sum(axis=1)
                    tput = bits.sum(axis=1) / subframe_s
                    acc.sum_tput[di, :, mi, pi] += tput
                    acc.sumsq_tput[di, :, mi, pi] += tput * tput
                    if keep_subframe_sums:
                        acc.per_subframe[di, :, mi, pi, ti] = tput
    return acc


def merge_accumulators(parts):
    """Merge per-block accumulators, given in block order, into one.

    Counts and sums add elementwise; kept per-subframe throughputs are
    concatenated.
    """
    parts = list(parts)
    merged = {}
    for f in fields(NetworkAccumulator):
        if f.name != "axes":
            values = [getattr(part, f.name) for part in parts]
            merged[f.name] = (np.concatenate(values, axis=-1)
                              if f.name == "per_subframe" else sum(values))
    return replace(parts[0], **merged)


def finalize_records(acc, n_subframes, subframe_s=SUBFRAME_S):
    """Reduce a sweep accumulator to NetworkRecords, sorted by arm."""
    from .cell import Z_95

    records = []
    for (di, density), (bi, c), (mi, mode), (pi, policy) in itertools.product(
        *(enumerate(a) for a in acc.axes)
    ):
        arm = (di, bi, mi, pi)
        n_tbs = int(acc.n_tbs[di, pi])
        mean_tput = float(acc.sum_tput[arm]) / n_subframes
        var = max(float(acc.sumsq_tput[arm]) / n_subframes - mean_tput ** 2, 0.0)
        hw = Z_95 * math.sqrt(var / n_subframes)
        per_cell = tuple(
            float(b) / (n_subframes * subframe_s) for b in acc.bits_per_cell[arm]
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
