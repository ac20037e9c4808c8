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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .link import SUBFRAME_S
from .policy import select_mcs_index

LP = "LP"
CP = "CP"


@dataclass(frozen=True)
class ComplexityBudget:
    mode: str
    c_max_bit_iter_s: float
    n_cloud: int
    subframe_s: float = SUBFRAME_S

    def __post_init__(self):
        if self.mode not in (LP, CP):
            raise ValueError(f"mode must be LP or CP, got {self.mode}")
        if not self.c_max_bit_iter_s >= 0:
            raise ValueError("c_max must be nonnegative (may be inf)")
        if self.n_cloud < 1:
            raise ValueError("n_cloud must be >= 1")

    @property
    def per_rap_bit_iters(self):
        return self.c_max_bit_iter_s * self.subframe_s

    @property
    def pooled_bit_iters(self):
        return self.n_cloud * self.c_max_bit_iter_s * self.subframe_s


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


@dataclass
class _ArmAccumulator:
    n_cloud: int
    bits_per_cell: np.ndarray = None
    n_tbs: int = 0
    n_comp: int = 0
    n_channel: int = 0
    sum_tput: float = 0.0
    sumsq_tput: float = 0.0
    per_subframe: list = field(default_factory=list)

    def __post_init__(self):
        if self.bits_per_cell is None:
            self.bits_per_cell = np.zeros(self.n_cloud, dtype=np.int64)


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


def _schedule_arrays(tbs, budget_bit_iters, pooled):
    """Computational-outage and decoded masks of one subframe's TBs.

    Returns ``(decoded_mask, comp_mask)`` aligned with ``tbs`` order.
    ``pooled`` selects CP (single pot) versus LP (per-RAP pot; one TB per
    RAP here, so the check is per-TB).
    """
    n = len(tbs.raps)
    comp = np.zeros(n, dtype=bool)
    if pooled:
        order = np.lexsort((tbs.raps, tbs.sinr_db))
        remaining = budget_bit_iters
        overflowed = False
        for i in order:
            if overflowed or tbs.efforts[i] > remaining:
                comp[i] = True
                overflowed = True
            else:
                remaining -= tbs.efforts[i]
    else:
        comp = tbs.efforts > budget_bit_iters
    decoded = ~comp & ~tbs.channel_fail
    return decoded, comp


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

    Returns ``{(density, budget, mode, policy): _ArmAccumulator}``; use
    ``finalize_records`` to turn them into NetworkRecords.
    """
    from .geometry import cloud_sinrs, draw_subframe
    from .rng import substream

    if density_grid is None:
        density_grid = (params.ue_density_per_km2,)
    budget_objs = {
        (c, mode): ComplexityBudget(mode, c, layout.n_cloud, subframe_s)
        for c in budget_grid
        for mode in modes
    }
    acc = {
        (d, c, mode, p): _ArmAccumulator(n_cloud=layout.n_cloud)
        for d in density_grid
        for c in budget_grid
        for mode in modes
        for p in policies
    }
    cloud_pos = {rap: i for i, rap in enumerate(layout.cloud_group)}
    for di, density in enumerate(density_grid):
        dparams = replace(params, ue_density_per_km2=density)
        for t in subframes:
            rng = substream(seed, "net", di, t)
            drop = draw_subframe(layout, dparams, rng)
            targets, sinr = cloud_sinrs(drop, layout, dparams)
            u = rng.random((len(targets), curves.max_cbs))
            for policy in policies:
                tbs = _policy_tbs(targets, sinr, tables[policy], curves, u,
                                  low_snr_fallback)
                cell_rows = np.array([cloud_pos[r] for r in tbs.raps], dtype=int)
                for (c, mode), budget in budget_objs.items():
                    limit = (budget.pooled_bit_iters if mode == CP
                             else budget.per_rap_bit_iters)
                    decoded, comp = _schedule_arrays(tbs, limit, mode == CP)
                    a = acc[(density, c, mode, policy)]
                    bits = np.where(decoded, tbs.bits, 0)
                    if len(cell_rows):
                        np.add.at(a.bits_per_cell, cell_rows, bits)
                    a.n_tbs += len(tbs.raps)
                    a.n_comp += int(comp.sum())
                    a.n_channel += int(tbs.channel_fail.sum())
                    tput = float(bits.sum()) / subframe_s
                    a.sum_tput += tput
                    a.sumsq_tput += tput * tput
                    if keep_subframe_sums:
                        a.per_subframe.append(tput)
    return acc


def merge_accumulators(parts):
    """Merge per-block accumulators (in block order) into one."""
    out = None
    for part in parts:
        if out is None:
            out = {
                k: _ArmAccumulator(n_cloud=len(a.bits_per_cell))
                for k, a in part.items()
            }
        for k, a in part.items():
            o = out[k]
            o.bits_per_cell = o.bits_per_cell + a.bits_per_cell
            o.n_tbs += a.n_tbs
            o.n_comp += a.n_comp
            o.n_channel += a.n_channel
            o.sum_tput += a.sum_tput
            o.sumsq_tput += a.sumsq_tput
            o.per_subframe.extend(a.per_subframe)
    return out


def finalize_records(acc, n_subframes, subframe_s=SUBFRAME_S):
    """Reduce sweep accumulators to NetworkRecords."""
    from .cell import Z_95

    records = []
    for (density, c, mode, policy), a in sorted(
        acc.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2], kv[0][3])
    ):
        mean_tput = a.sum_tput / n_subframes
        var = max(a.sumsq_tput / n_subframes - mean_tput ** 2, 0.0)
        hw = Z_95 * math.sqrt(var / n_subframes)
        per_cell = tuple(
            float(b) / (n_subframes * subframe_s) for b in a.bits_per_cell
        )
        records.append(
            NetworkRecord(
                ue_density_per_km2=float(density),
                c_max_bit_iter_s=float(c),
                mode=mode,
                policy=policy,
                n_subframes=n_subframes,
                n_tbs=a.n_tbs,
                sum_throughput_bps=mean_tput,
                sum_throughput_hw_bps=hw,
                per_cell_throughput_bps=per_cell,
                comp_outage_rate=a.n_comp / a.n_tbs if a.n_tbs else 0.0,
                channel_outage_rate=a.n_channel / a.n_tbs if a.n_tbs else 0.0,
            )
        )
    return records
