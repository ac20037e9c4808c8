"""Slow scalar reference implementations and test-only helpers.

The package ships one implementation of each behaviour: the vector path the
experiments run (``simulate_trials``, ``cloud_sinrs``, ``comp_outage_masks``,
``simulate_tb_batch``, ``select_mcs_index``, ``_sample_positions``).  The
scalar versions below spell the same rules out one transport block, one RAP,
one cell or one trial at a time; the tests check the production code against
them.  The link kernels and the trial loop also keep their trial-major
forms here (``success_cdf``, ``cb_outcomes``, ``simulate_trials``): every
cdf row for every trial, with no early stop.  The production decoder, which
evaluates the rows one at a time and only for undecoded trials, must match
them bit for bit.  ``cbler``, the code-block error rate 1 - F(i) as a
running min of its own waterfalls, is an independent evaluator of the link
curves that ``LinkCurves.success_cdf`` serves in the package, and
``voronoi_cells``, the clipped tessellation by Qhull on mirrored points, is
an independent construction of the cells that ``build_layout`` clips out of
the region.  ``drop_sinrs`` is the per-drop vector form of the block
``cloud_sinrs``, which must match it bit for bit.  Alongside them sit the
closed forms the tests compare estimates with (``tb_channel_outage_prob``,
the exact convolution ``comp_outage_prob``, ``raw_throughput``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.spatial import Voronoi
from scipy.special import expit

from cransim.link import SUBFRAME_S, McsEntry, segment_tb
from cransim.policy import select_mcs_index
from cransim.scheduling import CP

# ---------------------------------------------------------------------------
# link: one transport block
# ---------------------------------------------------------------------------


def cbler(curves, mcs_index, gamma_db, iters):
    """CB error rate of ``mcs_index`` at SNR ``gamma_db`` after ``iters``
    iterations: the running min of ``expit(-a_i * (gamma - b_i))`` over the
    waterfalls of iterations 1..``iters`` of ``curves.catalog``, and 1 for
    ``iters = 0``.  gamma of +inf/-inf maps to 0/1; NaN is rejected.
    """
    if not 0 <= iters <= curves.i_max:
        raise ValueError(f"iteration count {iters} outside 0..{curves.i_max}")
    g = np.asarray(gamma_db, dtype=float)
    if np.isnan(g).any():
        raise ValueError("SNR must not be NaN")
    entry = curves.catalog[mcs_index]
    out = np.ones_like(g)
    for a, b in zip(entry.slopes_per_db[:iters], entry.midpoints_db[:iters]):
        out = np.minimum(out, expit(-a * (g - b)))
    return out[()]


def tb_channel_outage_prob(eps_cb, num_cbs):
    """TB outage probability 1 - (1 - eps_cb)**C for C independent CBs."""
    if not 0.0 <= eps_cb <= 1.0:
        raise ValueError(f"eps_cb {eps_cb} outside [0, 1]")
    if num_cbs < 1:
        raise ValueError("num_cbs must be >= 1")
    return 1.0 - (1.0 - eps_cb) ** num_cbs


@dataclass(frozen=True)
class TbRealization:
    """Outcome of decoding one simulated transport block."""

    num_cbs: int
    cb_bits: tuple
    cb_iters: tuple
    cb_failed: tuple
    channel_outage: bool
    effort_bit_iters: int


def iteration_pmf(curves, mcs, gamma_db):
    """Distribution of the per-CB iteration count at a given SNR.

    Returns ``(pmf, p_fail)`` where ``pmf[i-1] = P(I = i | success)`` for
    i = 1..i_max and ``p_fail = cbler(gamma, i_max)``.  When the channel is
    degenerate (``p_fail == 1``) the conditional pmf is undefined and None
    is returned in its place; the caller must treat the CB as failed with
    I = i_max.
    """
    idx = mcs.index if isinstance(mcs, McsEntry) else int(mcs)
    cb = np.array([cbler(curves, idx, gamma_db, i) for i in range(curves.i_max + 1)])
    p_fail = float(cb[-1])
    if p_fail >= 1.0:
        return None, 1.0
    pmf = (cb[:-1] - cb[1:]) / (1.0 - p_fail)
    return pmf, p_fail


def simulate_tb(mcs, curves, gamma_db, rng):
    """Simulate the decoding of one transport block at SNR ``gamma_db``.

    Each CB independently fails with probability cbler(gamma, i_max); failed
    CBs burn i_max iterations, successful ones draw their iteration count
    from the success-conditioned pmf.
    """
    if math.isnan(gamma_db):
        raise ValueError("SNR must not be NaN")
    num_cbs, cb_bits = segment_tb(mcs.tb_bits)
    idx = mcs.index
    i_max = curves.i_max
    cdf = [0.0] + [1.0 - cbler(curves, idx, gamma_db, i) for i in range(1, i_max + 1)]
    iters = []
    failed = []
    for u in rng.random(num_cbs):
        # I is the smallest i with F(i) >= u; the CB fails iff u > F(i_max)
        fail = bool(u > cdf[i_max])
        iters.append(i_max if fail else next(i for i in range(1, i_max + 1) if cdf[i] >= u))
        failed.append(fail)
    return TbRealization(
        num_cbs=num_cbs,
        cb_bits=tuple(cb_bits),
        cb_iters=tuple(iters),
        cb_failed=tuple(failed),
        channel_outage=any(failed),
        effort_bit_iters=sum(k * i for k, i in zip(cb_bits, iters)),
    )


def success_cdf(curves, mcs_index, gamma_db):
    """Rows 0..i_max of ``LinkCurves.success_cdf`` in trial-major form: the
    waterfalls along the last axis, each the logistic ``1 / (1 + exp(-x))``
    in numpy as the package computes it, their running max by
    ``np.maximum.accumulate`` and a zero column in front."""
    g = np.asarray(gamma_db, dtype=float)
    a = np.array([m.slopes_per_db for m in curves.catalog])[mcs_index]
    b = np.array([m.midpoints_db for m in curves.catalog])[mcs_index]
    with np.errstate(over="ignore"):
        f = np.maximum.accumulate(1.0 / (1.0 + np.exp(a * (b - g[..., None]))), axis=-1)
    return np.concatenate([np.zeros(f.shape[:-1] + (1,)), f], axis=-1)


def cb_outcomes(cdf, u):
    """``simulate_cbs`` by its definition: ``cdf`` (..., i_max + 1), ``u``
    (..., n_cbs).  I is the smallest i >= 1 with F(i) >= u, or i_max when
    there is none; the CB fails iff u > F(i_max)."""
    i_max = cdf.shape[-1] - 1
    reached = cdf[..., None, 1:] >= u[..., None]
    iters = np.where(reached.any(axis=-1), reached.argmax(axis=-1) + 1, i_max)
    return iters, u > cdf[..., i_max, None]


# ---------------------------------------------------------------------------
# policy: one SNR
# ---------------------------------------------------------------------------


def select_mcs(table, gamma_db):
    """Highest MCS with threshold <= gamma, or None below the table floor."""
    if np.isnan(gamma_db):
        raise ValueError("SNR must not be NaN")
    idx = int(np.searchsorted(table.thresholds_db, gamma_db, side="right")) - 1
    if idx < 0:
        return None
    return table.catalog[idx]


def raw_throughput(mcs):
    """Selected rate in bits/second; zero when no MCS is feasible."""
    if mcs is None:
        return 0.0
    return mcs.tb_bits / SUBFRAME_S


# ---------------------------------------------------------------------------
# cell: one single-cell trial
# ---------------------------------------------------------------------------

OUTAGE_NONE = "none"
OUTAGE_CHANNEL = "channel"
OUTAGE_COMPUTATIONAL = "computational"
OUTAGE_BOTH = "both"


@dataclass(frozen=True)
class CellTrialConfig:
    """Parameters of one single-cell Monte Carlo run at average SNR ``snr_db``."""

    snr_db: float
    policy: str = "MRS"
    c_max_bit_iter_s: float = math.inf
    n_trials: int = 100000
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not self.c_max_bit_iter_s > 0:
            raise ValueError("c_max must be positive (may be inf)")


def run_cell_trial(cfg, gamma_db, table, curves, rng):
    """One trial at instantaneous SNR ``gamma_db``.

    Returns ``(tb, mcs, outage_kind)``; below the table floor the lowest
    MCS is sent.
    """
    mcs = select_mcs(table, gamma_db)
    if mcs is None:
        mcs = table.catalog[0]
    tb = simulate_tb(mcs, curves, gamma_db, rng)
    budget = cfg.c_max_bit_iter_s * SUBFRAME_S
    comp = tb.effort_bit_iters > budget
    if tb.channel_outage and comp:
        kind = OUTAGE_BOTH
    elif tb.channel_outage:
        kind = OUTAGE_CHANNEL
    elif comp:
        kind = OUTAGE_COMPUTATIONAL
    else:
        kind = OUTAGE_NONE
    return tb, mcs, kind


def simulate_trials(gamma_db, table, curves, u):
    """``cell.simulate_trials`` as a loop over the selected MCSs, gathering
    and scattering each MCS's rows by index, decoded by ``success_cdf`` and
    ``cb_outcomes``.  ``u`` is trial-major, shape ``(n, curves.max_cbs)``."""
    n = len(gamma_db)
    sel = select_mcs_index(table, gamma_db)
    bits = np.zeros(n, dtype=np.int64)
    effort = np.zeros(n, dtype=np.int64)
    channel_fail = np.zeros(n, dtype=bool)
    for m in np.unique(sel):
        rows = np.flatnonzero(sel == m)
        c, cb_bits = segment_tb(curves.catalog[m].tb_bits)
        iters, failed = cb_outcomes(success_cdf(curves, int(m), gamma_db[rows]), u[rows, :c])
        bits[rows] = curves.catalog[m].tb_bits
        effort[rows] = iters @ np.asarray(cb_bits, dtype=np.int64)
        channel_fail[rows] = failed.any(axis=1)
    return SimpleNamespace(bits=bits, effort=effort, channel_fail=channel_fail)


# ---------------------------------------------------------------------------
# geometry: SINRs of one drop, SINR at one cloud RAP, UE placement cell by cell
# ---------------------------------------------------------------------------


def drop_sinrs(drop, layout, params):
    """SINR of every active cloud cell of one drop, vectorised over the drop
    alone: ``(rap_indices, sinr_linear)`` ordered by RAP index.

    Every active UE transmits with the fractional power control
    d^(s * alpha) of its distance d to its own RAP.
    """
    cloud = layout.cloud_idx
    mask = drop.active[cloud]
    targets = cloud[mask]
    cols = np.flatnonzero(mask)
    rows = np.searchsorted(drop.active_idx, targets)
    alpha, s = params.alpha, params.s
    serve = layout.rap_xy[drop.active_idx]
    serve_dist = np.hypot(drop.ue_xy[:, 0] - serve[:, 0], drop.ue_xy[:, 1] - serve[:, 1])
    tx_powers = serve_dist ** (s * alpha)
    raps = layout.rap_xy[targets]                       # (k, 2)
    cross = np.hypot(raps[:, 0, None] - drop.ue_xy[:, 0],
                     raps[:, 1, None] - drop.ue_xy[:, 1])  # (k, n_active)
    g = drop.fading[:, cols].T                          # (k, n_active)
    terms = g * cross ** (-alpha) * tx_powers[None, :]
    terms[np.arange(len(targets)), rows] = 0.0          # own UE is the signal
    interference = terms.sum(axis=1)
    d_serve = serve_dist[rows]
    signal = drop.fading[rows, cols] * d_serve ** (alpha * (s - 1.0))
    return targets, signal / (1.0 / params.snr_ref_linear + interference)


def compute_sinr(drop, layout, params, rap_index):
    """Linear uplink SINR at cloud RAP ``rap_index`` for its own UE.

    The interference sum runs over every other active UE in the layout,
    each transmitting with fractional power control d^(s * alpha) of its
    distance d to its own serving RAP.
    """
    if rap_index not in layout.cloud_group:
        raise ValueError(f"RAP {rap_index} is not in the cloud group")
    if not drop.active[rap_index]:
        raise ValueError(f"cell {rap_index} has no uplink TB this subframe")
    col = layout.cloud_group.index(rap_index)
    row = int(np.flatnonzero(drop.active_idx == rap_index)[0])
    alpha = params.alpha
    s = params.s

    def serve_dist(r):
        own = layout.rap_xy[drop.active_idx[r]]
        return math.hypot(drop.ue_xy[r, 0] - own[0], drop.ue_xy[r, 1] - own[1])

    d_serve = serve_dist(row)
    signal = drop.fading[row, col] * d_serve ** (alpha * (s - 1.0))
    noise = 1.0 / params.snr_ref_linear
    rap = layout.rap_xy[rap_index]
    interference = 0.0
    for other_row, i in enumerate(drop.active_idx):
        if i == rap_index:
            continue
        cross = math.hypot(drop.ue_xy[other_row, 0] - rap[0],
                           drop.ue_xy[other_row, 1] - rap[1])
        interference += (
            drop.fading[other_row, col]
            * cross ** (-alpha)
            * serve_dist(other_row) ** (s * alpha)
        )
    return signal / (noise + interference)


def voronoi_cells(rap_xy, region):
    """The clipped Voronoi cells by Qhull: mirror the RAPs across the four
    region edges, which makes every RAP's cell finite and equal to its
    unbounded cell clipped to the rectangle.

    Returns ``(vertices, areas)``: per RAP its cell's CCW vertices and area.
    """
    pts = np.asarray(rap_xy, dtype=float)
    xmin, ymin, xmax, ymax = region
    mirrored = [pts]
    for axis, bound in ((0, xmin), (0, xmax), (1, ymin), (1, ymax)):
        m = pts.copy()
        m[:, axis] = 2.0 * bound - m[:, axis]
        mirrored.append(m)
    vor = Voronoi(np.vstack(mirrored))
    n = len(pts)
    polys = []
    for i in range(n):
        verts = vor.vertices[vor.regions[vor.point_region[i]]]
        centroid = verts.mean(axis=0)
        polys.append(verts[np.argsort(np.arctan2(*(verts - centroid).T[::-1]))])
    areas = np.array([0.5 * abs(float(np.dot(v[:, 0], np.roll(v[:, 1], -1))
                                      - np.dot(v[:, 1], np.roll(v[:, 0], -1))))
                      for v in polys])
    return polys, areas


def sample_positions(layout, cells, rng, min_dist_km):
    """Uniform point in each listed cell, one UE at a time: each round draws
    three uniforms per pending UE, in pending order, picks a fan triangle of
    the cell's vertices about its RAP by area with the first, and places the
    UE at RAP + r1 e1 + r2 e2 with the other two, reflected to (1 - r1,
    1 - r2) when r1 + r2 > 1.  A UE closer than ``min_dist_km`` to its RAP
    is redrawn in the next round.
    """
    out = np.empty((len(cells), 2))
    pending = list(range(len(cells)))
    while pending:
        still = []
        for i in pending:
            pick, r1, r2 = rng.random(3).tolist()
            px, py = layout.rap_xy[cells[i]].tolist()
            verts = [(x - px, y - py) for x, y in layout.cell_vertices[cells[i]].tolist()]
            fan = list(zip(verts, verts[1:] + verts[:1]))
            cum = list(itertools.accumulate(max(ax * by - ay * bx, 0.0)
                                            for (ax, ay), (bx, by) in fan))
            e1, e2 = next(tri for tri, c in zip(fan, cum) if c / cum[-1] > pick)
            if r1 + r2 > 1.0:
                r1, r2 = 1.0 - r1, 1.0 - r2
            x = px + (r1 * e1[0] + r2 * e2[0])
            y = py + (r1 * e1[1] + r2 * e2[1])
            if (x - px) * (x - px) + (y - py) * (y - py) >= min_dist_km * min_dist_km:
                out[i] = x, y
            else:
                still.append(i)
        pending = still
    return out


# ---------------------------------------------------------------------------
# scheduling: exact outage of independent efforts, one subframe TB by TB
# ---------------------------------------------------------------------------

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


DECODED = "decoded"
CHANNEL_OUTAGE = "channel_outage"
COMPUTATIONAL_OUTAGE = "computational_outage"
CHANNEL_AND_COMPUTATIONAL = "channel_and_computational"


@dataclass(frozen=True)
class ScheduleOutcome:
    dispositions: tuple     # aligned with the input TB order
    charged: tuple          # bit-iterations actually consumed per TB
    total_effort: float
    budget_remaining: float


def _disposition(channel_failed, comp_failed):
    if comp_failed and channel_failed:
        return CHANNEL_AND_COMPUTATIONAL
    if comp_failed:
        return COMPUTATIONAL_OUTAGE
    if channel_failed:
        return CHANNEL_OUTAGE
    return DECODED


def schedule_subframe(tbs, mode, limit_bit_iters):
    """Disposition every TB of one subframe against the complexity budget.

    ``tbs`` is a list of ``(rap, sinr, tb)`` with ``tb`` exposing
    ``effort_bit_iters`` and ``channel_outage``.  ``limit_bit_iters`` is the
    pooled budget under CP and each RAP's own budget under LP, both in
    bit-iterations for this subframe.  Under CP the pooled budget
    is consumed in ascending SINR order (ties broken by RAP index); under LP
    each RAP's TBs are charged against that RAP's own budget the same way.
    A TB fits when the cumulative effort stays at or below the budget
    (outage requires a strict overrun).  A TB that overruns the remaining
    budget consumes exactly the remainder (work until the deadline);
    everything after it in its pool is dropped unstarted.
    """
    n = len(tbs)
    order = sorted(range(n), key=lambda i: (tbs[i][1], tbs[i][0]))
    dispositions = [None] * n
    charged = [0.0] * n
    if mode == CP:
        remaining = {None: limit_bit_iters}
        key = lambda rap: None  # noqa: E731
    else:
        remaining = {}
        key = lambda rap: rap  # noqa: E731
        for rap, _, _ in tbs:
            remaining[rap] = limit_bit_iters
    overflowed = set()
    for i in order:
        rap, _, tb = tbs[i]
        pool = key(rap)
        effort = tb.effort_bit_iters
        if pool in overflowed:
            comp = True
        elif effort <= remaining[pool]:
            remaining[pool] -= effort
            charged[i] = float(effort)
            comp = False
        else:
            charged[i] = float(remaining[pool])
            remaining[pool] = 0.0
            overflowed.add(pool)
            comp = True
        dispositions[i] = _disposition(tb.channel_outage, comp)
    total = float(sum(charged))
    budget_total = limit_bit_iters * len(remaining)
    return ScheduleOutcome(
        dispositions=tuple(dispositions),
        charged=tuple(charged),
        total_effort=total,
        budget_remaining=budget_total - total if math.isfinite(budget_total) else math.inf,
    )
