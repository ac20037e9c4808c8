"""Multi-cell geometry and uplink channel.

RAPs are arbitrary points in a rectangular region; cells are the Voronoi
tessellation clipped to the region.  Each cell is built on its own: the
region rectangle, clipped (Sutherland-Hodgman) by the bisector half-plane of
every other RAP, nearest first, until the next RAP is more than twice as far
away as the cell's farthest vertex, so that its bisector cannot reach the
cell.  Users form a planar PPP: per subframe, cell i holds a transmitting
UE with probability 1 - exp(-lambda * A_i) (complement of the void
probability), placed uniformly in the cell by rejection from its bounding
box.

A point x of the region lies in cell i iff x . (p_j - p_i) <=
(|p_j|^2 - |p_i|^2) / 2 for every neighbour j of i.  The neighbours are the
RAPs whose bisectors cut the edges that are left of the clipped cell: each
edge carries the label of the half-plane that made it, and the region's
edges carry none.

The uplink uses fractional power control P = P0 * d^(s*alpha), and the
SINR at a cloud RAP follows from unit-mean exponential (Rayleigh) block
fading with the noise folded into the unit-distance SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESOLUTION_KM = 1e-9   # RAPs closer than this to each other or to an edge are rejected
MIN_UE_RAP_KM = 1e-3   # a UE lies at least this far from its serving RAP
SAMPLE_BATCH = 8       # candidates per pending cell per rejection round
MAX_SAMPLE_ROUNDS = 10000      # rejection rounds before UE placement gives up
MAX_LAYOUT_ATTEMPTS = 400000   # candidate RAPs before layout synthesis gives up


class LayoutError(ValueError):
    """Raised for invalid RAP layouts."""


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and power-control parameters.

    Powers are normalized so the reference power over noise,
    ``snr_ref_db``, is the single free SNR parameter (SNR at 1 km).  Every
    active UE interferes at every cloud RAP, at any distance.
    """

    alpha: float = 3.7
    s: float = 0.1
    snr_ref_db: float = 20.0

    def __post_init__(self):
        if not self.alpha > 2:
            raise ValueError("path-loss exponent must exceed 2")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("compensation factor s must lie in [0, 1]")

    @property
    def snr_ref_linear(self):
        return 10.0 ** (self.snr_ref_db / 10.0)


@dataclass(frozen=True)
class NetworkLayout:
    rap_xy: np.ndarray                 # (n, 2) km
    region: tuple                      # (xmin, ymin, xmax, ymax) km
    cell_vertices: tuple               # per-RAP CCW polygon arrays
    areas_km2: np.ndarray              # (n,)
    cloud_group: tuple                 # sorted RAP indices
    cloud_idx: np.ndarray              # cloud_group as an index array
    box: np.ndarray                    # (n, 2, 2) per cell: bounding-box span, lower-left corner
    normals: np.ndarray                # (n, 2, deg) p_j - p_i per neighbour j of cell i
    offsets: np.ndarray                # (n, 1, deg) (|p_j|^2 - |p_i|^2) / 2

    @property
    def n_total(self):
        return len(self.rap_xy)

    @property
    def n_cloud(self):
        return len(self.cloud_group)


@dataclass(frozen=True)
class SubframeDrop:
    """One network trial: who transmits, from where, through what fading."""

    active: np.ndarray        # (n_total,) bool
    active_idx: np.ndarray    # indices of active cells
    ue_xy: np.ndarray         # (n_active, 2)
    fading: np.ndarray        # (n_active, n_cloud) unit-mean exponential


def shoelace_area(vertices):
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _clipped_cell(i, xs, ys, order, region):
    """RAP i's cell: the region rectangle clipped by the bisector of RAP i
    and each RAP of ``order`` (the others, nearest first) until the next
    one is too far to cut it.  Returns the CCW vertices and the RAPs whose
    bisectors bound the cell."""
    xmin, ymin, xmax, ymax = region
    px, py = xs[i], ys[i]
    verts = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    labels = [-1, -1, -1, -1]   # labels[k]: the RAP whose bisector holds edge k -> k+1
    reach = max((x - px) ** 2 + (y - py) ** 2 for x, y in verts)
    for j in order:
        dx, dy = xs[j] - px, ys[j] - py
        half = (dx * dx + dy * dy) / 2.0   # the bisector is x . d <= |d|^2 / 2 about p_i
        if half > 2.0 * reach:             # |d| > 2 * (farthest vertex), and so for the rest
            break
        side = [(x - px) * dx + (y - py) * dy - half for x, y in verts]
        if max(side) <= 0.0:
            continue
        clipped, clipped_labels = [], []
        for k, (a, sa) in enumerate(zip(verts, side)):
            b, sb = verts[(k + 1) % len(verts)], side[(k + 1) % len(verts)]
            if sa <= 0.0:
                clipped.append(a)
                clipped_labels.append(j if sa == 0.0 and sb > 0.0 else labels[k])
            if (sa < 0.0 < sb) or (sb < 0.0 < sa):
                t = sa / (sa - sb)
                clipped.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
                clipped_labels.append(j if sa < 0.0 else labels[k])
        verts, labels = clipped, clipped_labels
        reach = max((x - px) ** 2 + (y - py) ** 2 for x, y in verts)
    return np.array(verts), sorted({label for label in labels if label >= 0})


def build_layout(rap_xy, region, cloud_group):
    """Voronoi tessellation of the region around the given RAPs.

    Clips each RAP's cell out of the region rectangle with the bisectors of
    the other RAPs, nearest first (see the module docstring).  The RAPs
    whose bisectors bound a cell are its neighbours and give its
    half-planes; rows with fewer neighbours are padded with the cell itself
    (0 <= 0).
    """
    pts = np.asarray(rap_xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise LayoutError("need at least 2 RAP positions of shape (n, 2)")
    xmin, ymin, xmax, ymax = (float(v) for v in region)
    if not (xmax > xmin and ymax > ymin):
        raise LayoutError("region must have positive extent")
    bad = ~(np.minimum(pts - (xmin, ymin), (xmax, ymax) - pts).min(axis=1) >= RESOLUTION_KM)
    if bad.any():
        raise LayoutError(f"RAP {int(np.flatnonzero(bad)[0])} lies outside the region "
                          f"or within {RESOLUTION_KM} km of its boundary")
    scaled = np.round(pts / RESOLUTION_KM).astype(np.int64)
    if len(np.unique(scaled, axis=0)) != len(pts):
        raise LayoutError("duplicate RAP positions")
    cloud = tuple(sorted(int(i) for i in cloud_group))

    n = len(pts)
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    polys, neighbours = [], []
    for i in range(n):
        gap = pts - pts[i]
        order = np.argsort((gap * gap).sum(axis=1))[1:]   # [0] is RAP i itself
        verts, nbrs = _clipped_cell(i, xs, ys, order, (xmin, ymin, xmax, ymax))
        polys.append(verts)
        neighbours.append(nbrs)
    nbr = np.repeat(np.arange(n)[:, None], max(map(len, neighbours)), axis=1)
    for i, nbrs in enumerate(neighbours):
        nbr[i, : len(nbrs)] = nbrs
    sq = (pts ** 2).sum(axis=1)
    lo = np.array([v.min(axis=0) for v in polys])
    hi = np.array([v.max(axis=0) for v in polys])
    return NetworkLayout(
        rap_xy=pts,
        region=(xmin, ymin, xmax, ymax),
        cell_vertices=tuple(polys),
        areas_km2=np.array([shoelace_area(v) for v in polys]),
        cloud_group=cloud,
        cloud_idx=np.array(cloud, dtype=int),
        box=np.stack([hi - lo, lo], axis=1),
        normals=np.ascontiguousarray((pts[nbr] - pts[:, None, :]).transpose(0, 2, 1)),
        offsets=(sq[nbr] - sq[:, None])[:, None, :] / 2.0,
    )


def synthesize_layout(rng, n_total=129, region=(0.0, 0.0, 20.0, 20.0),
                      min_sep_km=1.3, n_cloud=8):
    """Hard-core (minimum-separation) RAP layout; cloud group = cells
    nearest the region centroid."""
    xmin, ymin, xmax, ymax = region
    pts = np.empty((n_total, 2))
    n = attempts = 0
    while n < n_total:
        attempts += 1
        if attempts > MAX_LAYOUT_ATTEMPTS:
            raise LayoutError(
                f"could not place {n_total} RAPs with separation {min_sep_km} km"
            )
        cand = np.array([
            xmin + rng.random() * (xmax - xmin),
            ymin + rng.random() * (ymax - ymin),
        ])
        gap = cand - pts[:n]
        if np.all(np.hypot(gap[:, 0], gap[:, 1]) >= min_sep_km):
            pts[n] = cand
            n += 1
    centroid = np.array([(xmin + xmax) / 2.0, (ymin + ymax) / 2.0])
    dist = np.hypot(pts[:, 0] - centroid[0], pts[:, 1] - centroid[1])
    cloud = tuple(sorted(int(i) for i in np.argsort(dist)[:n_cloud]))
    return build_layout(pts, region, cloud)


def activation_probabilities(layout, density):
    """Per-cell probability that a UE transmits, 1 - exp(-lambda A_i), at lambda = ``density``."""
    return 1.0 - np.exp(-density * layout.areas_km2)


def _sample_positions(layout, cells, rng):
    """Uniform point in each listed cell via bounding-box rejection.

    Each round draws ``SAMPLE_BATCH`` candidates in the bounding box of every
    pending cell with one ``rng.random`` call, whose rows (in pending order)
    hold the doubles that one call per cell would draw, and keeps each
    cell's first candidate that satisfies all of the cell's half-planes (its
    nearest RAP is the cell's own) and clears the minimum UE-RAP separation.
    """
    out = np.empty((len(cells), 2))
    pending = np.arange(len(cells))
    rounds = 0
    while len(pending):
        rounds += 1
        if rounds > MAX_SAMPLE_ROUNDS:
            raise RuntimeError("position rejection sampling failed to converge")
        cell_ids = cells[pending]
        span, lo = layout.box[cell_ids, :, None].transpose(1, 0, 2, 3)   # each (p, 1, 2)
        cand = rng.random((len(pending), SAMPLE_BATCH, 2))
        cand *= span
        cand += lo                        # lo + r * (hi - lo), double for double
        below = np.matmul(cand, layout.normals[cell_ids]) <= layout.offsets[cell_ids]
        # all of a candidate's half-planes, reduced along the leading axis of a
        # transposed copy: over the short trailing axis numpy would make one
        # inner-loop call per candidate
        by_plane = np.ascontiguousarray(below.reshape(-1, below.shape[-1]).T)
        inside = np.logical_and.reduce(by_plane).reshape(len(pending), SAMPLE_BATCH)
        gap = cand - layout.rap_xy[cell_ids, None, :]
        gap *= gap                        # dx * dx + dy * dy below, as a sum over the pair does
        ok = inside & (gap[..., 0] + gap[..., 1] >= MIN_UE_RAP_KM * MIN_UE_RAP_KM)
        first = ok.argmax(axis=1)         # the first accepted candidate, or 0 if none is
        rows = np.arange(len(pending))
        hit = ok[rows, first]
        out[pending[hit]] = cand[rows, first][hit]
        pending = pending[~hit]
    return out


def draw_subframe(layout, density, rng):
    """Draw one subframe at ``density`` UEs per km^2: activations, UE
    positions, fading."""
    p_active = activation_probabilities(layout, density)
    active = rng.random(layout.n_total) < p_active
    active_idx = np.flatnonzero(active)
    # with no active UE the size-0 draws leave the generator state unchanged
    ue_xy = _sample_positions(layout, active_idx, rng)
    fading = rng.standard_exponential((len(active_idx), layout.n_cloud))
    return SubframeDrop(active=active, active_idx=active_idx, ue_xy=ue_xy, fading=fading)


def cloud_sinrs(drops, layout, params):
    """SINR of every active cloud cell in a block of drops (a list of
    ``SubframeDrop``), vectorised over the whole block.

    Every active UE transmits with the fractional power control d^(s * alpha)
    of its distance d to its own RAP, and interferes at every cloud RAP but
    its own.  Returns ``(subframe, targets, sinr_linear)``, aligned arrays in
    (subframe, RAP) order, ``subframe`` indexing ``drops``.

    Each SINR is bit for bit the one its drop alone would give: the
    interference of a target in a subframe with n active UEs is numpy's
    pairwise sum of a length-n row, so rows are reduced in C-contiguous
    ``(rows, n)`` stacks of equal n (padding them to a common length would
    regroup the sum).
    """
    cloud = layout.cloud_idx
    alpha, s = params.alpha, params.s
    counts = np.array([len(d.active_idx) for d in drops])
    start = np.cumsum(counts) - counts                   # each drop's first UE row
    active = np.array([d.active for d in drops])         # (drops, n_total)
    subframe, cols = np.nonzero(active[:, cloud])
    targets = cloud[cols]
    own = start[subframe] + np.cumsum(active, axis=1)[subframe, targets] - 1   # its UE's row
    ue_x, ue_y = np.concatenate([d.ue_xy for d in drops]).T.copy()
    fading = np.concatenate([d.fading for d in drops]).ravel()   # [UE row * n_cloud + column]
    serving = np.concatenate([d.active_idx for d in drops])
    serve_dist = np.hypot(ue_x - layout.rap_xy[serving, 0], ue_y - layout.rap_xy[serving, 1])
    tx_powers = serve_dist ** (s * alpha)
    signal = fading[own * len(cloud) + cols] * serve_dist[own] ** (alpha * (s - 1.0))
    lengths = counts[subframe]
    interference = np.empty(len(targets))
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        first = start[subframe[rows]]
        ues = first[:, None] + np.arange(n)              # (rows, n) UE rows of each target's subframe
        raps = layout.rap_xy[targets[rows]]
        # cross > 0: a UE is at least MIN_UE_RAP_KM > 0 from its own RAP, its nearest
        terms = np.hypot(raps[:, 0, None] - ue_x[ues], raps[:, 1, None] - ue_y[ues])
        terms **= -alpha                                 # in place: fading * cross^-alpha * power
        terms *= fading[ues * len(cloud) + cols[rows, None]]
        terms *= tx_powers[ues]
        terms[np.arange(len(rows)), own[rows] - first] = 0.0   # own UE is the signal
        interference[rows] = terms.sum(axis=1)
    return subframe, targets, signal / (1.0 / params.snr_ref_linear + interference)
