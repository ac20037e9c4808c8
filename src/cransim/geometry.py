"""Multi-cell geometry and uplink channel.

RAPs are arbitrary points in a rectangular region; cells are the Voronoi
tessellation clipped to the region.  Each cell is built on its own: the
region rectangle, clipped (Sutherland-Hodgman) by the bisector half-plane of
every other RAP, nearest first, until the next RAP is more than twice as far
away as the cell's farthest vertex, so that its bisector cannot reach the
cell.  Users form a planar PPP: per subframe, cell i holds a transmitting
UE with probability 1 - exp(-lambda * A_i) (complement of the void
probability), placed uniformly in the cell.

A convex cell is the fan of triangles (p_i, v_k, v_k+1) about its RAP.  A
uniform point of the cell is a triangle picked by area, then a uniform point
of that triangle: p_i + r1 e1 + r2 e2 for its edge vectors e1 = v_k - p_i,
e2 = v_k+1 - p_i and uniform (r1, r2), reflected to (1 - r1, 1 - r2) when
r1 + r2 > 1 (Turk, "Generating random points in triangles", Graphics Gems,
1990).  No step uses BLAS, whose kernel, and so whose bits, depend on the CPU.

The uplink uses fractional power control P = P0 * d^(s*alpha), and the
SINR at a cloud RAP follows from unit-mean exponential (Rayleigh) block
fading with the noise folded into the unit-distance SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RESOLUTION_KM = 1e-9   # RAPs closer than this to each other or to an edge are rejected
MIN_UE_RAP_KM = 1e-3   # a UE lies at least this far from its serving RAP
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
    fan_cdf: np.ndarray                # (n, deg) cumulative area share of fan triangle k, padded with 1
    fan_edges: np.ndarray              # (n, deg, 2, 2) fan triangle k's edge vectors e1, e2

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


def _clipped_cell(i, xs, ys, order, region):
    """RAP i's cell: the region rectangle clipped by the bisector of RAP i
    and each RAP of ``order`` (the others, nearest first) until the next
    one is too far to cut it.  Returns the CCW vertices."""
    xmin, ymin, xmax, ymax = region
    px, py = xs[i], ys[i]
    verts = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    reach = max((x - px) ** 2 + (y - py) ** 2 for x, y in verts)
    for j in order:
        dx, dy = xs[j] - px, ys[j] - py
        half = (dx * dx + dy * dy) / 2.0   # the bisector is x . d <= |d|^2 / 2 about p_i
        if half > 2.0 * reach:             # |d| > 2 * (farthest vertex), and so for the rest
            break
        side = [(x - px) * dx + (y - py) * dy - half for x, y in verts]
        if max(side) <= 0.0:
            continue
        clipped = []
        for k, (a, sa) in enumerate(zip(verts, side)):
            b, sb = verts[(k + 1) % len(verts)], side[(k + 1) % len(verts)]
            if sa <= 0.0:
                clipped.append(a)
            if (sa < 0.0 < sb) or (sb < 0.0 < sa):
                t = sa / (sa - sb)
                clipped.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
        verts = clipped
        reach = max((x - px) ** 2 + (y - py) ** 2 for x, y in verts)
    return np.array(verts)


def build_layout(rap_xy, region, cloud_group):
    """Voronoi tessellation of the region around the given RAPs.

    Clips each RAP's cell out of the region rectangle with the bisectors of
    the other RAPs, nearest first, and fans it into triangles about its RAP
    (see the module docstring).  A cell's area is the exact sum of its
    triangles' (``math.fsum``).  A cell must hold twice the area of the disk
    of radius ``MIN_UE_RAP_KM`` about its RAP, so that a uniform point of
    the cell clears the disk with probability at least 1/2.
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
    polys = []
    for i in range(n):
        gap = pts - pts[i]
        order = np.argsort((gap * gap).sum(axis=1))[1:]   # [0] is RAP i itself
        polys.append(_clipped_cell(i, xs, ys, order, (xmin, ymin, xmax, ymax)))
    deg = max(map(len, polys))
    areas = np.empty(n)
    fan_cdf = np.ones((n, deg))      # so the first share above a pick u < 1 is never padding
    fan_edges = np.zeros((n, deg, 2, 2))
    min_area = 2.0 * math.pi * MIN_UE_RAP_KM * MIN_UE_RAP_KM
    for i, verts in enumerate(polys):
        e1 = verts - pts[i]
        e2 = np.roll(e1, -1, axis=0)
        # twice each triangle's area; CCW, so >= 0 but for rounding at a zero-length edge
        twice = np.maximum(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0], 0.0)
        areas[i] = 0.5 * math.fsum(twice)
        if not areas[i] >= min_area:
            raise LayoutError(f"cell {i} has area {areas[i]:.3g} km^2, less than twice that "
                              f"of the disk of radius {MIN_UE_RAP_KM} km about its RAP, "
                              f"where no UE is placed")
        cum = np.cumsum(twice)
        fan_cdf[i, : len(verts)] = cum / cum[-1]   # the last share is exactly 1
        fan_edges[i, : len(verts)] = np.stack([e1, e2], axis=1)
    return NetworkLayout(
        rap_xy=pts,
        region=(xmin, ymin, xmax, ymax),
        cell_vertices=tuple(polys),
        areas_km2=areas,
        cloud_group=cloud,
        cloud_idx=np.array(cloud, dtype=int),
        fan_cdf=fan_cdf,
        fan_edges=fan_edges,
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
    """Uniform point in each listed cell: a fan triangle picked by area and
    a reflected uniform point of it (see the module docstring).

    Each round draws three uniforms per pending UE with one ``rng.random``
    call, rows in pending order: the pick, r1 and r2.  Only a UE that lands
    within ``MIN_UE_RAP_KM`` of its RAP is redrawn, which happens with
    probability at most 1/2 (see ``build_layout``).
    """
    out = np.empty((len(cells), 2))
    pending = np.arange(len(cells))
    while len(pending):
        cell_ids = cells[pending]
        u = rng.random((len(pending), 3))
        tri = (layout.fan_cdf[cell_ids] > u[:, :1]).argmax(axis=1)   # first share above the pick
        e1, e2 = layout.fan_edges[cell_ids, tri].transpose(1, 0, 2)   # each (p, 2)
        r = u[:, 1:]
        flip = r[:, 0] + r[:, 1] > 1.0
        r[flip] = 1.0 - r[flip]
        rap = layout.rap_xy[cell_ids]
        xy = rap + (r[:, :1] * e1 + r[:, 1:] * e2)
        gap = xy - rap
        gap *= gap                        # dx * dx + dy * dy below, as the scalar oracle sums it
        ok = gap[:, 0] + gap[:, 1] >= MIN_UE_RAP_KM * MIN_UE_RAP_KM
        out[pending[ok]] = xy[ok]
        pending = pending[~ok]
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
        # cross > 0: a UE lies in its own cell, at least MIN_UE_RAP_KM > 0 from its
        # own RAP and so, but for rounding at a cell edge, from every other
        terms = np.hypot(raps[:, 0, None] - ue_x[ues], raps[:, 1, None] - ue_y[ues])
        terms **= -alpha                                 # in place: fading * cross^-alpha * power
        terms *= fading[ues * len(cloud) + cols[rows, None]]
        terms *= tx_powers[ues]
        terms[np.arange(len(rows)), own[rows] - first] = 0.0   # own UE is the signal
        interference[rows] = terms.sum(axis=1)
    return subframe, targets, signal / (1.0 / params.snr_ref_linear + interference)
