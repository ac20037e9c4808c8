import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import chi2, kstest

import oracles
from cransim import geometry
from cransim.geometry import (
    MIN_UE_RAP_KM,
    RESOLUTION_KM,
    ChannelParams,
    LayoutError,
    SubframeDrop,
    _sample_positions,
    activation_probabilities,
    build_layout,
    cloud_sinrs,
    draw_subframe,
    synthesize_layout,
)
from cransim.rng import substream
from oracles import compute_sinr, sample_positions


@pytest.fixture(scope="module")
def two_cell_layout():
    # symmetric halves of an 8 x 2.5 km rectangle: 10 km^2 each
    raps = np.array([[2.0, 1.25], [6.0, 1.25]])
    return build_layout(raps, (0.0, 0.0, 8.0, 2.5), cloud_group=(0, 1))


@pytest.fixture(scope="module")
def big_layout():
    rng = substream(4242, "layout", 0)
    return synthesize_layout(rng, n_total=129, region=(0, 0, 20, 20),
                             min_sep_km=1.3, n_cloud=8)


@pytest.fixture(scope="module")
def sliver_layout():
    # the middle RAP's cell is a 0.07 km wide diagonal band of 0.61 km^2: a
    # fan of two long thin triangles and two short ones at the region edges
    raps = np.array([[3.0, 3.0], [3.05, 3.05], [3.1, 3.1]])
    return build_layout(raps, (0.0, 0.0, 10.0, 10.0), cloud_group=(1,))


def test_two_cell_symmetric_areas(two_cell_layout):
    assert two_cell_layout.areas_km2 == pytest.approx([10.0, 10.0], rel=1e-12)


def test_area_conservation(big_layout):
    total = big_layout.areas_km2.sum()
    assert abs(total - 400.0) / 400.0 < 1e-6


def test_cloud_group_is_central(big_layout):
    assert big_layout.n_cloud == 8
    centroid = np.array([10.0, 10.0])
    cloud_d = np.hypot(*(big_layout.rap_xy[list(big_layout.cloud_group)] - centroid).T)
    others = [i for i in range(129) if i not in big_layout.cloud_group]
    other_d = np.hypot(*(big_layout.rap_xy[others] - centroid).T)
    assert cloud_d.max() <= other_d.min() + 1e-12


def test_layout_errors():
    raps = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(LayoutError, match="duplicate"):
        build_layout(raps, (0, 0, 2, 2), ())
    with pytest.raises(LayoutError, match="outside"):
        build_layout(np.array([[1.0, 1.0], [5.0, 1.0]]), (0, 0, 2, 2), ())


def test_nearest_rap_point_counts_match_areas(big_layout):
    # point-sampling oracle: uniform points land in cell i w.p. A_i / total
    rng = np.random.default_rng(555)
    n = 1_000_000
    pts = rng.random((n, 2)) * 20.0
    _, nearest = cKDTree(big_layout.rap_xy).query(pts)
    counts = np.bincount(nearest, minlength=129)
    p = big_layout.areas_km2 / 400.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 4.0 * sigma)
    # aggregate consistency
    chi2_stat = float(((counts - n * p) ** 2 / (n * p)).sum())
    assert chi2.sf(chi2_stat, df=128) > 0.001


def test_activation_probability_formula(two_cell_layout):
    p = activation_probabilities(two_cell_layout, 0.1)
    assert p == pytest.approx([1 - math.exp(-1.0)] * 2)


def test_activation_frequency_matches_void_probability(two_cell_layout):
    # closed-form Bernoulli oracle: lambda * A = 1 -> p = 1 - e^{-1}
    n = 30_000
    hits = np.zeros(2)
    for t in range(n):
        rng = substream(99, "net", 0, t)
        drop = draw_subframe(two_cell_layout, 0.1, rng)
        hits += drop.active
    p = 1 - math.exp(-1.0)
    sigma = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(hits / n - p) < 3 * sigma)


def test_zero_and_huge_density(two_cell_layout):
    rng = substream(1, "net", 0, 0)
    none = draw_subframe(two_cell_layout, 0.0, rng)
    assert not none.active.any()
    rng = substream(1, "net", 0, 1)
    all_on = draw_subframe(two_cell_layout, 1e6, rng)
    assert all_on.active.all()


def test_positions_inside_own_cell(big_layout):
    for t in range(50):
        rng = substream(3, "net", 0, t)
        drop = draw_subframe(big_layout, 0.3, rng)
        if len(drop.active_idx) == 0:
            continue
        dist, nearest = cKDTree(big_layout.rap_xy).query(drop.ue_xy)
        assert np.array_equal(nearest, drop.active_idx)
        assert np.all(dist >= MIN_UE_RAP_KM)


def test_in_cell_uniformity_chi2(two_cell_layout):
    # cell 0 is exactly the rectangle [0,4] x [0,2.5]; bin on an equal-area
    # grid and test uniformity
    xs = []
    for t in range(20_000):
        rng = substream(17, "net", 0, t)
        drop = draw_subframe(two_cell_layout, 10.0, rng)  # always active
        row = np.flatnonzero(drop.active_idx == 0)
        if len(row):
            xs.append(drop.ue_xy[row[0]])
    pts = np.array(xs)
    assert np.all(pts[:, 0] <= 4.0)
    bx = np.clip((pts[:, 0] / 4.0 * 8).astype(int), 0, 7)
    by = np.clip((pts[:, 1] / 2.5 * 5).astype(int), 0, 4)
    counts = np.bincount(bx * 5 + by, minlength=40)
    expected = len(pts) / 40.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, df=39) > 0.01


def test_fading_is_unit_exponential(two_cell_layout):
    # Rayleigh fading: every (UE, cloud RAP) power gain is Exp(1).  Both
    # cells are always active, so 2500 subframes pool 10000 gains
    rng = substream(23, "net", 0, 0)
    gains = np.concatenate([draw_subframe(two_cell_layout, 10.0, rng).fading.ravel()
                            for _ in range(2500)])
    assert len(gains) == 10_000
    assert kstest(gains, "expon").pvalue > 1e-3


@pytest.mark.parametrize("per_cell", [1, 2, 8])
@pytest.mark.parametrize("layout_name", ["two_cell_layout", "big_layout", "sliver_layout"])
def test_sample_positions_matches_oracle(layout_name, per_cell, request, monkeypatch):
    # same substream into both samplers: same points, same stream position,
    # with ``per_cell`` UEs in each listed cell.  The sampler reads its
    # separation from a module constant, set here; the oracle takes it as an
    # argument.  At 0.5 km many UEs are redrawn, in later rounds
    layout = request.getfixturevalue(layout_name)
    n = layout.n_total
    cell_sets = (np.array([], dtype=int), np.array([n // 2]), np.arange(n))
    for k, cells in enumerate(cell_sets):
        cells = np.repeat(cells, per_cell)
        for min_dist in (1e-3, 0.5):
            monkeypatch.setattr(geometry, "MIN_UE_RAP_KM", min_dist)
            fast, slow = (substream(11, "net", per_cell, k) for _ in range(2))
            got = _sample_positions(layout, cells, fast)
            want = sample_positions(layout, cells, slow, min_dist)
            assert np.array_equal(got, want)
            np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)


def fan_coordinates(layout, cells, ue_xy):
    """From the cells' vertices alone: per UE, the triangle (RAP, v_k,
    v_k+1) of its cell's fan that holds it, as k, and its coordinates
    (r1, r2) on that triangle's edges e1 = v_k - RAP, e2 = v_k+1 - RAP.
    Also each cell's triangle areas, as shares of the cell."""
    tri, coords, shares = np.empty(len(cells), dtype=int), np.empty((len(cells), 2)), {}
    for c in np.unique(cells):
        rows = np.flatnonzero(cells == c)
        e1 = layout.cell_vertices[c] - layout.rap_xy[c]
        e2 = np.roll(e1, -1, axis=0)
        twice = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        shares[c] = twice / twice.sum()
        d = (ue_xy[rows] - layout.rap_xy[c])[:, None, :]
        r1 = (d[..., 0] * e2[:, 1] - d[..., 1] * e2[:, 0]) / twice   # (rows, triangles)
        r2 = (e1[:, 0] * d[..., 1] - e1[:, 1] * d[..., 0]) / twice
        tri[rows] = np.minimum(r1, r2).argmax(axis=1)   # both >= 0 only in its own
        coords[rows] = np.stack([r1, r2], axis=2)[np.arange(len(rows)), tri[rows]]
    return tri, coords, shares


# UEs placed per cloud cell in the fan tests below: the sliver's middle
# cell, and the shipped layout's 8 cloud cells (triangle shares 0.004-0.31)
FAN_UES_PER_CELL = {"sliver_layout": 20_000, "big_layout": 4_000}


def fan_draws(request, layout_name, seed):
    layout = request.getfixturevalue(layout_name)
    cells = np.repeat(layout.cloud_idx, FAN_UES_PER_CELL[layout_name])
    return fan_coordinates(layout, cells, _sample_positions(layout, cells, substream(seed, "net", 0, 0)))


@pytest.mark.parametrize("layout_name", sorted(FAN_UES_PER_CELL))
def test_fan_triangle_counts_match_area_shares(layout_name, request):
    # a triangle is picked by its area: counts per triangle against the
    # shares from the cells' vertices, chi-square pooled over the cells.
    # Threshold fixed before the first run
    tri, _, shares = fan_draws(request, layout_name, 29)
    n = FAN_UES_PER_CELL[layout_name]
    stat = df = 0.0
    for k, p in enumerate(shares.values()):   # the cells are repeated in turn
        counts = np.bincount(tri[k * n:(k + 1) * n], minlength=len(p))
        stat += float(((counts - n * p) ** 2 / (n * p)).sum())
        df += len(p) - 1
    assert chi2.sf(stat, df) > 1e-3


@pytest.mark.parametrize("layout_name", sorted(FAN_UES_PER_CELL))
def test_fan_coordinates_are_uniform(layout_name, request):
    # a uniform point of a triangle has s = r1 + r2 with density 2s on
    # [0, 1] and r1 uniform on [0, s]: s^2 and r1 / s are U(0, 1).
    # Thresholds fixed before the first run
    r1, r2 = fan_draws(request, layout_name, 31)[1].T
    s = r1 + r2
    assert kstest(s * s, "uniform").pvalue > 1e-3
    assert kstest(r1 / s, "uniform").pvalue > 1e-3


GRID = 64  # layouts below put RAPs on a GRID x GRID lattice of the region


@st.composite
def lattice_layouts(draw):
    """RAP layouts of the shapes that stress a tessellation: two RAPs,
    collinear RAPs, a sliver cell, any (lattice points are often cocircular,
    so cells meet in zero-length ridges); RAPs sit on the interior lattice
    points 1..GRID-1 (``build_layout`` rejects a RAP on an edge)."""
    kind = draw(st.sampled_from(["two", "collinear", "sliver", "any"]))
    lattice = st.integers(1, GRID - 1)
    if kind == "collinear":
        x0, y0 = draw(lattice), draw(lattice)
        dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        steps = range(draw(st.integers(2, 8)))
        ij = [(x0 + k * dx, y0 + k * dy) for k in steps]
    elif kind == "sliver":
        x0, y0 = draw(st.integers(1, GRID - 4)), draw(st.integers(1, GRID - 4))
        ij = [(x0 + k, y0 + k) for k in range(3)]
    else:
        n = 2 if kind == "two" else draw(st.integers(3, 12))
        ij = draw(st.lists(st.tuples(lattice, lattice), min_size=n, max_size=n))
    ij = np.array(ij, dtype=float)
    assume(((ij >= 1) & (ij <= GRID - 1)).all())
    width, height = draw(st.sampled_from([1.0, 2.5, 10.0])), draw(st.sampled_from([1.0, 4.0]))
    try:
        return build_layout(ij / GRID * [width, height], (0.0, 0.0, width, height), ())
    except LayoutError:   # duplicates
        assume(False)


@settings(max_examples=100, deadline=None)
@given(ij=st.lists(st.tuples(st.integers(1, GRID - 1), st.integers(1, GRID - 1)),
                   min_size=2, max_size=12, unique=True),
       axis=st.integers(0, 1), far=st.booleans(), inset=st.sampled_from([0.0, 1e-12, 5e-10]),
       width=st.sampled_from([1.0, 2.5, 10.0]))
def test_rap_on_region_edge_is_rejected(ij, axis, far, inset, width):
    # a RAP on an edge would coincide with its own mirror in the Qhull
    # construction (oracles.voronoi_cells), which keeps only one of the two
    size = np.array([width, 4.0])
    pts = np.array(ij, dtype=float) / GRID * size
    pts[0, axis] = size[axis] - inset if far else inset
    with pytest.raises(LayoutError, match="RAP 0 lies outside the region or within 1e-09 km"):
        build_layout(pts, (0.0, 0.0, *size), ())


@settings(max_examples=300, deadline=None)
@given(layout=lattice_layouts(), seed=st.integers(0, 2**32 - 1))
def test_sampled_ues_are_nearest_their_own_rap(layout, seed):
    # every UE placed in cell i has RAP i as its nearest, skipping UEs
    # (nearly) equidistant from two RAPs, lies in the region and clears the
    # exclusion disk about RAP i
    cells = np.repeat(np.arange(layout.n_total), 40)
    ue_xy = _sample_positions(layout, cells, np.random.default_rng(seed))
    dist, nearest = cKDTree(layout.rap_xy).query(ue_xy, k=2)
    clear = dist[:, 1] - dist[:, 0] > 1e-9
    assert np.array_equal(nearest[clear, 0], cells[clear])
    xmin, ymin, xmax, ymax = layout.region
    assert np.all((ue_xy >= (xmin - 1e-12, ymin - 1e-12)) & (ue_xy <= (xmax + 1e-12, ymax + 1e-12)))
    assert np.all(np.hypot(*(ue_xy - layout.rap_xy[cells]).T) >= MIN_UE_RAP_KM)


# Agreement with the Qhull construction, fixed before the first comparison:
# vertices at most RIDGE_TOL_KM apart count as one (cocircular RAPs meet in
# a zero-length ridge), the merged vertices agree within VERTEX_TOL_KM and
# areas within AREA_TOL of the region's area.
RIDGE_TOL_KM = RESOLUTION_KM
AREA_TOL = 1e-9
VERTEX_TOL_KM = 1e-9


def merged(verts):
    """A polygon's vertices less each within RIDGE_TOL_KM of the last one
    kept, and less the last kept if it is that close to the first."""
    kept = [verts[0]]
    for v in verts[1:]:
        if math.hypot(*(v - kept[-1])) > RIDGE_TOL_KM:
            kept.append(v)
    if len(kept) > 1 and math.hypot(*(kept[-1] - kept[0])) <= RIDGE_TOL_KM:
        kept.pop()
    return np.array(kept)


def assert_matches_qhull(layout, vertex_tol_km=VERTEX_TOL_KM, areas_too=True):
    polys, areas = oracles.voronoi_cells(layout.rap_xy, layout.region)
    for i, (got, want) in enumerate(zip(layout.cell_vertices, polys)):
        got, want = merged(got), merged(want)
        assert len(got) == len(want), f"cell {i}"
        # both CCW: start Qhull's at the vertex nearest the clipper's first
        want = np.roll(want, -int(np.hypot(*(want - got[0]).T).argmin()), axis=0)
        assert np.abs(got - want).max() <= vertex_tol_km, f"cell {i}"
    if areas_too:
        xmin, ymin, xmax, ymax = layout.region
        assert np.abs(layout.areas_km2 - areas).max() <= AREA_TOL * (xmax - xmin) * (ymax - ymin)


@settings(max_examples=200, deadline=None)
@given(layout=lattice_layouts())
def test_clipped_cells_match_qhull_on_lattices(layout):
    assert_matches_qhull(layout)


@pytest.mark.parametrize("n_total, side_km, min_sep_km", [(129, 20.0, 1.3), (1000, 40.0, 0.9)])
def test_clipped_cells_match_qhull_on_synthesized_layouts(n_total, side_km, min_sep_km):
    layout = synthesize_layout(substream(4242, "layout", n_total), n_total=n_total,
                               region=(0.0, 0.0, side_km, side_km), min_sep_km=min_sep_km)
    assert_matches_qhull(layout)


@pytest.mark.parametrize("seed", range(20))
def test_rap_near_an_edge_conserves_area(seed):
    # Qhull's cells lose about 6e-9 of their relative area when a RAP sits
    # 1e-8 km from an edge, and its vertices move by up to that 1e-8 km, so
    # the clipper's areas are checked by their sum and its vertices within
    # 1e-7 km
    rng = np.random.default_rng(seed)
    width, height = 10.0, 4.0
    pts = rng.random((10, 2)) * [width, height]
    axis = seed % 2
    pts[0, axis] = (width, height)[axis] - 1e-8 if seed % 4 > 1 else 1e-8
    layout = build_layout(pts, (0.0, 0.0, width, height), ())
    assert abs(layout.areas_km2.sum() / (width * height) - 1.0) < 1e-12
    assert_matches_qhull(layout, vertex_tol_km=1e-7, areas_too=False)


# digests of the shipped layout's cell areas and of the UE positions of one
# 250-subframe draw chunk at 1 UE/km^2
LAYOUT_AND_CHUNK_DIGESTS = """
import hashlib
import numpy as np
from cransim.geometry import draw_subframe, synthesize_layout
from cransim.rng import substream

layout = synthesize_layout(substream(4242, "layout", 0))
rng = substream(4242, "net", 0, 0)
ue_xy = np.concatenate([draw_subframe(layout, 1.0, rng).ue_xy for _ in range(250)])
digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (layout.areas_km2, ue_xy)]
"""


def test_layout_and_positions_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel for the CPU at run time, and the bits of a
    # BLAS product depend on it (Prescott's has no FMA), so the layout and
    # the draw use no BLAS call: the digests match a child process that is
    # made to use the Prescott kernel
    here = {}
    exec(LAYOUT_AND_CHUNK_DIGESTS, here)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", LAYOUT_AND_CHUNK_DIGESTS + "print(*digests)"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == here["digests"]


def test_sinr_unit_distance_no_interference(two_cell_layout):
    params = ChannelParams(alpha=3.7, s=0.1, snr_ref_db=20.0)
    drop = SubframeDrop(
        active=np.array([True, False]),
        active_idx=np.array([0]),
        ue_xy=np.array([[3.0, 1.25]]),  # 1 km from RAP 0
        fading=np.ones((1, 2)),
    )
    gamma = cloud_sinrs([drop], two_cell_layout, params)[2][0]
    assert 10 * math.log10(gamma) == pytest.approx(20.0, abs=1e-9)


def test_sinr_full_compensation_distance_free(two_cell_layout):
    params = ChannelParams(alpha=3.7, s=1.0, snr_ref_db=17.0)
    for d in (0.25, 0.5, 1.5):
        drop = SubframeDrop(
            active=np.array([True, False]),
            active_idx=np.array([0]),
            ue_xy=np.array([[2.0 + d, 1.25]]),
            fading=np.ones((1, 2)),
        )
        gamma = cloud_sinrs([drop], two_cell_layout, params)[2][0]
        assert gamma == pytest.approx(params.snr_ref_linear)


def test_sinr_single_interferer_hand_oracle(two_cell_layout):
    # scalar-arithmetic oracle for the full SINR expression
    alpha, s, snr_db = 3.7, 0.1, 20.0
    params = ChannelParams(alpha=alpha, s=s, snr_ref_db=snr_db)
    d_serve = 0.5
    g_serve = 1.2
    d_int_own = 0.8      # interferer to its own RAP (cell 1, 4 km from RAP 0)
    d_cross = 3.2        # interferer UE to RAP 0
    g_cross = 0.7
    ue0 = np.array([2.0 + d_serve, 1.25])
    ue1 = np.array([6.0 - d_int_own, 1.25])
    drop = SubframeDrop(
        active=np.array([True, True]),
        active_idx=np.array([0, 1]),
        ue_xy=np.vstack([ue0, ue1]),
        fading=np.array([[g_serve, 0.3], [g_cross, 0.9]]),
    )
    gamma = cloud_sinrs([drop], two_cell_layout, params)[2][0]
    num = g_serve * d_serve ** (alpha * (s - 1.0))
    den = 10 ** (-snr_db / 10) + g_cross * d_cross ** (-alpha) * d_int_own ** (s * alpha)
    assert gamma == pytest.approx(num / den, rel=1e-12)
    # adding an interferer strictly decreased the SINR
    lone = SubframeDrop(
        active=np.array([True, False]),
        active_idx=np.array([0]),
        ue_xy=ue0[None, :],
        fading=np.array([[g_serve, 0.3]]),
    )
    assert cloud_sinrs([lone], two_cell_layout, params)[2][0] > gamma


def test_cloud_sinrs_matches_scalar(big_layout):
    params = ChannelParams()
    for t in range(20):
        rng = substream(5, "net", 0, t)
        drop = draw_subframe(big_layout, 0.3, rng)
        _, targets, sinr = cloud_sinrs([drop], big_layout, params)
        for rap, value in zip(targets, sinr):
            assert value == pytest.approx(
                compute_sinr(drop, big_layout, params, int(rap)), rel=1e-9
            )


def test_power_control_softens_distance_decay():
    # signal term d^(alpha(s-1)): with s > 0 the received power falls more
    # slowly with serving distance than with s = 0
    alpha = 3.7
    d1, d2 = 0.5, 2.0
    drop_s0 = (d2 / d1) ** (alpha * (0.0 - 1.0))
    drop_s5 = (d2 / d1) ** (alpha * (0.5 - 1.0))
    assert drop_s5 > drop_s0


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(alpha=1.5)
    with pytest.raises(ValueError):
        ChannelParams(s=1.2)


def test_synthesizer_respects_min_separation(big_layout):
    from scipy.spatial.distance import pdist

    assert pdist(big_layout.rap_xy).min() >= 1.3
