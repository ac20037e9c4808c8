import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import chi2

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
    load_layout_csv,
    shoelace_area,
    synthesize_layout,
)
from cransim.rng import substream
from oracles import compute_sinr, sample_positions, save_layout_csv


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
    # the middle RAP's cell is a 0.07 km wide diagonal band: 0.61 km^2 in a
    # 37.8 km^2 bounding box, so most rounds reject every candidate
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
    with pytest.raises(ValueError, match="range"):
        build_layout(np.array([[0.5, 1.0], [1.5, 1.0]]), (0, 0, 2, 2), (0, 7))


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


def test_shoelace_square():
    square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    assert shoelace_area(square) == pytest.approx(4.0)


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


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("layout_name", ["two_cell_layout", "big_layout", "sliver_layout"])
def test_sample_positions_matches_oracle(layout_name, batch, request, monkeypatch):
    # same substream into both samplers: same points, same stream position.
    # The sampler reads its batch, round limit and separation from module
    # constants, set here; the oracle takes them as arguments
    layout = request.getfixturevalue(layout_name)
    n = layout.n_total
    monkeypatch.setattr(geometry, "SAMPLE_BATCH", batch)
    cell_sets = (np.array([], dtype=int), np.array([n // 2]), np.arange(n))
    for k, cells in enumerate(cell_sets):
        for min_dist in (1e-3, 0.5):
            monkeypatch.setattr(geometry, "MIN_UE_RAP_KM", min_dist)
            fast, slow = (substream(11, "net", batch, k) for _ in range(2))
            got = _sample_positions(layout, cells, fast)
            want = sample_positions(layout, cells, slow, min_dist, batch=batch)
            assert np.array_equal(got, want)
            np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)
    # a separation no candidate clears: both give up after max_rounds rounds
    monkeypatch.setattr(geometry, "MIN_UE_RAP_KM", 1e3)
    monkeypatch.setattr(geometry, "MAX_SAMPLE_ROUNDS", 3)
    fast, slow = (substream(12, "net", batch) for _ in range(2))
    with pytest.raises(RuntimeError, match="converge"):
        _sample_positions(layout, np.arange(n), fast)
    with pytest.raises(RuntimeError, match="converge"):
        sample_positions(layout, np.arange(n), slow, 1e3, batch=batch, max_rounds=3)
    np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)


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
def test_half_planes_decide_nearest_rap(layout, seed):
    # a point of the region is in cell i by the half-plane rule iff RAP i
    # is its nearest, skipping points (nearly) equidistant from two RAPs
    xmin, ymin, xmax, ymax = layout.region
    u = np.random.default_rng(seed).random((500, 2))
    pts = [xmin, ymin] + u * [xmax - xmin, ymax - ymin]
    dist, nearest = cKDTree(layout.rap_xy).query(pts, k=2)
    clear = dist[:, 1] - dist[:, 0] > 1e-9
    inside = (np.matmul(pts[clear], layout.normals) <= layout.offsets).all(axis=2)
    owner = nearest[clear, 0] == np.arange(layout.n_total)[:, None]
    assert np.array_equal(inside, owner)


# Agreement with the Qhull construction, fixed before the first comparison:
# ridges of at most RIDGE_TOL_KM count as zero-length (cocircular RAPs meet
# in a point), areas agree within AREA_TOL of the region's area and
# bounding boxes within BOX_TOL_KM.
RIDGE_TOL_KM = RESOLUTION_KM
AREA_TOL = 1e-9
BOX_TOL_KM = 1e-9


def bisector_edges(layout):
    """Per cell, each neighbour its half-planes name (the padding dropped),
    with the length of the cell's edge on their bisector."""
    pts = layout.rap_xy
    out = []
    for i, verts in enumerate(layout.cell_vertices):
        edges = {}
        for d in layout.normals[i].T[layout.normals[i].T.any(axis=1)]:
            gap = np.hypot(*(pts - (pts[i] + d)).T)
            j = int(np.argmin(gap))
            assert gap[j] < 1e-12
            norm = math.hypot(*d)
            on = verts[np.abs((verts - pts[i]) @ d - norm * norm / 2) <= RIDGE_TOL_KM * norm]
            assert len(on), f"the bisector of RAPs {i} and {j} misses cell {i}"
            along = on @ (-d[1], d[0]) / norm
            edges[j] = float(along.max() - along.min())
        out.append(edges)
    return out


def assert_matches_qhull(layout, areas_too=True):
    polys, areas, ridges = oracles.voronoi_cells(layout.rap_xy, layout.region)
    for i, edges in enumerate(bisector_edges(layout)):
        got = {j for j, length in edges.items() if length > RIDGE_TOL_KM}
        want = {j for j, length in ridges[i].items() if length > RIDGE_TOL_KM}
        assert got == want, f"cell {i}"
    if areas_too:
        xmin, ymin, xmax, ymax = layout.region
        assert np.abs(layout.areas_km2 - areas).max() <= AREA_TOL * (xmax - xmin) * (ymax - ymin)
        assert np.abs(layout.lo - [v.min(axis=0) for v in polys]).max() <= BOX_TOL_KM
        assert np.abs(layout.hi - [v.max(axis=0) for v in polys]).max() <= BOX_TOL_KM


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
    # 1e-8 km from an edge, so the clipper's areas are checked by their sum
    rng = np.random.default_rng(seed)
    width, height = 10.0, 4.0
    pts = rng.random((10, 2)) * [width, height]
    axis = seed % 2
    pts[0, axis] = (width, height)[axis] - 1e-8 if seed % 4 > 1 else 1e-8
    layout = build_layout(pts, (0.0, 0.0, width, height), ())
    assert abs(layout.areas_km2.sum() / (width * height) - 1.0) < 1e-12
    assert_matches_qhull(layout, areas_too=False)


def test_sinr_unit_distance_no_interference(two_cell_layout):
    params = ChannelParams(alpha=3.7, s=0.1, snr_ref_db=20.0)
    drop = SubframeDrop(
        active=np.array([True, False]),
        active_idx=np.array([0]),
        ue_xy=np.array([[3.0, 1.25]]),  # 1 km from RAP 0
        fading=np.ones((1, 2)),
    )
    gamma = cloud_sinrs(drop, two_cell_layout, params)[1][0]
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
        gamma = cloud_sinrs(drop, two_cell_layout, params)[1][0]
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
    gamma = cloud_sinrs(drop, two_cell_layout, params)[1][0]
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
    assert cloud_sinrs(lone, two_cell_layout, params)[1][0] > gamma


def test_cloud_sinrs_matches_scalar(big_layout):
    params = ChannelParams()
    for t in range(20):
        rng = substream(5, "net", 0, t)
        drop = draw_subframe(big_layout, 0.3, rng)
        targets, sinr = cloud_sinrs(drop, big_layout, params)
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


def test_layout_csv_round_trip(two_cell_layout, tmp_path):
    path = tmp_path / "layout.csv"
    save_layout_csv(two_cell_layout, path)
    loaded = load_layout_csv(path, two_cell_layout.region)
    assert np.allclose(loaded.rap_xy, two_cell_layout.rap_xy)
    assert loaded.cloud_group == two_cell_layout.cloud_group


def test_layout_csv_errors_name_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x_km,y_km,in_cloud_group\n0,1.0,1.0,1\n1,oops,2.0,0\n")
    with pytest.raises(LayoutError, match="row 3"):
        load_layout_csv(path, (0, 0, 4, 4))
    path.write_text("id,x_km,y_km\n0,1.0,1.0\n")
    with pytest.raises(LayoutError, match="header"):
        load_layout_csv(path, (0, 0, 4, 4))


def test_synthesizer_respects_min_separation(big_layout):
    from scipy.spatial.distance import pdist

    assert pdist(big_layout.rap_xy).min() >= 1.3
