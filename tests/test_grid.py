"""Grid construction, attachment, shortest-path plumbing."""
import hashlib

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import fresh_graph, sample_interior
from qhgeo import (GridParams, build_grid, compile_domain,
                   gromov_product, nearest_node)
from qhgeo import grid as grid_module
from qhgeo.curves import ArcPiece, SegPiece, pieces_distance
from qhgeo.errors import (DomainError, InternalInvariantError, ResolutionError,
                          UnreachableError)
from qhgeo.geometry import as_point
from qhgeo.grid import _ball_certified
from qhgeo.suites import load_suite_params


def test_coarse_disk_grid_exact(disk_domain):
    # h=0.5 without refinement leaves exactly the four cells around the origin
    g = build_grid(disk_domain, GridParams(h=0.5, boundary_layer=0, diag=False))
    assert g.node_count == 4
    assert sorted(map(tuple, g.centers.tolist())) == [
        (-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)]
    assert g.edge_count == 4  # plain square cycle
    assert len(set(g.labels.tolist())) == 1


def test_resolution_error():
    tiny = compile_domain({"type": "disk", "center": [0, 0], "radius": 0.1})
    with pytest.raises(ResolutionError):
        build_grid(tiny, GridParams(h=0.5))


def test_gridparams_validation():
    with pytest.raises(Exception):
        GridParams(h=0.0)
    with pytest.raises(Exception):
        GridParams(h=0.1, boundary_layer=-1)


def test_nearest_node_and_attach(disk_domain):
    g = build_grid(disk_domain, GridParams(h=0.5, boundary_layer=0, diag=False))
    idx = g.nearest_node((0.2, 0.2))
    assert tuple(g.centers[idx]) == (0.25, 0.25)
    assert nearest_node(g, (0.2, 0.2)) == idx
    with pytest.raises(DomainError):
        g.nearest_node((1.5, 0.0))
    u, stub, euc = g.attach((0.25, 0.25))
    assert u == idx and stub == 0.0 and euc == 0.0
    u2, stub2, euc2 = g.attach((0.2, 0.2))
    assert u2 == idx and stub2 > 0.0 and np.isclose(euc2, np.hypot(0.05, 0.05))


def test_refinement_layers(disk128, disk_domain):
    # one boundary layer: levels 0 and 1 present, finer cells hug the rim
    levels = np.bincount(disk128.levels)
    assert len(levels) == 2 and levels.min() > 0
    r = np.hypot(disk128.centers[:, 0], disk128.centers[:, 1])
    assert r[disk128.levels == 1].min() > r[disk128.levels == 0].max() - 0.1
    assert disk128.warnings == []


def test_no_edge_crosses_slit(slit_domain):
    g = build_grid(slit_domain, GridParams(h=0.05, boundary_layer=0))
    rows, cols = g.csr_qh.nonzero()
    m = rows < cols
    crosses = slit_domain.crossings(g.centers[rows[m]], g.centers[cols[m]])
    assert not crosses.any()


def test_distance_routes_around_slit(slit_grid):
    ks = slit_grid.qh_distance((0.5, 0.04), (0.5, -0.04))
    kd = slit_grid.qh_distance((0.5, 0.04), (0.52, 0.06))
    assert ks > 3.0 * kd


def test_disk_distance_closed_forms(disk128):
    # h=1/128 overshoots log(1/(1-r)) by a percent or three; the tight 2%
    # figure needs h=1/256 and is covered by the acceptance suite
    k1 = disk128.qh_distance((0, 0), (0.5, 0))
    k2 = disk128.qh_distance((0, 0), (0.9, 0))
    assert abs(k1 / np.log(2) - 1) < 0.03
    assert abs(k2 / np.log(10) - 1) < 0.04


def test_distance_symmetry_bitwise(disk128):
    a = disk128.qh_distance((0.13, 0.41), (-0.62, 0.05))
    b = disk128.qh_distance((-0.62, 0.05), (0.13, 0.41))
    assert a == b
    assert disk128.qh_distance((0.3, 0.3), (0.3, 0.3)) == 0.0


def test_geodesic_follows_radius(disk128):
    path = disk128.qh_geodesic((0, 0), (0.9, 0))
    assert np.abs(path.points[:, 1]).max() <= 2 / 128
    k = disk128.qh_distance((0, 0), (0.9, 0))
    assert abs(path.qh_length_cached - k) < 1e-9
    assert tuple(path.points[0]) == (0.0, 0.0)
    assert tuple(path.points[-1]) == (0.9, 0.0)


def test_geodesic_endpoints_swap(disk128):
    p = disk128.qh_geodesic((0.1, 0.2), (-0.4, 0.3))
    q = disk128.qh_geodesic((-0.4, 0.3), (0.1, 0.2))
    assert np.allclose(p.points, q.points[::-1])


def test_coincident_geodesic_is_one_point(disk128):
    for geodesic in (disk128.qh_geodesic, disk128.inner_geodesic):
        path = geodesic((0.3, 0.2), (0.3, 0.2))
        assert path.points.tolist() == [[0.3, 0.2]]
        assert path.euclidean_length == 0.0


def test_coincident_points_outside_rejected(disk128):
    for query in (disk128.qh_distance, disk128.inner_distance,
                  disk128.qh_geodesic, disk128.inner_geodesic):
        with pytest.raises(DomainError):
            query((1.5, 0.0), (1.5, 0.0))


def test_inner_distance(disk256, slit_grid):
    din = disk256.inner_distance((-0.5, 0), (0.5, 0))
    assert abs(din - 1.0) < 0.02
    # around the slit tip: two hypotenuses of 0.5 x 0.1 triangles, with
    # staircase overshoot at h=1/64
    din2 = slit_grid.inner_distance((0.5, 0.1), (0.5, -0.1))
    ref = 2 * np.sqrt(0.26)
    assert abs(din2 / ref - 1) < 0.08


def test_multi_source_field(slit_grid):
    f = slit_grid.multi_source_field([0, 5])
    assert f[0] == 0.0 and f[5] == 0.0
    assert np.isfinite(f).all() and f.max() > 0.0


@pytest.mark.parametrize("grid", ["disk128", "slit_grid", "comb_grid"])
def test_weights_bitwise_symmetric(grid, request):
    # the precondition for running every sweep with directed=True
    g = request.getfixturevalue(grid)
    for a in (g.csr_qh, g.csr_euc):
        a = a.copy()
        t = a.T.tocsr()
        a.sort_indices()
        t.sort_indices()
        assert np.array_equal(a.indptr, t.indptr)
        assert np.array_equal(a.indices, t.indices)
        assert a.data.tobytes() == t.data.tobytes()


def _assert_one_structure(g):
    # one CSR layout for both weights, with int32 indices, each row sorted
    # by column, and each entry the weight of its own edge
    q, e = g.csr_qh, g.csr_euc
    assert np.shares_memory(q.indices, e.indices)
    assert np.shares_memory(q.indptr, e.indptr)
    assert q.indices.dtype == q.indptr.dtype == np.int32
    rows = np.repeat(np.arange(g.node_count), np.diff(q.indptr))
    assert ((np.diff(q.indices) > 0) | (np.diff(rows) > 0)).all()
    seg = g.centers[q.indices] - g.centers[rows]
    elen = np.hypot(seg[:, 0], seg[:, 1])
    assert e.data.tobytes() == elen.tobytes()
    wq = elen * 0.5 * (1.0 / g.deltas[rows] + 1.0 / g.deltas[q.indices])
    assert q.data.tobytes() == wq.tobytes()


@pytest.mark.parametrize("grid", ["disk128", "slit_grid", "comb_grid"])
def test_weights_share_one_structure(grid, request):
    _assert_one_structure(request.getfixturevalue(grid))


def test_euclidean_weights_built_once_on_first_inner_use(disk_domain, monkeypatch):
    # only the inner metric reads the Euclidean weights: qh work leaves them
    # unbuilt, the first inner query builds them on csr_qh's index arrays,
    # and later inner queries reuse that matrix
    builds = []
    real = grid_module._edge_lengths
    monkeypatch.setattr(grid_module, "_edge_lengths",
                        lambda *args: builds.append(real(*args)) or builds[-1])
    g = build_grid(disk_domain, GridParams(h=1 / 32, boundary_layer=1))
    x, y = (0.1, 0.2), (-0.4, 0.3)
    g.basepoint(x)
    g.qh_distance(x, y)
    g.node_distance_matrix([0, g.node_count // 2, g.node_count - 1])
    g.multi_source_field([0, 5])
    assert builds == []
    g.inner_distance(x, y)
    assert len(builds) == 1
    e = builds[0]
    assert np.shares_memory(e.indices, g.csr_qh.indices)
    assert np.shares_memory(e.indptr, g.csr_qh.indptr)
    g.inner_geodesic(x, y)
    assert len(builds) == 1 and g.csr_euc is e
    with pytest.raises(AttributeError):
        g.csr_euc = e


_SUITES = load_suite_params()
_TWO_DISKS = ({"type": "union",
               "parts": [{"type": "disk", "center": [-0.4, 0], "radius": 0.7},
                         {"type": "disk", "center": [0.4, 0], "radius": 0.7}]}, 1 / 32, 3)
_L_POLYGON = ({"type": "polygon",
               "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}, 1 / 16, 4)
# slits off the lattice lines: crossing tests reject edges on every level
_OBLIQUE_SLITS = ({"type": "slits",
                   "base": {"type": "disk", "center": [0, 0], "radius": 1},
                   "segments": [[[-0.7, -0.3], [0.6, 0.5]], [[0.1, -0.9], [0.2, 0.1]]]},
                  0.045, 2)


def _spec_grid(spec, h, layers):
    return build_grid(compile_domain(spec), GridParams(h=h, boundary_layer=layers))


@pytest.fixture(scope="module")
def example8_grid():
    params = _SUITES["example8"]
    return _spec_grid(params["domain"], params["h"], params["layers"])


@pytest.mark.parametrize("spec,h,layers", [
    *[(_SUITES[n]["domain"], _SUITES[n]["h"], _SUITES[n]["layers"])
      for n in ("example8", "disk_reference", "comb", "slit")],
    _TWO_DISKS,
    _L_POLYGON,
], ids=["example8", "disk_reference", "comb", "slit", "two_disks", "polygon"])
def test_screened_delta_is_exact(spec, h, layers, monkeypatch):
    # every delta build_grid evaluates, split cells included, equals the
    # unscreened min over all pieces bit for bit
    domain = compile_domain(spec)
    real = domain.delta_many
    evaluated = [0]   # points handed to any piece's distances
    screened = []     # (points, piece evaluations) of each screened call

    def checked(pts, tiles=None):
        before = evaluated[0]
        got = real(pts, tiles)
        work = evaluated[0] - before
        want = pieces_distance(domain.pieces, pts)
        if tiles is not None:
            screened.append((len(pts), work))
            # the contract the screen relies on: each run's points lie in
            # its box and within its bound of the boundary
            assert tiles.sizes.sum() == len(pts)
            assert (want <= np.repeat(tiles.bound, tiles.sizes)).all()
            assert (pts >= np.repeat(tiles.lo, tiles.sizes, axis=0)).all()
            assert (pts <= np.repeat(tiles.hi, tiles.sizes, axis=0)).all()
        assert got.tobytes() == want.tobytes()
        return got

    for cls in (ArcPiece, SegPiece):
        def counted(piece, pts, _real=cls.distances):
            evaluated[0] += len(pts)
            return _real(piece, pts)
        monkeypatch.setattr(cls, "distances", counted)
    monkeypatch.setattr(domain, "delta_many", checked)
    build_grid(domain, GridParams(h=h, boundary_layer=layers))
    assert len(screened) == layers
    if len(domain.pieces) > 1:
        # the screen does skip pieces
        points, work = np.sum(screened, axis=0)
        assert work < points * len(domain.pieces)


def test_multi_source_field_is_min_of_node_fields(slit_grid):
    nodes = [0, 5, slit_grid.node_count // 2, slit_grid.node_count - 1]
    rows = np.vstack([slit_grid.node_field(u) for u in nodes])
    want = rows.min(axis=0)
    assert slit_grid.multi_source_field(nodes).tobytes() == want.tobytes()
    # a limit turns the far nodes into inf and leaves the near ones exact
    lim = float(np.median(want))
    cut = slit_grid.multi_source_field(nodes, limit=lim)
    near = want <= lim
    assert cut[near].tobytes() == want[near].tobytes()
    assert np.isinf(cut[~near]).all()


def test_qh_distances_matches_qh_distance(disk128):
    # a repeated point, and a point sharing its node with another
    pts = [(0.0, 0.0), (0.51, 0.1), (-0.3, 0.6), (0.51, 0.1), (0.5101, 0.1)]
    assert disk128.attach(pts[1])[0] == disk128.attach(pts[4])[0]
    k = disk128.qh_distances(pts[:3], pts)
    assert k.shape == (3, 5)
    want = np.array([[disk128.qh_distance(x, y) for y in pts] for x in pts[:3]])
    assert np.allclose(k, want, rtol=1e-12, atol=0.0)
    assert k[1, 1] == k[1, 3] == 0.0
    assert 0.0 < k[1, 4] == want[1, 4]


def test_node_field_with_pred(disk128):
    u = disk128.nearest_node((0.0, 0.0))
    dist, pred = disk128.node_field_with_pred(u)
    v = disk128.nearest_node((0.5, 0.0))
    assert dist[v] > 0.0
    # predecessor chain walks back to the source
    w, hops = v, 0
    while w != u and hops < disk128.node_count:
        w = int(pred[w])
        hops += 1
    assert w == u


def _split_disk():
    """The unit disk cut in two along the x-axis, as a fresh grid."""
    split = compile_domain({"type": "slits",
                            "base": {"type": "disk", "center": [0, 0], "radius": 1},
                            "segments": [[[-1, 0], [1, 0]]]},
                           check_connectivity=False)
    return build_grid(split, GridParams(h=1 / 32, boundary_layer=1))


def test_unreachable_components():
    g = _split_disk()
    assert len(set(g.labels.tolist())) == 2
    with pytest.raises(UnreachableError):
        g.qh_distance((0, 0.5), (0, -0.5))
    with pytest.raises(UnreachableError):
        g.qh_geodesic((0, 0.5), (0, -0.5))
    with pytest.raises(UnreachableError):
        g.qh_distances([(0, 0.5)], [(0.1, 0.6), (0, -0.5)])
    assert g.qh_distance((0, 0.5), (0.1, 0.6)) > 0.0


# -- node distance matrix -----------------------------------------------------

def _brute_matrix(g, nodes):
    """Full node_field sweeps, each entry from the (delta, id)-first endpoint."""
    fields = {u: g.node_field(u) for u in set(nodes)}

    def entry(u, v):
        first, other = sorted((u, v), key=lambda w: (g.deltas[w], w))
        return fields[first][other]

    return np.array([[entry(u, v) for v in nodes] for u in nodes])


def _sampled_nodes(g, n, seed):
    """n - 1 distinct nodes of the main component, then the first again."""
    main = np.flatnonzero(g.labels == np.bincount(g.labels).argmax())
    nodes = np.random.default_rng(seed).choice(main, n - 1, replace=False)
    return np.append(nodes, nodes[0])


@pytest.mark.parametrize("grid", ["disk128", "slit_grid"])
def test_node_distance_matrix_contract(grid, request, sweeps):
    # one sweep per pair from the shallower end: symmetric bit for bit, the
    # full sweep's float, and independent of the order of the nodes
    g = request.getfixturevalue(grid)
    nodes = _sampled_nodes(g, 40, seed=2)
    d = g.node_distance_matrix(nodes)
    if grid == "disk128":  # connected: every sweep after the first is bounded
        assert len(set(g.labels.tolist())) == 1
        assert sweeps[0] == np.inf and len(sweeps) == 38
        assert np.isfinite(sweeps[1:]).all()
    assert d.tobytes() == d.T.tobytes()
    assert d.tobytes() == _brute_matrix(g, nodes.tolist()).tobytes()
    perm = np.random.default_rng(3).permutation(len(nodes))
    assert g.node_distance_matrix(nodes[perm]).tobytes() == d[np.ix_(perm, perm)].tobytes()
    assert d[0, -1] == d[-1, 0] == 0.0 and (np.diag(d) == 0.0).all()


def test_node_distance_matrix_across_components():
    # entries across the cut are inf; their sweeps run in full, nothing raises
    g = _split_disk()
    upper = np.flatnonzero(g.labels == g.labels[g.attach((0.0, 0.5))[0]])
    lower = np.flatnonzero(g.labels != g.labels[upper[0]])
    rng = np.random.default_rng(5)
    nodes = np.concatenate([rng.choice(upper, 6, replace=False),
                            rng.choice(lower, 6, replace=False)])
    d = g.node_distance_matrix(nodes)
    assert np.isinf(d[:6, 6:]).all() and np.isinf(d[6:, :6]).all()
    assert np.isfinite(d[:6, :6]).all() and np.isfinite(d[6:, 6:]).all()
    assert d.tobytes() == _brute_matrix(g, nodes.tolist()).tobytes()


def test_node_distance_matrix_bound_too_small_raises(disk64, monkeypatch):
    real = disk64._sweep

    def halved(weights, sources, **kwargs):
        kwargs["limit"] = 0.5 * kwargs["limit"]
        return real(weights, sources, **kwargs)

    monkeypatch.setattr(disk64, "_sweep", halved)
    with pytest.raises(InternalInvariantError):
        disk64.node_distance_matrix(_sampled_nodes(disk64, 10, seed=1))


# -- the built graph, bit for bit ---------------------------------------------

def _graph_digest(g):
    """SHA-256 over every array the build produces, with dtypes and shapes."""
    arrays = [g.centers, g.deltas, g.levels, g.labels]
    for m in (g.csr_qh, g.csr_euc):
        arrays += [m.data, m.indices, m.indptr]
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(g.warnings).encode())
    return h.hexdigest()


# digests frozen from the build that still split exterior cells: pruning
# them must leave every graph the same bit for bit
_GRAPH_DIGESTS = {
    "slit": "a3231f5ab456cfc1c7ebf237db66d2a1b0acc5c31fcff1b86da5097b193b148a",
    "comb": "541b46655e5c6536c9f01a3343ae07bda2f6dd75da16ee36bb938fdafa580d92",
    "disk128": "b5be1a3c039ca2daa346bebd44f38ab0058f68e7e840e20c04490ddf9c78a3f2",
    "split_disk": "eb67d115d236a3fdf23750bd4071511c3af880f29466556e4e90bc5344a6d31a",
    "polygon": "90ff47c086b0c5540ad1c44be6e219140bd032bdc18a83bc252240a6f59a5aa1",
    "two_disks": "afcf5cda5059b39709b731c3a1b662050587c20107d6f590c419585f993f38ee",
    "example8": "3d79037341b05cb71942aa781531e558b7b61ddba78236cbf1edabd8339ca7fb",
    # frozen before the edges were assembled in rank order: disk_reference's
    # grid, a 4-neighbour grid across levels, and a grid with empty levels
    "disk256": "e972a9d91fb03a0205279bc205fb728a71499b01ed2f3b9896ac8bc6ad024e65",
    "disk16_four": "4b65f8216a4db77764cb070ea402017309aa745a2749e61ba51e3355e1d93b7d",
    "disk_empty_levels": "4c8f97c1b46f9a0bb6a5407826bceabafb28ccbdbf5913610dccd86e65af066f",
    # taken from the min(delta) certificate's build: 62 edges rejected
    "oblique_slits": "e6c7f086e7851cedb2e9045157d36d1d5c320ad395e6ef18849faeac9ae9e6c0",
}


def _named_grid(name, request):
    """A session fixture grid, or a fresh build of one of the other specs."""
    fixtures = {"slit": "slit_grid", "comb": "comb_grid", "disk128": "disk128",
                "example8": "example8_grid", "disk256": "disk256"}
    if name in fixtures:
        return request.getfixturevalue(fixtures[name])
    return {"split_disk": _split_disk,
            "polygon": lambda: _spec_grid(*_L_POLYGON),
            "two_disks": lambda: _spec_grid(*_TWO_DISKS),
            "oblique_slits": lambda: build_grid(
                compile_domain(_OBLIQUE_SLITS[0], check_connectivity=False),
                GridParams(h=_OBLIQUE_SLITS[1], boundary_layer=_OBLIQUE_SLITS[2])),
            "disk16_four": lambda: build_grid(
                request.getfixturevalue("disk_domain"), GridParams(h=1 / 16, boundary_layer=2, diag=False)),
            "disk_empty_levels": lambda: build_grid(
                request.getfixturevalue("disk_domain"), GridParams(h=0.5, boundary_layer=3)),
            }[name]()


@pytest.mark.parametrize("name", list(_GRAPH_DIGESTS))
def test_graph_digest_unchanged(name, request):
    g = _named_grid(name, request)
    assert _graph_digest(g) == _GRAPH_DIGESTS[name]
    if name == "disk16_four":
        assert g.stats["nodes"] == [208, 972, 5428]
    if name == "disk_empty_levels":
        assert g.stats["nodes"] == [0, 0, 0, 740]


@pytest.mark.parametrize("name", ["slit", "comb", "polygon", "two_disks", "split_disk",
                                  "oblique_slits"])
def test_certified_edges_stay_inside(name, request):
    # every edge of the built graph, certified or tested, misses the boundary,
    # and every edge the min(delta) rule certifies the half-sum rule does too
    g = _named_grid(name, request)
    q = g.csr_qh
    rows = np.repeat(np.arange(g.node_count), np.diff(q.indptr))
    upper = rows < q.indices
    u, v = rows[upper], q.indices[upper]
    assert len(u) == g.edge_count
    assert not g.domain.crossings(g.centers[u], g.centers[v]).any()
    du, dv, elen = g.deltas[u], g.deltas[v], g.csr_euc.data[upper]
    certified = _ball_certified(du, dv, elen)
    assert certified[np.minimum(du, dv) > elen].all()
    st = g.stats
    rejected = st["crossing_tests"] + st["crossing_skipped"] - st["edges"]
    assert st["crossing_tests"] == np.count_nonzero(~certified) + rejected
    if name == "oblique_slits":
        # the rejected edges leave the graph and the ids after them shift
        assert rejected == 62
        _assert_one_structure(g)


def test_components_match_undirected_labels():
    # the build reads strong components of the symmetric matrix; they are
    # its undirected components, numbered the same way
    g = _split_disk()
    _, want = csgraph.connected_components(g.csr_qh, directed=False)
    assert g.labels.dtype == want.dtype
    assert np.array_equal(g.labels, want)


# cells example8 evaluated per level when exterior cells still split
_EXAMPLE8_CELLS_UNPRUNED = [4352, 9772, 23656, 52616, 113680, 239780, 494276, 1006884]


def test_build_stats(example8_grid, slit_grid):
    g = example8_grid
    assert g.stats == {
        "cells_evaluated": [4352, 6536, 14560, 31216, 65520, 134988, 274948, 557476],
        "cells_pruned": [809, 282, 724, 1377, 2900, 5898, 12030, 0],
        "nodes": [1810, 2614, 6032, 13459, 28873, 60353, 123549, 492925],
        "edges": 2849556,
        "crossing_tests": 1206,
        "crossing_skipped": 2848350,
    }
    # pruning drops about 44% of the cells (1,945,016 -> 1,089,596)
    assert sum(g.stats["cells_evaluated"]) < 0.6 * sum(_EXAMPLE8_CELLS_UNPRUNED)
    for got, was in zip(g.stats["cells_evaluated"], _EXAMPLE8_CELLS_UNPRUNED):
        assert got <= was
    # the half-sum certificate leaves 48 of slit's 188,949 edges to a test
    assert (slit_grid.stats["crossing_tests"], slit_grid.stats["edges"]) == (48, 188949)
    for s in (g, slit_grid):
        st = s.stats
        assert st["nodes"] == np.bincount(s.levels).tolist()
        assert st["edges"] == s.edge_count
        assert st["crossing_tests"] + st["crossing_skipped"] >= st["edges"]
        assert st["cells_pruned"][-1] == 0  # the finest level never splits
        assert all(type(v) is int for v in st["nodes"] + st["cells_evaluated"]
                   + st["cells_pruned"] + [st["edges"], st["crossing_tests"]])


def test_refinement_tightens_distances(disk64, disk128, disk_domain):
    # refining the grid can only shorten graph paths, up to attachment noise
    pts = sample_interior(disk_domain, 40, seed=42, min_delta=0.03)
    h = 1 / 64
    diffs = []
    for i in range(20):
        x, y = pts[2 * i], pts[2 * i + 1]
        ka = disk64.qh_distance(x, y)
        kb = disk128.qh_distance(x, y)
        dmin = min(1 - np.hypot(*x), 1 - np.hypot(*y))
        assert kb <= ka + max(1e-6, 1.5 * h / dmin)
        diffs.append(kb - ka)
    assert np.mean(diffs) < 0.0


# -- hub-field bound on point-to-point sweeps ---------------------------------

def _mirror_pairs(domain, n, seed):
    """Sampled points paired with their mirror images in the box's midlines."""
    lo, hi = np.asarray(domain.bbox_lo), np.asarray(domain.bbox_hi)
    pts = np.asarray(sample_interior(domain, n, seed, min_delta=0.01))
    pairs = list(zip(map(tuple, pts[0::2]), map(tuple, pts[1::2])))
    for flip in ([-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
        mir = (lo + hi) / 2 + flip * (pts - (lo + hi) / 2)
        ok = domain.contains_many(mir) & (domain.delta_many(mir) > 0.01)
        pairs += list(zip(map(tuple, pts[ok]), map(tuple, mir[ok])))
    return pairs


def _full_k(g, x, y, inner=False):
    """k(x, y) as one full sweep from the lower node id gives it."""
    weights, s = g._metric(inner)
    ax, ay = g.attach(x), g.attach(y)
    lo, hi = sorted((ax[0], ay[0]))
    return ax[s] + ay[s] + float(g._sweep(weights, lo)[hi])


@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("slit_grid", "slit_domain"),
                                         ("comb_grid", "comb_domain")])
def test_hub_bound_is_exact(grid, domain, request):
    # bounded sweeps give every distance bit for bit as a full sweep does,
    # symmetric pairs (mirror ties) included
    g = request.getfixturevalue(grid)
    pairs = _mirror_pairs(request.getfixturevalue(domain), 4, seed=3)
    pairs = [(x, y) for x, y in pairs if g.attach(x)[0] != g.attach(y)[0]]
    assert len(pairs) >= 6
    for inner in (False, True):  # two sweeps per metric build both fields
        for x, y in pairs[:2]:
            g._distance(x, y, inner)
    assert all(g._hub_fields[inner] is not None for inner in (False, True))
    full_k = {}
    for x, y in pairs:
        full_k[x, y] = k = _full_k(g, x, y)
        assert g.qh_distance(x, y) == k
        assert g.qh_distance_and_geodesic(x, y)[0] == k
        assert g.inner_distance(x, y) == _full_k(g, x, y, inner=True)
    o = pairs[0][0]
    u, stub_o, _ = g.attach(o)
    full = g.node_field(u)

    def k_o(t):
        v, stub_t, _ = g.attach(t)
        return stub_o + stub_t + float(full[v])

    rest = [(x, y) for x, y in pairs[1:] if u not in (g.attach(x)[0], g.attach(y)[0])]
    ends = [t for pair in rest for t in pair]
    want = np.array([k_o(t) for t in ends])
    assert g.qh_distances([o], ends)[0].tobytes() == want.tobytes()
    for x, y in rest[:3]:
        assert gromov_product(g, o, x, y) == 0.5 * (k_o(x) + k_o(y) - full_k[x, y])


@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("slit_grid", "slit_domain"),
                                         ("comb_grid", "comb_domain")])
def test_hub_bound_keeps_geodesics(grid, domain, request):
    # on a fresh graph the first call sweeps in full and a repeat is bounded;
    # both give the same chain
    g = request.getfixturevalue(grid)
    for x, y in _mirror_pairs(request.getfixturevalue(domain), 4, seed=5)[:4]:
        h = fresh_graph(g)
        for geodesic in (h.qh_geodesic, h.inner_geodesic):
            first = geodesic(x, y).points
            assert geodesic(x, y).points.tobytes() == first.tobytes()
        assert all(h._hub_fields[inner] is not None for inner in (False, True))


def test_hub_field_sweep_counts(disk64, sweeps):
    g = fresh_graph(disk64)
    g.qh_distance((0.1, 0.2), (-0.4, 0.3))
    assert sweeps == [np.inf]
    g.qh_distance((0.5, 0.1), (-0.2, -0.6))
    assert sweeps[1] == np.inf and np.isfinite(sweeps[2]) and len(sweeps) == 3
    g.qh_distances([(0.3, -0.3)], [(0.0, 0.7), (-0.7, 0.0)])
    assert len(sweeps) == 4 and np.isfinite(sweeps[3])
    hub = g._hub_fields[False][0]
    assert not hub.flags.writeable and hub[np.argmax(g.deltas)] == 0.0
    # the Euclidean metric has its own field, built at its own second sweep
    g.inner_distance((0.1, 0.2), (-0.4, 0.3))
    assert sweeps[4] == np.inf and len(sweeps) == 5 and g._hub_fields[True] is None


def test_first_sweep_from_hub_is_kept(disk64, sweeps):
    # a first sweep from the hub is full, so it serves as the hub field
    g = fresh_graph(disk64)
    centre = tuple(g.centers[np.argmax(g.deltas)])
    k = g.qh_distance(centre, (0.5, 0.1))
    assert sweeps == [np.inf] and not g._hub_fields[False][0].flags.writeable
    assert g._hub_fields[False][0].tobytes() == g.node_field(np.argmax(g.deltas)).tobytes()
    del sweeps[:]
    # a later query from the hub reads the field
    assert g.qh_distance((0.5, 0.1), centre) == k
    assert sweeps == []


def test_hub_in_other_component(sweeps):
    # the hub lies in the lower half, so upper-half queries run in full
    g = _split_disk()
    x, y = (0.3, 0.5), (-0.4, 0.2)
    want = _full_k(g, x, y)
    g.qh_distance((0.1, 0.6), (-0.1, 0.4))
    g.qh_distance((0.2, 0.7), (-0.2, 0.3))
    hub = int(np.argmax(g.deltas))
    assert g.labels[hub] != g.labels[g.attach(x)[0]]
    del sweeps[:]
    assert g.qh_distance(x, y) == want
    assert sweeps == [np.inf]
    # in the hub's half the bound applies
    x, y = (0.3, -0.5), (-0.4, -0.2)
    want = _full_k(g, x, y)
    del sweeps[:]
    assert g.qh_distance(x, y) == want
    assert len(sweeps) == 1 and np.isfinite(sweeps[0])


def test_hub_bound_too_small_raises(disk64, monkeypatch):
    g = fresh_graph(disk64)
    short = np.zeros(g.node_count)
    short.setflags(write=False)
    pred = np.full(g.node_count, -9999, dtype=np.int32)
    monkeypatch.setitem(g._hub_fields, False, (short, pred))
    with pytest.raises(InternalInvariantError):
        g.qh_distance((0.1, 0.2), (-0.4, 0.3))
    with pytest.raises(InternalInvariantError):
        g.qh_geodesic((0.1, 0.2), (-0.4, 0.3))
    with pytest.raises(InternalInvariantError):
        g.qh_distances([(0.1, 0.2)], [(-0.4, 0.3)])


# -- basepoints ---------------------------------------------------------------

@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("slit_grid", "slit_domain"),
                                         ("comb_grid", "comb_domain")])
def test_basepoint_is_one_plain_sweep(grid, domain, request):
    # a predecessor sweep gives the plain sweep's field bit for bit, so a
    # Basepoint carries the floats node_field and dist_field give
    g = request.getfixturevalue(grid)
    for u in (0, g.node_count // 2, g.node_count - 1):
        assert g.node_field_with_pred(u)[0].tobytes() == g.node_field(u).tobytes()
    x0 = sample_interior(request.getfixturevalue(domain), 1, seed=4, min_delta=0.05)[0]
    bp = g.basepoint(x0)
    node, stub, _ = g.attach(x0)
    assert bp.point == as_point(x0) and (bp.node, bp.stub) == (node, stub)
    dist, pred = g.node_field_with_pred(node)
    assert bp.field.tobytes() == g.node_field(node).tobytes() == dist.tobytes()
    assert bp.pred.tobytes() == pred.tobytes()
    for a in (bp.field, bp.pred):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert g.basepoint(bp) is bp
    assert g.dist_field(x0).tobytes() == (dist + stub).tobytes()


def test_basepoint_at_hub_is_hub_field(disk64, sweeps):
    # the basepoint at the hub, the qh hub field, dist_field and the point
    # queries from the hub share one predecessor sweep
    g = fresh_graph(disk64)
    centre = tuple(g.centers[np.argmax(g.deltas)])
    bp = g.basepoint(centre)
    assert bp.node == np.argmax(g.deltas) and sweeps == [np.inf]
    assert g._hub_fields[False][0] is bp.field and g._hub_fields[False][1] is bp.pred
    assert g.dist_field(centre).tobytes() == (bp.field + bp.stub).tobytes()
    k = g.qh_distance(centre, (0.5, 0.1))
    path = g.qh_geodesic(centre, (0.5, 0.1))
    assert len(sweeps) == 1
    # the first point query elsewhere is already bounded by the field
    g.qh_distance((0.1, 0.2), (-0.4, 0.3))
    assert len(sweeps) == 2 and np.isfinite(sweeps[1])
    assert k == _full_k(g, centre, (0.5, 0.1))
    assert abs(path.qh_length_cached - k) < 1e-9
