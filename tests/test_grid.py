"""Grid construction, attachment, shortest-path plumbing."""
import hashlib
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import fresh_graph, full_sweep, sample_interior
import qhgeo
from qhgeo import GridParams, build_grid, compile_domain, gromov_product
from qhgeo import grid as grid_module
from qhgeo.curves import ArcPiece, SegPiece, pieces_distance
from qhgeo.errors import (ConstraintError, DomainError, InternalInvariantError,
                          ResolutionError, UnreachableError)
from qhgeo.geometry import as_point
from qhgeo.grid import _ball_certified, _fork_map
from qhgeo.paths import PathPolyline, qh_length
from qhgeo.suites import load_suite_params


def test_coarse_disk_grid_exact(disk_domain):
    # h=0.5 without refinement leaves exactly the four cells around the origin
    g = build_grid(disk_domain, GridParams(h=0.5, boundary_layer=0))
    assert g.node_count == 4
    assert sorted(map(tuple, g.centers.tolist())) == [
        (-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)]
    assert g.edge_count == 6  # the square cycle and both diagonals
    assert len(set(g.labels.tolist())) == 1


def test_resolution_error():
    tiny = compile_domain({"type": "disk", "center": [0, 0], "radius": 0.1})
    with pytest.raises(ResolutionError):
        build_grid(tiny, GridParams(h=0.5))


def test_gridparams_validation():
    for h in (0.0, True, "0.1", None):
        with pytest.raises(ResolutionError):
            GridParams(h=h)
    for layers in (-1, 1.5, True, "x", None, float("nan")):
        with pytest.raises(ResolutionError):
            GridParams(h=0.1, boundary_layer=layers)


def test_nearest_node_and_attach(disk_domain):
    # attach is the one node lookup: nearest_node and its tie rule are gone
    assert not hasattr(grid_module.GridGraph, "nearest_node")
    assert not hasattr(qhgeo, "nearest_node") and "nearest_node" not in qhgeo.__all__
    g = build_grid(disk_domain, GridParams(h=0.5, boundary_layer=0))
    u, stub, euc = g.attach((0.25, 0.25))
    assert tuple(g.centers[u]) == (0.25, 0.25) and stub == 0.0 and euc == 0.0
    u2, stub2, euc2 = g.attach((0.2, 0.2))
    assert u2 == u and stub2 > 0.0 and np.isclose(euc2, np.hypot(0.05, 0.05))
    # the origin is equidistant from all four nodes: the lowest id wins
    assert g.attach((0.0, 0.0))[0] == 0
    with pytest.raises(DomainError):
        g.attach((1.5, 0.0))


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
    # the Euclidean weights are built by their first reader, a direct read
    # of csr_euc or an inner query that falls back to the whole matrix, on
    # csr_qh's index arrays, and later readers reuse that matrix; qh work
    # and the inner point queries that sweep their ellipse leave them unbuilt
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
    g.inner_distance(x, y)
    g.inner_geodesic(x, y)
    assert builds == [] and g.sweep_counts["pruned"] == 3
    with monkeypatch.context() as mp:
        mp.setattr(grid_module, "_GUESS", 0.5)  # a miss: the fallback reads csr_euc
        g.inner_distance(x, y)
    assert len(builds) == 1 and g.sweep_counts["missed"] == 1
    e = builds[0]
    assert np.shares_memory(e.indices, g.csr_qh.indices)
    assert np.shares_memory(e.indptr, g.csr_qh.indptr)
    g.inner_geodesic(x, y)
    assert len(builds) == 1 and g.csr_euc is e
    with pytest.raises(AttributeError):
        g.csr_euc = e


def test_inner_point_queries_leave_euclidean_weights_unbuilt(disk128):
    # on the disk every inner segment stays inside, so each inner point
    # query sweeps its ellipse's subgraph and never reads csr_euc
    g = fresh_graph(disk128)
    pts = sample_interior(g.domain, 16, seed=13, min_delta=0.005)
    for x, y in zip(pts[0::2], pts[1::2]):
        g.inner_distance(x, y)
        g.inner_geodesic(y, x)
    assert g._csr_euc is None and True not in g._hub_fields
    assert g.sweep_counts == {"full": 0, "limited": 0, "pruned": 16, "min_only": 0,
                              "missed": 0}


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
    rows = np.vstack([full_sweep(slit_grid, u) for u in nodes])
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


def test_node_basepoint_pred_walks_to_node(disk128):
    u = disk128.attach((0.0, 0.0))[0]
    bp = disk128.basepoint(u)
    dist, pred = bp.field, bp.pred
    assert pred.tobytes() == full_sweep(disk128, u, predecessors=True)[1].tobytes()
    v = disk128.attach((0.5, 0.0))[0]
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
    """Full sweeps, each entry from the (delta, id)-first endpoint."""
    fields = {u: full_sweep(g, u) for u in set(nodes)}

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
    if grid == "disk128":
        g = fresh_graph(g)
    nodes = _sampled_nodes(g, 40, seed=2)
    d = g.node_distance_matrix(nodes)
    if grid == "disk128":  # connected: the hub field, then 38 bounded sweeps
        assert len(set(g.labels.tolist())) == 1
        assert sweeps[0] == np.inf and len(sweeps) == 39
        assert np.isfinite(sweeps[1:]).all()
    assert d.tobytes() == d.T.tobytes()
    assert d.tobytes() == _brute_matrix(g, nodes.tolist()).tobytes()
    perm = np.random.default_rng(3).permutation(len(nodes))
    assert g.node_distance_matrix(nodes[perm]).tobytes() == d[np.ix_(perm, perm)].tobytes()
    assert d[0, -1] == d[-1, 0] == 0.0 and (np.diag(d) == 0.0).all()


def test_node_distance_matrix_sweeps_stop_at_hub_bound(disk128, sweeps):
    # each pool sweep stops at the hub bound to the nodes after it, taken
    # from a full field from the hub, times the float slack
    g = fresh_graph(disk128)
    nodes = _sampled_nodes(g, 40, seed=2)
    g.node_distance_matrix(nodes)
    limits = sweeps[1:]  # after the hub field
    src = sorted(set(nodes.tolist()), key=lambda u: (g.deltas[u], u))
    assert len(limits) == len(src) - 1
    hub = full_sweep(g, g._hub)[src]
    for r, limit in enumerate(limits):
        assert limit == (hub[r] + hub[r + 1:]).max() * (1 + 1e-9)


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
    monkeypatch.setattr(grid_module, "_WORKERS", 2)
    real = disk64._sweep

    def halved(weights, sources, **kwargs):
        kwargs["limit"] = 0.5 * kwargs["limit"]
        return real(weights, sources, **kwargs)

    monkeypatch.setattr(disk64, "_sweep", halved)
    with pytest.raises(InternalInvariantError):
        disk64.node_distance_matrix(_sampled_nodes(disk64, 10, seed=1))


@pytest.mark.parametrize("grid", ["disk128", "slit_grid"])
def test_node_distance_matrix_same_bytes_on_two_workers(grid, request, monkeypatch):
    g = request.getfixturevalue(grid)
    nodes = _sampled_nodes(g, 40, seed=2)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(grid_module, "_WORKERS", workers)
        out.append(g.node_distance_matrix(nodes).tobytes())
    assert out[0] == out[1]


# -- forked workers -----------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_matches_inline(workers, monkeypatch):
    monkeypatch.setattr(grid_module, "_WORKERS", workers)

    def fn(i):
        return np.arange(i) / 3.0, i * i

    got, want = _fork_map(fn, range(7)), [fn(i) for i in range(7)]
    assert [(a.tobytes(), k) for a, k in got] == [(a.tobytes(), k) for a, k in want]
    assert _fork_map(fn, []) == []
    # share w holds items w, w + workers, ...; this process runs share 0
    pids = _fork_map(lambda i: os.getpid(), range(7))
    assert set(pids[::workers]) == {os.getpid()}
    assert len(set(pids)) == workers
    assert all(len(set(pids[w::workers])) == 1 for w in range(workers))


def test_fork_map_raises_a_workers_exception(monkeypatch):
    monkeypatch.setattr(grid_module, "_WORKERS", 2)

    def fn(i):
        if i == 3:  # in the forked share
            raise InternalInvariantError(f"item {i}")
        return i

    with pytest.raises(InternalInvariantError, match="item 3"):
        _fork_map(fn, range(6))


def test_fork_map_kills_workers_when_its_own_share_raises(monkeypatch):
    # the forked share would sleep for a minute; it is killed and reaped
    monkeypatch.setattr(grid_module, "_WORKERS", 2)

    def fn(i):
        if i == 0:
            raise ValueError("own share")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ValueError, match="own share"):
        _fork_map(fn, range(4))
    assert time.monotonic() - start < 30


def test_fork_map_inline_beside_another_thread(monkeypatch):
    monkeypatch.setattr(grid_module, "_WORKERS", 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _fork_map(lambda i: os.getpid(), range(4)) == [os.getpid()] * 4
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


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
    # grid and a grid with empty levels
    "disk256": "e972a9d91fb03a0205279bc205fb728a71499b01ed2f3b9896ac8bc6ad024e65",
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
            "disk_empty_levels": lambda: build_grid(
                request.getfixturevalue("disk_domain"), GridParams(h=0.5, boundary_layer=3)),
            }[name]()


@pytest.mark.parametrize("name", list(_GRAPH_DIGESTS))
def test_graph_digest_unchanged(name, request):
    g = _named_grid(name, request)
    assert _graph_digest(g) == _GRAPH_DIGESTS[name]
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


def test_edge_stage_transient_memory(disk_domain, monkeypatch):
    # the edge stage's traced peak above its entry level, per byte of the
    # matrix it returns: the conversion carries the structure only, the
    # weights are written in place, and rejected edges are shifted out in
    # place. Gathering weights through an edge-id CSR read 1.64 on the disk
    # and 1.96 on the slits; copying indices and data out through a mask
    # reads about 1.9 on the slits.
    real, ratios = grid_module._edge_weights, []

    def traced(*args):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        w = real(*args)
        size = w.data.nbytes + w.indices.nbytes + w.indptr.nbytes
        ratios.append((tracemalloc.get_traced_memory()[1] - entry) / size)
        return w

    monkeypatch.setattr(grid_module, "_edge_weights", traced)
    slits = compile_domain(_OBLIQUE_SLITS[0], check_connectivity=False)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        build_grid(disk_domain, GridParams(h=1 / 256, boundary_layer=1))
        g = build_grid(slits, GridParams(h=_OBLIQUE_SLITS[1] / 4, boundary_layer=2))
    finally:
        if started:
            tracemalloc.stop()
    st = g.stats
    assert (g.node_count, st["crossing_tests"] + st["crossing_skipped"] - st["edges"]) == (
        96143, 249)
    assert ratios[0] <= 1.25
    assert ratios[1] <= 1.6


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


# -- candidates on the lattice -------------------------------------------------

def _reference_candidates(g, p):
    """p's first admissible nodes, walking the nodes in (distance, id) order.

    Returns them and the nodes nearest p, or None when none of the 64
    nearest nodes is admissible: a 64-node nearest query could not attach
    p. The walk covers a prefix of that order, every node within the
    512th smallest distance, and must find its _CANDIDATES nodes there.
    """
    p = np.asarray(p, dtype=float)
    off = g.centers - p
    d = np.sqrt(off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1])
    dp = float(g.domain.delta_many(p[None])[0])
    near = np.flatnonzero(d <= np.partition(d, 511)[511])
    order = near[np.argsort(d[near], kind="stable")]  # ties: lower id
    found = []
    for rank, u in enumerate(order):
        if rank == 64 and not found:
            return None
        if (_ball_certified(dp, g.deltas[u], d[u])
                or not g.domain.crossings(p[None], g.centers[u][None])[0]):
            found.append(int(u))
            if len(found) == grid_module._CANDIDATES:
                return found, order[:len(found)].tolist()
    raise AssertionError("fewer candidates than expected among the 512 nearest nodes")


def _near_boundary(domain, segments, finest, n, seed):
    """n points within one finest cell of the given segments, on either side."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        (ax, ay), (bx, by) = segments[rng.integers(len(segments))]
        t, side = rng.uniform(0.05, 0.95), rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9)
        nx, ny = np.array([by - ay, ax - bx]) / np.hypot(bx - ax, by - ay)
        q = (ax + t * (bx - ax) + side * finest * nx, ay + t * (by - ay) + side * finest * ny)
        if domain.contains(q):
            out.append(q)
    return out


# segments whose nearby points the lookup test adds: the gaps next to the
# comb's teeth 7 and 8 are two finest cells wide and hold no node
_NEAR = {"slit": [((0.0, 0.0), (1.0, 0.0))],
         "comb": [((2.0 ** -j, 0.0), (2.0 ** -j, 0.5)) for j in range(1, 7)],
         "oblique_slits": [tuple(map(tuple, seg)) for seg in _OBLIQUE_SLITS[0]["segments"]]}


@pytest.mark.parametrize("name", ["disk256", "slit", "comb", "example8", "oblique_slits"])
def test_candidates_match_brute_force(name, request):
    # random points, node centers and cell corners (exact distance ties), and
    # points within one finest cell of a slit or a comb tooth, where near
    # nodes fail the crossing test
    g = _named_grid(name, request)
    finest = g.params.h / (1 << g.params.boundary_layer)
    pts = list(map(tuple, sample_interior(g.domain, 12, seed=8)))
    rng = np.random.default_rng(9)
    nodes = rng.choice(g.node_count, 8, replace=False)
    corners = g.centers[nodes] + 0.5 * (g.params.h / (1 << g.levels[nodes]))[:, None]
    pts += [tuple(c) for c in np.vstack([g.centers[nodes], corners]) if g.domain.contains(c)]
    if name in _NEAR:
        pts += _near_boundary(g.domain, _NEAR[name], finest, 24, seed=10)
    assert len(pts) >= 24
    nearest_rejected = 0
    for p in pts:
        ref = _reference_candidates(g, p)
        assert ref is not None  # a 64-node nearest query attached p
        want, nearest = ref
        assert g.attach(p)[0] == want[0]
        assert g._candidates(p)[0].tolist() == want
        nearest_rejected += want != nearest
    if name in _NEAR:
        assert nearest_rejected > 0


def test_lattice_keys_and_ball(slit_grid):
    # the keys are sorted, and a ball holds exactly the nodes within r
    g = slit_grid
    assert (np.diff(g._keys) > 0).all()
    for p, r in [((0.3, 0.01), 0.02), ((-0.9, 0.1), 0.1), ((0.0, 0.0), 3.0)]:
        ids, d2 = g._ball(np.array(p), r)
        off = g.centers - np.array(p)
        want = np.flatnonzero(off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1] <= r * r)
        assert ids.tolist() == want.tolist()
        assert d2.tolist() == (off[want] ** 2).sum(axis=1).tolist()


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


def _full(query, g, *args):
    """query(h, *args) on a fresh copy h of g with no guessed limit.

    h has no hub field, so its first sweep runs in full.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "_GUESS", np.inf)
        return query(fresh_graph(g), *args)


def _full_k(g, x, y, inner=False):
    """k(x, y) as one full sweep gives it: a fresh graph's first, unguessed query."""
    return _full(qhgeo.GridGraph._distance, g, x, y, inner)


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
    for x, y in pairs[:2]:  # two qh sweeps build the qh field
        g.qh_distance(x, y)
    assert g._hub_fields[False] is not None
    full_k = {}
    for x, y in pairs:
        full_k[x, y] = k = _full_k(g, x, y)
        assert g.qh_distance(x, y) == k
        assert g.qh_distance_and_geodesic(x, y)[0] == k
        assert g.inner_distance(x, y) == _full_k(g, x, y, inner=True)
    o = pairs[0][0]
    ends = [t for pair in pairs[1:] for t in pair]
    want = fresh_graph(g).qh_distances([o], ends)[0]
    assert g.qh_distances([o], ends)[0].tobytes() == want.tobytes()
    # each of gromov_product's k is the float qh_distance gives for its pair
    for x, y in pairs[1:4]:
        assert gromov_product(g, o, x, y) == 0.5 * (
            _full_k(g, o, x) + _full_k(g, o, y) - full_k[x, y])


def _full_reach(g, s, t, inner=False, predecessors=False):
    """The full sweep out of s's candidates toward t's: a fresh graph's first, unguessed one."""
    def query(h):
        k, cs, ct = 2 if inner else 1, h._candidates(s), h._candidates(t)
        return h._reach(inner, cs[0], cs[k], as_point(s), [(as_point(t), ct[0], ct[k])],
                        predecessors)
    return _full(query, g)


def _full_from(g, s, t):
    """k(s, t) from one full sweep out of s's candidates."""
    tu, ts, _ = g._candidates(t)
    return float((_full_reach(g, s, t)[tu] + ts).min())


@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("comb_grid", "comb_domain")])
def test_pairs_swept_from_first_end(grid, domain, request, monkeypatch, sweeps):
    # every point query and gromov_product sweeps a pair from its end whose
    # first candidate comes first in (delta, node id) order, then by the
    # point; the distance is one float both ways, a full sweep's from there
    g = request.getfixturevalue(grid)
    pts = sample_interior(request.getfixturevalue(domain), 12, seed=21, min_delta=0.01)
    node = {p: g.attach(p)[0] for p in pts}

    def key(p):
        return (g.deltas[node[p]], node[p], *p)

    pairs = list(zip(pts[0::2], pts[1::2]))
    # the rule differs from first-candidate id order on some pairs
    assert any(min(pair, key=key) != min(pair, key=lambda p: (node[p], *p))
               for pair in pairs)
    g = fresh_graph(g)
    g.qh_distance(*pairs[0])
    g.qh_distance(*pairs[1])  # builds the qh hub field
    real, starts = g._reach, []

    def spy(inner, nodes, *args):
        starts.append(int(nodes[0]))
        return real(inner, nodes, *args)

    monkeypatch.setattr(g, "_reach", spy)
    for x, y in pairs:
        s, t = sorted((x, y), key=key)
        starts.clear()
        for query in (g.qh_distance, g.inner_distance, g.qh_geodesic):
            query(x, y)
            query(y, x)
        assert starts == [node[s]] * 6
        assert g.qh_distance(x, y) == g.qh_distance(y, x) == _full_from(g, s, t)
    for o, x, y in zip(pts[0::3], pts[1::3], pts[2::3]):
        first, second, _ = sorted((o, x, y), key=key)
        starts.clear()
        del sweeps[:]
        gromov_product(g, o, x, y)
        assert starts == [node[first], node[second]] and len(sweeps) == 2


@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("slit_grid", "slit_domain"),
                                         ("comb_grid", "comb_domain")])
def test_hub_bound_keeps_geodesics(grid, domain, request):
    # on a fresh graph the first call has no hub bound and a repeat has the
    # qh one; both give the same chain
    g = request.getfixturevalue(grid)
    for x, y in _mirror_pairs(request.getfixturevalue(domain), 4, seed=5)[:4]:
        h = fresh_graph(g)
        for geodesic in (h.qh_geodesic, h.inner_geodesic):
            first = geodesic(x, y).points
            assert geodesic(x, y).points.tobytes() == first.tobytes()
        assert h._hub_fields[False] is not None


def _guess_limit(domain, x, y, inner=False):
    """The guessed limit for a sweep from x to y: _GUESS times the segment's length.

    The qh length is read at rel_tol 1e-3, as GridGraph._guess reads it.
    """
    seg = PathPolyline.from_domain(domain, [x, y])
    length = seg.euclidean_length if inner else qh_length(domain, seg, rel_tol=1e-3)
    return grid_module._GUESS * length


def test_hub_field_sweep_counts(disk64, disk_domain, sweeps):
    # the first query stops at its guess; the second builds the hub field.
    # Each query sweeps its ellipse's subgraph once
    g = fresh_graph(disk64)
    g.qh_distance((0.1, 0.2), (-0.4, 0.3))
    assert sweeps == [_guess_limit(disk_domain, (-0.4, 0.3), (0.1, 0.2))]
    assert g._hub_fields[False] is None
    g.qh_distance((0.5, 0.1), (-0.2, -0.6))
    assert sweeps[1] == np.inf and np.isfinite(sweeps[2]) and len(sweeps) == 3
    g.qh_distances([(0.3, -0.3)], [(0.0, 0.7), (-0.7, 0.0)])
    assert len(sweeps) == 4 and np.isfinite(sweeps[3])
    hub = g._hub_fields[False][0]
    assert not hub.flags.writeable and hub[np.argmax(g.deltas)] == 0.0
    # the Euclidean field is a sweep of csr_euc, so a pruned inner query
    # takes its guess alone and neither marks nor builds it
    g.inner_distance((0.1, 0.2), (-0.4, 0.3))
    assert sweeps[4] == _guess_limit(disk_domain, (-0.4, 0.3), (0.1, 0.2), inner=True)
    assert len(sweeps) == 5 and True not in g._hub_fields
    assert g.sweep_counts == {"full": 1, "limited": 0, "pruned": 4, "min_only": 0,
                              "missed": 0}


def test_first_sweep_from_hub_is_kept(disk64, sweeps):
    # a point query at the hub sweeps from the spare row, not from the hub,
    # so its first sweep, cut at the guess, is not the hub field; the second
    # query builds the field, which is then kept: a basepoint at the hub
    # reads it
    g = fresh_graph(disk64)
    centre = tuple(g.centers[np.argmax(g.deltas)])
    k = g.qh_distance(centre, (0.5, 0.1))
    assert len(sweeps) == 1 and np.isfinite(sweeps[0]) and g._hub_fields[False] is None
    assert g.qh_distance((0.5, 0.1), centre) == k
    assert sweeps[1] == np.inf and np.isfinite(sweeps[2]) and len(sweeps) == 3
    hub = g._hub_fields[False][0]
    assert not hub.flags.writeable
    assert hub.tobytes() == full_sweep(g, np.argmax(g.deltas)).tobytes()
    del sweeps[:]
    assert g.basepoint(centre).field is hub and sweeps == []


def test_hub_in_other_component(sweeps):
    # the hub lies in the lower half, so upper-half queries have no hub
    # bound: they stop at their guess alone
    g = _split_disk()
    x, y = (0.3, 0.5), (-0.4, 0.2)
    want = _full_k(g, x, y)
    g.qh_distance((0.1, 0.6), (-0.1, 0.4))
    g.qh_distance((0.2, 0.7), (-0.2, 0.3))
    hub = int(np.argmax(g.deltas))
    assert g.labels[hub] != g.labels[g.attach(x)[0]]
    del sweeps[:]
    assert g.qh_distance(x, y) == want
    assert sweeps == [_guess_limit(g.domain, y, x)]
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


# -- guessed limits on point queries ------------------------------------------

def _same_path(path, want):
    return (path.points.tobytes() == want.points.tobytes()
            and path.deltas.tobytes() == want.deltas.tobytes())


@pytest.mark.parametrize("grid", ["disk64", "disk128"])
def test_guessed_sweeps_are_exact(grid, disk_domain, request, monkeypatch):
    # each query's first sweep stops at its guess, before and after the hub
    # fields exist, and every float and chain is the full sweep's
    g = fresh_graph(request.getfixturevalue(grid))
    real, guesses = g._guess, []

    def spy(*args):
        guesses.append(real(*args))
        return guesses[-1]

    monkeypatch.setattr(g, "_guess", spy)
    pts = sample_interior(disk_domain, 12, seed=29, min_delta=0.005)
    for i, (x, y) in enumerate(zip(pts[0::2], pts[1::2])):
        assert g.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
        if i == 0:  # a one-shot query sweeps its ellipse once, at its guess
            assert g.sweep_counts == {"full": 0, "limited": 0, "pruned": 1, "min_only": 0,
                                      "missed": 0}
        assert g.inner_distance(x, y).hex() == _full_k(g, x, y, inner=True).hex()
        for query in (qhgeo.GridGraph.qh_geodesic, qhgeo.GridGraph.inner_geodesic):
            assert _same_path(query(g, x, y), _full(query, g, x, y))
    rows = g.qh_distances(pts[:2], pts[2:])
    want = [_full(qhgeo.GridGraph.qh_distances, g, [s], pts[2:])[0] for s in pts[:2]]
    assert rows.tobytes() == np.array(want).tobytes()
    for o, x, y in zip(pts[0::3], pts[1::3], pts[2::3]):
        want = 0.5 * (_full_k(g, o, x) + _full_k(g, o, y) - _full_k(g, x, y))
        assert gromov_product(g, o, x, y).hex() == want.hex()
    # the disk is convex: every query has a guess, and none missed; only the
    # qh hub field is built
    assert len(guesses) == 6 * 4 + 2 + 4 * 2 and np.isfinite(np.concatenate(guesses)).all()
    assert g.sweep_counts["missed"] == 0 and g.sweep_counts["full"] == 1


def test_no_guess_where_the_segment_crosses(comb_grid, comb_domain):
    # between two teeth the segment crosses a slit, so there is no guess:
    # the first query runs in full, and a later one's ellipse, from the hub
    # bound alone, takes over _PRUNE_MAX of the comb, so it stops at the hub
    # bound on the whole matrix
    g = fresh_graph(comb_grid)
    x, y = (0.3, 0.2), (0.7, 0.2)
    assert comb_domain.crossings(np.array([x]), np.array([y])).all()
    assert g.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
    assert g.sweep_counts == {"full": 1, "limited": 0, "pruned": 0, "min_only": 0,
                              "missed": 0}
    assert _same_path(g.qh_geodesic(x, y), _full(qhgeo.GridGraph.qh_geodesic, g, x, y))
    assert g.inner_distance(x, y).hex() == _full_k(g, x, y, inner=True).hex()
    assert g.sweep_counts == {"full": 3, "limited": 1, "pruned": 0, "min_only": 0,
                              "missed": 0}
    # within one gap between teeth the segment stays inside: guessed, exact
    x, y = (0.6, 0.1), (0.9, 0.4)
    assert g.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
    assert _same_path(g.qh_geodesic(x, y), _full(qhgeo.GridGraph.qh_geodesic, g, x, y))
    assert g.sweep_counts == {"full": 3, "limited": 1, "pruned": 2, "min_only": 0,
                              "missed": 0}


def test_crossing_pair_cut_at_its_own_hub_bound(comb_grid, sweeps):
    # the segment crosses a slit, so the pair has no guess; once the hub
    # field exists its limit is its own hub bound, s + min_v (f[v] + t_v).
    # Its ellipse boxes hold over _PRUNE_MAX of the comb, so that one sweep
    # runs on the whole matrix, cut there, and gives the full sweep's floats
    g = fresh_graph(comb_grid)
    x, y = (0.3, 0.2), (0.7, 0.2)
    k, path = g.qh_distance_and_geodesic(x, y)  # no hub field yet: in full
    del sweeps[:]
    got, got_path = g.qh_distance_and_geodesic(x, y)
    f = g._hub_fields[False][0]
    s, t = sorted([x, y], key=lambda p: g._end_key(g.attach(p)[0], *p))
    (su, ss, _), (tu, ts, _) = g._candidates(s), g._candidates(t)
    bound = float((ss + f[su]).min() + (f[tu] + ts).min()) * (1 + 1e-9)
    assert sweeps == [np.inf, bound] and round(bound, 4) == 7.9547
    assert g.sweep_counts == {"full": 2, "limited": 1, "pruned": 0, "min_only": 0,
                              "missed": 0}
    assert got.hex() == k.hex() == _full_k(g, x, y).hex()
    assert _same_path(got_path, path)
    assert _same_path(got_path, _full(qhgeo.GridGraph.qh_geodesic, g, x, y))


def test_guess_in_other_component():
    # the hub lies in the lower half, so an upper-half query is bounded by
    # its guess alone; its floats and chains are still the full sweep's
    g = _split_disk()
    for x, y in (((0.1, -0.6), (-0.1, -0.4)), ((0.2, -0.7), (-0.2, -0.3))):
        g.qh_distance(x, y)
        g.inner_distance(x, y)
    x, y = (0.3, 0.5), (-0.4, 0.2)
    assert g.labels[g._hub] != g.labels[g.attach(x)[0]]
    assert g.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
    assert g.inner_distance(x, y).hex() == _full_k(g, x, y, inner=True).hex()
    for query in (qhgeo.GridGraph.qh_geodesic, qhgeo.GridGraph.inner_geodesic):
        assert _same_path(query(g, x, y), _full(query, g, x, y))
    # the qh ellipses of the upper pair take over _PRUNE_MAX of the graph,
    # so its qh queries stop at the guess on the whole matrix
    assert g.sweep_counts == {"full": 1, "limited": 2, "pruned": 6, "min_only": 0,
                              "missed": 0}


def test_guess_past_a_worse_candidate_misses(disk64, disk_domain, monkeypatch):
    # a guess that reaches some candidate of y but not its best one must
    # miss: the candidates it reached give a larger total than k
    pts = sample_interior(disk_domain, 40, seed=3, min_delta=0.01)
    cases = 0
    for x, y in zip(pts[0::2], pts[1::2]):
        h = fresh_graph(disk64)
        (s, cs), (t, ct) = sorted([(x, h._candidates(x)), (y, h._candidates(y))],
                                  key=lambda end: h._end_key(end[1][0][0], *end[0]))
        d = _full_reach(h, s, t)[ct[0]]
        best = np.argmin(d + ct[1])
        if not (d < d[best]).any():
            continue
        cases += 1
        cut = (d[d < d[best]].max() + d[best]) / 2
        length = _guess_limit(disk_domain, s, t) / grid_module._GUESS
        with monkeypatch.context() as mp:
            mp.setattr(grid_module, "_GUESS", cut / length)
            assert h.qh_distance(x, y) == _full_k(disk64, x, y)
        assert h.sweep_counts["missed"] == 1
    assert cases >= 2


def test_missed_guess_falls_back(disk64, monkeypatch):
    # at half the segment's length the guess misses: each query runs one
    # extra sweep, the hub-bound one, and gives the same floats and chains.
    # Only the fallbacks read csr_euc, so the second inner one also builds
    # the Euclidean hub field, which the unforced graph never builds
    x, y, z = (0.1, 0.2), (-0.4, 0.3), (0.5, -0.2)
    queries = [lambda h: h.qh_distance(x, y), lambda h: h.qh_geodesic(x, y),
               lambda h: h.inner_distance(x, y), lambda h: h.inner_geodesic(y, z),
               lambda h: h.qh_distances([z], [x, y]), lambda h: gromov_product(h, x, y, z)]
    g, forced = fresh_graph(disk64), fresh_graph(disk64)
    for i, query in enumerate(queries):
        want = query(g)
        with monkeypatch.context() as mp:
            mp.setattr(grid_module, "_GUESS", 0.5)
            got = query(forced)
        if isinstance(want, qhgeo.PathPolyline):
            assert _same_path(got, want)
        else:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        missed = 2 + i if i == 5 else 1 + i  # gromov_product runs two sweeps
        assert forced.sweep_counts["missed"] == missed
        euclidean_hub = forced._hub_fields.get(True) is not None
        assert euclidean_hub == (i >= 3)
        assert (sum(forced.sweep_counts.values()) - missed
                == sum(g.sweep_counts.values()) + missed + euclidean_hub)
    assert g.sweep_counts["missed"] == 0 and True not in g._hub_fields


# -- ellipse sweeps -----------------------------------------------------------

@pytest.mark.parametrize("grid", ["disk128", "slit_grid", "comb_grid"])
def test_weights_bound_the_distance_ratio_metric(grid, request):
    # every trapezoid weight is at least max(j(u, v), |log delta_u/delta_v|),
    # j = log(1 + |u-v| / min delta) (Gehring-Osgood): delta is 1-Lipschitz.
    # So a path's weight bounds each node's j from the path's ends, which
    # the ellipse test rests on
    g = request.getfixturevalue(grid)
    q = g.csr_qh
    rows = np.repeat(np.arange(g.node_count), np.diff(q.indptr))
    du, dv = g.deltas[rows], g.deltas[q.indices]
    gap = np.hypot(*(g.centers[q.indices] - g.centers[rows]).T)
    lower = np.maximum(np.log1p(gap / np.minimum(du, dv)), np.abs(np.log(du / dv)))
    assert (lower <= q.data * (1 + 1e-12)).all()


@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("slit_grid", "slit_domain"),
                                         ("comb_grid", "comb_domain")])
def test_ellipse_holds_the_full_sweeps_chain(grid, domain, request, monkeypatch):
    # cut at the distance itself, each ellipse still holds every node of the
    # full sweep's chain, in both metrics, mirror pairs (exact ties) included;
    # the ellipse is taken whatever share of the graph it holds
    monkeypatch.setattr(grid_module, "_PRUNE_MAX", 1.0)
    g = fresh_graph(request.getfixturevalue(grid))
    pairs = _mirror_pairs(request.getfixturevalue(domain), 8, seed=7)
    checked = 0
    for x, y in pairs:
        (su, *s), (tu, *t) = g._candidates(x), g._candidates(y)
        if not np.isin(g.labels[su], g.labels[tu]).any():
            continue
        pts = np.array([x, y], dtype=float)
        for inner in (False, True):
            dist, pred = _full_reach(g, x, y, inner, predecessors=True)
            totals = dist[tu] + t[inner]
            j = int(np.argmin(totals))
            chain = g._chain(pred, g.node_count, int(tu[j]))[1:]
            kept = g._ellipse(inner, pts, g.domain.delta_many(pts), totals[j:j + 1])
            assert kept is not None and np.isin(chain, kept).all()
            checked += 1
    assert checked >= 12


def _component_groups(g, pts):
    """The points grouped by the graph component of their first candidate."""
    groups = {}
    for p in pts:
        groups.setdefault(int(g.labels[g.attach(p)[0]]), []).append(p)
    return [ps for ps in groups.values() if len(ps) >= 6]


@pytest.mark.parametrize("name", ["slit", "comb", "split_disk"])
def test_pruned_sweeps_are_exact(name, request, monkeypatch):
    # every point query that sweeps its ellipse's subgraph gives a fresh
    # graph's full sweep's floats and chains; a guess forced to miss falls
    # back to the whole matrix with the same floats. The disk's queries are
    # test_guessed_sweeps_are_exact's and test_missed_guess_falls_back's
    base = _named_grid(name, request)
    g = fresh_graph(base)
    groups = _component_groups(g, sample_interior(g.domain, 24, seed=31, min_delta=0.01))
    assert len(groups) == (2 if name == "split_disk" else 1)
    for pts in groups:
        for x, y in zip(pts[0::2], pts[1::2]):
            assert g.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
            assert g.inner_distance(x, y).hex() == _full_k(g, x, y, inner=True).hex()
            for query in (qhgeo.GridGraph.qh_geodesic, qhgeo.GridGraph.inner_geodesic):
                assert _same_path(query(g, x, y), _full(query, g, x, y))
        rows = g.qh_distances(pts[:2], pts[2:])
        want = [_full(qhgeo.GridGraph.qh_distances, g, [s], pts[2:])[0] for s in pts[:2]]
        assert rows.tobytes() == np.array(want).tobytes()
        for o, x, y in zip(pts[0::3], pts[1::3], pts[2::3]):
            want = 0.5 * (_full_k(g, o, x) + _full_k(g, o, y) - _full_k(g, x, y))
            assert gromov_product(g, o, x, y).hex() == want.hex()
    assert g.sweep_counts["pruned"] >= 24
    forced = fresh_graph(base)
    x, y = groups[0][:2]
    with monkeypatch.context() as mp:
        mp.setattr(grid_module, "_GUESS", 0.5)
        assert forced.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
        assert forced.inner_distance(x, y).hex() == _full_k(g, x, y, inner=True).hex()
    assert forced.sweep_counts["missed"] == forced.sweep_counts["pruned"] == 2


def test_empty_ellipse_falls_back(disk64):
    # two points closer than any node: the ellipse holds no node, its sweep
    # of the bare spare row misses, and the fallback gives the full sweep's
    # floats and chain
    g = fresh_graph(disk64)
    x, y = (0.3, 0.2), (0.3 + 1e-7, 0.2)
    pts = np.array([x, y])
    deltas = g.domain.delta_many(pts)
    assert g._ellipse(False, pts, deltas, g._guess(False, pts, deltas)).size == 0
    assert g.qh_distance(x, y).hex() == _full_k(g, x, y).hex()
    assert g.inner_distance(x, y).hex() == _full_k(g, x, y, inner=True).hex()
    assert _same_path(g.qh_geodesic(x, y), _full(qhgeo.GridGraph.qh_geodesic, g, x, y))
    assert g.sweep_counts["missed"] == g.sweep_counts["pruned"] == 3


# -- basepoints ---------------------------------------------------------------

@pytest.mark.parametrize("grid,domain", [("disk128", "disk_domain"),
                                         ("slit_grid", "slit_domain"),
                                         ("comb_grid", "comb_domain")])
def test_basepoint_is_one_plain_sweep(grid, domain, request):
    # a predecessor sweep gives the plain sweep's field bit for bit, so a
    # Basepoint, from a point or a node id, carries a full sweep's floats,
    # and dist_field adds the stub; cut at a limit, the nodes it reaches
    # keep those floats and predecessors
    g = request.getfixturevalue(grid)
    for u in (0, g.node_count // 2, g.node_count - 1):
        bp = g.basepoint(u)
        dist, pred = full_sweep(g, u, predecessors=True)
        assert bp.field.tobytes() == full_sweep(g, u).tobytes() == dist.tobytes()
        assert bp.pred.tobytes() == pred.tobytes()
        assert (bp.node, bp.stub, bp.point) == (u, 0.0, as_point(g.centers[u]))
        limit = float(np.median(dist[np.isfinite(dist)]))
        cut = g.basepoint(u, limit)
        reached = np.isfinite(cut.field)
        assert cut.field[reached].tobytes() == dist[reached].tobytes()
        assert (cut.pred[reached] == pred[reached]).all()
        assert (dist[~reached] > limit).all() and (~reached).any()
        v = int(np.flatnonzero(reached)[np.argmax(cut.field[reached])])
        walk = [v]
        while walk[-1] != u:
            walk.append(int(pred[walk[-1]]))
        assert cut.path(v) == bp.path(v) == walk[::-1] and bp.path(u) == [u]
    for bad in (-1, g.node_count):
        with pytest.raises(ConstraintError):
            g.basepoint(bad)
    # at the hub a full sweep is the hub field; a limited one leaves the cache
    h = fresh_graph(g)
    hub = full_sweep(h, h._hub)
    cut = h.basepoint(h._hub, float(np.median(hub[np.isfinite(hub)])))
    assert h._hub_fields == {} and np.isinf(cut.field).any()
    full = h.basepoint(h._hub)
    assert h._hub_fields[False][0] is full.field and h._hub_fields[False][1] is full.pred
    x0 = sample_interior(request.getfixturevalue(domain), 1, seed=4, min_delta=0.05)[0]
    bp = g.basepoint(x0)
    node, stub, _ = g.attach(x0)
    assert bp.point == as_point(x0) and (bp.node, bp.stub) == (node, stub)
    dist, pred = full_sweep(g, node, predecessors=True)
    assert bp.field.tobytes() == full_sweep(g, node).tobytes() == dist.tobytes()
    assert bp.pred.tobytes() == pred.tobytes()
    for a in (bp.field, bp.pred):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert g.basepoint(bp) is bp
    assert qhgeo.dist_field(g, x0).tobytes() == (dist + stub).tobytes()


def _hand_tree():
    # 0 is the root; 1 and 2 hang off it at equal field values, 3 and 4
    # off 1, 5 off 3; 6 lies in another component
    pred = np.array([grid_module._NO_PRED, 0, 0, 1, 1, 3, grid_module._NO_PRED])
    field = np.array([0.0, 1.0, 1.0, 2.5, 2.0, 3.0, np.inf])
    return grid_module.Basepoint(as_point((0, 0)), 0, 0.0, field, pred, None)


@pytest.mark.parametrize("u,v,meet", [
    (5, 1, 1), (1, 5, 1),  # an ancestor
    (3, 4, 1), (5, 4, 1),  # siblings and cousins
    (0, 5, 0), (4, 0, 0),  # the root as one end
    (1, 2, 0), (5, 2, 0),  # equal field values at 1 and 2
    (3, 3, 3)])
def test_tree_bound_hand_built(u, v, meet):
    bp = _hand_tree()
    f = bp.field
    want = f[u] + f[v] - 2 * f[meet] + 1e-9 * (f[u] + f[v])
    assert bp.tree_bound(u, v) == bp.tree_bound(v, u) == want


def test_tree_bound_outside_component_is_inf():
    bp = _hand_tree()
    assert bp.tree_bound(6, 2) == bp.tree_bound(2, 6) == np.inf


@pytest.mark.parametrize("grid,domain,x0", [("disk128", "disk_domain", (0.0, 0.0)),
                                            ("slit_grid", "slit_domain", (-0.5, 0.0)),
                                            ("comb_grid", "comb_domain", "comb_upper")])
def test_tree_bound_brackets_distance(grid, domain, x0, request):
    # between the graph distance and the path through x0's node, on random
    # pairs of x0's component: 20 sources with 10 targets each
    g = request.getfixturevalue(grid)
    if isinstance(x0, str):
        x0 = request.getfixturevalue(domain).anchors[x0].point
    bp = g.basepoint(x0)
    f = bp.field
    nodes = np.flatnonzero(g.labels == g.labels[bp.node])
    rng = np.random.default_rng(3)
    for u in rng.choice(nodes, 20, replace=False):
        k = full_sweep(g, u)
        for v in rng.choice(nodes, 10, replace=False):
            bound = bp.tree_bound(u, v)
            assert k[v] <= bound <= (f[u] + f[v]) * (1 + 1e-9)
    assert bp.tree_bound(bp.node, bp.node) == 0.0


def test_basepoint_at_hub_is_hub_field(disk64, sweeps):
    # the basepoint at the hub, the qh hub field and dist_field share one
    # predecessor sweep, and it bounds every point query after it
    g = fresh_graph(disk64)
    centre = tuple(g.centers[np.argmax(g.deltas)])
    bp = g.basepoint(centre)
    assert bp.node == np.argmax(g.deltas) and sweeps == [np.inf]
    assert g._hub_fields[False][0] is bp.field and g._hub_fields[False][1] is bp.pred
    assert qhgeo.dist_field(g, centre).tobytes() == (bp.field + bp.stub).tobytes()
    k = g.qh_distance(centre, (0.5, 0.1))
    path = g.qh_geodesic(centre, (0.5, 0.1))
    g.qh_distance((0.1, 0.2), (-0.4, 0.3))
    assert len(sweeps) == 4 and np.isfinite(sweeps[1:]).all()
    assert k == _full_k(g, centre, (0.5, 0.1))
    assert abs(path.qh_length_cached - k) < 1e-9
