"""Boundary probes and hyperbolicity estimates."""
import json

import numpy as np
import pytest

from conftest import fresh_graph, full_sweep
from qhgeo import grid as grid_module
from qhgeo import (GrowthFunction, estimate_delta_four_point,
                   estimate_delta_thin_triangles, gromov_product,
                   gromov_product_boundary_probe, growth_check,
                   john_center_probe, loop_probe, qhbc_fit,
                   visibility_and_gromov_probes, visibility_probe)
from qhgeo.analysis import _sample_pool
from qhgeo.errors import ConstraintError

SCALES = [2.0 ** -k for k in range(2, 7)]


def test_gromov_product_identity(disk128):
    o, x, y = (0, 0), (0.5, 0), (-0.5, 0)
    gp = gromov_product(disk128, o, x, y)
    direct = 0.5 * (disk128.qh_distance(o, x) + disk128.qh_distance(o, y)
                    - disk128.qh_distance(x, y))
    assert np.isclose(gp, direct, atol=1e-12)
    # opposite radial endpoints: the geodesic passes nearly through o
    assert 0.0 <= gp < 0.03
    # degenerate triangle: (x|x)_o = k(o, x)
    assert np.isclose(gromov_product(disk128, o, x, x),
                      disk128.qh_distance(o, x), atol=1e-12)


def test_disk_visibility(disk128, disk_domain):
    rep = visibility_probe(disk128, disk_domain.anchors["rim_east"],
                           disk_domain.anchors["rim_west"], (0.0, 0.0), SCALES)
    assert rep.kind == "visibility"
    assert rep.verdict == "visible"
    assert len(rep.m) == len(SCALES) == len(rep.endpoints) == len(rep.k_xy)
    # geodesics keep crossing the center region: m stays flat near zero
    assert max(rep.m) < 0.1
    assert abs(rep.divergence_slope) < 0.05
    assert min(rep.clearance) > 0.9


def test_disk_gromov_boundary(disk128, disk_domain):
    rep = gromov_product_boundary_probe(disk128, disk_domain.anchors["rim_east"],
                                        disk_domain.anchors["rim_west"],
                                        (0.0, 0.0), SCALES)
    assert rep.kind == "gromov_boundary"
    assert rep.verdict == "bounded"
    assert max(rep.gromov_products) < 0.1


def test_disk_loop_probe_well_behaved(disk128, disk_domain):
    # both arcs converge to the same rim point: m_k must escape to infinity
    arcs = [(-np.cos(np.pi / 6), np.sin(np.pi / 6)),
            (-np.cos(np.pi / 6), -np.sin(np.pi / 6))]
    rep = loop_probe(disk128, disk_domain.anchors["rim_east"], (0.0, 0.0),
                     [2.0 ** -k for k in range(2, 8)], arcs=arcs)
    assert rep.kind == "loop"
    assert rep.verdict == "well_behaved"
    m = np.array(rep.m)
    assert (np.diff(m) > 0).all()
    assert m[-1] - m[0] > 2.0


def test_comb_not_visible(comb_grid, comb_domain):
    x0 = comb_domain.anchors["comb_upper"].point
    rep = visibility_probe(comb_grid, comb_domain.anchors["comb_left_mid"],
                           comb_domain.anchors["comb_left_low"], x0, SCALES)
    assert rep.verdict == "not_visible"
    m = np.array(rep.m)
    assert (np.diff(m) > 0).all()
    assert m[-1] - m[0] >= 2.0
    assert rep.divergence_slope > 0.0
    # probe endpoints slide into ever deeper tooth gaps
    xs = np.array([a[0] for a, b in rep.endpoints])
    assert (np.diff(xs) < 0).all()

    gb = gromov_product_boundary_probe(comb_grid, comb_domain.anchors["comb_left_mid"],
                                       comb_domain.anchors["comb_left_low"], x0, SCALES)
    assert gb.verdict == "unbounded"
    assert gb.gromov_products[-1] - gb.gromov_products[0] >= 2.0


def test_slit_loop_suspected(slit_grid, slit_domain):
    rep = loop_probe(slit_grid, slit_domain.anchors["slit_mid_top"], (-0.5, 0.0),
                     SCALES, arcs=[slit_domain.anchors["slit_mid_top"],
                                   slit_domain.anchors["slit_mid_bottom"]])
    assert rep.verdict == "loop_suspected"
    m = np.array(rep.m)
    assert np.ptp(m[-3:]) < 0.25
    # the two endpoint families straddle the slit
    ys = np.array([(a[1], b[1]) for a, b in rep.endpoints])
    assert (ys[:, 0] > 0).all() and (ys[:, 1] < 0).all()
    # yet the east and west rim anchors see each other
    vis = visibility_probe(slit_grid, slit_domain.anchors["rim_east"],
                           slit_domain.anchors["rim_west"], (-0.5, 0.0), SCALES)
    assert vis.verdict == "visible"


def _slit_probes(g, dom):
    arcs = [dom.anchors["slit_mid_top"], dom.anchors["slit_mid_bottom"]]
    return [loop_probe(g, arcs[0], (-0.5, 0.0), SCALES, arcs),
            visibility_probe(g, dom.anchors["rim_east"], dom.anchors["rim_west"],
                             (-0.5, 0.0), SCALES)]


def _comb_probes(g, dom):
    args = (dom.anchors["comb_left_mid"], dom.anchors["comb_left_low"],
            dom.anchors["comb_upper"].point, SCALES)
    return [visibility_probe(g, *args), gromov_product_boundary_probe(g, *args)]


@pytest.mark.parametrize("grid,domain,probes", [
    ("slit_grid", "slit_domain", _slit_probes),
    ("comb_grid", "comb_domain", _comb_probes)])
def test_ladder_sweep_limit_is_exact(grid, domain, probes, request, monkeypatch):
    # the ladder cuts each x_k sweep at the length of the x_k-y_k path in
    # x0's shortest-path tree (Basepoint.tree_bound); the nodes it reaches
    # carry the full sweep's distances and predecessors, so k_xy and the
    # chain (hence m and clearance) do not change
    g, dom = request.getfixturevalue(grid), request.getfixturevalue(domain)
    real = g.basepoint
    sweeps = []

    def full(x0, limit=np.inf):
        return real(x0)

    def limited(x0, limit=np.inf):
        out = real(x0, limit)
        if np.isfinite(limit):  # a ladder sweep, not x0's own
            sweeps.append((x0, limit, out.field, out.pred))
        return out

    monkeypatch.setattr(g, "basepoint", full)
    want = [r.to_dict() for r in probes(g, dom)]
    monkeypatch.setattr(g, "basepoint", limited)
    assert [r.to_dict() for r in probes(g, dom)] == want
    assert sweeps
    cut = 0
    for node, limit, dist, pred in sweeps:
        full_dist, full_pred = full_sweep(g, node, predecessors=True)
        reached = np.isfinite(dist)
        assert np.isfinite(limit)
        assert dist[reached].tobytes() == full_dist[reached].tobytes()
        assert (pred[reached] == full_pred[reached]).all()
        assert (full_dist[~reached] > limit).all()
        cut += int((~reached).sum())
    assert cut > 0


def test_comb_ladder_sweeps_reach_few_nodes(comb_grid, comb_domain, monkeypatch):
    # y_k lies on x0's geodesic to x_k, so the tree path between them is a
    # geodesic and a sweep cut at its length stays near the two endpoints
    real = comb_grid.basepoint
    reach = []

    def spy(x0, limit=np.inf):
        out = real(x0, limit)
        if np.isfinite(limit):  # a ladder sweep, not x0's own
            reach.append(np.isfinite(out.field).mean())
        return out

    monkeypatch.setattr(comb_grid, "basepoint", spy)
    _comb_probes(comb_grid, comb_domain)
    assert len(reach) == 2 * len(SCALES)
    assert max(reach) < 0.1


def _x0_reports(g, dom, x0):
    """Every diagnostic that takes x0, as JSON text."""
    east, west = dom.anchors["rim_east"], dom.anchors["rim_west"]
    arcs = [(-np.cos(np.pi / 6), np.sin(np.pi / 6)),
            (-np.cos(np.pi / 6), -np.sin(np.pi / 6))]
    phi = GrowthFunction("log_affine", {"A": 1.0, "B": 1.0})
    reps = [john_center_probe(g, x0, [(1.0, 0.0)], [0.02, 0.01, 0.005]),
            qhbc_fit(g, x0, 500, seed=11),
            growth_check(g, x0, phi, 500, seed=3),
            visibility_probe(g, east, west, x0, SCALES),
            gromov_product_boundary_probe(g, east, west, x0, SCALES),
            loop_probe(g, east, x0, SCALES, arcs),
            *visibility_and_gromov_probes(g, east, west, x0, SCALES)]
    return [json.dumps(r.to_dict()) for r in reps]


@pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, -0.2)])
def test_basepoint_or_point_same_reports(disk128, disk_domain, x0):
    # (0, 0) sits on the hub, (0.3, -0.2) does not
    want = _x0_reports(disk128, disk_domain, x0)
    assert _x0_reports(disk128, disk_domain, disk128.basepoint(x0)) == want
    # the joint probe gives what the two separate probes give
    assert want[6:] == want[3:5]


def test_basepoint_of_another_graph_rejected(disk64, disk128, disk_domain):
    bp = disk128.basepoint((0.3, -0.2))
    with pytest.raises(ConstraintError):
        disk64.basepoint(bp)
    with pytest.raises(ConstraintError):
        qhbc_fit(disk64, bp, 500, seed=11)
    with pytest.raises(ConstraintError):
        john_center_probe(disk64, bp, [(1.0, 0.0)], [0.02, 0.01])
    with pytest.raises(ConstraintError):
        visibility_probe(disk64, disk_domain.anchors["rim_east"],
                         disk_domain.anchors["rim_west"], bp, SCALES)


def test_four_point_estimate_determinism(disk64):
    a = estimate_delta_four_point(disk64, 400, seed=7)
    b = estimate_delta_four_point(disk64, 400, seed=7)
    assert a.value == b.value
    assert a.method == "four_point" and a.samples == 400 and a.seed == 7
    assert 0.1 < a.value < 1.5
    assert len(a.worst_configuration) == 4
    # the sampled maximum can only grow with the sample count
    small = estimate_delta_four_point(disk64, 100, seed=7)
    assert small.value <= a.value


def test_estimates_unchanged_by_sweep_pruning(disk128_four_point, disk128_thin_triangles):
    # float.hex of the values computed with unpruned, undirected sweeps on
    # a symmetric matrix; the L/2 limit and directed sweeps must not move them
    thin = disk128_thin_triangles
    assert thin.value.hex() == "0x1.8ea5bd9026898p-1"
    four = disk128_four_point
    # the distance matrix sweeps each pair once, from the (delta, id)-first
    # end, which moved the last bits; a full sweep from every pool node gave
    # 0x1.f2a6f935d79a8p-2, with the same worst configuration
    assert four.value.hex() == "0x1.f2a6f935d7990p-2"
    assert abs(four.value - float.fromhex("0x1.f2a6f935d79a8p-2")) <= 1e-14
    assert four.worst_configuration == (
        (-0.17578125, -0.51953125), (0.89453125, 0.14453125),
        (0.814453125, -0.462890625), (0.45703125, -0.77734375))


@pytest.mark.parametrize("workers", [1, 2])
def test_estimates_same_on_any_worker_count(disk128, disk128_four_point,
                                            disk128_thin_triangles, workers,
                                            monkeypatch):
    # the thin triangles first, so they build the hub field on a fresh graph
    monkeypatch.setattr(grid_module, "_WORKERS", workers)
    g = fresh_graph(disk128)
    thin = estimate_delta_thin_triangles(g, 200, seed=7)
    four = estimate_delta_four_point(g, 2000, seed=7)
    assert thin.value.hex() == "0x1.8ea5bd9026898p-1"
    assert four.value.hex() == "0x1.f2a6f935d7990p-2"
    assert json.dumps(thin.to_dict()) == json.dumps(disk128_thin_triangles.to_dict())
    assert json.dumps(four.to_dict()) == json.dumps(disk128_four_point.to_dict())


def test_thin_triangle_runs_are_hub_bounded(disk128, sweeps, monkeypatch):
    # with the qh hub field in place every predecessor run stops at the hub
    # bound to its targets, and the estimate is the full sweeps' float
    g = fresh_graph(disk128)
    g.qh_distance((0.1, 0.2), (-0.4, 0.3))
    g.qh_distance((0.5, 0.1), (-0.2, -0.6))
    real = g._reach
    runs = []

    def spy(inner, u, targets, predecessors=False, stubs=0.0, ends=None):
        assert ends is None  # node ends: no guessed limit
        start = len(sweeps)
        out = real(inner, u, targets, predecessors, stubs, ends)
        runs.append(sweeps[start:])
        return out

    monkeypatch.setattr(g, "_reach", spy)
    est = estimate_delta_thin_triangles(g, 10, seed=7)
    assert runs and all(len(r) <= 1 and np.isfinite(r).all() for r in runs)
    assert sum(map(len, runs)) > 0

    def full(inner, u, targets, predecessors=False):
        return g._sweep(g._metric(inner), u, predecessors=predecessors)

    monkeypatch.setattr(g, "_reach", full)
    want = estimate_delta_thin_triangles(g, 10, seed=7)
    assert est.value.hex() == want.value.hex()
    assert est.worst_configuration == want.worst_configuration


def test_thin_triangle_estimate(disk64):
    t = estimate_delta_thin_triangles(disk64, 40, seed=7, pool_size=40)
    assert t.method == "thin_triangle"
    assert 0.05 < t.value < 3.0
    f = estimate_delta_four_point(disk64, 400, seed=7)
    r = t.value / f.value
    assert 0.25 < r < 4.0


def test_thin_triangle_gaps_stop_at_running_max(disk128, monkeypatch):
    # a gap sweep stops at the running maximum when that is below half the
    # side's length, and sweeps again to the half length if a side node is
    # left unreached; the estimate is the full gap sweeps' float
    g = fresh_graph(disk128)
    real = g.multi_source_field
    limits = []

    def spy(nodes, limit=np.inf):
        limits.append(limit)
        return real(nodes, limit)

    monkeypatch.setattr(g, "multi_source_field", spy)
    est = estimate_delta_thin_triangles(g, 10, seed=7)
    monkeypatch.setattr(g, "multi_source_field", lambda nodes, limit=np.inf: real(nodes))
    want = estimate_delta_thin_triangles(g, 10, seed=7)
    assert est.value.hex() == want.value.hex()
    assert est.worst_configuration == want.worst_configuration

    # each side's sweeps, in the estimator's order: its cap alone, or one
    # limit below the cap, then the cap if a side node was left unreached
    rng = np.random.default_rng(7)
    pool = _sample_pool(g, 60, rng)
    triples = pool[rng.integers(0, len(pool), size=(10, 3))].tolist()
    fields = {u: full_sweep(g, u) for u in set(pool.tolist())}
    # each side's length is the full sweep's float from its (delta, id)-first end
    caps = [0.5 * fields[x][y] * (1 + 1e-9)
            for a, b, c in triples for side in ((a, b), (a, c), (b, c))
            for x, y in [sorted(side, key=lambda u: (g.deltas[u], u))]]
    below, i = 0, 0
    for cap in caps:
        if limits[i] < cap:
            below += 1
            i += 1
        if i < len(limits) and limits[i] == cap:
            i += 1
    assert i == len(limits) and below > 0
