"""End-to-end acceptance gates.

Eleven criteria, one test each, in order, with an off-axis and a
half-plane companion to criterion 1; every test asserts its stated
tolerance and prints a single summary line (visible with -s or -rA, and the
per-test PASSED/FAILED verdict of ``pytest -v`` serves as the pass/fail
line). The tolerances here are contract, not tuning knobs.
"""
import json
import time

import numpy as np

from conftest import sample_interior
from qhgeo import (GridParams, GrowthFunction, PathPolyline, SUITE_NAMES,
                   bh_quasigeodesic_check, build_grid, compare_metrics_disk,
                   compile_domain, estimate_delta_four_point, gromov_product_boundary_probe,
                   growth_check, hyp_distance_disk, integral_condition,
                   john_center_probe, loop_probe, make_foot_fingers,
                   parse_growth_function, qh_length, qhbc_fit, run_suite,
                   visibility_probe)

PROBE_SCALES = [2.0 ** -k for k in range(2, 7)]


def test_criterion_01_disk_closed_forms(disk_domain):
    t0 = time.perf_counter()
    g = build_grid(disk_domain, GridParams(h=1 / 256, boundary_layer=1))
    worst = 0.0
    for r in (0.5, 0.7, 0.9):
        k = g.qh_distance((0, 0), (r, 0))
        want = np.log(1.0 / (1.0 - r))
        rel = abs(k / want - 1.0)
        assert rel < 0.02, f"r={r}: {k} vs {want} ({rel:.2%})"
        worst = max(worst, rel)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"[PASS] criterion 1: disk closed forms within 2% "
          f"(worst {worst:.2%}, {dt:.1f}s)")


def test_criterion_01_off_axis_closed_forms(disk256):
    # between the grid axes and the diagonals the 8-neighbour stencil's
    # metrication error dominates; at h=1/256 it peaks at 9.7% (22.5 degrees,
    # r=0.5), against about 1% on the axes
    worst = 0.0
    for theta in (11.25, 22.5, 30.0):
        t = np.radians(theta)
        for r in (0.5, 0.7, 0.9):
            k = disk256.qh_distance((0, 0), (r * np.cos(t), r * np.sin(t)))
            want = np.log(1.0 / (1.0 - r))
            rel = abs(k / want - 1.0)
            assert rel < 0.10, f"theta={theta}, r={r}: {k} vs {want} ({rel:.2%})"
            worst = max(worst, rel)
    print(f"[PASS] criterion 1, off axis: disk closed forms within 10% "
          f"(worst {worst:.2%})")


def _semicircle(x, y):
    """Center on the real axis and radius of the half-plane geodesic through x and y."""
    c = (x[0] ** 2 + x[1] ** 2 - y[0] ** 2 - y[1] ** 2) / (2.0 * (x[0] - y[0]))
    return c, float(np.hypot(x[0] - c, x[1]))


def test_criterion_01_half_plane_closed_forms():
    # in the rectangle [-1,1]x[0,1] the bottom side is the nearest below
    # y = 0.4 within |x| < 0.6, so along a semicircle that stays there
    # delta = y and the qh metric is the half-plane's hyperbolic one, with
    # k = arccosh(1 + |x-y|^2 / (2 y1 y2)). Its geodesics bend and run inside
    # the boundary layers, where the disk's radial ones do not. The grid
    # overestimates (delta is concave, so the trapezoid weights do), by up
    # to 8.29% at h=1/64, layers=3 (median 3.48%): the stencil's error
    rect = compile_domain({"type": "rect", "min": [-1, 0], "max": [1, 1]})
    g = build_grid(rect, GridParams(h=1 / 64, boundary_layer=3))
    rng = np.random.default_rng(0)
    errors = []
    while len(errors) < 60:
        x = rng.uniform([-0.2, 0.01], [0.2, 0.25])
        y = rng.uniform([-0.2, 0.01], [0.2, 0.25])
        c, r = _semicircle(x, y)
        if r >= 0.35 or abs(c) + r >= 0.6:
            continue
        want = np.arccosh(1.0 + float(np.sum((x - y) ** 2)) / (2.0 * x[1] * y[1]))
        k = g.qh_distance(tuple(x), tuple(y))
        rel = k / want - 1.0
        assert 0.0 <= rel < 0.10, f"{x}, {y}: {k} vs {want} ({rel:.2%})"
        errors.append(rel)
    print(f"[PASS] criterion 1, half plane: closed forms within 10% "
          f"(worst {max(errors):.2%}, median {np.median(errors):.2%})")


def test_criterion_02_lower_bound_invariant(disk_domain, square_domain,
                                            slit_domain, comb_domain,
                                            disk128, square128, slit_grid,
                                            comb_grid):
    cases = [("disk", disk_domain, disk128, 1 / 128),
             ("square", square_domain, square128, 1 / 128),
             ("slit", slit_domain, slit_grid, 1 / 64),
             ("comb8", comb_domain, comb_grid, 1 / 64)]
    for name, dom, g, h in cases:
        src = sample_interior(dom, 50, seed=101, min_delta=1.5 * h)
        tgt = sample_interior(dom, 20, seed=202, min_delta=1.5 * h)
        k = g.qh_distances(src, tgt)
        s = np.asarray(src)
        t = np.asarray(tgt)
        ds = dom.delta_many(s)
        dt = dom.delta_many(t)
        gap = np.hypot(s[:, None, 0] - t[None, :, 0],
                       s[:, None, 1] - t[None, :, 1])
        b1 = np.log1p(gap / np.minimum(ds[:, None], dt[None, :]))
        b2 = np.abs(np.log(dt[None, :] / ds[:, None]))
        ok = (k >= b1 - 1e-9) & (k >= b2 - 1e-9)
        assert ok.size == 1000
        assert ok.all(), f"{name}: {np.count_nonzero(~ok)}/1000 pairs violate"
    print("[PASS] criterion 2: distance lower bounds hold on 1000 pairs "
          "in each of disk, square, slit, comb8")


def test_criterion_03_curve_length_bound(disk_domain):
    # random polylines; |z| is convex along segments, so the minimum of
    # delta = 1-|z| over the whole curve is attained at a vertex
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 9))
        pts = []
        while len(pts) < n:
            cand = rng.uniform(-1, 1, size=(16, 2))
            keep = np.hypot(cand[:, 0], cand[:, 1]) < 0.995
            pts.extend(map(tuple, cand[keep]))
        path = PathPolyline.from_domain(disk_domain, np.asarray(pts[:n]))
        if len(path) < 2:
            continue
        bound = np.log1p(path.euclidean_length / float(path.deltas.min()))
        got = qh_length(disk_domain, path, rel_tol=1e-9)
        assert got >= bound - 1e-6, f"polyline {checked}: {got} < {bound}"
        checked += 1
    print("[PASS] criterion 3: curve length bound holds on 200 random "
          "disk polylines")


def test_criterion_04_ball_comparison(disk_domain, disk256):
    src = sample_interior(disk_domain, 20, seed=21, min_delta=0.03)
    tgt = []
    seed = 22
    while len(tgt) < 10:
        cand = sample_interior(disk_domain, 10 - len(tgt), seed, min_delta=0.03)
        s = np.asarray(src)
        for p in cand:
            gap = np.hypot(s[:, 0] - p[0], s[:, 1] - p[1])
            if gap.min() >= 0.05:
                tgt.append(p)
        seed += 1
    k = disk256.qh_distances(src, tgt)
    h = np.array([[hyp_distance_disk(a, b) for b in tgt] for a in src])
    assert k.size == 200
    lo_ok = 0.95 * k <= h + 1e-12
    hi_ok = h <= 2.0 * k * 1.05 + 1e-12
    assert lo_ok.all() and hi_ok.all(), (
        f"{np.count_nonzero(~(lo_ok & hi_ok))}/200 pairs out of envelope")
    rep = compare_metrics_disk(disk256, [((0, 0), (0.5, 0))])
    assert rep.all_hold
    k_pin, h_pin = rep.rows[0].k_hat, rep.rows[0].h
    assert abs(k_pin - np.log(2)) < 0.02 * np.log(2)
    assert abs(h_pin - np.log(3)) < 1e-12
    print(f"[PASS] criterion 4: hyperbolic-vs-qh envelope holds on 200 pairs; "
          f"pinned pair k={k_pin:.4f} (log 2), h={h_pin:.4f} (log 3)")


def test_criterion_05_quasigeodesic_envelope(disk128):
    rng = np.random.default_rng(5)
    pairs = []
    while len(pairs) < 100:
        cand = rng.uniform(-0.95, 0.95, (2, 2))
        if (np.hypot(cand[:, 0], cand[:, 1]) < 0.93).all() \
                and not np.allclose(cand[0], cand[1]):
            pairs.append((tuple(cand[0]), tuple(cand[1])))
    rep = bh_quasigeodesic_check(disk128, pairs)
    assert rep.k_hat <= 3.0 and rep.h_hat <= 3.0
    diam = bh_quasigeodesic_check(disk128, [((-0.5, 0.0), (0.5, 0.0)),
                                            ((0.0, -0.7), (0.0, 0.7))])
    for row in diam.rows:
        assert abs(row.qh_len_hyp_geo / row.k - 1.0) < 0.03
        assert abs(row.hyp_len_qh_geo / row.h - 1.0) < 0.03
    print(f"[PASS] criterion 5: K_hat={rep.k_hat:.3f}, H_hat={rep.h_hat:.3f} "
          f"<= 3 over 100 pairs; diameter-aligned ratios within 3%")


def test_criterion_06_foot_fingers_certification():
    t0 = time.perf_counter()
    dom = compile_domain(make_foot_fingers(2.25, 1.0, 3, 0.125))
    g = build_grid(dom, GridParams(h=1 / 32, boundary_layer=7))
    x0 = dom.anchors["foot_center"].point

    # (a) distance to toe m outruns 0.8 * r_m^-1.25
    dists = []
    for m, r_m in ((1, 0.125), (2, 0.0625), (3, 0.03125)):
        k = g.qh_distance(x0, dom.anchors[f"toe_center_{m}"].point)
        assert k >= 0.8 * r_m ** -1.25, f"toe {m}: {k}"
        dists.append(k)

    # (b) cone-arc constants double from toe to toe
    targets = [dom.anchors[f"toe_bottom_{m}"] for m in (1, 2, 3)]
    jr = john_center_probe(g, x0, targets, [0.02, 0.01, 0.005])
    assert jr.verdict == "fails_john"
    assert jr.per_target[1] / jr.per_target[0] >= 2.0
    assert jr.per_target[2] / jr.per_target[1] >= 2.0

    # (c) no logarithmic growth bound fits
    fit = qhbc_fit(g, x0, 500, seed=11)
    assert fit.verdict == "fails"

    # (d) distinct foot-boundary anchors stay mutually visible
    rep = visibility_probe(g, dom.anchors["foot_west"], dom.anchors["foot_east"],
                           x0, PROBE_SCALES)
    assert rep.verdict == "visible"

    dt = time.perf_counter() - t0
    assert dt < 600.0
    print(f"[PASS] criterion 6: certification a-d hold "
          f"(k to toes {dists[0]:.1f}/{dists[1]:.1f}/{dists[2]:.1f}, "
          f"john {jr.per_target[0]:.0f}->{jr.per_target[2]:.0f}, {dt:.1f}s)")


def test_criterion_07_comb_not_visible(comb_grid, comb_domain):
    p = comb_domain.anchors["comb_left_mid"]
    q = comb_domain.anchors["comb_left_low"]
    x0 = comb_domain.anchors["comb_upper"].point
    vis = visibility_probe(comb_grid, p, q, x0, PROBE_SCALES)
    m = np.array(vis.m)
    assert (np.diff(m) > 0).all()
    assert m[-1] - m[0] >= 2.0
    assert vis.verdict == "not_visible"
    gb = gromov_product_boundary_probe(comb_grid, p, q, x0, PROBE_SCALES)
    assert gb.verdict == "unbounded"
    # the two probes must agree on the same phenomenon
    assert (vis.verdict == "not_visible") == (gb.verdict == "unbounded")
    print(f"[PASS] criterion 7: comb(8) not visible "
          f"(m {m[0]:.1f}->{m[-1]:.1f}), gromov unbounded, verdicts agree")


def test_criterion_08_slit_loop(slit_grid, slit_domain):
    lp = loop_probe(slit_grid, slit_domain.anchors["slit_mid_top"], (-0.5, 0.0),
                    PROBE_SCALES, arcs=[slit_domain.anchors["slit_mid_top"],
                                        slit_domain.anchors["slit_mid_bottom"]])
    assert lp.verdict == "loop_suspected"
    assert np.ptp(np.array(lp.m)[-3:]) < 0.25
    vis = visibility_probe(slit_grid, slit_domain.anchors["rim_east"],
                           slit_domain.anchors["rim_west"], (-0.5, 0.0),
                           PROBE_SCALES)
    assert vis.verdict == "visible"
    print(f"[PASS] criterion 8: slit loop suspected at (0.5, 0) "
          f"(m ptp {np.ptp(np.array(lp.m)[-3:]):.3f}), east-west visible")


def test_criterion_09_delta_estimation_stability(disk256, disk128_four_point,
                                                 disk128_thin_triangles):
    e128 = disk128_four_point
    e256 = estimate_delta_four_point(disk256, 2000, seed=7)
    change = abs(e256.value - e128.value) / e128.value
    assert change < 0.15, f"{e128.value} -> {e256.value} ({change:.1%})"
    thin = disk128_thin_triangles
    ratio = thin.value / e128.value
    assert 0.25 < ratio < 4.0
    print(f"[PASS] criterion 9: four-point delta {e128.value:.4f} -> "
          f"{e256.value:.4f} ({change:.1%} < 15%), thin-triangle ratio "
          f"{ratio:.2f} within factor 4")


def test_criterion_10_growth_analytics(disk128, square128):
    conv = integral_condition(
        parse_growth_function({"family": "log_affine", "A": 2, "B": 1}), 50)
    assert conv.converges is True
    div = integral_condition(
        parse_growth_function({"family": "power", "A": 1, "s": 1}), 50)
    assert div.converges is False
    for g in (disk128, square128):
        fit = qhbc_fit(g, (0, 0), 500, seed=11)
        assert fit.verdict == "holds"
        phi = GrowthFunction("log_affine",
                             {"A": fit.slope, "B": fit.intercept + 1.0})
        rep = growth_check(g, (0, 0), phi, 2000, seed=3)
        assert rep.verdict == "holds"
    print("[PASS] criterion 10: log_affine converges, power s=1 diverges; "
          "fitted growth bound holds on disk and square")


def test_criterion_11_suite_determinism():
    for name in SUITE_NAMES:
        a = run_suite(name)
        b = run_suite(name)
        assert json.dumps(a, indent=2) == json.dumps(b, indent=2), name
    ex8 = run_suite("example8")
    assert (ex8["john"], ex8["qhbc"], ex8["visibility"]) == \
        ("fails", "fails", "visible")
    assert run_suite("disk_reference")["all_pass"] is True
    comb = run_suite("comb")
    assert comb["visibility"] == "not_visible" and comb["gromov"] == "unbounded"
    slit = run_suite("slit")
    assert slit["loop"] == "loop_suspected" and slit["visibility"] == "visible"
    print("[PASS] criterion 11: repeated suite runs byte-identical; "
          "shipped suite verdicts as published")
