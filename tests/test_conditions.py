"""Cone arcs, growth fits, integral test, geodesic shape conditions."""
import hashlib
import json

import numpy as np
import pytest

from qhgeo import (GrowthFunction, PathPolyline, ball_separation_check,
                   bh_quasigeodesic_check, compare_metrics_disk,
                   cone_arc_constant, estimate_delta_four_point,
                   gehring_hayman_ratio, growth_check, integral_condition,
                   john_center_probe, loop_probe, parse_growth_function,
                   qhbc_fit, visibility_probe)
from qhgeo import grid as grid_module
from qhgeo.errors import FunctionError, GeometryError, SampleError

SCALES = [0.25, 0.125, 0.0625, 0.03125]


def radial_path(domain, r0, r1, n):
    xs = np.linspace(r0, r1, n)
    return PathPolyline.from_domain(domain, np.column_stack([xs, np.zeros_like(xs)]))


# -- cone arc ---------------------------------------------------------------

def test_cone_arc_diameter(disk_domain):
    st = cone_arc_constant(disk_domain, radial_path(disk_domain, -0.9, 0.9, 361))
    # arc length to the near end is |x|+0.9, delta is 1-|x|; max at x=0
    assert abs(st.b_hat - 0.9) < 1e-12
    assert abs(st.argmax_point.x) < 1e-12


def test_cone_arc_radial(disk_domain):
    st = cone_arc_constant(disk_domain, radial_path(disk_domain, 0.0, 0.9, 201))
    # min(x, 0.9-x)/(1-x) peaks at x = 0.45 with value 9/11
    assert abs(st.b_hat - 9 / 11) < 1e-12
    assert abs(st.argmax_point.x - 0.45) < 1e-12


def test_cone_arc_reversal_exact(disk_domain):
    p = radial_path(disk_domain, 0.0, 0.9, 201)
    assert cone_arc_constant(disk_domain, p.reversed()).b_hat == \
        cone_arc_constant(disk_domain, p).b_hat


def test_cone_arc_subdivision_stable(disk_domain):
    pts = np.column_stack([np.linspace(-0.9, 0.9, 361), np.zeros(361)])
    mid = 0.5 * (pts[:-1] + pts[1:])
    sub = np.empty((len(pts) + len(mid), 2))
    sub[0::2] = pts
    sub[1::2] = mid
    a = cone_arc_constant(disk_domain, PathPolyline.from_domain(disk_domain, pts))
    b = cone_arc_constant(disk_domain, PathPolyline.from_domain(disk_domain, sub))
    assert abs(a.b_hat - b.b_hat) <= 1e-9


def test_cone_arc_rejects_exit(disk_domain):
    with pytest.raises(GeometryError):
        cone_arc_constant(disk_domain,
                          PathPolyline(np.array([[0.0, 0.0], [1.5, 0.0]]),
                                       np.array([1.0, 1.0])))


# -- john -------------------------------------------------------------------

def test_john_disk_holds(disk128):
    rep = john_center_probe(disk128, (0, 0), [(1.0, 0.0)], SCALES)
    assert rep.verdict == "holds"
    assert rep.per_target[0] < 1.1
    # ladder converges from below onto the true constant
    ladder = rep.constants[0]
    assert ladder[-1] <= 1.05 and ladder[0] <= ladder[-1] + 1e-9


def test_john_square_holds(square128):
    # edge and corner targets carry different constants (sqrt 2 at the
    # corner); that alone must not trip the verdict
    rep = john_center_probe(square128, (0, 0), [(0.5, 0.0), (0.5, 0.5)], SCALES)
    assert rep.verdict == "holds"
    assert rep.per_target[0] < 1.1
    assert 1.2 < rep.per_target[1] < 1.6


# -- qhbc -------------------------------------------------------------------

def test_qhbc_disk_holds(disk128):
    fit = qhbc_fit(disk128, (0, 0), 500, seed=11)
    assert fit.verdict == "holds"
    assert abs(fit.slope - 1.0) < 0.1
    assert abs(fit.intercept) < 0.1
    assert fit.max_residual < 1.0
    assert len(fit.stratum_residuals) == 10


def test_qhbc_square_holds(square128):
    fit = qhbc_fit(square128, (0, 0), 500, seed=11)
    assert fit.verdict == "holds"
    assert abs(fit.slope - 1.0) < 0.15


def test_qhbc_center_shift_stability(disk128):
    from qhgeo import qh_distance
    base = qhbc_fit(disk128, (0, 0), 500, seed=11)
    moved = qhbc_fit(disk128, (0.3, 0.0), 500, seed=11)
    assert abs(moved.slope - base.slope) < 0.1 * abs(base.slope)
    # intercepts can differ by at most the center displacement cost
    shift = qh_distance(disk128, (0, 0), (0.3, 0.0))
    assert abs(moved.intercept - base.intercept) <= shift + 0.5


def test_qhbc_needs_stratum_population(disk64):
    with pytest.raises(SampleError):
        qhbc_fit(disk64, (0, 0), 500, seed=11, n_strata=200)


# -- growth functions ---------------------------------------------------------

def test_growth_function_families():
    la = parse_growth_function({"family": "log_affine", "A": 2.0, "B": 1.0})
    assert np.isclose(la(1.0), 1.0)
    for y in (0.5, 1.0, 5.0, 12.0):
        assert abs(la(la.inverse(y)) - y) < 1e-8
    pw = parse_growth_function({"family": "power", "A": 1.0, "s": 0.5})
    assert np.isclose(pw(4.0), 2.0)
    assert abs(pw.inverse(2.0) - 4.0) < 1e-8
    tab = parse_growth_function({"family": "table",
                                 "knots": [[1, 1], [2, 3], [4, 9], [8, 20]]})
    assert abs(tab.inverse(3.0) - 2.0) < 1e-9
    assert np.isclose(tab(2.0), 3.0)


@pytest.mark.parametrize("obj", [
    {"family": "power", "A": -1, "s": 1},
    {"family": "power", "A": 1, "s": 0},
    {"family": "log_affine", "A": 0, "B": 0},
    {"family": "table", "knots": [[1, 1]]},
    {"family": "table", "knots": [[1, 2], [2, 1]]},   # not increasing
    {"family": "sine", "A": 1},
])
def test_growth_function_rejects(obj):
    with pytest.raises(FunctionError):
        parse_growth_function(obj)


def test_table_out_of_range():
    tab = parse_growth_function({"family": "table",
                                 "knots": [[1, 1], [2, 3], [4, 9]]})
    with pytest.raises(FunctionError):
        tab(100.0)


def test_growth_check_with_fitted_majorant(disk128, square128):
    fit = qhbc_fit(disk128, (0, 0), 500, seed=11)
    phi = GrowthFunction("log_affine", {"A": fit.slope, "B": fit.intercept + 1.0})
    rep = growth_check(disk128, (0, 0), phi, 2000, seed=3)
    assert rep.verdict == "holds"
    assert rep.worst_margin > -0.2
    fit_sq = qhbc_fit(square128, (0, 0), 500, seed=11)
    phi_sq = GrowthFunction("log_affine",
                            {"A": fit_sq.slope, "B": fit_sq.intercept + 1.0})
    rep_sq = growth_check(square128, (0, 0), phi_sq, 2000, seed=3)
    assert rep_sq.verdict == "holds"


def test_growth_check_fails_on_undershoot(disk128):
    # a majorant an order of magnitude too small must fail
    phi = GrowthFunction("log_affine", {"A": 0.1, "B": 0.0})
    rep = growth_check(disk128, (0, 0), phi, 2000, seed=3)
    assert rep.verdict == "fails"


# -- integral condition -------------------------------------------------------

def test_integral_log_affine_converges():
    rep = integral_condition(
        parse_growth_function({"family": "log_affine", "A": 2, "B": 1}), 50)
    assert rep.converges is True
    assert rep.tail_estimate < 1e-8
    want = 2.0 * (1.0 - np.exp(-(50 - 1) / 2))
    assert abs(rep.quadrature - want) < 1e-6


def test_integral_power_s1_diverges():
    rep = integral_condition(
        parse_growth_function({"family": "power", "A": 1, "s": 1}), 50)
    assert rep.converges is False
    assert rep.tail_estimate == np.inf


def test_integral_power_slow_diverges_with_finite_tail():
    rep = integral_condition(
        parse_growth_function({"family": "power", "A": 1, "s": 0.5}), 50)
    assert rep.converges is False
    assert abs(rep.tail_estimate - 1 / 50) < 1e-12


def test_integral_table_undecidable():
    rep = integral_condition(
        parse_growth_function({"family": "table",
                               "knots": [[1, 1], [2, 3], [4, 9], [8, 20]]}), 50)
    assert rep.converges is None and rep.tail_estimate is None


# -- gehring-hayman and ball separation ---------------------------------------

def test_gehring_hayman_disk(disk128):
    rep = gehring_hayman_ratio(disk128, [((-0.5, 0.0), (0.5, 0.0)),
                                         ((0.0, 0.0), (0.0, 0.0))])
    assert abs(rep.max_ratio - 1.0) < 0.05
    assert rep.table[1].ratio == 1.0   # coincident pair convention


def test_gehring_hayman_slit_detour(slit_grid):
    # the geodesic rounds the slit tip far out, the inner path hugs it
    rep = gehring_hayman_ratio(slit_grid, [((0.5, 0.05), (0.5, -0.05))])
    ratio = rep.table[0].ratio
    assert 2.0 < ratio < 3.2


def test_ball_separation_disk(disk128):
    rep = ball_separation_check(disk128, ((-0.5, 0.7), (0.5, 0.7)), 5.0)
    assert rep.holds
    assert 0.0 < rep.worst_ratio < 5.0
    tight = ball_separation_check(disk128, ((-0.5, 0.7), (0.5, 0.7)), 0.01)
    assert not tight.holds
    assert tight.worst_ratio == rep.worst_ratio


# -- report serialization -----------------------------------------------------

def _plain(v):
    """Whether v holds only dicts with str keys, lists, str, int, float, bool
    and None, numpy scalars excluded."""
    if type(v) is dict:
        return all(type(k) is str and _plain(x) for k, x in v.items())
    if type(v) is list:
        return all(_plain(x) for x in v)
    return v is None or type(v) in (str, int, float, bool)


# sha256 of json.dumps(r.to_dict()) per report, frozen from the hand-written
# serializers: key names, key order, int/float and every value; the last
# four read point queries, retaken when those moved to the best candidate pair
_REPORT_DIGESTS = {
    "four_point": "2c011744639f060f34c986fc699fd8100cdc4a5911bdf34f78dada37668d4400",
    "visibility": "bc6d32fe4c83b29c7c4cb3c740cb2c752a87bc73b98ad8905e6e9cab44148317",
    "loop_slit": "fa9a80cc874f198da277d67ac7bce26a3ca52eeab0165734c723310732166c71",
    "cone_arc": "6376a7affc3fc904c34e9abceda795d372b04e57c28a30d1a6c9be0f43ff505d",
    "john": "b167f06b31e6e6bad620f652e85c15df076c6e6d790b1be28e1c7d18f825e2a3",
    "qhbc": "7d2fdeaf523ad6114f9b7eb6874fe5a5faf1e5a4187b012d367cb16d895a5a00",
    "phi_log_affine": "649be2296e286c7aae99e6e755ed3a6e2197d3af6ccb389116e2647a08fe5408",
    "phi_table": "e6a537b19210cfdbdbb613485afef53469570f7739b421e7330de6e780577627",
    "growth": "00d1d2f3d9e4458fcae730d2583b092edddf0f85918513936331225c1ba95fdd",
    "integral": "59e5a9b34af19cbcc98c6fc60791c59c5b571b625a85a26bb7ea24cf46bd18b0",
    "gehring_hayman": "3cc5983e8b313b17c6c176ea849c16c0a9ffb5e17a91786eb31b5d69d64cf316",
    "ball_separation": "9b0b7a7f7ab283827b4a5e0b0925e7d191aa072b79af4e0489eeb2a01ac13060",
    "compare": "205c5ee3212de07ff42b3f1813bf8add901501a3d132d5a04f4369cd3c22d5fb",
    "bh": "45271a0588acd25a4507176051545fcab9f5cf3deb0a9fb22893d7a5bb9faab1",
}


def test_every_report_to_dict_is_plain_json(disk64, disk_domain, slit_grid,
                                            slit_domain):
    g, dom = disk64, disk_domain
    rim = [dom.anchors["rim_east"], dom.anchors["rim_west"]]
    arcs = [slit_domain.anchors["slit_mid_top"], slit_domain.anchors["slit_mid_bottom"]]
    phi = parse_growth_function({"family": "log_affine", "A": 2, "B": 1})
    reports = {
        "four_point": estimate_delta_four_point(g, 200, seed=7),
        "visibility": visibility_probe(g, *rim, (0.0, 0.0), SCALES),
        "loop_slit": loop_probe(slit_grid, arcs[0], (-0.5, 0.0), SCALES, arcs),
        "cone_arc": cone_arc_constant(dom, radial_path(dom, 0.0, 0.9, 51)),
        "john": john_center_probe(g, (0.0, 0.0), rim, [0.02, 0.01]),
        "qhbc": qhbc_fit(g, (0.0, 0.0), 200, seed=11),
        "phi_log_affine": phi,
        "phi_table": parse_growth_function(
            {"family": "table", "knots": [[1, 1], [2, 3], [4, 9], [8, 20]]}),
        "growth": growth_check(g, (0.0, 0.0), phi, 200, seed=3),
        "integral": integral_condition(phi, 50),
        "gehring_hayman": gehring_hayman_ratio(
            g, [((-0.5, 0.0), (0.5, 0.0)), ((0.1, 0.2), (0.1, 0.2))]),
        "ball_separation": ball_separation_check(g, ((-0.5, 0.7), (0.5, 0.7)), 5.0),
        "compare": compare_metrics_disk(
            g, [((0.0, 0.0), (0.5, 0.0)), ((0.1, 0.2), (0.5, -0.3))]),
        "bh": bh_quasigeodesic_check(
            g, [((-0.5, 0.0), (0.5, 0.0)), ((0.2, 0.1), (0.2, 0.1))], n_points=64),
    }
    assert len({type(r) for r in reports.values()}) == 12
    assert reports["phi_log_affine"].to_dict() == {"family": "log_affine", "A": 2, "B": 1}
    assert reports["bh"].to_dict()["notes"] == ["skipped coincident pair (0.2, 0.1)"]
    for name, r in reports.items():
        d = r.to_dict()
        text = json.dumps(d)
        assert _plain(d), name
        assert hashlib.sha256(text.encode()).hexdigest() == _REPORT_DIGESTS[name], name


@pytest.mark.parametrize("workers", [1, 2])
def test_four_point_digest_on_any_worker_count(disk64, workers, monkeypatch):
    monkeypatch.setattr(grid_module, "_WORKERS", workers)
    text = json.dumps(estimate_delta_four_point(disk64, 200, seed=7).to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == _REPORT_DIGESTS["four_point"]
