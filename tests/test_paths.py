"""PathPolyline bookkeeping and quasihyperbolic length quadrature."""
import numpy as np
import pytest

import qhgeo
from qhgeo import CSV_HEADER, PathPolyline, qh_length
from qhgeo.errors import DomainError, GeometryError


def radial(r, n=257):
    xs = np.linspace(0.0, r, n)
    return np.column_stack([xs, np.zeros_like(xs)])


def test_dedup_and_cum_arrays():
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.5]])
    p = PathPolyline(pts, np.array([1.0, 0.5, 0.5, 0.5]))
    assert len(p) == 3
    assert np.isclose(p.euclidean_length, 1.0)
    assert p.cum_euc[0] == 0.0 and p.cum_qh[0] == 0.0
    # trapezoid weights: 0.5*(1/1 + 1/0.5)*0.5 then 0.5*(1/0.5 + 1/0.5)*0.5
    assert np.allclose(p.cum_qh, [0.0, 0.75, 1.75])
    assert np.isclose(p.qh_length_cached, 1.75)


def test_single_vertex_path():
    p = PathPolyline(np.array([[0.1, 0.2]]), np.array([0.7]))
    assert len(p) == 1
    assert p.euclidean_length == 0.0
    assert p.qh_length_cached == 0.0


def test_nonpositive_delta_rejected():
    with pytest.raises(GeometryError):
        PathPolyline(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


def test_from_domain_checks_membership(disk_domain):
    with pytest.raises(DomainError):
        PathPolyline.from_domain(disk_domain, np.array([[0.0, 0.0], [1.5, 0.0]]))
    p = PathPolyline.from_domain(disk_domain, radial(0.5, 33))
    assert np.allclose(p.deltas, 1.0 - p.points[:, 0], atol=1e-12)


def test_reversed_swaps_orientation(disk_domain):
    p = PathPolyline.from_domain(disk_domain, radial(0.9, 65))
    q = p.reversed()
    assert np.array_equal(q.points, p.points[::-1])
    # cumsum order flips, so totals agree only to roundoff
    assert np.isclose(q.qh_length_cached, p.qh_length_cached, rtol=1e-12)
    assert np.isclose(q.euclidean_length, p.euclidean_length, rtol=1e-12)


def test_csv_format(disk_domain):
    p = PathPolyline.from_domain(disk_domain, radial(0.5, 9))
    lines = p.to_csv().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    row = [float(v) for v in lines[-1].split(",")]
    assert len(row) == 5
    assert np.isclose(row[0], 0.5) and row[1] == 0.0
    assert np.isclose(row[3], p.qh_length_cached, rtol=1e-6)
    assert np.isclose(row[4], 0.5, rtol=1e-6)


def test_qh_length_radial_closed_form(disk_domain):
    # integral of 1/(1-x) over [0, r] is log(1/(1-r)); the quadrature should
    # beat the trapezoid cache by orders of magnitude on a coarse polyline
    for r in (0.5, 0.9):
        p = PathPolyline.from_domain(disk_domain, radial(r, 17))
        want = np.log(1.0 / (1.0 - r))
        got = qh_length(disk_domain, p, rel_tol=1e-9)
        assert abs(got - want) < 1e-6 * want
        assert abs(got - want) < abs(p.qh_length_cached - want)


def test_qh_length_additive_under_subdivision(disk_domain):
    pts = radial(0.8, 9)
    mid = 0.5 * (pts[:-1] + pts[1:])
    fine = np.empty((17, 2))
    fine[0::2] = pts
    fine[1::2] = mid
    a = qh_length(disk_domain, PathPolyline.from_domain(disk_domain, pts))
    b = qh_length(disk_domain, PathPolyline.from_domain(disk_domain, fine))
    assert abs(a - b) < 1e-6


def test_euclidean_length_helper(disk_domain):
    # the property is the one Euclidean length: the module function is gone
    assert not hasattr(qhgeo.paths, "euclidean_length")
    assert "euclidean_length" not in qhgeo.__all__
    p = PathPolyline.from_domain(disk_domain, radial(0.7, 5))
    assert p.euclidean_length == float(p.cum_euc[-1]) and np.isclose(p.euclidean_length, 0.7)
