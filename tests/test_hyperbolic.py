"""Closed-form hyperbolic geometry on the unit disk and graph comparison."""
import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import eq1_lower_bounds
from qhgeo import (MINUS_FOUR, MINUS_ONE, bh_quasigeodesic_check,
                   compare_metrics_disk, disk_automorphism,
                   gehring_hayman_ratio, hyp_density, hyp_distance_disk,
                   hyp_geodesic_disk, hyp_polyline_length, path_csv_with_hyp)
from qhgeo import grid as grid_module
from qhgeo.errors import ConstraintError, DomainError


def test_density_normalizations():
    assert hyp_density((0, 0)) == 2.0
    assert hyp_density((0, 0), MINUS_FOUR) == 1.0
    # 1/(1-r) <= 2/(1-r^2) <= 2/(1-r) pointwise
    for r in (0.0, 0.3, 0.7, 0.95):
        dens = hyp_density((r, 0))
        assert 1.0 / (1.0 - r) <= dens <= 2.0 / (1.0 - r) + 1e-15


def test_distance_closed_forms():
    assert np.isclose(hyp_distance_disk((0, 0), (0.5, 0)), np.log(3), atol=1e-14)
    assert np.isclose(hyp_distance_disk((0, 0), (0.5, 0), MINUS_FOUR),
                      np.log(3) / 2, atol=1e-14)
    assert np.isclose(hyp_distance_disk((0, 0), (0.9, 0)), np.log(19), atol=1e-12)
    assert hyp_distance_disk((0.3, -0.2), (0.3, -0.2)) == 0.0


def test_distance_rejects_outside():
    with pytest.raises(DomainError):
        hyp_distance_disk((0, 0), (1.0, 0.0))


def test_mobius_invariance():
    rng = np.random.default_rng(4)
    z1, z2 = (0.37, -0.21), (-0.55, 0.4)
    d0 = hyp_distance_disk(z1, z2)
    for _ in range(20):
        a = rng.uniform(-0.6, 0.6, 2)
        if np.hypot(*a) >= 0.9:
            continue
        t = disk_automorphism(tuple(a), rng.uniform(0, 2 * np.pi))
        assert abs(hyp_distance_disk(t(z1), t(z2)) - d0) < 1e-12


def test_automorphism_identity_and_range():
    ident = disk_automorphism((0, 0), 0.0)
    assert ident((0.3, 0.4)) == (0.3, 0.4)
    t = disk_automorphism((0.5, 0.1), 1.2)
    w = t((0.9, 0.0))
    assert np.hypot(*w) < 1.0


def test_geodesic_diameter_is_straight():
    g = hyp_geodesic_disk((-0.7, 0), (0.7, 0))
    assert np.abs(g.points[:, 1]).max() < 1e-14
    assert np.allclose(g.deltas, 1.0 - np.abs(g.points[:, 0]), atol=1e-14)


def test_geodesic_bows_toward_center():
    g = hyp_geodesic_disk((0.9, 0), (0, 0.9))
    r = np.hypot(g.points[:, 0], g.points[:, 1])
    # circular arc dips well inside the chord (chord midpoint is at 0.636)
    assert r.min() < 0.45
    assert np.allclose(g.points[0], [0.9, 0.0], atol=1e-15)
    assert np.allclose(g.points[-1], [0.0, 0.9], atol=1e-15)


def test_geodesic_swap_symmetry():
    a = hyp_geodesic_disk((0.9, 0), (0, 0.9), 256)
    b = hyp_geodesic_disk((0, 0.9), (0.9, 0), 8192)
    d, _ = cKDTree(b.points).query(a.points)
    assert d.max() < 2e-3


def test_geodesic_validation():
    with pytest.raises(ConstraintError):
        hyp_geodesic_disk((0, 0), (0.5, 0), 1)
    with pytest.raises(DomainError):
        hyp_geodesic_disk((0, 0), (1.0, 0))
    assert len(hyp_geodesic_disk((0.9, 0), (0, 0.9), 2).points) == 2


def test_polyline_length_convergence():
    want = hyp_distance_disk((0.9, 0), (0, 0.9))
    errs = {}
    for n in (64, 128, 256):
        g = hyp_geodesic_disk((0.9, 0), (0, 0.9), n)
        got = float(hyp_polyline_length(g.points)[-1])
        errs[n] = abs(got - want) / want
    assert errs[256] < 1e-3
    # midpoint rule: halving the step at most ~quadruples the accuracy
    assert errs[64] <= 4.5 * errs[128] + 1e-15
    assert errs[128] <= 4.5 * errs[256] + 1e-15


def test_polyline_length_minus_four_halves():
    g = hyp_geodesic_disk((0, 0), (0.5, 0), 128)
    full = hyp_polyline_length(g.points)
    half = hyp_polyline_length(g.points, MINUS_FOUR)
    assert np.allclose(half, 0.5 * full, rtol=1e-14)


def test_compare_metrics_disk(disk128):
    rep = compare_metrics_disk(disk128, [((0, 0), (0.5, 0)), ((0, 0), (0.9, 0)),
                                         ((0.3, 0.3), (0.3, 0.3))])
    assert rep.all_hold
    k, h = rep.rows[0].k_hat, rep.rows[0].h
    assert abs(k - np.log(2)) < 0.02 * np.log(2)
    assert abs(h - np.log(3)) < 1e-12


# pairs whose nearest-node k exceeded h / 0.95 on disk256 (k/h 1.054 to
# 1.122), as random query rounds drew them: the node behind each point
# cost a stub and a detour
_OFF_AXIS_PAIRS = [
    ((0.8907488316881093, -0.3212738650988037), (0.8325817646905703, -0.3102990743007573)),
    ((0.918943949828329, 0.03949414683516023), (0.8592384492650144, 0.07208599309788749)),
    ((0.825740469799052, -0.4979404857533064), (0.7693649673781543, -0.514105101120993)),
    ((0.919001258588051, 0.167569507446345), (0.871176659418642, 0.2110925604403733)),
    ((0.9383852845480845, 0.2042403924218836), (0.8473604335755478, 0.24637869648173913)),
    ((-0.7712646669089248, -0.40748642318063594), (-0.8047764459308074, -0.5156442715965253)),
    ((0.382921372904429, 0.8761616576610556), (0.36111533021884645, 0.7526083350239898)),
    ((0.1462258975299052, -0.9304932244106217), (0.2004863792153894, -0.9300302538085466)),
    ((0.6233208493051228, -0.6371435125594638), (0.7052156404871199, -0.6524636213583435)),
]


def test_compare_holds_on_off_axis_pairs(disk256, disk_domain):
    # the best candidate pair keeps k within h / 0.95, and k stays above the
    # Gehring-Osgood lower bounds
    rep = compare_metrics_disk(disk256, _OFF_AXIS_PAIRS)
    assert rep.all_hold
    for row in rep.rows:
        assert row.k_hat >= max(eq1_lower_bounds(disk_domain, row.p, row.q))


def test_compare_metrics_preconditions(disk128, square128):
    with pytest.raises(ConstraintError):
        compare_metrics_disk(disk128, [], MINUS_FOUR)
    with pytest.raises(ConstraintError):
        compare_metrics_disk(square128, [])


def test_bh_quasigeodesic_small_set(disk128):
    rep = bh_quasigeodesic_check(disk128, [((-0.5, 0.0), (0.5, 0.0)),
                                           ((0.9, 0), (0, 0.9)),
                                           ((0.2, 0.2), (0.2, 0.2))])
    assert rep.k_hat <= 3.0 and rep.h_hat <= 3.0
    assert len(rep.notes) == 1   # the coincident pair is skipped with a note
    diam = rep.rows[0]
    assert abs(diam.qh_len_hyp_geo / diam.k - 1) < 0.03
    assert abs(diam.hyp_len_qh_geo / diam.h - 1) < 0.03


def test_bh_one_sweep_per_pair(disk128, monkeypatch):
    # one predecessor sweep per pair gives k and the geodesic; k stays
    # bitwise qh_distance, pinned here at its best-candidate-pair values.
    # disk128 is shared across tests, so two sweeping queries first put its
    # qh hub field in place whatever ran before; the count is then exact
    disk128.qh_distance((0.1, 0.2), (-0.4, 0.3))
    disk128.qh_distance((0.5, 0.1), (-0.2, -0.6))
    real = grid_module.csgraph

    class Counting:
        calls = 0

        def dijkstra(self, *args, **kwargs):
            Counting.calls += 1
            return real.dijkstra(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(real, name)

    monkeypatch.setattr(grid_module, "csgraph", Counting())
    rep = bh_quasigeodesic_check(disk128, [((-0.5, 0.0), (0.5, 0.0)),
                                           ((0.9, 0), (0, 0.9)),
                                           ((0.2, 0.2), (0.2, 0.2))])
    assert Counting.calls == 2
    assert [float.hex(r.k) for r in rep.rows] == ["0x1.64951b03612a3p+0",
                                                  "0x1.1bcdb7ce7dd96p+2"]
    # the second pair and both below sweep from the second point's end
    # (the lower first candidate) and reverse the chain
    swapped = bh_quasigeodesic_check(disk128, [((0.5, 0.0), (-0.5, 0.0)),
                                               ((0.3, -0.4), (-0.6, 0.1))])
    assert [float.hex(r.k) for r in swapped.rows] == ["0x1.64951b03612a3p+0",
                                                      "0x1.a6561e63cf65ap+0"]
    for row in rep.rows + swapped.rows:
        p, q = row.pair
        assert row.k == disk128.qh_distance(p, q)
        path = disk128.qh_distance_and_geodesic(p, q)[1]
        assert path.points[[0, -1]].tolist() == [list(p), list(q)]
        # the path leaves each end through one of its candidates
        for t, vertex in ((p, path.points[1]), (q, path.points[-2])):
            assert vertex.tolist() in disk128.centers[disk128._candidates(t)[0]].tolist()
        assert abs(path.qh_length_cached - row.k) < 1e-12


def test_rows_keep_their_positional_order(disk128):
    # perfbench reads rep.rows[0][2] as k_hat, so tuple(row) is a contract
    cmp = compare_metrics_disk(disk128, [((0, 0), (0.5, 0))]).rows[0]
    assert tuple(cmp) == (cmp.p, cmp.q, cmp.k_hat, cmp.h, cmp.lower_ok, cmp.upper_ok)
    assert cmp[2] == cmp.k_hat and cmp.pair == ((0.0, 0.0), (0.5, 0.0))
    bh = bh_quasigeodesic_check(disk128, [((-0.5, 0.0), (0.5, 0.0))]).rows[0]
    assert tuple(bh) == (bh.p, bh.q, bh.qh_len_hyp_geo, bh.k, bh.hyp_len_qh_geo, bh.h)
    gh = gehring_hayman_ratio(disk128, [((0.1, 0.2), (0.1, 0.2))]).table[0]
    assert tuple(gh) == (gh.x, gh.y, gh.l_geodesic, gh.l_inner, gh.ratio)
    assert gh == ((0.1, 0.2), (0.1, 0.2), 0.0, 0.0, 1.0)


def test_csv_with_hyp_column():
    csv = path_csv_with_hyp(hyp_geodesic_disk((0, 0), (0.5, 0), 16))
    lines = csv.strip().split("\n")
    assert lines[0] == "x,y,delta,cum_qh_length,cum_euc_length,hyp_cum_length"
    assert len(lines) == 17
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[5] - np.log(3)) < 1e-3
