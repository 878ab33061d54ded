"""Domain parsing, membership, boundary distance, anchors."""
import hashlib
import json

import numpy as np
import pytest

from qhgeo import (compile_domain, domain_to_json, make_foot_fingers,
                   parse_domain)
from qhgeo.domains import foot_fingers_layout
from qhgeo.errors import (ConstraintError, DisconnectedDomainError,
                          DomainError, ParseError)
from qhgeo.suites import load_suite_params


_COMB = {"type": "comb", "teeth": 3}
_DISK = {"type": "disk", "center": [0.5, -1], "radius": 2}
# one spec per type, with generators nested inside composites
_JSON_SPECS = {
    "disk": _DISK,
    "rect": {"type": "rect", "min": [0, -1], "max": [2, 0.5]},
    "polygon": {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [0, 2]]},
    "union": {"type": "union", "parts": [_COMB, _DISK]},
    "difference": {"type": "difference",
                   "base": {"type": "rect", "min": [-1, -1], "max": [2, 2]},
                   "holes": [_COMB, {"type": "disk", "center": [-0.5, 1.5], "radius": 0.25}]},
    "slits": {"type": "slits", "base": _COMB, "segments": [[[0.75, 1], [0.75, 0.75]]]},
    "foot_fingers": {"type": "foot_fingers", "alpha": 2.25, "beta": 1, "m_max": 3},
    "comb": _COMB,
}


def test_parse_round_trip():
    spec = parse_domain(json.dumps({"type": "disk", "center": [0.5, -1], "radius": 2}))
    obj = domain_to_json(spec)
    assert obj["type"] == "disk"
    assert tuple(obj["center"]) == (0.5, -1.0)
    assert obj["radius"] == 2.0
    assert parse_domain(obj) == spec
    for obj in _JSON_SPECS.values():
        spec = parse_domain(obj)
        assert parse_domain(domain_to_json(spec)) == spec


# frozen from the per-type isinstance chains: the spec classes must write
# every key, value and key order the same
_JSON_DIGESTS = {
    "comb": "5f61a3077c7d9f245cddbe4d90ed43aeab1159f39f2022170de61a5488663ec6",
    "difference": "694cb3752c48bc5a6059afe9969903eee72bfe46c7f624f28afe5cf5a86c440b",
    "disk": "a9687a848b582a76841775b97837a7a68ffaa01af35e76e65982405b00172574",
    "foot_fingers": "10e8fad54183167f77bbdef89575c980453cfcb6ef275853ea0d81f262add1de",
    "polygon": "efb73d8e960e09db3a8421b2c46661442e88adabd509665d0d50a3cb177527fa",
    "rect": "66018e1da773f8b14ef5e683863798923abc1ce0024d67f5ef8ff75ef8a748d2",
    "slits": "d22d6bca9f4e85439e75a05036d8642f54c48da44f81e3c67a218611af7e28fd",
    "union": "de139362ddde07912543ece685c26058e8796985de5057ac380a40da01f56646",
}


@pytest.mark.parametrize("name", sorted(_JSON_SPECS))
def test_spec_json_digest_unchanged(name):
    text = json.dumps(domain_to_json(parse_domain(_JSON_SPECS[name])))
    assert hashlib.sha256(text.encode()).hexdigest() == _JSON_DIGESTS[name]


def test_domain_to_json_rejects_non_spec():
    with pytest.raises(TypeError):
        domain_to_json({"type": "disk"})


def test_parse_accepts_decoded_dict():
    spec = parse_domain({"type": "rect", "min": [0, 0], "max": [2, 1]})
    d = compile_domain(spec)
    assert d.contains((1.0, 0.5))
    assert not d.contains((1.0, 1.5))


@pytest.mark.parametrize("bad, err", [
    ("not json", ParseError),
    ('{"type": "disk", "center": [0, 0]}', ParseError),            # missing radius
    ('{"type": "disk", "center": [0, 0], "radius": -1}', ParseError),
    ('{"type": "nonagon"}', ParseError),
    ('{"type": "rect", "min": [1, 0], "max": [0, 1]}', ConstraintError),
    ('{"type": "polygon", "vertices": [[0, 0], [1, 0]]}', ParseError),
    ('{"type": "slits", "base": {"type": "disk", "center": [0, 0], "radius": 1},'
     ' "segments": []}', ParseError),
    ('{"type": "slits", "base": {"type": "disk", "center": [0, 0], "radius": 1},'
     ' "segments": [[[0, 0], [0, 0]]]}', ConstraintError),
    ('{"type": "comb", "teeth": 0}', ConstraintError),
    ('{"type": ["disk"]}', ParseError),
    ('{"type": "union", "parts": []}', ParseError),
    ('{"type": "difference", "base": {"type": "disk", "center": [0, 0], "radius": 1},'
     ' "holes": {}}', ParseError),
    ('{"type": "difference", "base": {"type": "rect", "min": [0, 0], "max": [1, 1]},'
     ' "holes": [{"type": "rect", "min": [0.5, 0.5], "max": [1.5, 0.75]}]}', ConstraintError),
    ('{"type": "polygon", "vertices": [[0, 0], [4, 0], [4, 4], [2, -1], [0, 4]]}',
     ConstraintError),
])
def test_parse_rejects(bad, err):
    with pytest.raises(err):
        parse_domain(bad)


def test_polygon_rejection_names_the_crossing_edges():
    with pytest.raises(ConstraintError, match="edges 0 and 2 cross"):
        parse_domain({"type": "polygon", "vertices": [[0, 0], [4, 0], [4, 4], [2, -1], [0, 4]]})


def test_disk_membership_and_delta(disk_domain):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.2, 1.2, size=(512, 2))
    r = np.hypot(pts[:, 0], pts[:, 1])
    inside = disk_domain.contains_many(pts)
    assert np.array_equal(inside, r < 1.0)
    d = disk_domain.delta_many(pts[inside])
    assert np.allclose(d, 1.0 - r[inside], atol=1e-12)


def test_rect_delta(square_domain):
    # distance to the nearest of the four sides
    pts = np.array([[0.0, 0.0], [0.4, 0.0], [0.3, -0.45], [-0.49, 0.49]])
    want = np.array([0.5, 0.1, 0.05, 0.01])
    assert np.allclose(square_domain.delta_many(pts), want, atol=1e-12)


def test_boundary_distance_rejects_outside(disk_domain):
    with pytest.raises(DomainError):
        disk_domain.boundary_distance((2.0, 0.0))


def test_disk_anchors(disk_domain):
    assert sorted(disk_domain.anchors) == [
        "center", "rim_east", "rim_north", "rim_south", "rim_west"]
    east = disk_domain.anchor("rim_east")
    assert east.point.as_tuple() == (1.0, 0.0)
    assert east.inward is not None
    assert disk_domain.anchor("center").inward is None


def test_polygon_membership():
    tri = compile_domain({"type": "polygon",
                          "vertices": [[0, 0], [2, 0], [0, 2]]})
    assert tri.contains((0.5, 0.5))
    assert not tri.contains((1.5, 1.5))
    # delta at the incenter-ish point equals distance to the hypotenuse
    d = float(tri.delta_many(np.array([[0.5, 0.5]]))[0])
    assert np.isclose(d, 0.5)


def test_union_and_difference():
    dumbbell = compile_domain({
        "type": "union",
        "parts": [{"type": "disk", "center": [-1, 0], "radius": 0.8},
                  {"type": "disk", "center": [1, 0], "radius": 0.8},
                  {"type": "rect", "min": [-1, -0.1], "max": [1, 0.1]}],
    })
    assert dumbbell.contains((0.0, 0.0))
    assert dumbbell.contains((-1.5, 0.0))
    assert not dumbbell.contains((0.0, 0.5))

    annulus_like = compile_domain({
        "type": "difference",
        "base": {"type": "rect", "min": [-1, -1], "max": [1, 1]},
        "holes": [{"type": "disk", "center": [0, 0], "radius": 0.4}],
    }, check_connectivity=True)
    assert annulus_like.contains((0.7, 0.7))
    assert not annulus_like.contains((0.0, 0.0))
    # delta near the hole rim is the distance to the circle
    d = float(annulus_like.delta_many(np.array([[0.5, 0.0]]))[0])
    assert np.isclose(d, 0.1, atol=1e-12)


def test_difference_hole_outside_base_rejected():
    with pytest.raises(ConstraintError):
        parse_domain({"type": "difference",
                      "base": {"type": "rect", "min": [0, 0], "max": [1, 1]},
                      "holes": [{"type": "disk", "center": [2, 0], "radius": 0.2}]})


def test_slit_delta_and_crossings(slit_domain):
    # near the slit the boundary distance is to the segment, not the rim
    d = float(slit_domain.delta_many(np.array([[0.5, 0.1]]))[0])
    assert np.isclose(d, 0.1, atol=1e-12)
    p0 = np.array([[0.5, 0.05], [0.5, 0.05]])
    p1 = np.array([[0.5, -0.05], [0.6, 0.05]])
    crosses = slit_domain.crossings(p0, p1)
    assert crosses[0] and not crosses[1]
    assert sorted(slit_domain.anchors)[:2] == ["center", "rim_east"]
    assert "slit_mid_top" in slit_domain.anchors
    assert "slit_mid_bottom" in slit_domain.anchors


def test_full_slit_disconnects():
    spec = {"type": "slits",
            "base": {"type": "disk", "center": [0, 0], "radius": 1},
            "segments": [[[-1, 0], [1, 0]]]}
    with pytest.raises(DisconnectedDomainError):
        compile_domain(spec)
    d = compile_domain(spec, check_connectivity=False)
    assert d.contains((0.0, 0.5)) and d.contains((0.0, -0.5))


def test_comb_geometry(comb_domain):
    assert sorted(comb_domain.anchors)[:3] == [
        "comb_left_low", "comb_left_mid", "comb_upper"]
    tips = [n for n in comb_domain.anchors if n.startswith("tooth_tip_")]
    assert len(tips) == 8
    # teeth accumulate toward the left edge; upper chamber stays open
    assert comb_domain.contains((0.75, 0.75))
    assert comb_domain.contains(comb_domain.anchors["comb_upper"].point)


def test_foot_fingers_layout():
    spec = make_foot_fingers(2.25, 1.0, 3, r0=0.125)
    fingers = foot_fingers_layout(spec)
    assert [f.m for f in fingers] == [1, 2, 3]
    rs = np.array([f.r for f in fingers])
    assert np.allclose(rs, [0.125, 0.0625, 0.03125])
    # widths r^alpha shrink much faster than depths r^beta
    for f in fingers:
        assert np.isclose(f.w, f.r ** 2.25, rtol=1e-12)
        assert f.w < f.r
    dom = compile_domain(spec)
    for f in fingers:
        assert dom.contains(dom.anchors[f"toe_center_{f.m}"].point)
    assert dom.contains(dom.anchors["foot_center"].point)


def test_foot_fingers_validation():
    with pytest.raises(ConstraintError):
        make_foot_fingers(1.0, 2.0, 3)      # needs beta < alpha
    with pytest.raises(ConstraintError):
        make_foot_fingers(2.25, 1.0, 3, r0=0.9)
    with pytest.raises(ConstraintError):
        make_foot_fingers(2.25, 1.0, 3, decay=1.5)


_L_VERTS = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
# base minus [a disk with a square island, an overlapping rect and disk]:
# the island makes the difference rule run the closure of a difference
_NESTED_HOLES = {
    "type": "difference",
    "base": {"type": "rect", "min": [0, 0], "max": [4, 2]},
    "holes": [{"type": "difference",
               "base": {"type": "disk", "center": [1, 1], "radius": 0.8},
               "holes": [{"type": "rect", "min": [0.75, 0.75], "max": [1.25, 1.25]}]},
              {"type": "union",
               "parts": [{"type": "rect", "min": [2.5, 0.5], "max": [3, 1.5]},
                         {"type": "disk", "center": [3.2, 1], "radius": 0.4}]}]}
_MEMBERSHIP_SPECS = {
    **{name: params["domain"] for name, params in load_suite_params().items()},
    "l_polygon": {"type": "polygon", "vertices": _L_VERTS},
    "two_disks": {"type": "union",
                  "parts": [{"type": "disk", "center": [-0.4, 0], "radius": 0.7},
                            {"type": "disk", "center": [0.4, 0], "radius": 0.7}]},
    "polygon_slits": {"type": "slits", "base": {"type": "polygon", "vertices": _L_VERTS},
                      "segments": [[[0.5, 0], [0.5, 0.75]], [[1.5, 1], [1.5, 0.25]]]},
    "nested_holes": _NESTED_HOLES,
}


def _membership_points(domain):
    """A seeded cloud around the bbox plus a 257x257 lattice on it."""
    lo = np.asarray(domain.bbox_lo)
    hi = np.asarray(domain.bbox_hi)
    pad = 0.05 * (hi - lo)
    cloud = np.random.default_rng(11).uniform(lo - pad, hi + pad, size=(20000, 2))
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 257), np.linspace(lo[1], hi[1], 257))
    return np.concatenate([cloud, np.column_stack([gx.ravel(), gy.ravel()])])


# frozen from the membership built as separate open and closed closures:
# one rule per spec must give every point, piece and anchor the same bits
_MEMBERSHIP_DIGESTS = {
    "comb": "4b25d140f020971b024d263d5f2d702b74040fdfe0257ac1490c97280f350f17",
    "disk_reference": "243f35fa6c123f52e16c01ebc7dbe00f33bf3e0f3ebe3638d7259551d7ef6678",
    "example8": "e4d2b7a783ac8bbf0b9f1e9a59fe71c672beaf3ebdefaa116610678a28dffb23",
    "l_polygon": "9796b6f5f056a198f09b3a9349cfc2b71e054a1a28afd8439504aad7a4351204",
    "nested_holes": "df44c7a4b05887f86b7a72c171c92816f6547dc8bc6d5e18663ee5a3b02628d7",
    "polygon_slits": "e5b2d5e2352a8255a5af193c0101420b7eb483cca2103517ad78364a2dafc4e1",
    "slit": "94613844110aa6c95003e1ea36b150736c71773d408675326d0c4eb065dc4d0c",
    "two_disks": "b8ea45b325d00d30a4bba49ca5c6b04564121aa11b1d46e21974a743b06381c9",
}


@pytest.mark.parametrize("name", sorted(_MEMBERSHIP_SPECS))
def test_membership_digest_unchanged(name):
    d = compile_domain(_MEMBERSHIP_SPECS[name], check_connectivity=False)
    h = hashlib.sha256(d.contains_many(_membership_points(d)).tobytes())
    h.update(repr(d.pieces).encode())
    h.update(repr(sorted(d.anchors.items())).encode())
    assert h.hexdigest() == _MEMBERSHIP_DIGESTS[name]


@pytest.mark.parametrize("name, inside, boundary, exterior", [
    ("disk_reference", [(0.0, 0.0), (0.0, 0.999)], [(1.0, 0.0), (0.0, -1.0)],
     [(1.001, 0.0)]),
    ("slit", [(0.5, 1e-9), (-0.5, 0.0)], [(0.5, 0.0), (1.0, 0.0), (0.0, 0.0)],
     [(0.0, 1.5)]),
    ("polygon_slits", [(0.4, 0.5), (0.6, 0.5), (0.5, 0.8)],
     [(0.5, 0.5), (0.5, 0.0), (1.5, 0.25), (1.0, 1.5), (2.0, 0.5)], [(1.5, 1.5)]),
    # the square island inside the disk hole belongs to the domain
    ("nested_holes", [(1.0, 1.0), (1.2, 1.2), (0.1, 0.1), (3.9, 1.0)],
     [(1.8, 1.0), (1.0, 0.2), (0.75, 1.0), (1.0, 1.25), (1.25, 1.25),
      (2.5, 1.0), (3.0, 0.5), (3.2, 0.6), (0.0, 1.0)],
     [(1.5, 1.0), (3.2, 1.0), (2.75, 1.0), (4.5, 1.0)]),
])
def test_membership_hand_checked(name, inside, boundary, exterior):
    d = compile_domain(_MEMBERSHIP_SPECS[name], check_connectivity=False)
    spec = d.spec.expand()
    assert d.contains_many(inside).all()
    assert not d.contains_many(boundary + exterior).any()
    assert spec.inside(np.array(inside + boundary), closed=True).all()
    assert not spec.inside(np.array(exterior), closed=True).any()


@pytest.mark.parametrize("name", sorted(_MEMBERSHIP_SPECS))
def test_open_set_lies_in_its_closure(name):
    d = compile_domain(_MEMBERSHIP_SPECS[name], check_connectivity=False)
    pts = _membership_points(d)
    inside = d.contains_many(pts)
    closure = d.spec.expand().inside(pts, closed=True)
    assert not (inside & ~closure).any()
