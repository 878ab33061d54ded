"""Domain specifications, parsing, compilation, and geometric queries.

A DomainSpec is a small algebraic description (disks, rectangles, polygons,
unions, differences, slit sets, and two generator families). Each spec type
is one frozen dataclass that states its rules once: `parse` and `to_json`;
`expand` to structural specs; `bbox`, `inside` and `primitives` on the
expanded spec; `anchors` on the unexpanded one. compile_domain turns a spec
into a Domain: vectorized membership, exact distance to the trimmed
boundary, crossing tests, named anchors, and a coarse connectivity check.
Domain membership is the open set: points exactly on the boundary are
outside. `inside(pts, closed=True)` gives the Euclidean closure, which the
difference rule needs for its holes.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .curves import (ArcPiece, RawCircle, RawSegment, SegPiece, Tiles, pieces_crossings,
                     pieces_distance, trim_boundary)
from .errors import (AnchorError, ConstraintError, DisconnectedDomainError,
                     DomainError, GeometryError, ParseError)
from .geometry import (Point2, as_point, as_points, seg_point_distance,
                       segments_properly_cross)


@dataclass(frozen=True)
class Anchor:
    point: Point2
    inward: tuple[float, float] | None = None  # None for interior anchors


# ---------------------------------------------------------------------------
# parsing helpers


def _real(v, path: str, positive: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ParseError(f"{path}: expected a number")
    v = float(v)
    if not math.isfinite(v):
        raise ParseError(f"{path}: must be finite")
    if positive and v <= 0.0:
        raise ParseError(f"{path}: must be positive")
    return v


def _int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ParseError(f"{path}: expected an integer")
    return int(v)


def _pt(v, path: str) -> tuple[float, float]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ParseError(f"{path}: expected [x, y]")
    return (_real(v[0], f"{path}[0]"), _real(v[1], f"{path}[1]"))


def _req(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"{path}.{key}: missing required field")
    return obj[key]


def _json_value(v):
    if isinstance(v, DomainSpec):
        return v.to_json()
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# spec types

Box = tuple[tuple[float, float], tuple[float, float]]

class DomainSpec:
    """Base of the spec types. `kind` is the JSON "type" value; fields go to
    JSON in declaration order, under `json_keys[name]` where that is given."""
    kind: str
    json_keys: dict[str, str] = {}

    def to_json(self) -> dict:
        out = {"type": self.kind}
        for f in fields(self):
            out[self.json_keys.get(f.name, f.name)] = _json_value(getattr(self, f.name))
        return out

    def expand(self) -> DomainSpec:
        return self

    def anchors(self) -> dict[str, Anchor]:
        return {}


@dataclass(frozen=True)
class DiskSpec(DomainSpec):
    center: tuple[float, float]
    radius: float
    kind = "disk"

    @classmethod
    def parse(cls, obj: dict, path: str) -> DiskSpec:
        return cls(_pt(_req(obj, "center", path), f"{path}.center"),
                   _real(_req(obj, "radius", path), f"{path}.radius", positive=True))

    def bbox(self) -> Box:
        (cx, cy), r = self.center, self.radius
        return (cx - r, cy - r), (cx + r, cy + r)

    def inside(self, pts: np.ndarray, closed: bool = False) -> np.ndarray:
        (cx, cy), r = self.center, self.radius
        return (np.less_equal if closed else np.less)(
            np.hypot(pts[:, 0] - cx, pts[:, 1] - cy), r)

    def primitives(self) -> list:
        return [RawCircle(self.center, self.radius)]

    def anchors(self) -> dict[str, Anchor]:
        (cx, cy), r = self.center, self.radius
        return {
            "center": Anchor(Point2(cx, cy)),
            "rim_east": Anchor(Point2(cx + r, cy), (-1.0, 0.0)),
            "rim_west": Anchor(Point2(cx - r, cy), (1.0, 0.0)),
            "rim_north": Anchor(Point2(cx, cy + r), (0.0, -1.0)),
            "rim_south": Anchor(Point2(cx, cy - r), (0.0, 1.0)),
        }


@dataclass(frozen=True)
class RectSpec(DomainSpec):
    lo: tuple[float, float]
    hi: tuple[float, float]
    kind = "rect"
    json_keys = {"lo": "min", "hi": "max"}

    @classmethod
    def parse(cls, obj: dict, path: str) -> RectSpec:
        lo = _pt(_req(obj, "min", path), f"{path}.min")
        hi = _pt(_req(obj, "max", path), f"{path}.max")
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ConstraintError(f"{path}: min must be strictly below max in both axes")
        return cls(lo, hi)

    def bbox(self) -> Box:
        return self.lo, self.hi

    def inside(self, pts: np.ndarray, closed: bool = False) -> np.ndarray:
        below = np.less_equal if closed else np.less
        (x0, y0), (x1, y1) = self.lo, self.hi
        x, y = pts[:, 0], pts[:, 1]
        return below(x0, x) & below(x, x1) & below(y0, y) & below(y, y1)

    def primitives(self) -> list:
        (x0, y0), (x1, y1) = self.lo, self.hi
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        return [RawSegment(corners[i], corners[(i + 1) % 4]) for i in range(4)]

    def anchors(self) -> dict[str, Anchor]:
        (x0, y0), (x1, y1) = self.lo, self.hi
        mx, my = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        return {
            "center": Anchor(Point2(mx, my)),
            "edge_west": Anchor(Point2(x0, my), (1.0, 0.0)),
            "edge_east": Anchor(Point2(x1, my), (-1.0, 0.0)),
            "edge_south": Anchor(Point2(mx, y0), (0.0, 1.0)),
            "edge_north": Anchor(Point2(mx, y1), (0.0, -1.0)),
        }


@dataclass(frozen=True)
class PolygonSpec(DomainSpec):
    vertices: tuple[tuple[float, float], ...]
    kind = "polygon"

    @classmethod
    def parse(cls, obj: dict, path: str) -> PolygonSpec:
        raw = _req(obj, "vertices", path)
        if not isinstance(raw, list) or len(raw) < 3:
            raise ParseError(f"{path}.vertices: expected a list of at least 3 points")
        verts = tuple(_pt(v, f"{path}.vertices[{i}]") for i, v in enumerate(raw))
        _check_polygon(verts, path)
        return cls(verts)

    def bbox(self) -> Box:
        arr = np.asarray(self.vertices)
        return tuple(arr.min(axis=0)), tuple(arr.max(axis=0))

    def inside(self, pts: np.ndarray, closed: bool = False) -> np.ndarray:
        verts = np.asarray(self.vertices)
        tol = 1e-12 * max(1.0, float(max(verts.max(axis=0) - verts.min(axis=0))))
        out = np.empty(len(pts), dtype=bool)
        for s in range(0, len(pts), 131072):
            chunk = pts[s:s + 131072]
            d = np.full(len(chunk), np.inf)
            for a, b in zip(verts, np.roll(verts, -1, axis=0)):
                np.minimum(d, seg_point_distance(a, b, chunk), out=d)
            parity, edge = _polygon_parity(verts, chunk), d <= tol
            out[s:s + 131072] = parity | edge if closed else parity & ~edge
        return out

    def primitives(self) -> list:
        n = len(self.vertices)
        return [RawSegment(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]


@dataclass(frozen=True)
class UnionSpec(DomainSpec):
    parts: tuple[DomainSpec, ...]
    kind = "union"

    @classmethod
    def parse(cls, obj: dict, path: str) -> UnionSpec:
        raw = _req(obj, "parts", path)
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"{path}.parts: expected a nonempty list")
        return cls(tuple(_parse_node(p, f"{path}.parts[{i}]") for i, p in enumerate(raw)))

    def expand(self) -> UnionSpec:
        return UnionSpec(tuple(p.expand() for p in self.parts))

    def bbox(self) -> Box:
        boxes = [p.bbox() for p in self.parts]
        lo = (min(b[0][0] for b in boxes), min(b[0][1] for b in boxes))
        hi = (max(b[1][0] for b in boxes), max(b[1][1] for b in boxes))
        return lo, hi

    def inside(self, pts: np.ndarray, closed: bool = False) -> np.ndarray:
        return np.logical_or.reduce([p.inside(pts, closed) for p in self.parts])

    def primitives(self) -> list:
        return [prim for p in self.parts for prim in p.primitives()]

    def anchors(self) -> dict[str, Anchor]:
        out: dict[str, Anchor] = {}
        for p in self.parts:
            out.update(p.anchors())
        return out


@dataclass(frozen=True)
class DifferenceSpec(DomainSpec):
    base: DomainSpec
    holes: tuple[DomainSpec, ...]
    kind = "difference"

    @classmethod
    def parse(cls, obj: dict, path: str) -> DifferenceSpec:
        base = _parse_node(_req(obj, "base", path), f"{path}.base")
        raw = _req(obj, "holes", path)
        if not isinstance(raw, list):
            raise ParseError(f"{path}.holes: expected a list")
        holes = tuple(_parse_node(p, f"{path}.holes[{i}]") for i, p in enumerate(raw))
        blo, bhi = base.expand().bbox()
        tol = 1e-9 * (1.0 + max(bhi[0] - blo[0], bhi[1] - blo[1]))
        for i, hole in enumerate(holes):
            hlo, hhi = hole.expand().bbox()
            if (hlo[0] < blo[0] - tol or hlo[1] < blo[1] - tol
                    or hhi[0] > bhi[0] + tol or hhi[1] > bhi[1] + tol):
                raise ConstraintError(f"{path}.holes[{i}]: hole extends outside the base")
        return cls(base, holes)

    def expand(self) -> DifferenceSpec:
        return DifferenceSpec(self.base.expand(), tuple(h.expand() for h in self.holes))

    def bbox(self) -> Box:
        return self.base.bbox()

    def inside(self, pts: np.ndarray, closed: bool = False) -> np.ndarray:
        """A hole's closure leaves the open set and its open set the closure."""
        out = self.base.inside(pts, closed)
        for hole in self.holes:
            out &= ~hole.inside(pts, not closed)
        return out

    def primitives(self) -> list:
        return self.base.primitives() + [prim for h in self.holes for prim in h.primitives()]

    def anchors(self) -> dict[str, Anchor]:
        return self.base.anchors()


@dataclass(frozen=True)
class SlitSetSpec(DomainSpec):
    base: DomainSpec
    segments: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    kind = "slits"

    @classmethod
    def parse(cls, obj: dict, path: str) -> SlitSetSpec:
        base = _parse_node(_req(obj, "base", path), f"{path}.base")
        raw = _req(obj, "segments", path)
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"{path}.segments: expected a nonempty list")
        segs = []
        for i, s in enumerate(raw):
            if not isinstance(s, (list, tuple)) or len(s) != 2:
                raise ParseError(f"{path}.segments[{i}]: expected [[x1,y1],[x2,y2]]")
            a = _pt(s[0], f"{path}.segments[{i}][0]")
            b = _pt(s[1], f"{path}.segments[{i}][1]")
            if a == b:
                raise ConstraintError(f"{path}.segments[{i}]: zero-length slit")
            segs.append((a, b))
        return cls(base, tuple(segs))

    def expand(self) -> SlitSetSpec:
        return SlitSetSpec(self.base.expand(), self.segments)

    def bbox(self) -> Box:
        return self.base.bbox()

    def inside(self, pts: np.ndarray, closed: bool = False) -> np.ndarray:
        """Slits cut the open set only."""
        out = self.base.inside(pts, closed)
        if not closed:
            blo, bhi = self.base.bbox()
            tol = 1e-12 * max(1.0, bhi[0] - blo[0], bhi[1] - blo[1])
            for a, b in self.segments:
                out &= seg_point_distance(a, b, pts) > tol
        return out

    def primitives(self) -> list:
        return self.base.primitives() + [RawSegment(a, b, is_slit=True)
                                         for a, b in self.segments]

    def anchors(self) -> dict[str, Anchor]:
        out = self.base.anchors()
        base_pieces = _raw_pieces(self.base.expand().primitives())
        for k, (a, b) in enumerate(self.segments):
            da = float(pieces_distance(base_pieces, np.array([a]))[0])
            db = float(pieces_distance(base_pieces, np.array([b]))[0])
            tip, outer = (a, b) if da >= db else (b, a)
            dx, dy = outer[0] - tip[0], outer[1] - tip[1]
            norm = math.hypot(dx, dy)
            d = (dx / norm, dy / norm)
            up = (-d[1], d[0])
            mid = (0.5 * (tip[0] + outer[0]), 0.5 * (tip[1] + outer[1]))
            diag = ((up[0] - d[0]) / math.sqrt(2.0), (up[1] - d[1]) / math.sqrt(2.0))
            name = "slit" if len(self.segments) == 1 else f"slit{k + 1}"
            out[f"{name}_tip"] = Anchor(Point2(*tip), (-d[0], -d[1]))
            out[f"{name}_outer"] = Anchor(Point2(*outer), diag)
            out[f"{name}_mid_top"] = Anchor(Point2(*mid), up)
            out[f"{name}_mid_bottom"] = Anchor(Point2(*mid), (-up[0], -up[1]))
        return out


@dataclass(frozen=True)
class FootFingersSpec(DomainSpec):
    alpha: float
    beta: float
    m_max: int
    r0: float = 0.125
    decay: float = 0.5
    kind = "foot_fingers"

    @classmethod
    def parse(cls, obj: dict, path: str) -> FootFingersSpec:
        alpha = _real(_req(obj, "alpha", path), f"{path}.alpha")
        beta = _real(_req(obj, "beta", path), f"{path}.beta")
        m_max = _int(_req(obj, "m_max", path), f"{path}.m_max")
        r0 = _real(obj.get("r0", 0.125), f"{path}.r0", positive=True)
        decay = _real(obj.get("decay", 0.5), f"{path}.decay")
        return make_foot_fingers(alpha, beta, m_max, r0, decay)

    def expand(self) -> UnionSpec:
        parts: list[DomainSpec] = [DiskSpec(FOOT_CENTER, FOOT_RADIUS)]
        for f in foot_fingers_layout(self):
            parts.append(RectSpec((f.c - f.w / 2.0, -f.h), (f.c + f.w / 2.0, 0.0)))
            parts.append(DiskSpec((f.c, f.toe_cy), f.r))
        return UnionSpec(tuple(parts))

    def anchors(self) -> dict[str, Anchor]:
        cx, cy = FOOT_CENTER
        out = {
            "foot_center": Anchor(Point2(cx, cy)),
            "foot_west": Anchor(Point2(cx - FOOT_RADIUS, cy), (1.0, 0.0)),
            "foot_east": Anchor(Point2(cx + FOOT_RADIUS, cy), (-1.0, 0.0)),
            "foot_top": Anchor(Point2(cx, cy + FOOT_RADIUS), (0.0, -1.0)),
        }
        for f in foot_fingers_layout(self):
            out[f"toe_center_{f.m}"] = Anchor(Point2(f.c, f.toe_cy))
            out[f"toe_bottom_{f.m}"] = Anchor(Point2(f.c, f.toe_cy - 0.5 * f.r))
        return out


@dataclass(frozen=True)
class CombSpec(DomainSpec):
    teeth: int = 8
    kind = "comb"

    @classmethod
    def parse(cls, obj: dict, path: str) -> CombSpec:
        teeth = _int(obj.get("teeth", 8), f"{path}.teeth")
        if teeth < 1:
            raise ConstraintError(f"{path}.teeth: must be at least 1")
        return cls(teeth)

    def expand(self) -> SlitSetSpec:
        segs = tuple(((2.0 ** -j, 0.0), (2.0 ** -j, 0.5)) for j in range(1, self.teeth + 1))
        return SlitSetSpec(RectSpec((0.0, 0.0), (1.0, 1.0)), segs)

    def anchors(self) -> dict[str, Anchor]:
        out = {
            "comb_left_low": Anchor(Point2(0.0, 0.1), (1.0, 0.0)),
            "comb_left_mid": Anchor(Point2(0.0, 0.25), (1.0, 0.0)),
            "comb_upper": Anchor(Point2(0.75, 0.75)),
        }
        for j in range(1, self.teeth + 1):
            out[f"tooth_tip_{j}"] = Anchor(Point2(2.0 ** -j, 0.5), (0.0, 1.0))
        return out


_SPEC_TYPES = {cls.kind: cls for cls in (DiskSpec, RectSpec, PolygonSpec, UnionSpec, CombSpec,
                                         DifferenceSpec, SlitSetSpec, FootFingersSpec)}


# ---------------------------------------------------------------------------
# parsing and serialization


def _parse_node(obj, path: str) -> DomainSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    kind = _req(obj, "type", path)
    cls = _SPEC_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"{path}.type: unknown domain type {kind!r}")
    return cls.parse(obj, path)


def parse_domain(text) -> DomainSpec:
    """Parse a JSON document (or an already-decoded dict) into a DomainSpec."""
    if isinstance(text, (dict, list)):
        obj = text
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"$: invalid JSON ({exc.msg} at char {exc.pos})") from None
    return _parse_node(obj, "$")


def domain_to_json(spec: DomainSpec) -> dict:
    """Serialize a DomainSpec back to its JSON object form."""
    if not isinstance(spec, DomainSpec):
        raise TypeError(f"not a DomainSpec: {spec!r}")
    return spec.to_json()


# ---------------------------------------------------------------------------
# spec helpers


def _check_polygon(verts, path: str) -> None:
    n = len(verts)
    area2 = 0.0
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        area2 += x0 * y1 - x1 * y0
    if area2 <= 0.0:
        raise ConstraintError(f"{path}: polygon must be positively oriented and nondegenerate")
    # simplicity: no two non-adjacent edges may touch
    for i in range(n):
        a = np.array([verts[i]])
        b = np.array([verts[(i + 1) % n]])
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c = np.asarray(verts[j])
            d = np.asarray(verts[(j + 1) % n])
            if bool(segments_properly_cross(a, b, c, d)[0]):
                raise ConstraintError(f"{path}: polygon is not simple (edges {i} and {j} cross)")


def _polygon_parity(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    x0 = verts[:, 0]
    y0 = verts[:, 1]
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    straddle = (y0[None, :] <= py) != (y1[None, :] <= py)
    dy = np.where(y1 - y0 == 0.0, 1.0, y1 - y0)[None, :]
    xint = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / dy
    hits = straddle & (px < xint)
    return (hits.sum(axis=1) % 2) == 1


def _raw_pieces(prims: list) -> list:
    """Untrimmed pieces view of raw primitives (for anchor construction)."""
    out = []
    for p in prims:
        if isinstance(p, RawCircle):
            out.append(ArcPiece(p.center[0], p.center[1], p.radius, 0.0, 2.0 * math.pi))
        else:
            out.append(SegPiece(p.a[0], p.a[1], p.b[0], p.b[1]))
    return out


# ---------------------------------------------------------------------------
# foot-with-fingers generator

FOOT_CENTER = (0.0, 0.75)
FOOT_RADIUS = 1.0
CHORD_HALF = math.sqrt(FOOT_RADIUS ** 2 - FOOT_CENTER[1] ** 2)  # 0.6614...
_SNAP = 8192  # finger abscissas snap to odd multiples of 1/8192 measured from x = -1


@dataclass(frozen=True)
class Finger:
    m: int
    c: float        # signed corridor abscissa
    r: float        # toe radius
    w: float        # corridor width r**alpha
    h: float        # corridor height r**beta
    toe_cy: float   # toe center ordinate


def _snap_up_odd(c_req: float) -> float:
    n = math.ceil(_SNAP * (1.0 + c_req))
    if n % 2 == 0:
        n += 1
    return n / _SNAP - 1.0


def foot_fingers_layout(spec: FootFingersSpec) -> list[Finger]:
    """Place the fingers and verify they are pairwise disjoint.

    Corridor m hangs from the x-axis chord of the foot at a signed abscissa
    c_m chosen as far out as the chord allows: the foot must dip below the
    chord by at most 0.3 of the corridor height (so the corridor is a real
    bottleneck, not swallowed by the foot), same-side fingers must not crowd
    each other, and abscissas snap outward to odd multiples of 1/8192 from
    x = -1 so corridor axes line up with refined grid columns.
    """
    if not (spec.beta >= 1.0):
        raise ConstraintError("beta must be at least 1")
    if not (spec.alpha > spec.beta):
        raise ConstraintError("alpha must exceed beta")
    if spec.m_max < 0:
        raise ConstraintError("m_max must be nonnegative")
    if not (0.0 < spec.r0 <= 0.25):
        raise ConstraintError("r0 must lie in (0, 0.25]")
    if not (0.0 < spec.decay < 1.0):
        raise ConstraintError("decay must lie in (0, 1)")
    fingers: list[Finger] = []
    for m in range(1, spec.m_max + 1):
        r = spec.r0 * spec.decay ** (m - 1)
        w = r ** spec.alpha
        h = r ** spec.beta
        top = FOOT_CENTER[1] + 0.3 * h
        c_star = math.sqrt(max(0.0, FOOT_RADIUS ** 2 - top * top))
        c_req = c_star
        side = -1.0 if m % 2 == 1 else 1.0
        for f in fingers:
            if math.copysign(1.0, f.c) == side:
                c_req = max(c_req, abs(f.c) + f.w / 2.0 + 1.1 * r)
        c_abs = _snap_up_odd(c_req)
        if c_abs + w / 2.0 > CHORD_HALF - 1e-3:
            raise GeometryError(
                f"finger {m} does not fit inside the foot chord; decrease r0 or m_max")
        if h - 0.1 * r - 0.3 * h < 0.2 * h:
            raise GeometryError(
                f"corridor of finger {m} would be swallowed by its toe; "
                f"decrease beta or r0")
        if math.hypot(w / 2.0, 0.9 * r) > 0.97 * r:
            raise GeometryError(
                f"corridor of finger {m} is too wide to terminate inside its toe")
        toe_cy = -h - 0.9 * r
        dist_to_foot = math.hypot(c_abs - FOOT_CENTER[0] * side, toe_cy - FOOT_CENTER[1])
        if dist_to_foot < FOOT_RADIUS + 1.05 * r:
            raise GeometryError(
                f"toe {m} is not clear of the foot; decrease r0 or m_max")
        fingers.append(Finger(m, side * c_abs, r, w, h, toe_cy))
    _check_finger_disjointness(fingers)
    return fingers


def _check_finger_disjointness(fingers: list[Finger]) -> None:
    for i, fi in enumerate(fingers):
        for fj in fingers[i + 1:]:
            gap = math.hypot(fi.c - fj.c, fi.toe_cy - fj.toe_cy)
            if gap < 1.02 * (fi.r + fj.r):
                raise GeometryError(
                    f"toes {fi.m} and {fj.m} overlap; decrease r0 or m_max")
            for fa, fb in ((fi, fj), (fj, fi)):
                # toe of fa against corridor rectangle of fb
                dx = max(abs(fa.c - fb.c) - fb.w / 2.0, 0.0)
                dy = max(fa.toe_cy - 0.0, -fb.h - fa.toe_cy, 0.0)
                if math.hypot(dx, dy) < 1.02 * fa.r:
                    raise GeometryError(
                        f"toe {fa.m} collides with corridor {fb.m}; decrease r0 or m_max")
            if math.copysign(1.0, fi.c) == math.copysign(1.0, fj.c):
                if abs(fi.c - fj.c) < fi.w / 2.0 + fj.w / 2.0 + 1e-4:
                    raise GeometryError(
                        f"corridors {fi.m} and {fj.m} overlap; decrease r0 or m_max")


def make_foot_fingers(alpha: float, beta: float, m_max: int,
                      r0: float = 0.125, decay: float = 0.5) -> FootFingersSpec:
    """Build a validated foot-with-fingers spec.

    The foot is the disk of radius 1 about (0, 0.75). Finger m consists of a
    corridor of width r_m**alpha and height r_m**beta hanging below the
    x-axis chord, ending inside a toe disk of radius r_m, with
    r_m = r0 * decay**(m-1). Requires 1 <= beta < alpha.
    """
    spec = FootFingersSpec(float(alpha), float(beta), int(m_max), float(r0), float(decay))
    foot_fingers_layout(spec)  # raises GeometryError on overlap
    return spec


# ---------------------------------------------------------------------------
# compiled domain


class Domain:
    """A compiled planar domain: membership, boundary distance, crossings."""

    def __init__(self, spec: DomainSpec, pieces: list, open_fn,
                 bbox_lo: tuple[float, float], bbox_hi: tuple[float, float],
                 anchors: dict[str, Anchor], warnings: list[str]):
        self.spec = spec
        self.pieces = pieces
        self._open = open_fn
        self.bbox_lo = bbox_lo
        self.bbox_hi = bbox_hi
        self.scale = max(bbox_hi[0] - bbox_lo[0], bbox_hi[1] - bbox_lo[1])
        self.anchors = anchors
        self.warnings = warnings

    def __repr__(self) -> str:
        return (f"Domain({type(self.spec).__name__}, {len(self.pieces)} boundary "
                f"pieces, bbox {self.bbox_lo}..{self.bbox_hi})")

    def contains_many(self, pts) -> np.ndarray:
        return self._open(as_points(pts))

    def contains(self, p) -> bool:
        return bool(self.contains_many(np.asarray(as_point(p).as_tuple())[None, :])[0])

    def delta_many(self, pts, tiles: Tiles | None = None) -> np.ndarray:
        """Unsigned distance to the trimmed boundary (no membership check).

        tiles, if given, lets far pieces be skipped per run of points (see
        curves.Tiles); the distances are the same floats either way.
        """
        return pieces_distance(self.pieces, as_points(pts), tiles)

    def boundary_distance(self, p) -> float:
        pt = as_point(p)
        if not self.contains(pt):
            raise DomainError(f"point ({pt.x}, {pt.y}) is not inside the domain")
        return float(self.delta_many(np.asarray(pt.as_tuple())[None, :])[0])

    def crossings(self, p0, p1) -> np.ndarray:
        """Whether each segment p0[i]-p1[i] touches the boundary."""
        return pieces_crossings(self.pieces, np.atleast_2d(np.asarray(p0, float)),
                                np.atleast_2d(np.asarray(p1, float)))

    def anchor(self, name: str) -> Anchor:
        try:
            return self.anchors[name]
        except KeyError:
            known = ", ".join(sorted(self.anchors)) or "(none)"
            raise AnchorError(f"unknown anchor {name!r}; known anchors: {known}") from None


def _probe_connectivity(domain: Domain) -> None:
    """Coarse 64x64 check that the interior is nonempty and connected."""
    n = 64
    lo = np.asarray(domain.bbox_lo)
    hi = np.asarray(domain.bbox_hi)
    cell = (hi - lo) / n
    xs = lo[0] + (np.arange(n) + 0.5) * cell[0]
    ys = lo[1] + (np.arange(n) + 0.5) * cell[1]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = domain.contains_many(pts)
    if not inside.any():
        raise GeometryError("empty interior: coarse probe grid found no interior points")
    idx = -np.ones(n * n, dtype=np.int64)
    idx[inside] = np.arange(int(inside.sum()))
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    flat = np.arange(n * n).reshape(n, n)
    for shift in ((1, 0), (0, 1)):
        a = flat[:n - shift[0] or None, :n - shift[1] or None].ravel()
        b = flat[shift[0]:, shift[1]:].ravel()
        ok = inside[a] & inside[b]
        a, b = a[ok], b[ok]
        if len(a) == 0:
            continue
        cross = pieces_crossings(domain.pieces, pts[a], pts[b])
        rows.append(idx[a[~cross]])
        cols.append(idx[b[~cross]])
    m = int(inside.sum())
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        graph = sparse.coo_matrix((np.ones(len(r)), (r, c)), shape=(m, m))
    else:
        graph = sparse.coo_matrix((m, m))
    ncomp, labels = csgraph.connected_components(graph, directed=False)
    if ncomp <= 1:
        return
    sizes = np.bincount(labels, minlength=ncomp)
    main = int(np.argmax(sizes))
    limit = max(4, int(0.02 * m))
    for comp in range(ncomp):
        if comp == main:
            continue
        if sizes[comp] > limit:
            raise DisconnectedDomainError(
                f"interior splits into well-separated components on the probe grid "
                f"(sizes {sorted(map(int, sizes), reverse=True)})")
        domain.warnings.append(
            f"probe grid shows a small secondary component of {int(sizes[comp])} "
            f"cell(s); assuming it connects through features below probe resolution")


def compile_domain(spec, check_connectivity: bool = True) -> Domain:
    """Compile a DomainSpec (or JSON text/dict) into a queryable Domain."""
    if not isinstance(spec, DomainSpec):
        spec = parse_domain(spec)
    expanded = spec.expand()
    bbox_lo, bbox_hi = expanded.bbox()
    scale = max(bbox_hi[0] - bbox_lo[0], bbox_hi[1] - bbox_lo[1])
    pieces = trim_boundary(expanded.primitives(), expanded.inside, scale)
    if not pieces:
        raise GeometryError("domain has no boundary pieces after trimming")
    domain = Domain(spec, pieces, expanded.inside, bbox_lo, bbox_hi, spec.anchors(), [])
    if check_connectivity:
        _probe_connectivity(domain)
    return domain
