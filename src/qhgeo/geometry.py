"""Planar primitives: points, segment and circle intersection helpers.

Everything that touches many points at once takes (N, 2) float arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConstraintError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def as_point(p) -> Point2:
    """Coerce a Point2, tuple, list, or length-2 array to Point2."""
    if isinstance(p, Point2):
        return p
    seq = np.asarray(p, dtype=float).reshape(-1)
    if seq.size != 2:
        raise ConstraintError(f"expected a 2d point, got {p!r}")
    return Point2(float(seq[0]), float(seq[1]))


def as_points(pts) -> np.ndarray:
    """Coerce a sequence of point-likes to an (N, 2) float array."""
    if isinstance(pts, np.ndarray) and pts.ndim == 2 and pts.shape[1] == 2:
        return pts.astype(float, copy=False)
    rows = [as_point(p).as_tuple() for p in pts]
    return np.array(rows, dtype=float).reshape(-1, 2)


def seg_point_distance(a, b, pts: np.ndarray) -> np.ndarray:
    """Distance from each row of pts to the closed segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pts = np.atleast_2d(pts)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(pts[:, 0] - a[0], pts[:, 1] - a[1])
    t = ((pts - a) @ ab) / denom
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])


def segments_properly_cross(p0: np.ndarray, p1: np.ndarray, a, b) -> np.ndarray:
    """Whether each segment p0[i]-p1[i] meets the fixed segment a-b.

    Touching counts as crossing (closed test); collinear overlap counts too.
    Returns a bool array over the edge batch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d1 = p1 - p0
    d2 = b - a

    def cross(ux, uy, vx, vy):
        return ux * vy - uy * vx

    # orientation of a, b relative to each edge and vice versa
    o_a = cross(d1[:, 0], d1[:, 1], a[0] - p0[:, 0], a[1] - p0[:, 1])
    o_b = cross(d1[:, 0], d1[:, 1], b[0] - p0[:, 0], b[1] - p0[:, 1])
    o_p0 = cross(d2[0], d2[1], p0[:, 0] - a[0], p0[:, 1] - a[1])
    o_p1 = cross(d2[0], d2[1], p1[:, 0] - a[0], p1[:, 1] - a[1])

    straddle = (np.minimum(o_a, o_b) <= 0.0) & (np.maximum(o_a, o_b) >= 0.0) \
        & (np.minimum(o_p0, o_p1) <= 0.0) & (np.maximum(o_p0, o_p1) >= 0.0)
    if not straddle.any():
        return straddle

    # prune collinear-but-disjoint cases with a bounding-box overlap test
    lo_x = np.minimum(p0[:, 0], p1[:, 0])
    hi_x = np.maximum(p0[:, 0], p1[:, 0])
    lo_y = np.minimum(p0[:, 1], p1[:, 1])
    hi_y = np.maximum(p0[:, 1], p1[:, 1])
    box = (lo_x <= max(a[0], b[0])) & (hi_x >= min(a[0], b[0])) \
        & (lo_y <= max(a[1], b[1])) & (hi_y >= min(a[1], b[1]))
    return straddle & box


def segment_circle_params(p0: np.ndarray, p1: np.ndarray, center, radius: float):
    """Intersection parameters t in [0, 1] of each segment with a circle.

    Returns (t_lo, t_hi, hit) where hit marks segments whose supporting line
    meets the circle; t outside [0, 1] means the hit is off-segment.
    """
    c = np.asarray(center, dtype=float)
    d = p1 - p0
    f = p0 - c
    aa = np.einsum("ij,ij->i", d, d)
    bb = 2.0 * np.einsum("ij,ij->i", f, d)
    cc = np.einsum("ij,ij->i", f, f) - radius * radius
    disc = bb * bb - 4.0 * aa * cc
    hit = (disc >= 0.0) & (aa > 0.0)
    sq = np.sqrt(np.where(hit, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = np.where(hit, (-bb - sq) / (2.0 * aa), np.nan)
        t_hi = np.where(hit, (-bb + sq) / (2.0 * aa), np.nan)
    return t_lo, t_hi, hit


def circle_circle_angles(c1, r1: float, c2, r2: float) -> list[float]:
    """Angles on circle 1 where it meets circle 2 (empty if disjoint/nested)."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d = math.hypot(c2[0] - c1[0], c2[1] - c1[1])
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    cosv = (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)
    cosv = min(1.0, max(-1.0, cosv))
    a = math.acos(cosv)
    base = math.atan2(c2[1] - c1[1], c2[0] - c1[0])
    if a == 0.0 or a == math.pi:
        return [base + a]
    return [base - a, base + a]


def segment_circle_angles(a, b, center, radius: float) -> list[float]:
    """Angles on the circle where the segment [a, b] meets it."""
    a = np.asarray(a, dtype=float).reshape(1, 2)
    b = np.asarray(b, dtype=float).reshape(1, 2)
    t_lo, t_hi, hit = segment_circle_params(a, b, center, radius)
    if not bool(hit[0]):
        return []
    out = []
    c = np.asarray(center, dtype=float)
    for t in (float(t_lo[0]), float(t_hi[0])):
        if -1e-12 <= t <= 1.0 + 1e-12:
            p = a[0] + min(1.0, max(0.0, t)) * (b[0] - a[0])
            out.append(math.atan2(p[1] - c[1], p[0] - c[0]))
    return out


def segment_segment_param(a, b, c, d) -> list[float]:
    """Parameters t on segment [a, b] where it meets segment [c, d]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    r = b - a
    s = d - c
    denom = r[0] * s[1] - r[1] * s[0]
    q = c - a
    if abs(denom) < 1e-30:
        # parallel; collinear overlap endpoints give the parameter range
        if abs(q[0] * r[1] - q[1] * r[0]) > 1e-14 * (1.0 + np.abs(r).max()):
            return []
        rr = float(r @ r)
        if rr == 0.0:
            return []
        t0 = float((c - a) @ r / rr)
        t1 = float((d - a) @ r / rr)
        lo, hi = sorted((t0, t1))
        out = [t for t in (lo, hi) if -1e-12 <= t <= 1 + 1e-12]
        return out
    t = (q[0] * s[1] - q[1] * s[0]) / denom
    u = (q[0] * r[1] - q[1] * r[0]) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return [float(t)]
    return []
