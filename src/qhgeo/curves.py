"""Boundary curves as trimmed circle arcs and segments.

A compiled domain stores only the parts of each primitive curve that actually
separate inside from outside. Pieces are trimmed by splitting every primitive
at its intersections with every other primitive and keeping a sub-piece iff
the domain membership differs on the two sides of its midpoint (slit pieces
are kept whenever either side is inside).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (circle_circle_angles, seg_point_distance,
                       segment_circle_angles, segment_circle_params,
                       segment_segment_param, segments_properly_cross)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArcPiece:
    cx: float
    cy: float
    radius: float
    a0: float  # start angle
    a1: float  # end angle, a0 < a1 <= a0 + 2*pi

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    def point_at(self, theta: float) -> np.ndarray:
        return np.array([self.cx + self.radius * math.cos(theta),
                         self.cy + self.radius * math.sin(theta)])

    def length(self) -> float:
        return self.radius * (self.a1 - self.a0)

    def box(self) -> np.ndarray:
        """[[xmin, ymin], [xmax, ymax]] of the arc: its ends plus the
        axis-extreme points its angular range covers."""
        pts = [self.point_at(self.a0), self.point_at(self.a1)]
        quarter = 0.5 * math.pi
        q = math.ceil(self.a0 / quarter)
        while q * quarter <= self.a1:
            c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[q % 4]
            pts.append(np.array([self.cx + c * self.radius, self.cy + s * self.radius]))
            q += 1
        return np.array([np.min(pts, axis=0), np.max(pts, axis=0)])

    def distances(self, pts: np.ndarray) -> np.ndarray:
        dx = pts[:, 0] - self.cx
        dy = pts[:, 1] - self.cy
        d = np.hypot(dx, dy)
        if self.a1 - self.a0 >= TWO_PI - 1e-12:
            return np.abs(d - self.radius)
        ang = np.arctan2(dy, dx)
        rel = np.mod(ang - self.a0, TWO_PI)
        on_arc = rel <= (self.a1 - self.a0)
        res = np.abs(d - self.radius)
        if not on_arc.all():
            e0 = self.point_at(self.a0)
            e1 = self.point_at(self.a1)
            off = ~on_arc
            d0 = np.hypot(pts[off, 0] - e0[0], pts[off, 1] - e0[1])
            d1 = np.hypot(pts[off, 0] - e1[0], pts[off, 1] - e1[1])
            res[off] = np.minimum(d0, d1)
        return res

    def crossings(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        t_lo, t_hi, hit = segment_circle_params(p0, p1, (self.cx, self.cy), self.radius)
        out = np.zeros(len(p0), dtype=bool)
        if not hit.any():
            return out
        full = self.a1 - self.a0 >= TWO_PI - 1e-12
        for t in (t_lo, t_hi):
            ok = hit & (t >= 0.0) & (t <= 1.0)
            if not ok.any():
                continue
            if full:
                out |= ok
                continue
            px = p0[ok, 0] + t[ok] * (p1[ok, 0] - p0[ok, 0])
            py = p0[ok, 1] + t[ok] * (p1[ok, 1] - p0[ok, 1])
            rel = np.mod(np.arctan2(py - self.cy, px - self.cx) - self.a0, TWO_PI)
            sub = rel <= (self.a1 - self.a0)
            idx = np.flatnonzero(ok)
            out[idx[sub]] = True
        return out


@dataclass(frozen=True)
class SegPiece:
    ax: float
    ay: float
    bx: float
    by: float

    @property
    def a(self) -> np.ndarray:
        return np.array([self.ax, self.ay])

    @property
    def b(self) -> np.ndarray:
        return np.array([self.bx, self.by])

    def length(self) -> float:
        return math.hypot(self.bx - self.ax, self.by - self.ay)

    def box(self) -> np.ndarray:
        return np.array([np.minimum(self.a, self.b), np.maximum(self.a, self.b)])

    def point_at(self, t: float) -> np.ndarray:
        return np.array([self.ax + t * (self.bx - self.ax),
                         self.ay + t * (self.by - self.ay)])

    def distances(self, pts: np.ndarray) -> np.ndarray:
        return seg_point_distance(self.a, self.b, pts)

    def crossings(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        return segments_properly_cross(p0, p1, self.a, self.b)


BoundaryPiece = ArcPiece | SegPiece


class Tiles(NamedTuple):
    """Query points in consecutive runs, each with a box and a distance bound.

    Run i is the next sizes[i] points. They lie in the box [lo[i], hi[i]],
    and none is farther than bound[i] from the boundary.
    """
    lo: np.ndarray      # (runs, 2)
    hi: np.ndarray      # (runs, 2)
    bound: np.ndarray   # (runs,)
    sizes: np.ndarray   # (runs,)


def pieces_distance(pieces, pts: np.ndarray, tiles: Tiles | None = None) -> np.ndarray:
    """Pointwise min distance to a list of boundary pieces.

    With tiles, a piece is skipped for a run whose box lies farther than the
    run's bound from the piece's box. The nearest piece is never skipped,
    and the min of a superset of it is the same float, so the result does
    not change.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    best = np.full(len(pts), np.inf)
    for piece in pieces:
        if tiles is not None:
            box = piece.box()
            gap = np.maximum(np.maximum(box[0] - tiles.hi, tiles.lo - box[1]), 0.0)
            near = np.hypot(gap[:, 0], gap[:, 1]) <= tiles.bound
            if not near.all():
                if near.any():
                    sel = np.repeat(near, tiles.sizes)
                    best[sel] = np.minimum(best[sel], piece.distances(pts[sel]))
                continue
        np.minimum(best, piece.distances(pts), out=best)
    return best


def pieces_crossings(pieces, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Whether each segment p0[i]-p1[i] touches any boundary piece."""
    out = np.zeros(len(p0), dtype=bool)
    for piece in pieces:
        todo = ~out
        if not todo.any():
            break
        out[todo] |= piece.crossings(p0[todo], p1[todo])
    return out


# ---------------------------------------------------------------------------
# trimming


@dataclass(frozen=True)
class RawCircle:
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class RawSegment:
    a: tuple[float, float]
    b: tuple[float, float]
    is_slit: bool = False


def _dedup_sorted(vals: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(vals):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def _keep_piece(q: np.ndarray, normal: np.ndarray, contains_many, eps: float,
                is_slit: bool) -> bool:
    probe = np.array([q + eps * normal, q - eps * normal])
    inside = contains_many(probe)
    if is_slit:
        return bool(inside[0] or inside[1])
    return bool(inside[0] != inside[1])


def _circle_breakpoints(circ: RawCircle, others) -> list[float]:
    angs: list[float] = []
    for other in others:
        if isinstance(other, RawCircle):
            angs += circle_circle_angles(circ.center, circ.radius,
                                         other.center, other.radius)
        else:
            angs += segment_circle_angles(other.a, other.b, circ.center, circ.radius)
    return [math.fmod(a + TWO_PI, TWO_PI) for a in angs]


def _segment_breakpoints(seg: RawSegment, others) -> list[float]:
    ts: list[float] = []
    for other in others:
        if isinstance(other, RawCircle):
            a = np.array([seg.a], dtype=float)
            b = np.array([seg.b], dtype=float)
            t_lo, t_hi, hit = segment_circle_params(a, b, other.center, other.radius)
            if bool(hit[0]):
                for t in (float(t_lo[0]), float(t_hi[0])):
                    if 0.0 <= t <= 1.0:
                        ts.append(t)
        else:
            ts += segment_segment_param(seg.a, seg.b, other.a, other.b)
    return [min(1.0, max(0.0, t)) for t in ts]


def trim_boundary(primitives: list, contains_many, scale: float) -> list[BoundaryPiece]:
    """Trim raw primitives to the sub-pieces that lie on the domain boundary."""
    eps = 1e-7 * max(1.0, scale)
    pieces: list[BoundaryPiece] = []
    for i, prim in enumerate(primitives):
        others = [p for j, p in enumerate(primitives) if j != i]
        if isinstance(prim, RawCircle):
            angs = _dedup_sorted(_circle_breakpoints(prim, others), 1e-12)
            cx, cy = prim.center
            if not angs:
                intervals = [(0.0, TWO_PI)]
            else:
                intervals = [(angs[k], angs[k + 1]) for k in range(len(angs) - 1)]
                intervals.append((angs[-1], angs[0] + TWO_PI))
            kept: list[tuple[float, float]] = []
            for a0, a1 in intervals:
                if a1 - a0 < 1e-12:
                    continue
                mid = 0.5 * (a0 + a1)
                normal = np.array([math.cos(mid), math.sin(mid)])
                q = np.array([cx, cy]) + prim.radius * normal
                if _keep_piece(q, normal, contains_many, eps, is_slit=False):
                    kept.append((a0, a1))
            # merge adjacent kept intervals to cut piece count
            merged: list[list[float]] = []
            for a0, a1 in kept:
                if merged and abs(merged[-1][1] - a0) < 1e-12:
                    merged[-1][1] = a1
                else:
                    merged.append([a0, a1])
            if len(merged) > 1 and abs(merged[0][0] + TWO_PI - merged[-1][1]) < 1e-12:
                merged[0][0] = merged[-1][0] - TWO_PI
                merged.pop()
            for a0, a1 in merged:
                pieces.append(ArcPiece(cx, cy, prim.radius, a0, a1))
        else:
            ts = _dedup_sorted([0.0, 1.0] + _segment_breakpoints(prim, others), 1e-12)
            ax, ay = prim.a
            bx, by = prim.b
            dx, dy = bx - ax, by - ay
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                continue
            normal = np.array([-dy / norm, dx / norm])
            kept_t: list[list[float]] = []
            for k in range(len(ts) - 1):
                t0, t1 = ts[k], ts[k + 1]
                if t1 - t0 < 1e-12:
                    continue
                tm = 0.5 * (t0 + t1)
                q = np.array([ax + tm * dx, ay + tm * dy])
                if _keep_piece(q, normal, contains_many, eps, prim.is_slit):
                    if kept_t and abs(kept_t[-1][1] - t0) < 1e-12:
                        kept_t[-1][1] = t1
                    else:
                        kept_t.append([t0, t1])
            for t0, t1 in kept_t:
                pieces.append(SegPiece(ax + t0 * dx, ay + t0 * dy,
                                       ax + t1 * dx, ay + t1 * dy))
    return pieces
