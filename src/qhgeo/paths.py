"""Polylines in a domain with cached Euclidean and quasihyperbolic lengths."""
from __future__ import annotations

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import as_points

CSV_HEADER = "x,y,delta,cum_qh_length,cum_euc_length"


class PathPolyline:
    """Ordered vertex list with per-vertex boundary distances.

    The cached quasihyperbolic length is the trapezoid-weight sum
    sum |p_i+1 - p_i| * (1/delta_i + 1/delta_i+1) / 2, i.e. exactly the graph
    length of the corresponding walk. qh_length() computes the continuous
    line integral instead.
    """

    __slots__ = ("points", "deltas", "cum_euc", "cum_qh")

    def __init__(self, points, deltas):
        points = as_points(points).astype(float)
        deltas = np.asarray(deltas, dtype=float)
        if len(points) != len(deltas):
            raise ValueError("points and deltas must have equal length")
        if len(points) == 0:
            raise ValueError("a path needs at least one vertex")
        if len(points) > 1:
            seg = np.hypot(*np.diff(points, axis=0).T)
            keep = np.concatenate([[True], seg > 1e-15])
            points = points[keep]
            deltas = deltas[keep]
        if (deltas <= 0.0).any():
            raise GeometryError("path vertex lies on or outside the boundary")
        self.points = points
        self.deltas = deltas
        seg = np.hypot(*np.diff(points, axis=0).T) if len(points) > 1 else np.zeros(0)
        self.cum_euc = np.concatenate([[0.0], np.cumsum(seg)])
        w = seg * 0.5 * (1.0 / deltas[:-1] + 1.0 / deltas[1:])
        self.cum_qh = np.concatenate([[0.0], np.cumsum(w)])

    @classmethod
    def from_domain(cls, domain, points) -> "PathPolyline":
        pts = as_points(points)
        inside = domain.contains_many(pts)
        if not inside.all():
            bad = pts[~inside][0]
            raise DomainError(f"path vertex ({bad[0]}, {bad[1]}) is outside the domain")
        return cls(pts, domain.delta_many(pts))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def euclidean_length(self) -> float:
        return float(self.cum_euc[-1])

    @property
    def qh_length_cached(self) -> float:
        return float(self.cum_qh[-1])

    def reversed(self) -> "PathPolyline":
        return PathPolyline(self.points[::-1], self.deltas[::-1])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for (x, y), d, cq, ce in zip(self.points, self.deltas, self.cum_qh, self.cum_euc):
            lines.append("%.9g,%.9g,%.9g,%.9g,%.9g" % (x, y, d, cq, ce))
        return "\n".join(lines) + "\n"


def qh_length(domain, path: PathPolyline, rel_tol: float = 1e-6) -> float:
    """Quasihyperbolic length of a polyline by adaptive midpoint quadrature.

    Each segment is refined by interval halving until its value changes by
    less than rel_tol relatively. Independent of the cached trapezoid sum.
    """
    pts = path.points
    if len(pts) < 2:
        return 0.0
    a = pts[:-1]
    b = pts[1:]
    if domain.crossings(a, b).any():
        raise GeometryError("path segment crosses the boundary")
    lens = np.hypot(*(b - a).T)
    total = 0.0
    active = np.arange(len(a))
    prev = np.zeros(len(a))
    n = 1
    while len(active) and n <= 1 << 16:
        ts = (np.arange(n) + 0.5) / n
        # midpoints for all active segments at once: (n * len(active), 2)
        mids = (a[active][:, None, :] + ts[None, :, None]
                * (b[active] - a[active])[:, None, :]).reshape(-1, 2)
        d = domain.delta_many(mids)
        if (d <= 0.0).any():
            raise GeometryError("path segment exits the domain")
        vals = (lens[active] / n) * (1.0 / d).reshape(len(active), n).sum(axis=1)
        if n == 1:
            prev[active] = vals
        else:
            done = np.abs(vals - prev[active]) <= rel_tol * np.abs(vals)
            total += vals[done].sum()
            prev[active] = vals
            active = active[~done]
        n *= 2
    total += prev[active].sum()  # segments that hit the refinement cap
    return float(total)
