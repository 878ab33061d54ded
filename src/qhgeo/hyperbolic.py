"""Analytic hyperbolic metric on the unit disk, as a comparison reference.

Two density normalizations are supported: minus_one (2/(1-|z|^2), curvature
-1, the default) and minus_four (1/(1-|z|^2), curvature -4). The two-sided
comparison k <= h <= 2k against the quasihyperbolic metric holds in the
minus_one normalization, which is why it is the default; minus_four is the
bare 1/(1-|z|^2) formula, with every distance halved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domains import DiskSpec
from .errors import ConstraintError, DomainError
from .geometry import as_point
from .grid import GridGraph
from .paths import PathPolyline
from .report import Report

HYP_CSV_HEADER = "x,y,delta,cum_qh_length,cum_euc_length,hyp_cum_length"


@dataclass(frozen=True)
class HypNormalization:
    curvature_flag: str = "minus_one"

    def __post_init__(self):
        if self.curvature_flag not in ("minus_one", "minus_four"):
            raise ConstraintError(
                f"unknown normalization '{self.curvature_flag}' "
                f"(use minus_one or minus_four)")

    @property
    def factor(self) -> float:
        return 2.0 if self.curvature_flag == "minus_one" else 1.0


MINUS_ONE = HypNormalization("minus_one")
MINUS_FOUR = HypNormalization("minus_four")


def _as_complex(p) -> complex:
    pt = as_point(p)
    z = complex(pt.x, pt.y)
    if abs(z) >= 1.0:
        raise DomainError(f"point ({pt.x:g}, {pt.y:g}) is not inside the unit disk")
    return z


def hyp_density(z, n: HypNormalization = MINUS_ONE) -> float:
    w = _as_complex(z)
    return n.factor / (1.0 - abs(w) ** 2)


def hyp_distance_disk(z1, z2, n: HypNormalization = MINUS_ONE) -> float:
    a, b = _as_complex(z1), _as_complex(z2)
    rho = abs(a - b) / abs(1.0 - a.conjugate() * b)
    d = np.log1p(rho) - np.log1p(-rho)
    return float(d) if n.curvature_flag == "minus_one" else float(0.5 * d)


def hyp_geodesic_disk(z1, z2, n_points: int = 256) -> PathPolyline:
    """Sample the hyperbolic geodesic by straightening z1 to the origin.

    The Mobius map T(w) = (w - z1)/(1 - conj(z1) w) sends the geodesic to a
    radial segment; uniform samples of that segment are mapped back. With
    n_points = 2 this degenerates to the euclidean chord.
    """
    if n_points < 2:
        raise ConstraintError("n_points must be at least 2")
    a, b = _as_complex(z1), _as_complex(z2)
    u = (b - a) / (1.0 - a.conjugate() * b) * np.linspace(0.0, 1.0, int(n_points))
    z = (u + a) / (1.0 + a.conjugate() * u)
    pts = np.column_stack([z.real, z.imag])
    return PathPolyline(pts, 1.0 - np.abs(z))


def hyp_polyline_length(points, n: HypNormalization = MINUS_ONE) -> np.ndarray:
    """Cumulative hyperbolic length along a polyline.

    Midpoint rule per segment: second-order like the trapezoid but with half
    the error constant, which is what keeps 256-point geodesic samplings
    within 0.1% of the closed form even for deep pairs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    if (r2 >= 1.0).any():
        raise DomainError("polyline leaves the unit disk")
    if len(pts) < 2:
        return np.zeros(1)
    mid = 0.5 * (pts[:-1] + pts[1:])
    dens_mid = n.factor / (1.0 - mid[:, 0] ** 2 - mid[:, 1] ** 2)
    seg = np.hypot(*np.diff(pts, axis=0).T)
    return np.concatenate([[0.0], np.cumsum(seg * dens_mid)])


def path_csv_with_hyp(path: PathPolyline, n: HypNormalization = MINUS_ONE) -> str:
    """Geodesic CSV rows with an extra hyp_cum_length column."""
    cum_h = hyp_polyline_length(path.points, n)
    lines = [HYP_CSV_HEADER]
    for (x, y), d, cq, ce, ch in zip(path.points, path.deltas, path.cum_qh,
                                     path.cum_euc, cum_h):
        lines.append(f"{x:.12g},{y:.12g},{d:.12g},{cq:.12g},{ce:.12g},{ch:.12g}")
    return "\n".join(lines) + "\n"


def _require_unit_disk(g: GridGraph) -> None:
    if g.domain.spec != DiskSpec((0.0, 0.0), 1.0):
        raise ConstraintError("this check needs a graph built on the unit disk")


class CompareRow(NamedTuple):
    p: tuple
    q: tuple
    k_hat: float
    h: float
    lower_ok: bool
    upper_ok: bool
    JSON = ("pair", "k_hat", "h", "lower_ok", "upper_ok")
    pair = property(lambda row: (row.p, row.q))


@dataclass
class CompareReport(Report):
    eps: float
    all_hold: bool
    rows: list[CompareRow]


def compare_metrics_disk(g: GridGraph, pairs,
                         n: HypNormalization = MINUS_ONE,
                         eps: float = 0.05) -> CompareReport:
    """Two-sided comparison k <= h <= 2k per pair, with discretization slack.

    Verdict per pair: k_hat*(1-eps) <= h <= 2*k_hat*(1+eps).
    """
    _require_unit_disk(g)
    if n.curvature_flag != "minus_one":
        raise ConstraintError("the two-sided comparison is a minus_one statement")
    rows = []
    ok = True
    for x, y in pairs:
        px, py = as_point(x), as_point(y)
        k = g.qh_distance(px, py)
        h = hyp_distance_disk(px, py, n)
        lo = bool(k * (1.0 - eps) <= h)
        hi = bool(h <= 2.0 * k * (1.0 + eps))
        ok = ok and lo and hi
        rows.append(CompareRow(px.as_tuple(), py.as_tuple(), float(k), float(h),
                               lo, hi))
    return CompareReport(eps, ok, rows)


class BhRow(NamedTuple):
    p: tuple
    q: tuple
    qh_len_hyp_geo: float
    k: float
    hyp_len_qh_geo: float
    h: float
    JSON = ("pair", "qh_len_hyp_geo", "k", "hyp_len_qh_geo", "h")
    pair = property(lambda row: (row.p, row.q))


@dataclass
class BhReport(Report):
    k_hat: float = field(metadata={"json": "K_hat"})
    h_hat: float = field(metadata={"json": "H_hat"})
    notes: list[str]
    rows: list[BhRow]


def bh_quasigeodesic_check(g: GridGraph, pairs,
                           n: HypNormalization = MINUS_ONE,
                           n_points: int = 256) -> BhReport:
    """Empirical quasigeodesic constants between the two metrics.

    K_hat bounds qh_length(hyperbolic geodesic)/k(a,b); H_hat bounds
    hyp_length(qh geodesic)/h(a,b). Coincident pairs are skipped with a note.
    """
    _require_unit_disk(g)
    rows, notes = [], []
    k_hat = h_hat = 0.0
    for x, y in pairs:
        px, py = as_point(x), as_point(y)
        if px.x == py.x and px.y == py.y:
            notes.append(f"skipped coincident pair ({px.x:g}, {px.y:g})")
            continue
        k, qh_geo = g.qh_distance_and_geodesic(px, py)
        h = hyp_distance_disk(px, py, n)
        hyp_geo = hyp_geodesic_disk(px, py, n_points)
        qh_of_hyp = float(hyp_geo.cum_qh[-1])
        hyp_of_qh = float(hyp_polyline_length(qh_geo.points, n)[-1])
        k_hat = max(k_hat, qh_of_hyp / k)
        h_hat = max(h_hat, hyp_of_qh / h)
        rows.append(BhRow(px.as_tuple(), py.as_tuple(), qh_of_hyp, float(k),
                          hyp_of_qh, float(h)))
    return BhReport(float(k_hat), float(h_hat), notes, rows)


def disk_automorphism(a, theta: float):
    """T(z) = e^{i theta} (z - a)/(1 - conj(a) z) as a point-to-point map."""
    ac = _as_complex(a)
    rot = complex(np.cos(theta), np.sin(theta))

    def apply(p):
        z = _as_complex(p)
        w = rot * (z - ac) / (1.0 - ac.conjugate() * z)
        return (w.real, w.imag)

    return apply
