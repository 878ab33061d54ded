"""Domain-class diagnostics: John, QHBC, growth, Gehring-Hayman, separation.

Verdict thresholds are finite-scale heuristics, documented per function;
raw tables ride along in every report so callers can re-judge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import _as_anchor, _select_node
from .domains import Domain
from .errors import (ConstraintError, FunctionError, GeometryError,
                     ResolutionError, SampleError)
from .geometry import Point2, as_point
from .grid import GridGraph
from .paths import PathPolyline
from .report import Report


# ---------------------------------------------------------------------------
# cone arcs and the John condition


@dataclass(frozen=True)
class ConeArcStats(Report):
    path: PathPolyline = field(metadata={"json": None})
    b_hat: float
    argmax_point: Point2


def cone_arc_constant(d: Domain, path: PathPolyline) -> ConeArcStats:
    """Double-cone constant max_z min(l[x,z], l[z,y]) / delta(z) over vertices."""
    pts = path.points
    if len(pts) < 2:
        raise ConstraintError("cone arc needs at least two points")
    if not d.contains_many(pts).all():
        raise GeometryError("path leaves the domain")
    if len(pts) > 1 and d.crossings(pts[:-1], pts[1:]).any():
        raise GeometryError("a path segment crosses the boundary")
    # prefix and suffix lengths are each accumulated in their own direction
    # so that reversing the path permutes bitwise-identical values
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    prefix = np.concatenate([[0.0], np.cumsum(seg)])
    suffix = np.concatenate([[0.0], np.cumsum(seg[::-1])])[::-1]
    ratio = np.minimum(prefix, suffix) / path.deltas
    i = int(ratio.argmax())
    return ConeArcStats(path, float(ratio[i]), as_point(pts[i]))


@dataclass
class JohnReport(Report):
    x0: tuple
    targets: list
    scales: list[float]
    constants: list[list]        # per target, per scale (None if no node)
    per_target: list[float]      # aggregate constant per target
    verdict: str


def _john_constant(g: GridGraph, chain: list[int]) -> float:
    """Center-form constant of the node chain ordered center -> boundary."""
    pts = g.centers[chain]
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    from_far = cum[-1] - cum  # arc length measured from the boundary end
    return float((from_far / g.deltas[chain]).max())


def john_center_probe(g: GridGraph, x0, boundary_targets, scales) -> JohnReport:
    """Center-form John constants along geodesics from boundary targets to x0.

    fails_john iff the constant doubles on two consecutive steps, either
    across the scale ladder of one target or across successive targets'
    aggregates; holds iff every target's ladder has stabilized, meaning its
    last three constants stay within ratio 1.25 step to step; else
    inconclusive. x0 is a point or a Basepoint (see GridGraph.basepoint).
    """
    scales = [float(t) for t in scales]
    if any(b >= a for a, b in zip(scales, scales[1:])) or not scales:
        raise ConstraintError("scales must be strictly decreasing and nonempty")
    bp = g.basepoint(x0)
    label = int(g.labels[bp.node])
    targets = [_as_anchor(a) for a in boundary_targets]
    constants: list[list] = []
    per_target: list[float] = []
    for tgt in targets:
        row = []
        for t in scales:
            node = _select_node(g, tgt.point, t, label)
            if node is None:
                row.append(None)
                continue
            row.append(_john_constant(g, bp.path(node)))
        vals = [v for v in row if v is not None]
        if not vals:
            raise ResolutionError(
                f"target ({tgt.point.x:g}, {tgt.point.y:g}) unreachable at all scales")
        constants.append(row)
        per_target.append(max(vals))

    def doubles_twice(seq) -> bool:
        seq = [v for v in seq if v is not None and v > 0]
        return any(seq[i + 1] >= 2 * seq[i] and seq[i + 2] >= 2 * seq[i + 1]
                   for i in range(len(seq) - 2))

    def tail_ratio(seq) -> float:
        seq = [v for v in seq if v is not None and v > 0][-3:]
        return max((b / a for a, b in zip(seq, seq[1:])), default=1.0)

    fails = any(doubles_twice(row) for row in constants)
    if len(per_target) >= 3:
        fails = fails or doubles_twice(per_target)
    # boundedness is judged on the tail of each target's own ladder; ladders
    # converge from below, so early steps jump even in well-behaved domains,
    # and targets of different kinds (edge vs corner) carry different limits
    bounded = all(tail_ratio(row) < 1.25 for row in constants)
    verdict = "fails_john" if fails else ("holds" if bounded else "inconclusive")
    return JohnReport(bp.point.as_tuple(), [t.point.as_tuple() for t in targets],
                      scales, constants, per_target, verdict)


# ---------------------------------------------------------------------------
# quasihyperbolic boundary condition


@dataclass
class QhbcFit(Report):
    x0: tuple
    samples: list = field(metadata={"json": None})
    slope: float
    intercept: float
    max_residual: float
    stratum_residuals: list[float]
    verdict: str
    n_samples: int


def qhbc_fit(g: GridGraph, x0, n_samples: int, seed: int,
             n_strata: int = 10) -> QhbcFit:
    """Fit k(x0, x) against log(delta(x0)/delta(x)) with depth stratification.

    The line is fitted on a stratified sample; verdicts use positive
    residuals over the full population: fails iff per-stratum max residuals
    step up by >= 1.0 twice in a row across strata, holds iff the 95th
    percentile of the deepest stratum stays below 1.0. The percentile (not
    the max) judges holds because isolated corner rays carry a steeper
    log-slope than the bulk (a square's corners reach sqrt(2)), which the
    condition tolerates but a single fitted line cannot cap pointwise. x0 is
    a point or a Basepoint.
    """
    if n_samples < 10 * n_strata:
        raise SampleError(f"need at least {10 * n_strata} samples")
    bp = g.basepoint(x0)
    # one array per quantity over the whole component, each written in place
    nodes = np.flatnonzero(g.labels == g.labels[bp.node])
    k = bp.field[nodes]
    k += bp.stub
    lr = g.deltas[nodes]
    del nodes
    d0 = float(g.domain.delta_many(np.array([[bp.point.x, bp.point.y]]))[0])
    np.log(np.divide(d0, lr, out=lr), out=lr)
    edges = np.linspace(lr.min(), lr.max(), n_strata + 1)
    which = np.digitize(lr, edges[1:-1])
    which = np.clip(which, 0, n_strata - 1, out=which).astype(np.min_scalar_type(n_strata))
    rng = np.random.default_rng(seed)
    per = n_samples // n_strata
    chosen: list[np.ndarray] = []
    for s in range(n_strata):
        pool = np.flatnonzero(which == s)
        if len(pool) < 10:
            raise SampleError(
                f"stratum {s} has only {len(pool)} nodes (< 10); coarsen strata "
                f"or refine the grid")
        take = min(per, len(pool))
        chosen.append(rng.choice(pool, size=take, replace=False))
    idx = np.concatenate(chosen)
    slope, intercept = np.polyfit(lr[idx], k[idx], 1)
    # the positive part of k - (slope * lr + intercept)
    resid = slope * lr
    resid += intercept
    np.subtract(k, resid, out=resid)
    np.maximum(resid, 0.0, out=resid)
    strat_res = [float(resid[which == s].max()) for s in range(n_strata)]
    grows = any(strat_res[i + 1] >= strat_res[i] + 1.0
                and strat_res[i + 2] >= strat_res[i + 1] + 1.0
                for i in range(n_strata - 2))
    deep_q95 = float(np.percentile(resid[which == n_strata - 1], 95))
    if grows:
        verdict = "fails"
    elif deep_q95 < 1.0:
        verdict = "holds"
    else:
        verdict = "inconclusive"
    samples = [(float(k[i]), float(lr[i])) for i in idx]
    return QhbcFit(bp.point.as_tuple(), samples, float(slope), float(intercept),
                   float(resid.max()), strat_res, verdict, len(idx))


# ---------------------------------------------------------------------------
# growth functions and the integral condition


_LADDER = np.geomspace(1e-3, 1e3, 60)


@dataclass(frozen=True)
class GrowthFunction(Report):
    """phi in the growth criterion k(x0, x) <= phi(delta(x0)/delta(x)).

    Families: log_affine phi(t) = A log t + B; power phi(t) = A t^s;
    table: monotone (t, phi) knots with linear interpolation, refused
    outside its knot range.
    """
    family: str
    params: dict = field(metadata={"json": "*"})

    def __post_init__(self):
        if self.family == "log_affine":
            if not self.params.get("A", 0) > 0:
                raise FunctionError("log_affine needs A > 0")
        elif self.family == "power":
            if not (self.params.get("A", 0) > 0 and self.params.get("s", 0) > 0):
                raise FunctionError("power needs A > 0 and s > 0")
        elif self.family == "table":
            knots = np.asarray(self.params.get("knots", []), dtype=float)
            if knots.ndim != 2 or knots.shape[0] < 2 or knots.shape[1] != 2:
                raise FunctionError("table needs at least two (t, phi) knots")
            if not (np.diff(knots[:, 0]) > 0).all() or not (np.diff(knots[:, 1]) > 0).all():
                raise FunctionError("table knots must be strictly increasing")
        else:
            raise FunctionError(f"unknown growth family '{self.family}'")
        lad = self._ladder()
        vals = self(lad)
        if not (np.diff(vals) > 0).all():
            raise FunctionError("phi is not strictly increasing on the probe ladder")

    def _ladder(self) -> np.ndarray:
        if self.family == "table":
            return np.asarray(self.params["knots"], dtype=float)[:, 0]
        return _LADDER

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "log_affine":
            if (t <= 0).any():
                raise FunctionError("log_affine needs t > 0")
            out = self.params["A"] * np.log(t) + self.params["B"]
        elif self.family == "power":
            if (t < 0).any():
                raise FunctionError("power needs t >= 0")
            out = self.params["A"] * t ** self.params["s"]
        else:
            knots = np.asarray(self.params["knots"], dtype=float)
            if (t < knots[0, 0]).any() or (t > knots[-1, 0]).any():
                raise FunctionError("t outside the table's knot range")
            out = np.interp(t, knots[:, 0], knots[:, 1])
        return float(out) if out.ndim == 0 else out

    def inverse(self, y: float) -> float:
        """phi^{-1}(y) by bisection to 1e-10 (relative on wide brackets)."""
        if self.family == "table":
            knots = np.asarray(self.params["knots"], dtype=float)
            if y < knots[0, 1] or y > knots[-1, 1]:
                raise FunctionError("inverse outside the table's range")
            lo, hi = knots[0, 0], knots[-1, 0]
        else:
            lo = hi = 1.0
            for _ in range(400):
                if self(lo) <= y:
                    break
                lo *= 0.5
            else:
                raise FunctionError("inverse bracket not found (low end)")
            for _ in range(400):
                if self(hi) >= y:
                    break
                hi *= 2.0
            else:
                raise FunctionError("inverse bracket not found (high end)")
        while hi - lo > 1e-10 * max(1.0, abs(lo)):
            mid = 0.5 * (lo + hi)
            if self(mid) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def parse_growth_function(obj: dict) -> GrowthFunction:
    if not isinstance(obj, dict) or "family" not in obj:
        raise FunctionError("growth function JSON needs a 'family' key")
    family = obj["family"]
    params = {k: v for k, v in obj.items() if k != "family"}
    return GrowthFunction(family, params)


@dataclass
class GrowthReport(Report):
    verdict: str
    worst_margin: float
    worst_point: tuple
    n_samples: int


def growth_check(g: GridGraph, x0, phi: GrowthFunction, n_samples: int,
                 seed: int) -> GrowthReport:
    """Check k(x0, x) <= phi(delta(x0)/delta(x)) on sampled nodes.

    Holds iff the worst margin phi - k stays above -0.2 (slack for the
    graph's over-approximation of k). x0 is a point or a Basepoint.
    """
    bp = g.basepoint(x0)
    nodes = np.flatnonzero(g.labels == g.labels[bp.node])
    rng = np.random.default_rng(seed)
    take = min(int(n_samples), len(nodes))
    nodes = rng.choice(nodes, size=take, replace=False)
    k = bp.field[nodes] + bp.stub
    d0 = float(g.domain.delta_many(np.array([[bp.point.x, bp.point.y]]))[0])
    margins = phi(d0 / g.deltas[nodes]) - k
    i = int(margins.argmin())
    verdict = "holds" if margins[i] > -0.2 else "fails"
    return GrowthReport(verdict, float(margins[i]),
                        tuple(map(float, g.centers[nodes[i]])), take)


@dataclass
class IntegralReport(Report):
    converges: bool | None
    tail_estimate: float | None
    quadrature: float
    t0: float
    t_max: float


def integral_condition(phi: GrowthFunction, t_max: float) -> IntegralReport:
    """Convergence of the visibility integral of dt / phi^{-1}(t).

    The verdict is analytic per family: log_affine always converges (the
    inverse is exponential, tail A e^{-(t_max - B)/A}); a power family never
    converges (the p-test fails at one end for every s: the 0-end needs
    s > 1 while the tail needs s < 1); a table is inconclusive beyond its
    knots. The quadrature over [t0, t_max] is reported for inspection.
    """
    if not t_max >= 10:
        raise ConstraintError("t_max must be >= 10")
    if phi.family == "table":
        knots = np.asarray(phi.params["knots"], dtype=float)
        t0 = float(knots[0, 1])
        hi = min(float(knots[-1, 1]), t_max)
        quad = _quad_inverse(phi, t0, hi)
        return IntegralReport(None, None, quad, t0, t_max)
    t0 = float(phi(1.0))
    quad = _quad_inverse(phi, t0, t_max) if t0 < t_max else 0.0
    if phi.family == "log_affine":
        a, b = phi.params["A"], phi.params["B"]
        tail = a * math.exp(-(t_max - b) / a)
        return IntegralReport(True, tail, quad, t0, t_max)
    a, s = phi.params["A"], phi.params["s"]
    if s < 1:
        p = 1.0 / s
        tail = a ** p * t_max ** (1 - p) / (p - 1)
    else:
        tail = math.inf
    return IntegralReport(False, tail, quad, t0, t_max)


def _quad_inverse(phi: GrowthFunction, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    from scipy import integrate  # imported by its only user, not by `import qhgeo`
    val, _ = integrate.quad(lambda t: 1.0 / phi.inverse(t), lo, hi, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# Gehring-Hayman and ball separation


class GhRow(NamedTuple):
    x: tuple
    y: tuple
    l_geodesic: float
    l_inner: float
    ratio: float


@dataclass
class GhReport(Report):
    max_ratio: float
    table: list[GhRow]


def gehring_hayman_ratio(g: GridGraph, pairs) -> GhReport:
    """Euclidean length of the qh geodesic over the inner distance, per pair."""
    table = []
    for x, y in pairs:
        px, py = as_point(x), as_point(y)
        if px == py:  # a coincident pair reads 0 over 0, ratio 1
            table.append(GhRow(px.as_tuple(), py.as_tuple(), 0.0, 0.0, 1.0))
            continue
        lg, li = g.qh_geodesic(px, py).euclidean_length, float(g.inner_distance(px, py))
        table.append(GhRow(px.as_tuple(), py.as_tuple(), lg, li, lg / li))
    return GhReport(max([1.0] + [r.ratio for r in table]), table)


@dataclass
class BallSeparationReport(Report):
    holds: bool
    worst_z: tuple
    worst_ratio: float
    c: float


def ball_separation_check(g: GridGraph, pair, c: float) -> BallSeparationReport:
    """Does B(z, c*delta(z)) meet the inner-metric path for every z on gamma?"""
    if not c > 0:
        raise ConstraintError("c must be positive")
    x, y = pair
    gamma = g.qh_geodesic(x, y)
    sigma = g.inner_geodesic(x, y)
    # each gamma vertex's distance to the nearest sigma vertex, 256 rows a block
    dmin = np.concatenate([np.sqrt(((q[:, None] - sigma.points) ** 2).sum(axis=2).min(axis=1))
                           for q in np.split(gamma.points, range(256, len(gamma), 256))])
    ratios = dmin / gamma.deltas
    i = int(ratios.argmax())
    return BallSeparationReport(bool(ratios[i] <= c),
                                tuple(map(float, gamma.points[i])),
                                float(ratios[i]), float(c))
