"""Gromov products, hyperbolicity estimates, and boundary probes.

All probes are read-only over a GridGraph and deterministic for a fixed
seed. Endpoint selection near an anchor is "admissible node nearest the
anchor within the scale radius", ties to the lowest node index, restricted
to the component of the probe basepoint; approach arcs additionally
restrict candidates to a 25-degree cone around the arc direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domains import Anchor
from .errors import (ConstraintError, GeometryError, InternalInvariantError,
                     ResolutionError, SampleError)
from .geometry import Point2, as_point
from .grid import Basepoint, GridGraph, _fork_map
from .report import Report

_CONE_COS = math.cos(math.radians(25.0))


def gromov_product(g: GridGraph, o, x, y) -> float:
    """(x|y)_o = (k(x,o) + k(o,y) - k(x,y)) / 2 in the grid metric.

    Two sweeps, each from its pairs' first end (see GridGraph._end_key):
    one qh_distances call from the first of o, x and y to the other two,
    then one qh_distance call for the last pair. So each k is the float
    qh_distance gives for its pair, and coincident points give 0 with no
    sweep.
    """
    pts = [as_point(p) for p in (o, x, y)]
    a, b, c = sorted(range(3), key=lambda i: g._end_key(g.attach(pts[i])[0],
                                                        pts[i].x, pts[i].y))
    k = np.zeros((3, 3))
    k[a, [b, c]] = g.qh_distances([pts[a]], [pts[b], pts[c]])[0]
    k[b, c] = g.qh_distance(pts[b], pts[c])
    k = k + k.T
    return float(0.5 * (k[0, 1] + k[0, 2] - k[1, 2]))


# ---------------------------------------------------------------------------
# delta-hyperbolicity estimation


@dataclass(frozen=True)
class DeltaEstimate(Report):
    method: str
    value: float
    samples: int
    seed: int
    worst_configuration: tuple


def _main_component(g: GridGraph) -> int:
    return int(np.bincount(g.labels).argmax())


def _sample_pool(g: GridGraph, size: int, rng: np.random.Generator) -> np.ndarray:
    """Pool of distinct node ids near rejection-sampled interior points.

    Points (not nodes) are sampled so the pool is stable under grid
    refinement with the same seed; a delta floor of 2% of the domain scale
    keeps endpoint stubs small relative to the distances compared.
    """
    dom = g.domain
    lo, hi = np.asarray(dom.bbox_lo), np.asarray(dom.bbox_hi)
    floor = 0.02 * dom.scale
    label = _main_component(g)
    seen: set[int] = set()
    pool: list[int] = []
    for _ in range(200 * size):
        p = lo + rng.random(2) * (hi - lo)
        if not dom.contains_many(p[None])[0]:
            continue
        if float(dom.delta_many(p[None])[0]) < floor:
            continue
        try:
            u, _, _ = g.attach(p)
        except ResolutionError:
            continue
        if g.labels[u] != label or u in seen:
            continue
        seen.add(u)
        pool.append(u)
        if len(pool) >= size:
            break
    if len(pool) < 4:
        raise SampleError(
            f"could only place {len(pool)} distinct pool nodes; refine the grid")
    return np.asarray(pool, dtype=np.int64)


def estimate_delta_four_point(g: GridGraph, n_samples: int, seed: int,
                              pool_size: int = 180) -> DeltaEstimate:
    """Max four-point defect [min((x|y)_p,(y|z)_p) - (x|z)_p]+ over quadruples.

    The pool is fixed by the seed; quadruple rows are drawn in one stream,
    so the estimate is monotone nondecreasing in n_samples for a fixed seed.
    The pool's distances come from GridGraph.node_distance_matrix: one
    sweep per pool node but the deepest, each stopped at the hub-field
    triangle bound, the sweeps spread over every CPU this process may use.
    """
    if n_samples < 1:
        raise SampleError("n_samples must be >= 1")
    if g.node_count < 4:
        raise SampleError("need at least 4 nodes")
    rng = np.random.default_rng(seed)
    pool = _sample_pool(g, pool_size, rng)
    dmat = g.node_distance_matrix(pool)
    quads = rng.integers(0, len(pool), size=(n_samples, 4))
    x, y, z, p = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]

    def gp(a, b):
        return 0.5 * (dmat[a, p] + dmat[b, p] - dmat[a, b])

    defect = np.minimum(gp(x, y), gp(y, z)) - gp(x, z)
    np.clip(defect, 0.0, None, out=defect)
    best = int(defect.argmax())
    worst_nodes = pool[quads[best]]
    worst = tuple(tuple(map(float, g.centers[u])) for u in worst_nodes)
    return DeltaEstimate("four_point", float(defect[best]), n_samples, seed, worst)


def estimate_delta_thin_triangles(g: GridGraph, n_samples: int, seed: int,
                                  pool_size: int = 60) -> DeltaEstimate:
    """Max one-sided Hausdorff gap of geodesic triangle sides (thinness).

    Each side is swept from its first end (see GridGraph._end_key): one
    predecessor sweep per distinct first end, to the other ends of all its
    sides, stopped at the hub bound to them. These runs are independent,
    so they go through grid._fork_map, on every CPU this process may use,
    and each hands back its sides' chains and lengths. A side is a node
    set, so its direction does not matter. The gap sweeps run in this
    process, one after another, since each depends on the running
    maximum. Each gap is a multi-source sweep from the
    other two sides, stopped at the running maximum when that is below
    half the side's length; only a gap above it can raise the estimate,
    and such a gap is swept again to the half length. Every gap read is
    the full sweep's float, so the estimate and its worst configuration
    are too.
    """
    if n_samples < 1:
        raise SampleError("n_samples must be >= 1")
    if g.node_count < 3:
        raise SampleError("need at least 3 nodes")
    rng = np.random.default_rng(seed)
    pool = _sample_pool(g, pool_size, rng)
    triples = rng.integers(0, len(pool), size=(n_samples, 3))
    # each first end's targets: the other ends of its sides (none for u == v)
    targets: dict[int, set[int]] = {}
    for a, b, c in pool[triples].tolist():
        for u, v in ((a, b), (a, c), (b, c)):
            if u != v:
                s, t = sorted((u, v), key=g._end_key)
                targets.setdefault(s, set()).add(t)
    ends = [(s, sorted(ts)) for s, ts in targets.items()]

    def run(end):
        """Each of the end's sides: its nodes and its length."""
        s, ts = end
        dist, pred = g._reach(False, s, ts, predecessors=True)
        return [(np.asarray(GridGraph._chain(pred, s, t)), dist[t]) for t in ts]

    g._hub_field(False)  # here: a forked worker's cache never reaches this process
    sides = {(s, t): side for (s, ts), out in zip(ends, _fork_map(run, ends))
             for t, side in zip(ts, out)}

    def side_of(u: int, v: int):
        """The u-v side's nodes, in either direction, and its length."""
        if u == v:
            return np.asarray([u]), 0.0
        return sides[tuple(sorted((u, v), key=g._end_key))]

    best_val = 0.0
    best_triple = triples[0]
    for row in triples:
        a, b, c = (int(pool[i]) for i in row)
        (side_ab, len_ab), (side_ac, len_ac), (side_bc, len_bc) = (
            side_of(a, b), side_of(a, c), side_of(b, c))
        val = 0.0
        for side, length, others in ((side_ab, len_ab, (side_ac, side_bc)),
                                     (side_ac, len_ac, (side_ab, side_bc)),
                                     (side_bc, len_bc, (side_ab, side_ac))):
            # every node of a geodesic side lies within half its length of
            # an endpoint, and both endpoints lie on the other sides, so the
            # sweep can stop there. A gap up to need cannot raise the
            # estimate, so a lower need is tried first; a side node it leaves
            # unreached means a larger gap, swept again to the half length.
            # The slack covers float rounding only.
            union = np.unique(np.concatenate(others))
            need, half = max(best_val, val), 0.5 * length
            for cut in ((need, half) if 0.0 < need < half else (half,)):
                gap = float(g.multi_source_field(union, limit=cut * (1 + 1e-9))[side].max())
                if math.isfinite(gap):
                    break
            if not math.isfinite(gap):
                raise InternalInvariantError(
                    "thin-triangle side node beyond half the side length "
                    "from both endpoints")
            val = max(val, gap)
        if val > best_val:
            best_val = val
            best_triple = row
    worst_nodes = pool[best_triple]
    worst = tuple(tuple(map(float, g.centers[u])) for u in worst_nodes)
    return DeltaEstimate("thin_triangle", best_val, n_samples, seed, worst)


# ---------------------------------------------------------------------------
# scale-ladder probes


@dataclass
class ProbeReport(Report):
    kind: str = field(metadata={"json": None})
    p: tuple
    q: tuple
    scales: list[float]
    m: list[float]               # inf over the geodesic of k(x0, .)
    clearance: list[float]       # max delta over the geodesic
    gromov_products: list[float]
    verdict: str
    divergence_slope: float
    x0: tuple
    endpoints: list[tuple]       # ((x_k), (y_k)) node coordinates per scale
    k_xy: list[float]            # endpoint-to-endpoint distance per scale
    extra: dict = field(default_factory=dict, metadata={"json": "*"})  # a loop's arcs


def _as_anchor(a) -> Anchor:
    if isinstance(a, Anchor):
        return a
    return Anchor(as_point(a))


def _check_scales(scales) -> list[float]:
    scales = [float(t) for t in scales]
    if len(scales) < 2:
        raise ConstraintError("need at least two probe scales")
    if any(t <= 0 for t in scales):
        raise ConstraintError("scales must be positive")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ConstraintError("scales must be strictly decreasing")
    return scales


def _check_boundary(g: GridGraph, pt: Point2, what: str) -> None:
    d = float(g.domain.delta_many(np.array([[pt.x, pt.y]]))[0])
    if d > 1e-9 * g.domain.scale:
        raise ConstraintError(f"{what} must lie on the boundary (delta={d:.3e})")


def _select_node(g: GridGraph, pt: Point2, t: float, label: int,
                 direction=None) -> int | None:
    """Deepest admissible node within radius t of pt.

    Depth (max delta) makes the endpoint track the scale: in a comb the
    t-ball's deepest node sits in the widest corridor the ball reaches, so
    shrinking t walks the endpoints through successively finer corridors,
    while near a smooth boundary it just picks a point at depth ~t. Ties go
    to the node nearest pt, then to the lowest index.
    """
    ids = g._ball(np.array([pt.x, pt.y]), t)[0]
    ids = ids[g.labels[ids] == label]
    if len(ids) == 0:
        return None
    off = g.centers[ids] - [pt.x, pt.y]
    dist = np.hypot(off[:, 0], off[:, 1])
    if direction is not None:
        with np.errstate(invalid="ignore"):
            cosang = (off @ direction) / np.where(dist > 0, dist, np.inf)
        keep = cosang >= _CONE_COS
        ids, dist = ids[keep], dist[keep]
        if len(ids) == 0:
            return None
    pick = np.lexsort((ids, dist, -g.deltas[ids]))[0]
    return int(ids[pick])


def _divergence_slope(scales: list[float], m: list[float]) -> float:
    if len(scales) < 2:
        return 0.0
    xs = np.log2(scales[0] / np.asarray(scales))
    return float(np.polyfit(xs, np.asarray(m), 1)[0])


def _probe_ladder(g: GridGraph, p: Anchor, q: Anchor, bp: Basepoint,
                  scales: list[float], dir_p=None, dir_q=None,
                  distinct: bool = False):
    """Shared endpoint-ladder engine for the three boundary probes."""
    label = int(g.labels[bp.node])
    rows = []
    for t in scales:
        xk = _select_node(g, p.point, t, label, dir_p)
        if xk is None:
            raise ResolutionError(
                f"no admissible node within t={t:g} of anchor ({p.point.x:g}, {p.point.y:g})")
        yk = _select_node(g, q.point, t, label, dir_q)
        if yk is None:
            raise ResolutionError(
                f"no admissible node within t={t:g} of anchor ({q.point.x:g}, {q.point.y:g})")
        if distinct and xk == yk:
            raise GeometryError(f"approach arcs are not disjoint at scale t={t:g}")
        if xk == yk:
            chain, k_xy = np.asarray([xk]), 0.0
        else:
            # the xk-yk path in x0's shortest-path tree bounds k(xk, yk), so
            # a sweep cut at its length settles every prefix of the xk-yk
            # geodesic exactly; the slack covers float rounding only
            sweep = g.basepoint(xk, bp.tree_bound(xk, yk))
            if not math.isfinite(sweep.field[yk]):
                raise InternalInvariantError(
                    "ladder endpoint beyond its path in x0's shortest-path tree")
            chain, k_xy = np.asarray(sweep.path(yk)), float(sweep.field[yk])
        m_k = float((bp.field[chain] + bp.stub).min())
        clear_k = float(g.deltas[chain].max())
        prod = 0.5 * (float(bp.field[xk] + bp.stub) + float(bp.field[yk] + bp.stub) - k_xy)
        rows.append((t, xk, yk, m_k, clear_k, prod, k_xy))
    return rows


def _report(g: GridGraph, kind: str, p: Anchor, q: Anchor, bp: Basepoint,
            scales: list[float], rows, verdict: str, slope_of: list[float],
            **extra) -> ProbeReport:
    """ProbeReport from the ladder rows; slope_of is the series the slope fits."""
    return ProbeReport(
        kind=kind,
        p=p.point.as_tuple(), q=q.point.as_tuple(), x0=bp.point.as_tuple(),
        scales=scales,
        endpoints=[(tuple(map(float, g.centers[r[1]])),
                    tuple(map(float, g.centers[r[2]]))) for r in rows],
        m=[r[3] for r in rows],
        clearance=[r[4] for r in rows],
        gromov_products=[r[5] for r in rows],
        k_xy=[r[6] for r in rows],
        verdict=verdict,
        divergence_slope=_divergence_slope(scales, slope_of),
        extra=extra,
    )


def _rising_window(m: list[float], min_len: int = 3, rise: float = 2.0) -> bool:
    """True if some >= min_len consecutive scales increase with total >= rise."""
    n = len(m)
    for i in range(n - min_len + 1):
        j = i
        while j + 1 < n and m[j + 1] > m[j]:
            j += 1
        if j - i + 1 >= min_len and m[j] - m[i] >= rise:
            return True
    return False


def _visibility_verdict(m: list[float], clear: list[float]) -> str:
    """The visibility rule (see visibility_probe) on m and the clearances."""
    incs = [b - a for a, b in zip(m, m[1:])]
    vis = max(incs[-3:]) < 0.1 and clear[-1] > 0.5 * clear[0] if len(incs) >= 3 else False
    notvis = _rising_window(m) or clear[-1] < 0.1 * clear[0]
    if vis and not notvis:
        return "visible"
    if notvis and not vis:
        return "not_visible"
    return "inconclusive"


def visibility_probe(g: GridGraph, p, q, x0, scales) -> ProbeReport:
    """Probe whether geodesics between p- and q-approaching points stay deep.

    Verdict rules: visible iff the last three m-increments are all < 0.1 and
    the final clearance stays above half the first; not_visible iff m rises
    monotonically over >= 3 consecutive scales with total rise >= 2, or the
    final clearance drops below a tenth of the first; else inconclusive.
    x0 is a point or a Basepoint (see GridGraph.basepoint).
    """
    return visibility_and_gromov_probes(g, p, q, x0, scales)[0]


def gromov_product_boundary_probe(g: GridGraph, p, q, o, scales) -> ProbeReport:
    """Gromov products (x_k|y_k)_o of the visibility endpoint sequences.

    Verdict bounded iff the last three product increments are all < 0.1.
    o is a point or a Basepoint.
    """
    p, q = _as_anchor(p), _as_anchor(q)
    if p.point.x == q.point.x and p.point.y == q.point.y:
        raise ConstraintError("p and q coincide; use loop_probe for one point")
    scales = _check_scales(scales)
    _check_boundary(g, p.point, "anchor p")
    _check_boundary(g, q.point, "anchor q")
    bp = g.basepoint(o)
    rows = _probe_ladder(g, p, q, bp, scales)
    prods = [r[5] for r in rows]
    incs = [b - a for a, b in zip(prods, prods[1:])]
    bounded = len(incs) >= 3 and max(incs[-3:]) < 0.1
    return _report(g, "gromov_boundary", p, q, bp, scales, rows,
                   "bounded" if bounded else "unbounded", prods)


def visibility_and_gromov_probes(g: GridGraph, p, q, x0, scales
                                 ) -> tuple[ProbeReport, ProbeReport]:
    """visibility_probe and gromov_product_boundary_probe of the same arguments.

    Both read one endpoint ladder, so it is walked once: the visibility
    report is the Gromov report's ladder judged by the visibility rule, with
    the slope fitted to m. The two reports share their ladder lists.
    """
    gb = gromov_product_boundary_probe(g, p, q, x0, scales)
    vis = replace(
        gb, kind="visibility", verdict=_visibility_verdict(gb.m, gb.clearance),
        divergence_slope=_divergence_slope(gb.scales, gb.m))
    return vis, gb


def loop_probe(g: GridGraph, p, x0, scales, arcs) -> ProbeReport:
    """Probe for a geodesic loop: both endpoint families approach one point p.

    arcs gives two interior approach directions at p (unit vectors or
    Anchors whose inward normals are used). Verdict loop_suspected iff m
    varies by < 0.25 over the last three scales while the endpoints stay
    >= 4 apart; well_behaved iff m rises by >= 1 over the last three scales.
    x0 is a point or a Basepoint.
    """
    p = _as_anchor(p)
    scales = _check_scales(scales)
    if len(scales) < 3:
        raise ConstraintError("loop_probe needs at least three scales")
    if g.domain.contains(p.point):
        raise ConstraintError("loop_probe needs a boundary point, got an interior one")
    _check_boundary(g, p.point, "anchor p")
    if len(arcs) != 2:
        raise ConstraintError("arcs must give exactly two approach directions")
    dirs = []
    for a in arcs:
        if isinstance(a, Anchor):
            if a.inward is None:
                raise ConstraintError("arc anchor has no inward direction")
            v = np.asarray(a.inward, dtype=float)
        else:
            v = np.asarray(a, dtype=float)
        n = float(np.hypot(v[0], v[1]))
        if not n > 0:
            raise ConstraintError("arc direction must be a nonzero vector")
        dirs.append(v / n)
    bp = g.basepoint(x0)
    rows = _probe_ladder(g, p, p, bp, scales, dir_p=dirs[0], dir_q=dirs[1],
                         distinct=True)
    m = [r[3] for r in rows]
    k_xy = [r[6] for r in rows]
    suspected = (max(m[-3:]) - min(m[-3:]) < 0.25) and k_xy[-1] >= 4.0
    behaved = m[-1] - m[-3] >= 1.0
    if suspected and not behaved:
        verdict = "loop_suspected"
    elif behaved and not suspected:
        verdict = "well_behaved"
    else:
        verdict = "inconclusive"
    return _report(g, "loop", p, p, bp, scales, rows, verdict, m,
                   arcs=[list(map(float, d)) for d in dirs])
