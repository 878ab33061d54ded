"""Grid discretization of the quasihyperbolic density and shortest paths.

The domain is covered by a level-0 lattice of cell size h anchored at the
bounding-box corner. Cells within 8 cell-widths of the boundary split into
four until boundary_layer extra levels are reached, except exterior ones:
a cell with delta > 0.75 s (its half-diagonal is s/sqrt 2) lies wholly on
one side of the boundary, so when its center is outside none of its
descendants can be a node and it does not split; when its center is
inside, its children are inside without a membership test. Membership is
asked only where delta > s/2, the only cells whose answer is read. A leaf
cell becomes a node when its center lies inside with delta > cell/2.
Neighboring leaves (same level 4/8-neighborhood, or one level apart) are
joined when the connecting segment stays inside; each edge carries the
trapezoid weight |u-v| * (1/delta(u) + 1/delta(v)) / 2, and in the inner
metric its Euclidean length. The segment needs no crossing test when
delta(u) + delta(v) > |u-v|: the open balls B(u, delta(u)) and
B(v, delta(v)) lie in the domain and together cover it. attach certifies
its stub by the same rule.

Neighbours are looked up in sorted per-level keys (ix+1)*(ny+2) + (iy+1),
each list ended by an int64-max sentinel. A cell one step off the lattice
then has a key no node has, and every search position lies inside the
list, so no query needs a bounds mask. The candidates in one neighbouring
column are consecutive keys: one search finds the first, and each next
position is the previous one plus one where the previous key was present.
The edges come out in the order of one search per neighbour offset.

Below level 0 delta is screened, not evaluated against every boundary
piece. delta is 1-Lipschitz, so a child cell's delta is at most its
parent's plus the parent-child center distance s_parent/(2*sqrt 2), plus
1e-9 * domain.scale for rounding. Per level-0 cell, a piece is skipped for
all of the cell's children when the box-to-box distance from the cell to
the piece exceeds the largest such bound there. A skipped piece is never
the nearest one, and the min over a superset of the nearest piece is the
same float, so every delta is bit for bit the unscreened value.

The build makes the qh weight matrix only. The int32 edge ids go through
one COO->CSR conversion, and the qh weights are gathered through the
resulting order. Each neighbour offset's edges take one rank within their
rows, in column order: coarse-level neighbours first, in (-ax, -ay) order
of the coarse cell's fine offset, then same-level ones in (dx, dy) order,
then fine-level ones in (ax, ay) order. Both directions of every offset go
in sorted by rank, so the conversion's one counting pass leaves each row
sorted by column; no (row, column) pair occurs twice, so scipy neither
sorts nor sums duplicates. The conversion is the build's peak memory, and
each build stage is a function whose arrays die on return, so no
intermediate outlives its last use.

Only the Gehring-Hayman and ball-separation checks read the inner metric.
Its Euclidean weight matrix is built on first use, from csr_qh's index
arrays, which it shares, and the node centers: entry (u, v) is
hypot(x_v - x_u, y_v - y_u). Negating a difference is exact, so both
directions of an edge get the same float, the one the build's ball
certificate reads. It is filled in blocks of rows, so its temporaries
stay small.

Every shortest-path sweep goes through GridGraph._sweep. Each edge has
the same weight in both directions, so both matrices are symmetric bit for
bit and the sweep runs directed: it sees the same graph and skips the
transpose scipy builds for an undirected call. For the same reason the
components are the matrix's strong components, which scipy finds without
that transpose and labels as the undirected call does.
A sweep may stop at a distance limit; the nodes it reaches are exact,
because Dijkstra settles nodes in order of distance and every prefix of a
shortest path is itself within the limit.

Point-to-point sweeps (the distances, the geodesics and qh_distances) stop
at a limit taken from a hub field: one full sweep, per metric, from the
hub, the deepest node (argmax of delta, lowest id on a tie). The path from
u through the hub to t bounds d(u, t) by f[u] + f[t], so a sweep from u
cut at max_t (f[u] + f[t]) * (1 + 1e-9) reaches every target t with the
same float it gets in a full sweep. A target left unreached raises
InternalInvariantError. The field is built at a metric's second
point-to-point sweep, not its first: a one-shot query would otherwise pay a
second full sweep for a bound it never reuses. A sweep that starts at the
hub is the hub field itself: the first one builds it, later ones read it.
When the hub lies in another component than u, f[u] is inf, so is the
limit, and the sweep runs in full.

The diagnostics that measure k(x0, .) from a fixed basepoint (John, QHBC,
growth, the scale-ladder probes) take x0 as a point or as a Basepoint: x0,
its node and stub, and the read-only field and predecessors of one sweep
from that node. GridGraph.basepoint builds one, and a caller that runs
several diagnostics from one x0 builds it once. It is a value the caller
holds, not state of the graph. When x0's node is the hub, the basepoint and
the qh hub field are one and the same predecessor sweep, so the hub cache
holds each field together with its predecessors. dist_field is a
basepoint's field plus its stub; the other full-field calls (node_field,
node_field_with_pred, multi_source_field) never use the hub field.

node_distance_matrix uses the same triangle bound with its own rows as the
landmarks: it sweeps each pair once, from the end that comes first in
(delta, node id) order, and stops each sweep at the distance through the
nodes swept before it (see its docstring).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .curves import Tiles
from .domains import Domain, FootFingersSpec, foot_fingers_layout
from .errors import (ConstraintError, DomainError, InternalInvariantError,
                     ResolutionError, UnreachableError)
from .geometry import Point2, as_point
from .paths import PathPolyline

_NO_PRED = -9999  # scipy's "no predecessor" sentinel
_LENGTH_BLOCK = 1 << 14  # rows per block of _edge_lengths


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class GridParams:
    h: float
    boundary_layer: int = 0
    diag: bool = True

    def __post_init__(self):
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise ResolutionError("h must be a positive real")
        if int(self.boundary_layer) != self.boundary_layer or self.boundary_layer < 0:
            raise ResolutionError("boundary_layer must be a nonnegative integer")


@dataclass(frozen=True, eq=False)
class Basepoint:
    """A basepoint x0 with the qh field of one predecessor sweep from its node.

    field is the graph distance from node (without the stub) and pred the
    sweep's predecessors; both are read-only. Build one with
    GridGraph.basepoint and pass it wherever a diagnostic takes x0.
    """
    point: Point2
    node: int
    stub: float
    field: np.ndarray
    pred: np.ndarray
    graph: GridGraph


class GridGraph:
    """Immutable weighted grid graph over a compiled domain.

    The graph never changes after the build. Its mutable state is two lazy
    caches: at most two hub fields, one per metric, each with its
    predecessors, that bound the point-to-point sweeps, and the Euclidean
    weight matrix csr_euc, built by the first inner-metric query (see the
    module docstring).

    stats holds the build's deterministic counts: cells_evaluated and
    cells_pruned (exterior cells left unsplit) per level, nodes per level,
    edges, and the candidate edges that ran a crossing test (crossing_tests)
    or were certified inside by their endpoints' delta balls, delta(u) +
    delta(v) > |u-v|, without one (crossing_skipped).
    """

    def __init__(self, domain: Domain, params: GridParams, centers: np.ndarray,
                 deltas: np.ndarray, levels: np.ndarray, csr_qh,
                 labels: np.ndarray, warnings: list[str], stats: dict):
        self.domain = domain
        self.params = params
        self.centers = centers
        self.deltas = deltas
        self.levels = levels
        self.csr_qh = csr_qh
        self._csr_euc = None  # built by the first read of csr_euc
        self.labels = labels
        self.warnings = warnings
        self.stats = stats
        # an unbalanced tree on uncompacted nodes builds in about half the
        # time; queries return the same distances, and nearest_node and
        # attach order equal ones by index
        self._tree = cKDTree(centers, balanced_tree=False, compact_nodes=False)
        self._hub = int(np.argmax(deltas))
        # inner -> read-only (hub field, predecessors); None from the metric's
        # first, unbounded point-to-point sweep until the field is built
        self._hub_fields: dict[bool, tuple[np.ndarray, np.ndarray] | None] = {}

    @property
    def csr_euc(self):
        """The Euclidean edge lengths, on csr_qh's structure, built on first use."""
        if self._csr_euc is None:
            self._csr_euc = _edge_lengths(self.csr_qh, self.centers)
        return self._csr_euc

    @property
    def node_count(self) -> int:
        return len(self.centers)

    @property
    def edge_count(self) -> int:
        return self.csr_qh.nnz // 2

    def __repr__(self) -> str:
        return (f"GridGraph({self.node_count} nodes, {self.edge_count} edges, "
                f"h={self.params.h}, layers={self.params.boundary_layer})")

    # -- node lookup ------------------------------------------------------

    def nearest_node(self, p) -> int:
        """Nearest node by Euclidean distance; ties go to the lowest index."""
        pt = as_point(p)
        if not self.domain.contains(pt):
            raise DomainError(f"point ({pt.x}, {pt.y}) is not inside the domain")
        arr = np.array([pt.x, pt.y])
        k = min(8, self.node_count)
        d, idx = self._tree.query(arr, k=k)
        d = np.atleast_1d(d)
        idx = np.atleast_1d(idx)
        tied = idx[d <= d.min() * (1.0 + 1e-12)]
        return int(tied.min())

    def attach(self, p) -> tuple[int, float, float]:
        """Attach a query point to an admissible node.

        Returns (node, qh stub weight, Euclidean stub length). The node is
        the nearest one whose connecting segment provably stays inside
        (certified by the delta balls or by an explicit crossing test).
        """
        pt = as_point(p)
        if not self.domain.contains(pt):
            raise DomainError(f"point ({pt.x}, {pt.y}) is not inside the domain")
        arr = np.array([pt.x, pt.y])
        dp = float(self.domain.delta_many(arr[None])[0])
        k = min(64, self.node_count)
        dists, idxs = self._tree.query(arr, k=k)
        dists = np.atleast_1d(dists)
        idxs = np.atleast_1d(idxs)
        for o in np.lexsort((idxs, dists)):
            d = float(dists[o])
            u = int(idxs[o])
            if d < 1e-15:
                return u, 0.0, 0.0
            if not _ball_certified(dp, self.deltas[u], d):
                crosses = self.domain.crossings(arr[None], self.centers[u][None])
                if bool(crosses[0]):
                    continue
            stub = d * 0.5 * (1.0 / dp + 1.0 / self.deltas[u])
            return u, stub, d
        raise ResolutionError(
            f"no admissible node near ({pt.x}, {pt.y}); refine the grid")

    # -- shortest paths ---------------------------------------------------

    def _sweep(self, weights, sources, *, predecessors: bool = False,
               min_only: bool = False, limit: float = np.inf):
        """The one Dijkstra call every distance, geodesic and field goes through."""
        return csgraph.dijkstra(weights, directed=True, indices=sources,
                                return_predecessors=predecessors,
                                min_only=min_only, limit=limit)

    def _check_component(self, u: int, v: int) -> None:
        if self.labels[u] != self.labels[v]:
            raise UnreachableError(
                "endpoints fall in different graph components; refine the grid "
                "or check that the domain is connected")

    def _metric(self, inner: bool):
        """(edge weights, index of the matching stub in attach's result)."""
        return (self.csr_euc, 2) if inner else (self.csr_qh, 1)

    def _hub_field(self, inner: bool) -> tuple[np.ndarray, np.ndarray]:
        """The metric's (hub field, predecessors), swept in full on first use."""
        hub = self._hub_fields.get(inner)
        if hub is None:
            hub = self._hub_fields[inner] = _read_only(*self._sweep(
                self._metric(inner)[0], self._hub, predecessors=True))
        return hub

    def _hub_limit(self, inner: bool, u: int, targets: list[int]) -> float:
        """A bound on the distance from node u to every target node.

        The path through the hub gives max_t (f[u] + f[t]), f the hub field;
        the slack covers float rounding only. The metric's first sweep gets
        no bound and its second builds f (unless a sweep from the hub or a
        basepoint there built it already), so a one-shot query pays no extra
        sweep. Across components f is inf and so is the bound.
        """
        if inner not in self._hub_fields:
            self._hub_fields[inner] = None
            return np.inf
        f = self._hub_field(inner)[0]
        return float(f[u] + f[targets].max()) * (1 + 1e-9)

    def _reach(self, inner: bool, u: int, targets: list[int],
               predecessors: bool = False):
        """A sweep from node u, stopped at the hub bound to the target nodes.

        From the hub it is the hub field, swept once and then read.
        """
        if u == self._hub:
            field, pred = self._hub_field(inner)
            out = (field, pred) if predecessors else field
        else:
            out = self._sweep(self._metric(inner)[0], u, predecessors=predecessors,
                              limit=self._hub_limit(inner, u, targets))
        dist = out[0] if predecessors else out
        if not np.isfinite(dist[targets]).all():
            raise InternalInvariantError("target node beyond the hub-field bound")
        return out

    def _coincide(self, px, py) -> bool:
        """Whether the two query points are equal; equal points must lie inside."""
        if px.x != py.x or px.y != py.y:
            return False
        if not self.domain.contains(px):
            raise DomainError(f"point ({px.x}, {px.y}) is not inside the domain")
        return True

    def _route(self, x, y, inner: bool, predecessors: bool):
        """(distance, node chain from x's node to y's) from one sweep.

        The sweep runs from the lower node id, so k(x, y) == k(y, x)
        bitwise; the chain is reversed when y's node is the lower one. The
        chain is None for coincident points, or when predecessors is False.
        """
        px, py = as_point(x), as_point(y)
        if self._coincide(px, py):
            return 0.0, None
        k = self._metric(inner)[1]
        ax, ay = self.attach(px), self.attach(py)
        u, v = ax[0], ay[0]
        stubs = ax[k] + ay[k]
        if u == v:
            return stubs, [u]
        self._check_component(u, v)
        lo, hi = min(u, v), max(u, v)
        if not predecessors:
            return stubs + float(self._reach(inner, lo, [hi])[hi]), None
        d, pred = self._reach(inner, lo, [hi], predecessors=True)
        chain = self._chain(pred, lo, hi)
        return stubs + float(d[hi]), chain if lo == u else chain[::-1]

    def _distance(self, x, y, inner: bool) -> float:
        return self._route(x, y, inner, predecessors=False)[0]

    def _geodesic(self, x, y, inner: bool) -> PathPolyline:
        px, py = as_point(x), as_point(y)
        if self._coincide(px, py):
            return self._polyline(px, py, None)
        u, _, _ = self.attach(px)
        v, _, _ = self.attach(py)
        if u == v:
            chain = [u]
        else:
            self._check_component(u, v)
            _, pred = self._reach(inner, u, [v], predecessors=True)
            chain = self._chain(pred, u, v)
        return self._polyline(px, py, chain)

    def _polyline(self, px, py, chain) -> PathPolyline:
        """x, the chain's node centers, then y; x alone when chain is None."""
        dx = float(self.domain.delta_many(np.array([[px.x, px.y]]))[0])
        if chain is None:
            return PathPolyline(np.array([[px.x, px.y]]), np.array([dx]))
        dy = float(self.domain.delta_many(np.array([[py.x, py.y]]))[0])
        points = np.vstack([[px.x, px.y], self.centers[chain], [py.x, py.y]])
        deltas = np.concatenate([[dx], self.deltas[chain], [dy]])
        return PathPolyline(points, deltas)

    @staticmethod
    def _chain(pred: np.ndarray, u: int, v: int) -> list[int]:
        out = [v]
        while out[-1] != u:
            p = int(pred[out[-1]])
            if p == _NO_PRED:
                raise UnreachableError("no path between the attached nodes")
            out.append(p)
        return out[::-1]

    def qh_distance(self, x, y) -> float:
        return self._distance(x, y, inner=False)

    def qh_geodesic(self, x, y) -> PathPolyline:
        return self._geodesic(x, y, inner=False)

    def inner_distance(self, x, y) -> float:
        return self._distance(x, y, inner=True)

    def inner_geodesic(self, x, y) -> PathPolyline:
        return self._geodesic(x, y, inner=True)

    def qh_distance_and_geodesic(self, x, y) -> tuple[float, PathPolyline]:
        """qh_distance(x, y) and a geodesic, both from one predecessor sweep.

        The distance is bitwise qh_distance(x, y). The sweep runs from the
        lower node id, so where shortest paths tie the geodesic may differ
        from qh_geodesic(x, y), which sweeps from x's node.
        """
        k, chain = self._route(x, y, inner=False, predecessors=True)
        return k, self._polyline(as_point(x), as_point(y), chain)

    def qh_distances(self, sources, targets) -> np.ndarray:
        """k(x, y) for every source x (rows) and target y (columns).

        One sweep per source instead of one per pair. Each entry follows
        qh_distance: 0 for coincident points, the two stubs for a shared
        node, UnreachableError across components. It sweeps from the source
        rather than the lower node id, so an entry may differ from
        qh_distance by float rounding.
        """
        tgts = [as_point(t) for t in targets]
        t_att = [self.attach(t) for t in tgts]
        out = np.empty((len(sources), len(tgts)))
        for i, s in enumerate(sources):
            ps = as_point(s)
            u, stub_u, _ = self.attach(ps)
            cols = []  # targets on another node than the source's
            for j, (pt, (v, stub_v, _)) in enumerate(zip(tgts, t_att)):
                if ps.x == pt.x and ps.y == pt.y:
                    out[i, j] = 0.0
                    continue
                out[i, j] = stub_u + stub_v
                if u != v:
                    self._check_component(u, v)
                    cols.append(j)
            if cols:
                nodes = [t_att[j][0] for j in cols]
                out[i, cols] += self._reach(False, u, nodes)[nodes]
        return out

    def basepoint(self, x0) -> Basepoint:
        """x0 as a Basepoint: attached, with one predecessor sweep from its node.

        A Basepoint built on this graph comes back as it is, so a diagnostic
        passes any x0 through here; one built on another graph raises
        ConstraintError. At the hub the sweep is the qh hub field.
        """
        if isinstance(x0, Basepoint):
            if x0.graph is not self:
                raise ConstraintError("basepoint was built on another graph")
            return x0
        pt = as_point(x0)
        u, stub, _ = self.attach(pt)
        if u == self._hub:
            field, pred = self._hub_field(False)
        else:
            field, pred = _read_only(*self._sweep(self.csr_qh, u, predecessors=True))
        return Basepoint(pt, u, stub, field, pred, self)

    def dist_field(self, source) -> np.ndarray:
        """Quasihyperbolic distance from a point to every node (stub included)."""
        bp = self.basepoint(source)
        return bp.field + bp.stub

    def node_field(self, node: int) -> np.ndarray:
        return self._sweep(self.csr_qh, int(node))

    def node_field_with_pred(self, node: int, limit: float = np.inf
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Graph distances and predecessors from one node, exact up to limit."""
        return self._sweep(self.csr_qh, int(node), predecessors=True, limit=limit)

    def multi_source_field(self, nodes, limit: float = np.inf) -> np.ndarray:
        """Min quasihyperbolic graph distance from a node set to every node.

        Nodes farther than limit from every source come back as inf; the
        others are exact, since a sweep settles nodes in distance order.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            raise ValueError("need at least one source node")
        return self._sweep(self.csr_qh, nodes, min_only=True, limit=limit)

    def node_distance_matrix(self, nodes) -> np.ndarray:
        """Pairwise graph distances between the given nodes, one sweep per pair.

        Entry (i, j) is the float a full sweep gives from whichever of the
        two nodes comes first in (delta, node id) order, so the matrix is
        symmetric bit for bit and does not depend on the order of nodes.
        The distinct nodes are swept in that order, shallowest first, each
        only to the nodes after it. Through any node k already swept,
        d(i, j) <= D[k, i] + D[k, j], so the sweep from i stops at
        max_j min_k (D[k, i] + D[k, j]) * (1 + 1e-9) with the same floats
        as a full sweep; the slack covers float rounding only. The first
        sweep runs in full, as does one whose bound is inf (some target in
        another component than every swept node), and entries across
        components are inf. A target left unreached under a finite bound
        raises InternalInvariantError.
        """
        uniq, inv = np.unique(np.asarray(nodes, dtype=np.int64), return_inverse=True)
        order = np.argsort(self.deltas[uniq], kind="stable")  # ties: lower id
        src = uniq[order]
        m = len(src)
        d = np.zeros((m, m))
        for r in range(m - 1):
            limit = np.inf if r == 0 else float(
                (d[:r, r, None] + d[:r, r + 1:]).min(axis=0).max()) * (1 + 1e-9)
            row = self._sweep(self.csr_qh, int(src[r]), limit=limit)[src[r + 1:]]
            if math.isfinite(limit) and not np.isfinite(row).all():
                raise InternalInvariantError("target node beyond the triangle bound")
            d[r, r + 1:] = d[r + 1:, r] = row
        pos = np.empty(m, dtype=np.int64)
        pos[order] = np.arange(m)
        return d[np.ix_(pos[inv], pos[inv])]


def _child_tiles(tx: np.ndarray, ty: np.ndarray, parent_delta: np.ndarray,
                 lo: np.ndarray, h: float, reach: float) -> Tiles:
    """Screen for the four children of each split cell, tiled by level-0 cell.

    (tx, ty) is each parent's level-0 ancestor. Parents come grouped by
    ancestor and each parent's children are consecutive, so a run of equal
    ancestors is a run of children inside that level-0 cell. reach is the
    child-parent center distance plus a float slack.
    """
    starts = np.flatnonzero(np.r_[True, (tx[1:] != tx[:-1]) | (ty[1:] != ty[:-1])])
    box_lo = lo + np.column_stack([tx[starts], ty[starts]]) * h
    bound = np.maximum.reduceat(parent_delta, starts) + reach
    return Tiles(box_lo, box_lo + h, bound, 4 * np.diff(np.r_[starts, len(tx)]))


def _ball_certified(delta_u, delta_v, length):
    """Whether the segment [u, v] provably stays inside, with no crossing test.

    The open balls B(u, delta_u) and B(v, delta_v) lie in the domain, and
    together they cover [u, v] when delta_u + delta_v > |u - v| = length.
    """
    return delta_u + delta_v > length


def _edge_weights(domain: Domain, centers: np.ndarray, deltas: np.ndarray,
                  groups: list[tuple], stats: dict):
    """The qh weight CSR of the candidate edge groups.

    Each group is (u, v, rank in row u, rank in row v), with int32 node ids.
    An edge is kept unless its crossing test finds the segment touching the
    boundary; edges the ball certificate covers skip the test. The
    Euclidean lengths are not kept: GridGraph builds them on first use.
    groups is emptied once its arrays are concatenated, so they are freed
    before the edge stage's peak, the CSR conversion.
    """
    ends = np.empty((2, sum(len(g[0]) for g in groups)), dtype=np.int32)
    for i in (0, 1):
        np.concatenate([g[i] for g in groups], out=ends[i])
    starts = np.cumsum([0] + [len(g[0]) for g in groups])
    ranks = [g[2:] for g in groups]
    groups.clear()
    eu, ev = ends
    cx, cy = centers[:, 0], centers[:, 1]
    elen = np.hypot(cx[ev] - cx[eu], cy[ev] - cy[eu])
    need = np.flatnonzero(~_ball_certified(deltas[eu], deltas[ev], elen))
    bad = need[domain.crossings(centers[eu[need]], centers[ev[need]])]
    stats.update(edges=len(eu) - len(bad), crossing_tests=len(need),
                 crossing_skipped=len(eu) - len(need))
    if len(bad):
        # rejected edges leave their groups: the ids after each one shift down
        starts = starts - np.searchsorted(bad, starts)
        ends, elen = np.delete(ends, bad, axis=1), np.delete(elen, bad)
        eu, ev = ends
    # the trapezoid weight (|u-v| * 0.5) * (1/delta(u) + 1/delta(v)), formed
    # in place on the lengths
    inv = 1.0 / deltas[eu]
    inv += 1.0 / deltas[ev]
    wq = elen
    wq *= 0.5
    wq *= inv
    del inv
    layout = _rank_ordered_layout(ends, starts, ranks, len(centers))
    del eu, ev, ends  # now the layout's ids: freed before the gather
    return sparse.csr_matrix((wq[layout.data], layout.indices, layout.indptr),
                             shape=layout.shape)


def _rank_ordered_layout(ends: np.ndarray, starts, ranks, n: int):
    """The n x n CSR of edge ids, each edge in both directions.

    ends is the (2, E) int32 buffer of edge ends. Edge group g holds the
    ids starts[g]:starts[g + 1]; edge i takes rank ranks[g][0] in row
    ends[0, i] and ranks[g][1] in row ends[1, i]. The runs go in in rank
    order, so scipy's counting pass leaves every row sorted.

    The conversion is the build's peak, so the ids get no array of their
    own: once the rows and columns are read out of ends, ends takes the
    ids, one run at a time. An ids array of its own either fit a freed heap
    block or grew the heap, varying from run to run: 16 example8 builds
    peaked anywhere from 248 to 274 MB. Rows and columns fill one buffer
    for a like reason: as two arrays they freed two blocks whose adjacency
    varied, and with it whether the caller's gather grew the heap. Both are
    freed on return, before that gather.
    """
    eu, ev = ends
    runs = sorted(((rank, pair_ends, slice(starts[g], starts[g + 1]))
                   for g, pair in enumerate(ranks)
                   for pair_ends, rank in zip(((eu, ev), (ev, eu)), pair)),
                  key=lambda r: r[0])
    rows, cols = np.empty((2, ends.size), dtype=np.int32)
    np.concatenate([e[0][span] for _, e, span in runs], out=rows)
    np.concatenate([e[1][span] for _, e, span in runs], out=cols)
    ids = ends.reshape(-1)
    at = 0
    for _, _, span in runs:
        ids[at:at + span.stop - span.start] = np.arange(span.start, span.stop, dtype=np.int32)
        at += span.stop - span.start
    return sparse.csr_matrix((ids, (rows, cols)), shape=(n, n))


def _edge_lengths(csr: sparse.csr_matrix, centers: np.ndarray) -> sparse.csr_matrix:
    """The Euclidean length of every entry's edge, on csr's index arrays.

    Entry (u, v) is hypot(x_v - x_u, y_v - y_u), filled in blocks of rows.
    The gather's temporaries then stay a block's size, and the matrix adds
    little beyond its own float64 data: on the disk at h=1/256 one
    unblocked gather peaked 59 MB higher.
    """
    indptr, indices = csr.indptr, csr.indices
    cx, cy = centers[:, 0], centers[:, 1]
    out = np.empty(len(indices))
    for r0 in range(0, len(indptr) - 1, _LENGTH_BLOCK):
        ptr = indptr[r0:r0 + _LENGTH_BLOCK + 1]
        rows = np.repeat(np.arange(r0, r0 + len(ptr) - 1), np.diff(ptr))
        cols = indices[ptr[0]:ptr[-1]]
        np.hypot(cx[cols] - cx[rows], cy[cols] - cy[rows], out=out[ptr[0]:ptr[-1]])
    return sparse.csr_matrix((out, indices, indptr), shape=csr.shape)


def _refine(domain: Domain, lo: np.ndarray, h: float, n0: tuple[int, int],
            strides: list[int], stats: dict):
    """Per level, the sorted keys, centers and deltas of the node cells.

    A cell splits when its center is within 8 cell-widths of a curve,
    unless it lies wholly outside. A cell with delta > 0.75 s (its
    half-diagonal is s/sqrt 2) is clear: wholly inside or wholly outside.
    The per-level cell arrays die on return, before the edge stage.
    """
    levels_max = len(strides) - 1
    gx, gy = np.meshgrid(np.arange(n0[0]), np.arange(n0[1]), indexing="ij")
    cur_ix, cur_iy = gx.ravel(), gy.ravel()
    known = np.zeros(len(cur_ix), dtype=bool)  # inside, inherited from a clear parent
    lev_keys: list[np.ndarray] = []
    lev_cent: list[np.ndarray] = []
    lev_delta: list[np.ndarray] = []
    tiles = None  # level 0 is evaluated in full
    slack = 1e-9 * domain.scale
    for lev in range(levels_max + 1):
        s = h / (1 << lev)
        cent = lo + (np.column_stack([cur_ix, cur_iy]) + 0.5) * s
        dist = domain.delta_many(cent, tiles)
        # membership is read only where delta > s/2: a nearer cell is never
        # a node, and it splits whether it is inside or not
        inside = dist > 0.5 * s
        probe = inside & ~known
        inside[probe] = domain.contains_many(cent[probe])
        clear = dist > 0.75 * s
        near = (dist < 8.0 * s) & (lev < levels_max)
        split = near & (inside | ~clear)
        stats["cells_evaluated"].append(len(cur_ix))
        stats["cells_pruned"].append(int(np.count_nonzero(near & ~split)))
        node = inside & ~split
        key = (cur_ix[node] + 1) * strides[lev] + cur_iy[node] + 1
        order = np.argsort(key)  # keys are unique: the (ix, iy) order
        lev_keys.append(key[order])
        lev_cent.append(cent[node][order])
        lev_delta.append(dist[node][order])
        six, siy = cur_ix[split], cur_iy[split]
        cur_ix = ((2 * six)[:, None] + np.array([0, 1, 0, 1])).ravel()
        cur_iy = ((2 * siy)[:, None] + np.array([0, 0, 1, 1])).ravel()
        known = np.repeat(clear[split], 4)
        # once nothing splits, the levels below are empty and need no screen
        tiles = (_child_tiles(six >> lev, siy >> lev, dist[split], lo, h,
                              0.25 * math.sqrt(2.0) * s + slack) if len(six) else None)
    return lev_keys, lev_cent, lev_delta


def _candidate_edges(lev_keys: list[np.ndarray], strides: list[int], diag: bool):
    """The candidate edge groups, one per neighbour offset and level.

    Each group is (u, v, the rank of v in row u, the rank of u in row v),
    with int32 node ids; a level's ids follow those of the levels above it.
    """
    offsets = np.cumsum([0] + [len(k) for k in lev_keys]).tolist()
    # the int64-max sentinel keeps every search position inside the list
    keys = [np.append(k, np.iinfo(np.int64).max) for k in lev_keys]

    def column(level: int, src: np.ndarray, q0: np.ndarray, n: int):
        """Edges src -> the level's node with key q0 + j, for each j < n.

        One search finds q0's position. Keys are sorted and unique, so
        q0 + j + 1 sits at q0 + j's position, plus one when q0 + j is there.
        """
        k = keys[level]
        pos = np.searchsorted(k, q0)
        out = []
        for j in range(n):
            hit = k[pos] == q0 + j
            out.append((src[hit], (offsets[level] + pos[hit]).astype(np.int32)))
            pos += hit
        return out

    groups: list[tuple] = []
    for lev, k in enumerate(lev_keys):
        if len(k) == 0:
            continue
        src = np.arange(offsets[lev], offsets[lev + 1], dtype=np.int32)
        stride = strides[lev]
        # same level: (1, dy) is one column; (0, 1) is the next key or absent
        found = dict(zip([(1, -1), (1, 0), (1, 1)], column(lev, src, k + (stride - 1), 3)))
        up = keys[lev][1:] == k + 1
        found[(0, 1)] = (src[up], src[up] + 1)
        same = [(1, 0), (0, 1)] + ([(1, 1), (1, -1)] if diag else [])
        groups += [(*found[d], (1, *d), (1, -d[0], -d[1])) for d in same]
        if lev + 1 < len(lev_keys) and len(lev_keys[lev + 1]) > 0:
            fine = strides[lev + 1]
            qx, qy = np.divmod(k, stride)
            base = (2 * qx - 1) * fine + 2 * qy - 1  # key of fine cell (2ix, 2iy)
            # fine column 2ix + ax, rows 2iy - 1 .. 2iy + 2
            found = {(ax, ay): e for ax in (-1, 0, 1, 2)
                     for ay, e in zip((-1, 0, 1, 2),
                                      column(lev + 1, src, base + (ax * fine - 1), 4))}
            side = [(2, 0), (2, 1), (-1, 0), (-1, 1),   # left/right fine neighbors
                    (0, 2), (1, 2), (0, -1), (1, -1)]   # top/bottom fine neighbors
            corner = [(2, 2), (2, -1), (-1, 2), (-1, -1)] if diag else []
            groups += [(*found[a], (2, *a), (0, -a[0], -a[1])) for a in side + corner]
    return groups


def build_grid(domain: Domain, gp: GridParams) -> GridGraph:
    lo = np.asarray(domain.bbox_lo, dtype=float)
    hi = np.asarray(domain.bbox_hi, dtype=float)
    h = float(gp.h)
    levels_max = int(gp.boundary_layer)
    n0x = max(1, int(math.ceil((hi[0] - lo[0]) / h - 1e-12)))
    n0y = max(1, int(math.ceil((hi[1] - lo[1]) / h - 1e-12)))
    # padded keys (ix+1)*(ny+2) + (iy+1): a cell one step off the lattice
    # has a key no node has, so neighbour queries need no bounds mask
    strides = [(n0y << lev) + 2 for lev in range(levels_max + 1)]

    stats: dict = {"cells_evaluated": [], "cells_pruned": []}
    lev_keys, lev_cent, lev_delta = _refine(domain, lo, h, (n0x, n0y), strides, stats)
    counts = [len(k) for k in lev_keys]
    if sum(counts) == 0:
        raise ResolutionError("grid admits no nodes; decrease h or refine less")
    centers = np.vstack([c for c in lev_cent if len(c)])
    deltas = np.concatenate(lev_delta)
    levels = np.concatenate([np.full(counts[i], i, dtype=np.int8)
                             for i in range(len(counts))])
    stats["nodes"] = counts
    groups = _candidate_edges(lev_keys, strides, gp.diag)
    # centers and deltas are copies: the per-level lists stay out of the
    # edge stage, where the build peaks
    del lev_keys, lev_cent, lev_delta
    csr_qh = _edge_weights(domain, centers, deltas, groups, stats)

    # the matrix is symmetric, so its strong components are its components,
    # found without the transpose an undirected call builds
    _, labels = csgraph.connected_components(csr_qh, directed=True, connection="strong")

    warnings: list[str] = []
    finest = h / (1 << levels_max)
    if isinstance(domain.spec, FootFingersSpec):
        for f in foot_fingers_layout(domain.spec):
            if f.w < 4.0 * finest:
                warnings.append(
                    f"corridor of finger {f.m} (width {f.w:.3e}) is narrower than 4 "
                    f"finest cells ({finest:.3e}); distances through it may be coarse")

    graph = GridGraph(domain, gp, centers, deltas, levels, csr_qh, labels,
                      warnings, stats)

    # anchors falling in distinct components signal an under-resolved build
    anchor_comps = set()
    for name, anc in sorted(domain.anchors.items()):
        arr = np.array([[anc.point.x, anc.point.y]])
        if domain.contains_many(arr)[0]:
            try:
                u, _, _ = graph.attach(anc.point)
            except (ResolutionError, DomainError):
                continue
            anchor_comps.add(int(labels[u]))
    if len(anchor_comps) > 1:
        warnings.append(
            f"declared anchors span {len(anchor_comps)} graph components; "
            f"the grid may be too coarse for the narrow features")
    return graph


def nearest_node(g: GridGraph, p) -> int:
    return g.nearest_node(p)


def qh_distance(g: GridGraph, x, y) -> float:
    return g.qh_distance(x, y)


def qh_geodesic(g: GridGraph, x, y) -> PathPolyline:
    return g.qh_geodesic(x, y)


def inner_distance(g: GridGraph, x, y) -> float:
    return g.inner_distance(x, y)


def dist_field(g: GridGraph, source) -> np.ndarray:
    return g.dist_field(source)
