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
Neighboring leaves (same level 8-neighborhood, or one level apart) are
joined when the connecting segment stays inside; each edge carries the
trapezoid weight |u-v| * (1/delta(u) + 1/delta(v)) / 2, and in the inner
metric its Euclidean length. The segment needs no crossing test when
delta(u) + delta(v) > |u-v|: the open balls B(u, delta(u)) and
B(v, delta(v)) lie in the domain and together cover it.

A query point's candidates are its admissible nodes in (distance, node id)
order: the ball rule certifies the segment to the node, or else a crossing
test clears it. Nodes are stored in (level, ix, iy) order, so their packed
keys are sorted, and per level the nodes near a point are one run of keys
per column. attach returns the first candidate, which field reads use.

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

The build makes the qh weight matrix only. Its structure alone goes
through one COO->CSR conversion, with 1-byte placeholder data, and one
pass over blocks of rows then writes each entry's weight in place. Entry
(r, c) is computed from r and c, and that is the float of its edge in both
directions: negating a difference is exact, hypot ignores sign and IEEE
sums commute. Each neighbour offset's edges take one rank within their
rows, in column order: coarse-level neighbours first, in (-ax, -ay) order
of the coarse cell's fine offset, then same-level ones in (dx, dy) order,
then fine-level ones in (ax, ay) order. Both directions of every offset go
in sorted by rank, so the conversion's one counting pass leaves each row
sorted by column; no (row, column) pair occurs twice, so scipy neither
sorts nor sums duplicates. The conversion and the weight pass peak about
equally, near the finished matrix plus the row and column buffer, and
each build stage is a function whose arrays die on return, so no
intermediate outlives its last use.

Only the Gehring-Hayman and ball-separation checks read the inner metric,
through inner point queries, and those sweep ellipses whose weights come
from the node centers (see below). So the Euclidean weight matrix csr_euc
is built only by a direct read or by a point query that falls back to the
whole matrix. It is built from csr_qh's index arrays, which it shares, and
the node centers: entry (u, v) is the length hypot(x_v - x_u, y_v - y_u)
that the build's ball certificate read, filled by the same walk over
blocks of rows.

Every shortest-path sweep goes through GridGraph._sweep. Each edge has
the same weight in both directions, so both matrices are symmetric bit for
bit and the sweep runs directed: it sees the same graph and skips the
transpose scipy builds for an undirected call. For the same reason the
components are the matrix's strong components, which scipy finds without
that transpose and labels as the undirected call does.
A sweep may stop at a distance limit; the nodes it reaches are exact,
because Dijkstra settles nodes in order of distance and every prefix of a
shortest path is itself within the limit.

The point queries (the distances, the geodesics and qh_distances) take
the minimum of stub + graph distance + stub over the first _CANDIDATES
candidates u_i and v_j of the two ends. A query sweeps from a spare row n,
which no edge enters, joined to the u_i at their stubs s_i, and reads the
v_j off the field. Each weight matrix keeps that row in the last slots of
the buffers that csr_qh and csr_euc end before, written by each sweep of
the whole matrix (GridGraph._whole_sweep). The swept end is the pair's
first end: its first candidate comes first in (delta, node id) order, and
the lower point breaks a tie (GridGraph._end_key). A node near the
boundary has a small qh ball, so the shallower end's sweep stops sooner,
and k(x, y) is k(y, x) bit for bit. The bounds come from a hub field f:
one full sweep, per metric, from the hub, the deepest node (lowest id on a
tie). min_i (s_i + f[u_i]) + max_j f[v_j] bounds every d(n, v_j), so a
sweep cut there times (1 + 1e-9) gives the full sweep's floats. f is built
at a metric's second point-to-point sweep (in the inner metric, its second
fallback; see below), so a one-shot query builds no field; across
components f and the limit are inf.

A point query tries one sweep and falls back at most once. Each target
y_j gets a limit L_j: its guess, capped in the qh metric by its own hub
bound, min_i (s_i + f[u_i]) + the min over y_j's candidates v of
(f[v] + t_v), times (1 + 1e-9). When the segment from the swept end x to
y_j stays inside (domain.crossings), the guess is _GUESS * the segment's
length: its qh length (paths.qh_length, to 1e-3) or, in the inner metric,
|x - y_j|; otherwise it is inf. In a convex domain the segment's qh length
is at least the continuous k (Gehring-Osgood), and the 8-neighbour stencil
stretches a straight path by at most 1/cos(pi/8) ~ 1.082, so _GUESS = 1.1
leaves a margin; near the rim the chord can be longer than the path
through the centre, hence the cap. When every L_j is finite, the try is
one sweep cut at the largest L_j, on the ellipse's subgraph below or, when
_ellipse declines, on the whole matrix. It is kept when every target point
has a candidate within its limit, min (D[v] + t_v) <= L_j: an unreached v
has D above the cut, so the distance, the chosen candidate and the chain
are the full sweep's bit for bit. Otherwise, when the try missed or some
L_j is inf, the whole matrix is swept at the hub bound above, in full
without f, and a target that shares a component with some u_i and lies
beyond it raises InternalInvariantError.

The try's subgraph holds the nodes inside its limits' Gehring-Osgood
ellipses. k(a, b) >= j(a, b) = log(1 + |a - b| / min(delta_a, delta_b)),
and the bound |log delta_a/delta_b| is never larger, since delta is
1-Lipschitz. Edge by edge: with delta_b <= delta_a + l, the trapezoid
weight l (1/delta_a + 1/delta_b) / 2 is at least log(1 + l/delta_a), and so
is a stub. j is a metric, so every node v of a path of weight at most L
from x to y has j(x, v) + j(v, y) <= L; in the inner metric,
|x - v| + |v - y| <= L. The kept nodes are those inside some y_j's ellipse
at L_j, with 1e-9 slack, tested per box of _SPAN consecutive node ids and
then node by node. Their rows are copied with the entries between kept
nodes, and the sweep runs from the subgraph's own spare row. The full
sweep's chain to a candidate within L_j lies inside the ellipse, as does
each chain node's argmin predecessor, so the subgraph's distances along it
are the full sweep's floats, and no other candidate's distance is below
its full one: under the keep rule the distance, the chosen candidate and
the chain are the full sweep's bit for bit. _ellipse declines a qh query
whose boxes hold over _PRUNE_MAX of the nodes, since the copy would cost
more than the smaller sweep saves. In the inner metric the copied weights
are hypot of the node centers, the floats csr_euc holds, so inner point
queries build neither csr_euc nor the inner hub field, a sweep of csr_euc:
only the fallback marks or builds it, and an inner try takes the guess
alone. A one-shot query sweeps once, unless its try misses.

The diagnostics that measure k(x0, .) from a fixed basepoint (John, QHBC,
growth, the scale-ladder probes) take x0 as a point or as a Basepoint: x0,
its node and stub, and the read-only field and predecessors of one sweep
from that node. GridGraph.basepoint, the one single-source sweep with
predecessors, builds one from a point or a node id, cut at an optional
limit; a caller that runs several diagnostics from one x0 builds it once
and holds it, so it is not state of the graph. A full sweep from the hub is
the qh hub field, so the hub cache holds each field with its predecessors;
a limited one never touches that cache. dist_field is a basepoint's field
plus its stub; multi_source_field, the node-set sweep, never uses the hub
field.

Every sweep from a node goes through basepoint, cut at a bound on its
distance to each target: the ladder's, from each endpoint to the other,
and the pair sweeps of node_distance_matrix and the thin-triangle sides.
GridGraph._node_sweep holds their one check: a finite bound that leaves a
target unreached raises InternalInvariantError. The ladder cuts at the
endpoints' path in x0's tree (Basepoint.tree_bound). A pair sweep starts at
the pair's first end, as the point queries and gromov_product do, and
stops at the triangle bound through the qh hub: a sweep from s stops at
(f[s] + max_t f[t]) * (1 + 1e-9) over its targets t. node_distance_matrix
sweeps each pair once, to the nodes after s in (delta, node id) order
(see its docstring), and builds the hub field if no query has; the
thin-triangle estimate builds it before its runs are dealt out.

Sweeps that do not depend on each other go through _fork_map:
node_distance_matrix's rows, the thin-triangle side runs, and the
thin-triangle gap sweeps, one share of the samples per worker, each share
cut at its own running maximum. _fork_map deals them over _WORKERS
processes, one per CPU in this process's affinity mask: this
process runs one share and an os.fork child each other one. scipy's
Dijkstra holds the GIL, so threads would run them one at a time. With one
CPU, one item, or a second thread alive, _fork_map is a plain loop. Either
way every float is the one a serial run gives.
"""
from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .curves import Tiles
from .domains import Domain, FootFingersSpec, foot_fingers_layout
from .errors import (ConstraintError, DomainError, InternalInvariantError,
                     ResolutionError, UnreachableError)
from .geometry import Point2, as_point
from .paths import PathPolyline, qh_length

_NO_PRED = -9999  # scipy's "no predecessor" sentinel
_BLOCK = 1 << 14  # rows per block of a pass over the weight entries
_CANDIDATES = 4  # candidates per end that a point query pairs up
_ATTACH_REACH = 64  # nodes a point's search covers before it may give up
_KEY_BITS = 29  # bits per lattice coordinate in a node key
# a point query's first sweep stops at this multiple of the straight
# segment's length: the 8-neighbour stencil stretches a straight line by at
# most 1/cos(pi/8) ~ 1.082, and the rest is margin for the stubs and the
# trapezoid weights
_GUESS = 1.1
_SPAN = 32  # consecutive node ids per box of the ellipse test's summary
# a qh point query whose ellipse boxes hold more than this share of the
# nodes sweeps the whole matrix: copying the rows would cost more than it saves
_PRUNE_MAX = 0.6
_COPY_ROWS = 4096  # rows per chunk of an induced subgraph's copy
# processes _fork_map spreads independent sweeps over: the CPUs this
# process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _fork_map(fn, items) -> list:
    """[fn(i) for i in items], its shares run in parallel processes.

    The items are dealt round-robin over _WORKERS shares. This process runs
    the first share; each other share runs in one os.fork child, which
    pickles its results, or the exception it raised, back over a pipe and
    leaves by os._exit. A child's exception is raised here with its own
    type. Every child is reaped before this returns or raises, and killed
    first when this is unwinding from an error. A child's writes, to a
    graph's caches or anything else, never reach this process. With one
    worker, one item, or a second thread alive (a fork copies only the
    calling thread, whatever locks the others hold), it is the plain list
    comprehension.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers < 2 or threading.active_count() > 1:
        return [fn(i) for i in items]
    children = []  # (pid, the read end of its pipe)
    try:
        for w in range(1, workers):
            rd, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    result = (True, [fn(i) for i in items[w::workers]])
                except BaseException as e:  # sent to the parent, which raises it
                    result = (False, e)
                try:
                    with os.fdopen(wr, "wb") as pipe:
                        pipe.write(pickle.dumps(result))
                finally:
                    os._exit(0)
            os.close(wr)
            children.append((pid, os.fdopen(rd, "rb")))
        shares = [[fn(i) for i in items[::workers]]]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"worker {pid} exited without a result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            shares.append(result)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    out = [None] * len(items)
    for w, share in enumerate(shares):
        out[w::workers] = share
    return out


@dataclass(frozen=True)
class GridParams:
    h: float
    boundary_layer: int = 0

    def __post_init__(self):
        if not (_real(self.h) and math.isfinite(self.h) and self.h > 0):
            raise ResolutionError("h must be a positive real")
        layers = self.boundary_layer
        if not (_real(layers) and layers % 1 == 0 and layers >= 0):
            raise ResolutionError("boundary_layer must be a nonnegative integer")


@dataclass(frozen=True, eq=False)
class Basepoint:
    """A basepoint x0 with the qh field of one predecessor sweep from its node.

    field is the graph distance from node (without the stub), inf beyond the
    sweep's limit, and pred the sweep's predecessors; both are read-only.
    Build one with GridGraph.basepoint and pass it wherever a diagnostic
    takes x0. The field-based diagnostics read field; the scale-ladder
    probes also read pred, through tree_bound and path.
    """
    point: Point2
    node: int
    stub: float
    field: np.ndarray
    pred: np.ndarray
    graph: GridGraph

    def tree_bound(self, u: int, v: int) -> float:
        """The length of the u-v path in this sweep's tree, with 1e-9 slack.

        That path is a graph path, so it bounds the graph distance d(u, v),
        and a sweep from u cut there reaches v. With f the field and w where
        the two meet, walking up from the end of larger f, it is
        f[u] + f[v] - 2 f[w] + 1e-9 (f[u] + f[v]): never above the path
        through the node, f[u] + f[v]. Any common ancestor would give a
        valid bound. inf when u or v lies outside the node's component.
        """
        f, fu, fv = self.field, float(self.field[u]), float(self.field[v])
        if not (math.isfinite(fu) and math.isfinite(fv)):
            return math.inf
        a, b = int(u), int(v)
        while a != b:
            if f[a] >= f[b]:
                a = int(self.pred[a])
            else:
                b = int(self.pred[b])
        return fu + fv - 2 * float(f[a]) + 1e-9 * (fu + fv)

    def path(self, v: int) -> list[int]:
        """The node ids from node to v along this sweep's tree."""
        return GridGraph._chain(self.pred, self.node, int(v))


class GridGraph:
    """Immutable weighted grid graph over a compiled domain.

    The graph never changes after the build. Its mutable state is the
    spare row of each weight matrix, rewritten by every point query that
    sweeps the whole matrix, the sweep counts, and three lazy caches: at
    most two hub fields, one per metric, each with its predecessors, that
    bound the point-to-point sweeps; the box summary of the ellipse test;
    and the Euclidean weight matrix csr_euc, built by its first direct read
    or by the first inner point query that sweeps the whole matrix (see the
    module docstring).

    sweep_counts counts this graph's sweeps by kind: full, limited (a
    sweep of the whole matrix cut at a limit), pruned (a point query's
    sweep of its ellipse's subgraph, cut at its largest limit) and
    min_only, and the point queries' guessed limits that missed. It never
    enters a report, and a _fork_map worker's sweeps are counted in the
    worker's copy of the graph, so they do not reach it.

    weights is the qh weight matrix with its spare row; csr_qh is its n x n
    block, on views of its arrays.

    stats holds the build's deterministic counts: cells_evaluated and
    cells_pruned (exterior cells left unsplit) per level, nodes per level,
    edges, and the candidate edges that ran a crossing test (crossing_tests)
    or were certified inside by their endpoints' delta balls, delta(u) +
    delta(v) > |u-v|, without one (crossing_skipped).
    """

    def __init__(self, domain: Domain, params: GridParams, centers: np.ndarray,
                 deltas: np.ndarray, levels: np.ndarray, weights,
                 labels: np.ndarray, warnings: list[str], stats: dict):
        self.domain = domain
        self.params = params
        self.centers = centers
        self.deltas = deltas
        self.levels = levels
        n, nnz = len(centers), int(weights.indptr[-2])
        self.csr_qh = sparse.csr_matrix(
            (weights.data[:nnz], weights.indices[:nnz], weights.indptr[:-1]), shape=(n, n))
        self._csr_euc = None  # built by the first read of csr_euc
        # inner -> the metric's weights with the spare row
        self._spare = {False: weights}
        self.labels = labels
        self.warnings = warnings
        self.stats = stats
        # (level, ix, iy) packed into one key; a center is lo + (i + 0.5) * s.
        # One axis at a time, in place, so no (n, 2) temporary is made.
        h, lev = float(params.h), levels.astype(np.int64)
        self._lo = lo = np.asarray(domain.bbox_lo, float)
        cell = h / (1 << lev)
        self._keys = keys = lev << 2 * _KEY_BITS
        del lev
        for axis, shift in ((0, _KEY_BITS), (1, 0)):
            i = centers[:, axis] - lo[axis]
            i /= cell
            i -= 0.5
            np.rint(i, out=i)
            i = i.astype(np.int64)
            i <<= shift
            keys |= i
        self._cells = [h / (1 << k) for k in range(int(params.boundary_layer) + 1)]
        self._hub = int(np.argmax(deltas))
        # inner -> read-only (hub field, predecessors); None from the metric's
        # first point-to-point sweep until the field is built
        self._hub_fields: dict[bool, tuple[np.ndarray, np.ndarray] | None] = {}
        self._boxes = None  # the ellipse test's box summary, built on first use
        self.sweep_counts = dict.fromkeys(
            ("full", "limited", "pruned", "min_only", "missed"), 0)

    @property
    def csr_euc(self):
        """The Euclidean edge lengths, on csr_qh's structure, built on first use."""
        if self._csr_euc is None:
            spare = self._spare[False]
            data = np.zeros(len(spare.data))
            self._csr_euc = _edge_lengths(self.csr_qh, self.centers, data)
            self._spare[True] = sparse.csr_matrix(
                (data, spare.indices, spare.indptr), shape=spare.shape)
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

    def _ball(self, p: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """The nodes within distance r of p, in id order, and their squared distances."""
        starts, stops = [], []
        top = (1 << _KEY_BITS) - 1
        for lev, s in enumerate(self._cells):
            (x0, y0), (x1, y1) = (np.floor((p - r - self._lo) / s - 0.5).clip(0, top),
                                  np.ceil((p + r - self._lo) / s - 0.5).clip(0, top))
            cols = (lev << 2 * _KEY_BITS) | (np.arange(x0, x1 + 1, dtype=np.int64) << _KEY_BITS)
            starts.append(np.searchsorted(self._keys, cols | int(y0)))
            stops.append(np.searchsorted(self._keys, cols | int(y1), side="right"))
        start, stop = np.concatenate(starts), np.concatenate(stops)
        count = stop - start
        ids = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
        off = self.centers[ids] - p
        d2 = off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1]
        keep = d2 <= r * r
        return ids[keep], d2[keep]

    def _candidates(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p's first _CANDIDATES admissible nodes, with their qh and Euclidean stubs.

        The ball searched holds _CANDIDATES certified nodes or _ATTACH_REACH
        nodes, so it holds every node nearer than the last candidate.
        """
        pt = as_point(p)
        if not self.domain.contains(pt):
            raise DomainError(f"point ({pt.x}, {pt.y}) is not inside the domain")
        arr = np.array([pt.x, pt.y])
        dp = float(self.domain.delta_many(arr[None])[0])
        # about 1.5 local cells: a leaf cell of size s has delta near 8s to 16s
        r = 1.5 * min(self._cells[0], max(self._cells[-1], dp / 8.0))
        while True:
            ids, d2 = self._ball(arr, r)
            d = np.sqrt(d2)
            sure = _ball_certified(dp, self.deltas[ids], d)
            if (np.count_nonzero(sure) >= _CANDIDATES
                    or len(ids) >= min(_ATTACH_REACH, self.node_count)):
                break
            r *= 2.0
        test = np.flatnonzero(~sure)
        if len(test):
            sure[test] = ~self.domain.crossings(np.repeat(arr[None], len(test), axis=0),
                                                self.centers[ids[test]])
        order = np.lexsort((ids, d))
        order = order[sure[order]][:_CANDIDATES]
        ids, d = ids[order], d[order]
        if len(ids) == 0:
            raise ResolutionError(
                f"no admissible node near ({pt.x}, {pt.y}); refine the grid")
        d[d < 1e-15] = 0.0  # p on a node: no stub
        return ids, d * 0.5 * (1.0 / dp + 1.0 / self.deltas[ids]), d

    def attach(self, p) -> tuple[int, float, float]:
        """(node, qh stub, Euclidean stub) of p's first candidate."""
        nodes, stubs, lengths = self._candidates(p)
        return int(nodes[0]), float(stubs[0]), float(lengths[0])

    # -- shortest paths ---------------------------------------------------

    def _sweep(self, weights, sources, *, predecessors: bool = False,
               min_only: bool = False, limit: float = np.inf, pruned: bool = False):
        """The one Dijkstra call every distance, geodesic and field goes through.

        pruned marks a sweep of an induced subgraph (_pruned), counted apart.
        """
        kind = ("pruned" if pruned else "min_only" if min_only
                else "limited" if limit < np.inf else "full")
        self.sweep_counts[kind] += 1
        return csgraph.dijkstra(weights, directed=True, indices=sources,
                                return_predecessors=predecessors,
                                min_only=min_only, limit=limit)

    def _check_component(self, us, vs) -> None:
        """UnreachableError unless some node of us shares a component with one of vs."""
        if not np.isin(self.labels[us], self.labels[vs]).any():
            raise UnreachableError(
                "endpoints fall in different graph components; refine the grid "
                "or check that the domain is connected")

    def _metric(self, inner: bool):
        """The metric's n x n edge weights: csr_euc or csr_qh."""
        return self.csr_euc if inner else self.csr_qh

    def _hub_field(self, inner: bool) -> tuple[np.ndarray, np.ndarray]:
        """The metric's (hub field, predecessors), swept in full on first use."""
        hub = self._hub_fields.get(inner)
        if hub is None:
            hub = self._hub_fields[inner] = _read_only(*self._sweep(
                self._metric(inner), self._hub, predecessors=True, limit=np.inf))
        return hub

    def _hub_once(self, inner: bool) -> np.ndarray | None:
        """The metric's hub field; None at the first call, which marks the metric."""
        if inner not in self._hub_fields:
            self._hub_fields[inner] = None
            return None
        return self._hub_field(inner)[0]

    def _guess(self, inner: bool, pts: np.ndarray, deltas) -> np.ndarray:
        """_GUESS times each segment from pts[0] to a later point; inf where one crosses.

        A segment's length is its qh length (paths.qh_length at rel_tol
        1e-3, off by at most about 3.4e-4 against the 10% margin; a tighter
        tolerance refines a near-rim chord into up to 65,536 midpoints), on
        the points' deltas, or its Euclidean one in the inner metric.
        """
        cross = self.domain.crossings(np.repeat(pts[:1], len(pts) - 1, axis=0), pts[1:])
        if inner:
            lengths = np.hypot(*(pts[1:] - pts[0]).T)
        else:
            lengths = np.array([np.inf if c else qh_length(
                self.domain, PathPolyline(pts[[0, j]], deltas[[0, j]]), rel_tol=1e-3)
                for j, c in enumerate(cross, 1)])
        return np.where(cross, np.inf, _GUESS * lengths)

    def _boxes_of(self):
        """Per run of _SPAN consecutive node ids: its centers' box and largest delta."""
        if self._boxes is None:
            starts = np.arange(0, self.node_count, _SPAN)
            self._boxes = (np.minimum.reduceat(self.centers, starts),
                           np.maximum.reduceat(self.centers, starts),
                           np.maximum.reduceat(self.deltas, starts))
        return self._boxes

    def _ellipse(self, inner: bool, pts: np.ndarray, deltas, limits) -> np.ndarray | None:
        """The nodes v with G(x, v) + G(v, y_j) <= L_j for some j, in id order.

        x is pts[0], y_j is pts[j] and L_j is limits[j - 1], with 1e-9
        relative and absolute slack. G is |a - b| in the inner metric and
        j(a, b) = log(1 + |a - b| / min(delta_a, delta_b)) in the qh metric,
        whose sum is tested as the product of the two 1 + |a - b| / min
        terms against exp(L_j). The boxes (_boxes_of) go first, with
        the distance to the box and its largest delta; the nodes of the
        boxes that pass are tested one by one. Every L_j is finite. None when
        a qh query's boxes hold more than _PRUNE_MAX of the nodes.
        """
        tol = limits * (1 + 1e-9) + 1e-9
        if not inner:
            tol = np.exp(tol)

        def near(dist_from, cap):
            """Whether each row passes for some y_j; dist_from(p) is its distance from p."""
            if inner:
                ex = dist_from(pts[0])
                return np.logical_or.reduce([ex + dist_from(p) <= t
                                             for p, t in zip(pts[1:], tol)])
            fx = 1.0 + dist_from(pts[0]) / np.minimum(cap, deltas[0])
            return np.logical_or.reduce([fx * (1.0 + dist_from(p) / np.minimum(cap, d)) <= t
                                         for p, d, t in zip(pts[1:], deltas[1:], tol)])

        lo, hi, top = self._boxes_of()
        boxes = np.flatnonzero(near(
            lambda p: np.hypot(*np.maximum(np.maximum(lo - p, p - hi), 0.0).T), top))
        ids = (boxes[:, None] * _SPAN + np.arange(_SPAN)).ravel()
        ids = ids[ids < self.node_count]
        if not inner and len(ids) > _PRUNE_MAX * self.node_count:
            return None
        c = self.centers[ids]
        return ids[near(lambda p: np.hypot(c[:, 0] - p[0], c[:, 1] - p[1]),
                        self.deltas[ids])]

    def _pruned(self, inner: bool, ids: np.ndarray, nodes, stubs, predecessors: bool,
                limit: float):
        """A sweep at limit of the subgraph induced by ids, from its spare row.

        ids are sorted, so the subgraph's node i is ids[i] and every row
        stays sorted by column. Each kept row is copied once, _COPY_ROWS
        rows at a time, into buffers sized from csr_qh's indptr: the entries
        whose column is kept, with csr_qh's weight or, in the inner metric,
        hypot(x_c - x_r, y_c - y_r), the float csr_euc holds. The spare row,
        last, joins the kept nodes among nodes at their stubs, in their
        order. The fields come back on the graph's ids, n + 1 long, inf and
        _NO_PRED off the subgraph.
        """
        n, m, q = self.node_count, len(ids), self.csr_qh
        cx, cy = self.centers[:, 0], self.centers[:, 1]
        pos = np.full(n, -1, dtype=np.int32)
        pos[ids] = np.arange(m, dtype=np.int32)
        first = q.indptr[ids]
        count = q.indptr[ids + 1] - first
        cols = np.empty(int(count.sum()) + len(nodes), dtype=np.int32)
        data = np.empty(len(cols))
        indptr = np.zeros(m + 2, dtype=np.int32)
        at = 0
        for r0 in range(0, m, _COPY_ROWS):
            rows = slice(r0, r0 + _COPY_ROWS)
            cnt = count[rows]
            ends = np.cumsum(cnt)
            src = np.repeat(first[rows] - (ends - cnt), cnt) + np.arange(ends[-1])
            col = q.indices[src]
            sub = pos[col]
            keep = sub >= 0
            # the entries kept before each row's end; the dropped ones are few
            done = at + ends - np.searchsorted(np.flatnonzero(~keep), ends)
            indptr[r0 + 1:r0 + 1 + len(cnt)] = done
            span = slice(at, int(done[-1]))
            cols[span] = sub[keep]
            if inner:
                row, col = np.repeat(ids[rows], cnt)[keep], col[keep]
                np.hypot(cx[col] - cx[row], cy[col] - cy[row], out=data[span])
            else:
                data[span] = q.data[src[keep]]
            at = span.stop
        entry = pos[nodes] >= 0
        span = slice(at, at + int(np.count_nonzero(entry)))
        cols[span], data[span] = pos[nodes[entry]], stubs[entry]
        indptr[-1] = span.stop
        # the copy is freed before the graph-sized fields are made
        del pos, first, count
        weights = sparse.csr_matrix((data[:span.stop], cols[:span.stop], indptr),
                                    shape=(m + 1, m + 1))
        del cols, data
        out = self._sweep(weights, m, predecessors=predecessors, limit=limit, pruned=True)
        del weights
        ext = np.append(ids, n)
        dist = np.full(n + 1, np.inf)
        dist[ext] = out[0] if predecessors else out
        if not predecessors:
            return dist
        pred = np.full(n + 1, _NO_PRED, dtype=out[1].dtype)
        has = out[1] >= 0
        pred[ext[has]] = ext[out[1][has]]
        return dist, pred

    def _whole_sweep(self, inner: bool, nodes, stubs, predecessors: bool, limit: float):
        """A sweep of the whole matrix at limit from spare row n, joined to nodes by stubs."""
        self._metric(inner)  # the Euclidean spare row comes with csr_euc
        weights = self._spare[inner]
        fill = np.minimum(np.arange(_CANDIDATES), len(nodes) - 1)
        weights.indices[-_CANDIDATES:] = nodes[fill]
        weights.data[-_CANDIDATES:] = stubs[fill]
        return self._sweep(weights, self.node_count, predecessors=predecessors, limit=limit)

    def _reach(self, inner: bool, nodes, stubs, x, ys, predecessors: bool = False):
        """A point query's sweep from x, its candidates nodes joined by stubs.

        ys lists each target point y_j as (y_j, its candidates, their stubs);
        the fields are n + 1 long. The try sweeps at the largest limit L_j,
        y_j's guess (_guess) capped in the qh metric by y_j's hub bound, on
        the ellipses' subgraph (_ellipse, _pruned) or the whole matrix, and
        is kept when each y_j has a candidate within L_j. Otherwise the whole
        matrix is swept at the hub bound, which every target that shares a
        component with some u_i must be within (see the module docstring).
        """
        # the inner hub field is a sweep of csr_euc, which only the fallback
        # reads, so only the fallback marks or builds it
        f = None if inner else self._hub_once(False)
        pts = np.array([[p.x, p.y] for p in (x, *(y for y, *_ in ys))])
        deltas = None if inner else self.domain.delta_many(pts)
        limits = self._guess(inner, pts, deltas)
        if f is not None:
            start = float((stubs + f[nodes]).min())
            limits = np.minimum(limits, [(start + float((f[v] + t).min())) * (1 + 1e-9)
                                         for _, v, t in ys])
        if np.isfinite(limits).all():
            kept, limit = self._ellipse(inner, pts, deltas, limits), float(limits.max())
            out = (self._whole_sweep(inner, nodes, stubs, predecessors, limit) if kept is None
                   else self._pruned(inner, kept, nodes, stubs, predecessors, limit))
            dist = out[0] if predecessors else out
            if all((dist[v] + t).min() <= lim for (_, v, t), lim in zip(ys, limits)):
                return out
            self.sweep_counts["missed"] += 1
        if inner:
            f = self._hub_once(True)
        targets = np.concatenate([v for _, v, _ in ys])
        limit = np.inf if f is None else float(
            (stubs + f[nodes]).min() + f[targets].max()) * (1 + 1e-9)
        out = self._whole_sweep(inner, nodes, stubs, predecessors, limit)
        dist = out[0] if predecessors else out
        linked = np.isin(self.labels[targets], self.labels[nodes])
        if not np.isfinite(dist[targets][linked]).all():
            raise InternalInvariantError("target node beyond the hub-field bound")
        return out

    def _end_key(self, node, *coords: float) -> tuple:
        """A pair end's place in the order pair sweeps start by.

        Every pair is swept from its end with the lower key: its node's
        (delta, id), a point's node being its first candidate, then the
        point's coords. The shallower end has the smaller qh ball, so a
        sweep from it stops sooner.
        """
        return (float(self.deltas[node]), int(node), *coords)

    def _route(self, x, y, inner: bool, geodesic: bool):
        """(distance, geodesic from x to y or None) from one sweep.

        It runs from the end with the lower _end_key."""
        px, py = as_point(x), as_point(y)
        if px == py and self.domain.contains(px):  # outside, _candidates raises
            return 0.0, self._polyline(px, py, None) if geodesic else None
        k, cx, cy = 2 if inner else 1, self._candidates(px), self._candidates(py)
        flip = self._end_key(cy[0][0], py.x, py.y) < self._end_key(cx[0][0], px.x, px.y)
        (ps, src), (pt, dst) = ((py, cy), (px, cx)) if flip else ((px, cx), (py, cy))
        self._check_component(src[0], dst[0])
        out = self._reach(inner, src[0], src[k], ps, [(pt, dst[0], dst[k])], geodesic)
        totals = (out[0] if geodesic else out)[dst[0]] + dst[k]
        j = int(np.argmin(totals))
        if not geodesic:
            return float(totals[j]), None
        chain = self._chain(out[1], self.node_count, int(dst[0][j]))[1:]
        return float(totals[j]), self._polyline(px, py, chain[::-1] if flip else chain)

    def _distance(self, x, y, inner: bool) -> float:
        return self._route(x, y, inner, geodesic=False)[0]

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
        return self._route(x, y, inner=False, geodesic=True)[1]

    def inner_distance(self, x, y) -> float:
        return self._distance(x, y, inner=True)

    def inner_geodesic(self, x, y) -> PathPolyline:
        return self._route(x, y, inner=True, geodesic=True)[1]

    def qh_distance_and_geodesic(self, x, y) -> tuple[float, PathPolyline]:
        """qh_distance(x, y) and qh_geodesic(x, y), both from one predecessor sweep."""
        return self._route(x, y, inner=False, geodesic=True)

    def qh_distances(self, sources, targets) -> np.ndarray:
        """k(x, y) for every source x (rows) and target y (columns).

        One sweep per source instead of one per pair, each field released
        before the next sweep. An entry is qh_distance's float bit for bit
        when the source is the pair's first end (see _end_key); otherwise
        qh_distance sweeps from the target, and the two may differ by
        rounding.
        """
        tgts = [as_point(t) for t in targets]
        t_cand = [self._candidates(t) for t in tgts]
        out = np.zeros((len(sources), len(tgts)))
        for i, s in enumerate(sources):
            ps = as_point(s)
            nodes, stubs, _ = self._candidates(ps)
            cols = [j for j, pt in enumerate(tgts) if ps.x != pt.x or ps.y != pt.y]
            for j in cols:
                self._check_component(nodes, t_cand[j][0])
            if cols:
                dist = self._reach(False, nodes, stubs, ps,
                                   [(tgts[j], *t_cand[j][:2]) for j in cols])
                out[i, cols] = [(dist[t_cand[j][0]] + t_cand[j][1]).min() for j in cols]
                del dist
        return out

    def basepoint(self, x0, limit: float = np.inf) -> Basepoint:
        """x0 as a Basepoint, with one predecessor sweep from its node cut at limit.

        x0 is a point, attached to its first candidate; a node id, with stub 0
        and the node's center as point (ConstraintError outside [0, n)); or a
        Basepoint built on this graph, which comes back as it is, so a
        diagnostic passes any x0 through here. One built on another graph
        raises ConstraintError. A full sweep at the hub is the qh hub field;
        a limited one never touches the hub cache. Every sweep from a node
        runs here; one cut at a bound on its targets comes through
        _node_sweep, which checks that bound.
        """
        if isinstance(x0, Basepoint):
            if x0.graph is not self:
                raise ConstraintError("basepoint was built on another graph")
            return x0
        if isinstance(x0, numbers.Integral) and not isinstance(x0, bool):
            if not 0 <= x0 < self.node_count:
                raise ConstraintError(f"node {x0} is not in [0, {self.node_count})")
            u, stub, pt = int(x0), 0.0, as_point(self.centers[x0])
        else:
            pt = as_point(x0)
            u, stub, _ = self.attach(pt)
        if u == self._hub and limit == np.inf:
            field, pred = self._hub_field(False)
        else:
            field, pred = _read_only(*self._sweep(self.csr_qh, u, predecessors=True,
                                                  limit=limit))
        return Basepoint(pt, u, stub, field, pred, self)

    def _node_sweep(self, u, targets, limit: float) -> Basepoint:
        """basepoint(u, limit) for a sweep from node u that must reach the targets.

        A finite limit is a bound on d(u, t) for every target t, so one it
        leaves unreached raises InternalInvariantError.
        """
        bp = self.basepoint(int(u), limit)
        if math.isfinite(limit) and not np.isfinite(bp.field[targets]).all():
            raise InternalInvariantError("target node beyond the bound of its node sweep")
        return bp

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
        only to the nodes after it. Through the hub, whose qh field f is
        built here if no caller built it, d(i, j) <= f[i] + f[j], so the
        sweep from i stops at max_j (f[i] + f[j]) * (1 + 1e-9) with the same
        floats as a full sweep; the slack covers float rounding only. The
        sweeps are independent, so they run through _fork_map, on every CPU
        this process may use. A sweep whose bound is inf (some target in
        another component than the hub) runs in full, and entries across
        components are inf. A target left unreached under a finite bound
        raises InternalInvariantError.
        """
        uniq, inv = np.unique(np.asarray(nodes, dtype=np.int64), return_inverse=True)
        order = np.argsort(self.deltas[uniq], kind="stable")  # ties: lower id
        src = uniq[order]
        m = len(src)
        f = self._hub_field(False)[0][src] if m > 1 else None

        def row(r: int) -> np.ndarray:
            limit = float((f[r] + f[r + 1:]).max()) * (1 + 1e-9)
            return self._node_sweep(src[r], src[r + 1:], limit).field[src[r + 1:]]

        d = np.zeros((m, m))
        for r, out in enumerate(_fork_map(row, range(m - 1))):
            d[r, r + 1:] = d[r + 1:, r] = out
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
    """The qh weight CSR of the candidate edge groups, with its spare row.

    Each group is (u, v, rank of v in row u, rank of u in row v), with int32
    node ids and u < v. Both directions go in as runs sorted by rank, so
    scipy's counting pass leaves every row sorted. The conversion carries
    the structure only, with 1-byte placeholder data; groups is emptied and
    the row and column buffer freed before the weights are written.

    One pass over the entries then writes each one's trapezoid weight in
    place. An edge is kept unless its crossing test finds the segment
    touching the boundary. Edges the ball certificate covers skip the test;
    the others are tested once, from their upper entry (u, v), in one
    batch. A rejected edge's two entries are shifted out in place, so no
    second copy of the arrays is made. The Euclidean lengths are not kept:
    GridGraph builds them on first use.

    Its last row n fills the last _CANDIDATES slots of its buffers.
    """
    n = len(centers)
    runs = sorted(((rank, a, b) for u, v, ru, rv in groups
                   for rank, a, b in ((ru, u, v), (rv, v, u))), key=lambda r: r[0])
    groups.clear()
    ends = np.empty((2, sum(len(r[1]) for r in runs) + _CANDIDATES), dtype=np.int32)
    for i in (0, 1):
        np.concatenate([r[1 + i] for r in runs], out=ends[i, :-_CANDIDATES])
    del runs
    # the spare row's slots take distinct columns, so scipy sums none of
    # them, and are reset to column 0, which exists for every n
    ends[0, -_CANDIDATES:], ends[1, -_CANDIDATES:] = n, np.arange(_CANDIDATES)
    layout = sparse.csr_matrix((np.zeros(ends.shape[1], dtype=np.int8), tuple(ends)),
                               shape=(n + 1, max(n + 1, _CANDIDATES)))
    del ends
    indices, indptr = layout.indices, layout.indptr
    del layout
    indices[-_CANDIDATES:] = 0
    data = np.zeros(len(indices))
    tests = []
    for span, per_row, cols in _entry_blocks(indptr, indices, centers, data):
        elen, du, dv = data[span], per_row(deltas), deltas[cols]
        tests.append(span.start + np.flatnonzero(~_ball_certified(du, dv, elen)))
        # the trapezoid weight (|u-v| * 0.5) * (1/delta(u) + 1/delta(v)):
        # IEEE sums commute, so both directions get the same float
        np.reciprocal(du, out=du)
        du += 1.0 / dv
        elen *= 0.5
        elen *= du
    at = np.concatenate(tests)
    u, v = np.searchsorted(indptr, at, side="right") - 1, indices[at]
    up = u < v  # an edge's upper entry runs its test
    at, u, v = at[up], u[up], v[up]
    bad = domain.crossings(centers[u], centers[v])
    edges = (len(indices) - _CANDIDATES) // 2
    stats.update(edges=edges - int(np.count_nonzero(bad)), crossing_tests=len(at),
                 crossing_skipped=edges - len(at))
    if bad.any():
        mirror = [indptr[c] + np.searchsorted(indices[indptr[c]:indptr[c + 1]], r)
                  for r, c in zip(u[bad], v[bad])]
        drop = np.sort(np.r_[at[bad], mirror])
        # each run between dropped entries moves down by the drops before it
        for j, (a, b) in enumerate(zip(drop + 1, np.r_[drop[1:], len(indices)])):
            indices[a - j - 1:b - j - 1] = indices[a:b]
            data[a - j - 1:b - j - 1] = data[a:b]
        indptr -= np.searchsorted(drop, indptr).astype(np.int32)
        indices, data = indices[:len(indices) - len(drop)], data[:len(data) - len(drop)]
    return sparse.csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))


def _entry_blocks(indptr: np.ndarray, indices: np.ndarray, centers: np.ndarray,
                  out: np.ndarray):
    """The entries of rows 0..len(centers)-1, _BLOCK rows at a time.

    For each block it writes the entries' Euclidean lengths,
    hypot(x_c - x_r, y_c - y_r) for entry (r, c), into out, then yields
    the block's entry slice, a map from per-node values to the entries'
    row values (a repeat of one contiguous slice, no gather), and the
    entries' columns. Negating a difference is exact, so both directions
    of an edge get the same length. The temporaries stay a block's size.
    """
    cx, cy = centers[:, 0], centers[:, 1]
    for r0 in range(0, len(centers), _BLOCK):
        rows = slice(r0, min(r0 + _BLOCK, len(centers)))
        ptr = indptr[rows.start:rows.stop + 1]
        span, counts, cols = slice(ptr[0], ptr[-1]), np.diff(ptr), indices[ptr[0]:ptr[-1]]

        def per_row(values, rows=rows, counts=counts):
            return np.repeat(values[rows], counts)
        np.hypot(cx[cols] - per_row(cx), cy[cols] - per_row(cy), out=out[span])
        yield span, per_row, cols


def _edge_lengths(csr: sparse.csr_matrix, centers: np.ndarray,
                  out: np.ndarray) -> sparse.csr_matrix:
    """The Euclidean length of every entry's edge, on csr's index arrays.

    It is written into the head of out, a buffer at least csr.nnz long, in
    blocks of rows, so the matrix adds little beyond its own float64 data:
    on the disk at h=1/256 one unblocked gather peaked 59 MB higher.
    """
    out = out[:csr.nnz]
    for _ in _entry_blocks(csr.indptr, csr.indices, centers, out):
        pass
    return sparse.csr_matrix((out, csr.indices, csr.indptr), shape=csr.shape)


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


# the 8-neighbour stencil: same-level offsets, and fine-level ones from (2ix, 2iy)
_SAME_LEVEL = [(1, 0), (0, 1), (1, 1), (1, -1)]
_FINE_LEVEL = [(2, 0), (2, 1), (-1, 0), (-1, 1), (0, 2), (1, 2), (0, -1), (1, -1),  # sides
               (2, 2), (2, -1), (-1, 2), (-1, -1)]  # corners


def _candidate_edges(lev_keys: list[np.ndarray], strides: list[int]):
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
        groups += [(*found[d], (1, *d), (1, -d[0], -d[1])) for d in _SAME_LEVEL]
        if lev + 1 < len(lev_keys) and len(lev_keys[lev + 1]) > 0:
            fine = strides[lev + 1]
            qx, qy = np.divmod(k, stride)
            base = (2 * qx - 1) * fine + 2 * qy - 1  # key of fine cell (2ix, 2iy)
            # fine column 2ix + ax, rows 2iy - 1 .. 2iy + 2
            found = {(ax, ay): e for ax in (-1, 0, 1, 2)
                     for ay, e in zip((-1, 0, 1, 2),
                                      column(lev + 1, src, base + (ax * fine - 1), 4))}
            groups += [(*found[a], (2, *a), (0, -a[0], -a[1])) for a in _FINE_LEVEL]
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
    groups = _candidate_edges(lev_keys, strides)
    # centers and deltas are copies: the per-level lists stay out of the
    # edge stage, where the build peaks
    del lev_keys, lev_cent, lev_delta
    weights = _edge_weights(domain, centers, deltas, groups, stats)

    # the matrix is symmetric, so its strong components are its components,
    # found without the transpose an undirected call builds; the spare row's
    # node n, which no edge enters, is numbered last
    labels = csgraph.connected_components(weights, directed=True, connection="strong")[1][:-1]

    warnings: list[str] = []
    finest = h / (1 << levels_max)
    if isinstance(domain.spec, FootFingersSpec):
        for f in foot_fingers_layout(domain.spec):
            if f.w < 4.0 * finest:
                warnings.append(
                    f"corridor of finger {f.m} (width {f.w:.3e}) is narrower than 4 "
                    f"finest cells ({finest:.3e}); distances through it may be coarse")

    graph = GridGraph(domain, gp, centers, deltas, levels, weights, labels,
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


def qh_distance(g: GridGraph, x, y) -> float:
    return g.qh_distance(x, y)


def qh_geodesic(g: GridGraph, x, y) -> PathPolyline:
    return g.qh_geodesic(x, y)


def inner_distance(g: GridGraph, x, y) -> float:
    return g.inner_distance(x, y)


def dist_field(g: GridGraph, source) -> np.ndarray:
    """Quasihyperbolic distance from a source to every node, stub included."""
    bp = g.basepoint(source)
    return bp.field + bp.stub
