"""Span recording around the public functions of each qhgeo layer.

Tracing is installed only for the traced phase of a run and removed after
it. Every wrapper records (name, start, end, parent span, info) in memory;
per-layer metrics are computed from the spans when the phase ends.

A function that other modules bound by name (``from .analysis import
visibility_probe``) is replaced in every qhgeo module that holds it, so a
call through any of those names is recorded. Methods are replaced on their
class. The scipy entry points ``grid`` calls (``dijkstra`` and
``connected_components``) are reached through ``qhgeo.grid.csgraph``, which
is swapped for a proxy whose two entry points are recorded.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

MARK = "_perfbench_span"


def _rows(out) -> int:
    dist = out[0] if isinstance(out, tuple) else out
    return 1 if dist.ndim == 1 else int(dist.shape[0])


def csr_bytes(csr) -> int:
    """Computed size of one CSR matrix: nnz values and column ids plus row pointers."""
    return int(csr.nnz * (csr.data.itemsize + csr.indices.itemsize)
               + (csr.shape[0] + 1) * csr.indptr.itemsize)


def _grid_info(out) -> tuple[int, int, int]:
    return out.node_count, out.edge_count, csr_bytes(out.csr_qh)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(out)
            return out

        setattr(traced, MARK, name)
        return traced


class _CsgraphProxy:
    """Stands in for scipy.sparse.csgraph inside qhgeo.grid."""

    def __init__(self, real, **recorded):
        self._real = real
        self.__dict__.update(recorded)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def qhgeo_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qhgeo" or n.startswith("qhgeo."))]


# (span name, module, attribute, info) for module-level functions
_FUNCTIONS = [
    ("domains.compile_domain", "domains", "compile_domain", None),
    ("grid.build_grid", "grid", "build_grid", _grid_info),
    ("analysis.gromov_product", "analysis", "gromov_product", None),
    ("analysis.estimate_delta_four_point", "analysis",
     "estimate_delta_four_point", None),
    ("analysis.estimate_delta_thin_triangles", "analysis",
     "estimate_delta_thin_triangles", None),
    ("analysis.visibility_probe", "analysis", "visibility_probe", None),
    ("analysis.loop_probe", "analysis", "loop_probe", None),
    ("analysis.gromov_product_boundary_probe", "analysis",
     "gromov_product_boundary_probe", None),
    ("conditions.john_center_probe", "conditions", "john_center_probe", None),
    ("conditions.qhbc_fit", "conditions", "qhbc_fit", None),
    ("conditions.growth_check", "conditions", "growth_check", None),
    ("hyperbolic.compare_metrics_disk", "hyperbolic",
     "compare_metrics_disk", None),
    ("paths.qh_length", "paths", "qh_length", None),
    ("suites.run_suite", "suites", "run_suite", lambda out: out["suite"]),
    ("cli.main", "cli", "main", None),
]

# (span name, module, class, method, info) for methods
_METHODS = [
    ("domains.delta_many", "domains", "Domain", "delta_many", len),
    ("domains.crossings", "domains", "Domain", "crossings", len),
    ("domains.contains_many", "domains", "Domain", "contains_many", None),
    ("grid.attach", "grid", "GridGraph", "attach", None),
    ("grid.qh_distance", "grid", "GridGraph", "qh_distance", None),
    ("grid.qh_geodesic", "grid", "GridGraph", "qh_geodesic", None),
    ("grid.inner_distance", "grid", "GridGraph", "inner_distance", None),
    ("grid.multi_source_field", "grid", "GridGraph", "multi_source_field",
     None),
    ("grid.node_distance_matrix", "grid", "GridGraph",
     "node_distance_matrix", None),
    ("paths.to_csv", "paths", "PathPolyline", "to_csv", None),
]


class Installation:
    """Wrappers installed for one traced phase; restore() undoes them."""

    def __init__(self, qh, tracer: Tracer):
        self._undo: list[tuple] = []
        modules = qhgeo_modules()
        for name, mod, attr, info in _FUNCTIONS:
            original = getattr(getattr(qh, mod), attr)
            wrapper = tracer.wrap(name, original, info)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._set(m, key, wrapper)
        for name, mod, cls_name, attr, info in _METHODS:
            cls = getattr(getattr(qh, mod), cls_name)
            self._set(cls, attr, tracer.wrap(name, vars(cls)[attr], info))
        real = qh.grid.csgraph
        proxy = _CsgraphProxy(
            real,
            dijkstra=tracer.wrap("grid.dijkstra", real.dijkstra, _rows),
            connected_components=tracer.wrap("grid.connected_components",
                                             real.connected_components))
        self._set(qh.grid, "csgraph", proxy)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrapped_names() -> list[str]:
    """Every qhgeo function, method or csgraph binding still wrapped."""
    from scipy.sparse import csgraph
    bad = []
    for m in qhgeo_modules():
        if m.__name__ == "qhgeo.grid" and m.csgraph is not csgraph:
            bad.append("qhgeo.grid.csgraph")
        for key, val in vars(m).items():
            if hasattr(val, MARK):
                bad.append(f"{m.__name__}.{key}")
            elif isinstance(val, type) and val.__module__ == m.__name__:
                bad += [f"{m.__name__}.{key}.{a}" for a, v in vars(val).items()
                        if hasattr(v, MARK)]
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics


class _Agg:
    """Calls, inclusive and self time, durations and infos of one span name."""

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.infos: list = []

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.durations) if self.calls else 0.0


def aggregate(spans: list[list]) -> defaultdict[str, _Agg]:
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: defaultdict[str, _Agg] = defaultdict(_Agg)
    for (name, t0, t1, _, info), c in zip(spans, child):
        a = out[name]
        a.calls += 1
        a.total += t1 - t0
        a.self_time += t1 - t0 - c
        a.durations.append(t1 - t0)
        if info is not None:
            a.infos.append(info)
    return out


def layer_metrics(spans: list[list], phase_s: float, n_ops: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase (set-up plus one round).

    phase_s is the traced set-up plus round wall time; n_ops is the number
    of operations in the traced round. Layers a workload never calls read 0.
    """
    a = aggregate(spans)
    builds = a["grid.build_grid"].infos
    sweeps = a["grid.dijkstra"]
    suite_s = dict.fromkeys(("example8", "disk_reference", "comb", "slit"),
                            0.0)
    for name, t0, t1, _, info in spans:
        if name == "suites.run_suite":
            suite_s[info] += t1 - t0
    m = {
        "domains.compile_s": (a["domains.compile_domain"].total, "s"),
        "domains.delta_calls": (a["domains.delta_many"].calls, "count"),
        "domains.delta_points": (sum(a["domains.delta_many"].infos), "count"),
        "domains.delta_s": (a["domains.delta_many"].total, "s"),
        "domains.crossings_calls": (a["domains.crossings"].calls, "count"),
        "domains.crossings_segments": (sum(a["domains.crossings"].infos),
                                       "count"),
        "domains.crossings_s": (a["domains.crossings"].total, "s"),
        "domains.contains_s": (a["domains.contains_many"].total, "s"),
        "grid.build_s": (a["grid.build_grid"].self_time, "s"),
        "grid.build_count": (len(builds), "count"),
        "grid.nodes": (sum(b[0] for b in builds), "count"),
        "grid.edges": (sum(b[1] for b in builds), "count"),
        "grid.csr_bytes": (max((b[2] for b in builds), default=0), "bytes"),
        "grid.components_s": (a["grid.connected_components"].total, "s"),
        "grid.attach_calls": (a["grid.attach"].calls, "count"),
        "grid.attach_s": (a["grid.attach"].total, "s"),
        "grid.sweeps": (sweeps.calls, "count"),
        "grid.sweep_sources": (sum(sweeps.infos), "count"),
        "grid.sweep_s": (sweeps.total, "s"),
        "grid.sweep_share": (sweeps.total / phase_s, "ratio"),
        "grid.sweeps_per_query": (sweeps.calls / n_ops, "count"),
        "grid.multi_source_calls": (a["grid.multi_source_field"].calls,
                                    "count"),
        "grid.multi_source_s": (a["grid.multi_source_field"].total, "s"),
        "grid.distance_matrix_s": (a["grid.node_distance_matrix"].total, "s"),
        "grid.qh_distance_p50_ms": (a["grid.qh_distance"].p50_ms(), "ms"),
        "grid.qh_geodesic_p50_ms": (a["grid.qh_geodesic"].p50_ms(), "ms"),
        "grid.inner_distance_p50_ms": (a["grid.inner_distance"].p50_ms(),
                                       "ms"),
        "analysis.gromov_product_p50_ms": (
            a["analysis.gromov_product"].p50_ms(), "ms"),
        "analysis.visibility_s": (a["analysis.visibility_probe"].self_time,
                                  "s"),
        "analysis.loop_s": (a["analysis.loop_probe"].self_time, "s"),
        "analysis.gromov_boundary_s": (
            a["analysis.gromov_product_boundary_probe"].self_time, "s"),
        "analysis.four_point_s": (
            a["analysis.estimate_delta_four_point"].self_time, "s"),
        "analysis.thin_triangle_s": (
            a["analysis.estimate_delta_thin_triangles"].self_time, "s"),
        "conditions.john_s": (a["conditions.john_center_probe"].self_time,
                              "s"),
        "conditions.qhbc_s": (a["conditions.qhbc_fit"].self_time, "s"),
        "conditions.growth_s": (a["conditions.growth_check"].self_time, "s"),
        "hyperbolic.compare_p50_ms": (
            a["hyperbolic.compare_metrics_disk"].p50_ms(), "ms"),
        "paths.qh_length_p50_ms": (a["paths.qh_length"].p50_ms(), "ms"),
        "paths.qh_length_calls": (a["paths.qh_length"].calls, "count"),
        "paths.qh_length_s": (a["paths.qh_length"].total, "s"),
        "paths.to_csv_s": (a["paths.to_csv"].total, "s"),
        "cli.self_s": (a["cli.main"].self_time, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for suite, seconds in suite_s.items():
        m[f"suites.{suite}_s"] = (seconds, "s")
    return m
