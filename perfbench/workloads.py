"""The three benchmark workloads and the checks on their outputs.

Each workload is one closed-loop, single-threaded client: the next call
starts only after the previous one returns. A workload has a set-up (timed
several times, the last result kept), a round of fixed work that the run
repeats, and run-level checks made after the timed rounds. Every program
call in a round is one operation: it is timed on its own, and it fails when
it raises or when its output fails a check.

The program sees only inputs generated here from the workload seed. The
unit disk's boundary distance has the closed form 1 - |z|, so the checks
compute it themselves rather than asking the program.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
import traceback

import numpy as np

from tracing import csr_bytes

# Gehring-Osgood (1979): k(x, y) >= log(1 + |x-y|/min delta) and
# k(x, y) >= |log delta(x)/delta(y)|; tolerance for float noise only.
GO_TOL = 1e-9
UNIT_DISK = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}
# radial probes k(0, r e^{i theta}); theta 0 and 90 degrees lie on grid axes
RADII = (0.5, 0.7, 0.9)
ANGLES_DEG = (0.0, 11.25, 22.5, 30.0, 90.0)
ON_AXIS_TOL = 0.02  # acceptance criterion 1
SETUP_REPEATS = 3


def disk_delta(p) -> float:
    return 1.0 - math.hypot(p[0], p[1])


def go_bound(x, y) -> float:
    """Larger of the two Gehring-Osgood lower bounds on the unit disk."""
    dx, dy = disk_delta(x), disk_delta(y)
    gap = math.hypot(x[0] - y[0], x[1] - y[1])
    return max(math.log1p(gap / min(dx, dy)), abs(math.log(dx / dy)))


def meets_go(x, y, k: float) -> bool:
    return math.isfinite(k) and k >= go_bound(x, y) - GO_TOL


class Op:
    __slots__ = ("kind", "seconds", "ok", "note")

    def __init__(self, kind: str, seconds: float, ok: bool, note: str = ""):
        self.kind, self.seconds, self.ok, self.note = kind, seconds, ok, note


def timed(ops: list, kind: str, call, check):
    """Run one operation: time call(), then judge its result with check()."""
    t0 = time.perf_counter()
    try:
        out = call()
        dt = time.perf_counter() - t0
        ok = bool(check(out))
    except Exception:  # a failed operation is counted, not fatal
        ops.append(Op(kind, time.perf_counter() - t0, False,
                      traceback.format_exc(limit=3)))
        return None
    ops.append(Op(kind, dt, ok, "" if ok else f"output check failed: {kind}"))
    return out


class Workload:
    """Base: subclasses define setup(), round() and finish()."""

    name = ""
    min_rounds = 1
    on_axis_checked = False  # criterion 1's 2% holds on the h=1/256 grid

    def __init__(self, qh, seed: int):
        self.qh = qh
        self.seed = seed
        self.checks: list[tuple[str, bool]] = []
        self.extra: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def radial_probes(self, g) -> float:
        """Largest |k/log(1/(1-r)) - 1| over the radial probes on a disk grid."""
        qh = self.qh
        field = qh.dist_field(g, (0.0, 0.0))
        worst = 0.0
        for theta in ANGLES_DEG:
            for r in RADII:
                t = math.radians(theta)
                p = (r * math.cos(t), r * math.sin(t))
                u, stub, _ = g.attach(p)
                k = float(field[u] + stub)
                rel = abs(k / math.log(1.0 / (1.0 - r)) - 1.0)
                worst = max(worst, rel)
                self.check(f"radial_go_{theta:g}_{r:g}", meets_go((0, 0), p, k))
                if self.on_axis_checked and theta % 90.0 == 0.0:
                    self.check(f"radial_on_axis_{theta:g}_{r:g}",
                               rel < ON_AXIS_TOL)
        return worst


# ---------------------------------------------------------------------------


SUITE_VERDICTS = {
    "example8": {"john": "fails", "qhbc": "fails", "visibility": "visible"},
    "disk_reference": {"all_pass": True},
    "comb": {"visibility": "not_visible", "gromov": "unbounded"},
    "slit": {"loop": "loop_suspected", "visibility": "visible"},
}


class Suites(Workload):
    """The four pinned suites through the in-process CLI, at pinned seeds."""

    name = "suites"
    min_rounds = 2  # the report hash is compared across rounds

    def __init__(self, qh, seed: int):
        super().__init__(qh, seed)
        self.hashes: list[str] = []
        self.disk_report = {"checks": []}

    def setup(self):
        # warm-up only: the suites compile their own domains
        params = self.qh.load_suite_params()
        return [self.qh.compile_domain(params[n]["domain"])
                for n in self.qh.SUITE_NAMES]

    def round(self, state, r: int) -> list[Op]:
        ops: list[Op] = []
        digest = hashlib.sha256()
        for name in self.qh.SUITE_NAMES:
            buf = io.StringIO()

            def call(name=name, buf=buf):
                with contextlib.redirect_stdout(buf):
                    code = self.qh.cli.main(["suite", name])
                return code, buf.getvalue()

            def check(out, name=name):
                code, text = out
                report = json.loads(text)
                return code == 0 and all(report.get(k) == v for k, v in
                                         SUITE_VERDICTS[name].items())

            out = timed(ops, name, call, check)
            if out is not None:
                digest.update(out[1].encode())
                if name == "disk_reference" and r == 0:
                    self.disk_report = json.loads(out[1])
        self.hashes.append(digest.hexdigest())
        return ops

    def finish(self, state, ops: list[Op]) -> None:
        self.check("suite_report_hash_repeats", len(set(self.hashes)) == 1)
        self.info["suite_report_sha256"] = self.hashes[0]
        rels = [c["rel_err"] for c in self.disk_report["checks"]
                if c["name"].startswith("radial_k")]
        self.extra["radial_rel_err_max"] = (max(rels, default=math.nan),
                                            "ratio")
        self.extra["example8_s"] = (median_of(ops, "example8"), "s")


class DiskQueries(Workload):
    """Independent point queries on the criterion-1 disk grid."""

    name = "disk_queries"
    min_rounds = 11  # 110 queries, so at least ten lie beyond p90
    on_axis_checked = True
    H = 1 / 256
    R_MAX = 0.995  # query points reach near the boundary
    # compare pairs stay in criterion 4's envelope: delta >= 0.03, gap >= 0.05
    COMPARE_R_MAX = 0.97
    COMPARE_MIN_GAP = 0.05

    def setup(self):
        qh = self.qh
        domain = qh.compile_domain(UNIT_DISK)
        return domain, qh.build_grid(domain, qh.GridParams(h=self.H,
                                                           boundary_layer=1))

    @staticmethod
    def _point(rng, r_max: float) -> tuple[float, float]:
        r = r_max * math.sqrt(rng.random())
        t = 2.0 * math.pi * rng.random()
        return (r * math.cos(t), r * math.sin(t))

    def _compare_pair(self, rng):
        while True:
            x = self._point(rng, self.COMPARE_R_MAX)
            y = self._point(rng, self.COMPARE_R_MAX)
            if math.hypot(x[0] - y[0], x[1] - y[1]) >= self.COMPARE_MIN_GAP:
                return x, y

    def round(self, state, r: int) -> list[Op]:
        qh = self.qh
        domain, g = state
        rng = np.random.default_rng([self.seed, r])
        ops: list[Op] = []
        for _ in range(2):
            x, y = self._point(rng, self.R_MAX), self._point(rng, self.R_MAX)
            timed(ops, "qh_distance", lambda: qh.qh_distance(g, x, y),
                  lambda k: meets_go(x, y, k))

            x, y = self._point(rng, self.R_MAX), self._point(rng, self.R_MAX)

            def geodesic():
                path = qh.qh_geodesic(g, x, y)
                return path, path.to_csv(), qh.qh_length(domain, path)

            def geodesic_ok(out):
                path, csv, length = out
                return (meets_go(x, y, path.qh_length_cached)
                        and meets_go(x, y, length)
                        and csv.count("\n") == len(path) + 1)

            timed(ops, "qh_geodesic", geodesic, geodesic_ok)

            x, y = self._point(rng, self.R_MAX), self._point(rng, self.R_MAX)
            euclid = math.hypot(x[0] - y[0], x[1] - y[1])
            timed(ops, "inner_distance", lambda: qh.inner_distance(g, x, y),
                  lambda d: math.isfinite(d) and d >= euclid - GO_TOL)

            o, x, y = (self._point(rng, self.R_MAX) for _ in range(3))
            timed(ops, "gromov_product", lambda: qh.gromov_product(g, o, x, y),
                  lambda gp: math.isfinite(gp) and gp >= -GO_TOL)

            x, y = self._compare_pair(rng)

            def compare_ok(rep):
                k = rep.rows[0][2]
                return rep.all_hold and meets_go(x, y, k)

            timed(ops, "compare_metrics_disk",
                  lambda: qh.compare_metrics_disk(g, [(x, y)]), compare_ok)
        return ops

    def finish(self, state, ops: list[Op]) -> None:
        _, g = state
        self.info["working_set_csr_bytes_computed"] = csr_bytes(g.csr_qh)
        self.extra["radial_rel_err_max"] = (self.radial_probes(g), "ratio")
        ms = [1e3 * o.seconds for o in ops]
        p50, p90 = quantile(ms, 0.5), quantile(ms, 0.9)
        self.extra["query_p50_ms"] = (p50, "ms")
        self.extra["query_p90_ms"] = (p90, "ms")
        self.info["queries"] = len(ms)
        self.info["queries_beyond_p90"] = sum(v > p90 for v in ms)


class Estimators(Workload):
    """Hyperbolicity and growth estimators on the disk at h=1/128."""

    name = "estimators"
    min_rounds = 2  # estimates are compared across rounds
    H = 1 / 128
    FOUR_POINT = dict(n_samples=2000, pool_size=90)  # two 45-source batches
    THIN_SAMPLES = 10
    QHBC_SAMPLES = 500
    GROWTH_SAMPLES = 2000

    def setup(self):
        qh = self.qh
        domain = qh.compile_domain(UNIT_DISK)
        g = qh.build_grid(domain, qh.GridParams(h=self.H, boundary_layer=1))
        self.seeds = [int(s) for s in
                      np.random.default_rng(self.seed).integers(0, 2**31, 4)]
        self.info["estimator_seeds"] = self.seeds
        self.results: list[list] = []
        return g

    def round(self, state, r: int) -> list[Op]:
        qh, g = self.qh, state
        s_four, s_thin, s_fit, s_growth = self.seeds
        ops: list[Op] = []

        def finite(est):
            return math.isfinite(est.value) and est.value >= 0.0

        four = timed(ops, "four_point", lambda: qh.estimate_delta_four_point(
            g, seed=s_four, **self.FOUR_POINT), finite)
        thin = timed(ops, "thin_triangle",
                     lambda: qh.estimate_delta_thin_triangles(
                         g, self.THIN_SAMPLES, seed=s_thin), finite)
        fit = timed(ops, "qhbc_fit",
                    lambda: qh.qhbc_fit(g, (0.0, 0.0), self.QHBC_SAMPLES,
                                        s_fit),
                    lambda f: f.verdict == "holds"
                    and math.isfinite(f.slope) and math.isfinite(f.intercept))
        growth = None
        if fit is not None:
            phi = qh.GrowthFunction("log_affine", {"A": fit.slope,
                                                   "B": fit.intercept + 1.0})
            growth = timed(ops, "growth_check",
                           lambda: qh.growth_check(g, (0.0, 0.0), phi,
                                                   self.GROWTH_SAMPLES,
                                                   s_growth),
                           lambda rep: rep.verdict == "holds"
                           and math.isfinite(rep.worst_margin))
        if four is not None and thin is not None:
            self.check(f"thin_over_four_point_round{r}",
                       0.25 < thin.value / four.value < 4.0)
        self.results.append([x.to_dict() if x is not None else None
                             for x in (four, thin, fit, growth)])
        return ops

    def finish(self, state, ops: list[Op]) -> None:
        first = json.dumps(self.results[0])
        self.check("estimates_repeat_for_fixed_seed",
                   all(json.dumps(res) == first for res in self.results))
        self.info["working_set_csr_bytes_computed"] = csr_bytes(state.csr_qh)
        self.extra["radial_rel_err_max"] = (self.radial_probes(state), "ratio")
        for kind in ("four_point", "thin_triangle"):
            self.extra[f"{kind}_s"] = (median_of(ops, kind), "s")


WORKLOADS = {w.name: w for w in (Suites, DiskQueries, Estimators)}


def median_of(ops: list[Op], kind: str) -> float:
    """Median latency of one kind of operation (NaN if none succeeded)."""
    return statistics.median([o.seconds for o in ops if o.kind == kind
                              and o.ok] or [math.nan])


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    return float(np.quantile(np.asarray(values, dtype=float), q))
