"""qhgeo benchmark: one workload per process, closed loop, single-threaded.

    python3 perfbench/run.py --workload {suites,disk_queries,estimators} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it give the provenance stamp, the
seed and every metric by name and unit. The exit code is 0 only when every
output check passed. See perfbench/README.md.
"""
import os

# pin BLAS and OpenMP pools before numpy loads: the workloads are single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# spans each workload must record in its traced phase (coverage self-test)
EXPECTED_SPANS = {
    "suites": [
        "cli.main", "suites.run_suite", "domains.compile_domain",
        "domains.delta_many", "domains.crossings", "domains.contains_many",
        "grid.build_grid", "grid.connected_components", "grid.attach",
        "grid.dijkstra", "grid.qh_distance", "analysis.visibility_probe",
        "analysis.loop_probe", "analysis.gromov_product_boundary_probe",
        "conditions.john_center_probe", "conditions.qhbc_fit",
        "hyperbolic.compare_metrics_disk"],
    "disk_queries": [
        "domains.compile_domain", "domains.delta_many", "domains.crossings",
        "domains.contains_many", "grid.build_grid",
        "grid.connected_components", "grid.attach", "grid.dijkstra",
        "grid.qh_distance", "grid.qh_geodesic", "grid.inner_distance",
        "analysis.gromov_product", "hyperbolic.compare_metrics_disk",
        "paths.qh_length", "paths.to_csv"],
    "estimators": [
        "domains.compile_domain", "domains.delta_many", "grid.build_grid",
        "grid.connected_components", "grid.attach", "grid.dijkstra",
        "grid.multi_source_field", "grid.node_distance_matrix",
        "analysis.estimate_delta_four_point",
        "analysis.estimate_delta_thin_triangles", "conditions.qhbc_fit",
        "conditions.growth_check"],
}


def load_qhgeo():
    """Import qhgeo from this checkout's src/ and nowhere else."""
    if not (SRC / "qhgeo" / "__init__.py").is_file():
        raise ImportError(f"no qhgeo package under {SRC}")
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(SRC))
    qh = importlib.import_module("qhgeo")
    importlib.import_module("qhgeo.cli")
    if SRC not in Path(qh.__file__).resolve().parents:
        raise ImportError(f"qhgeo resolved to {qh.__file__}, not {SRC}")
    return qh


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # e.g. an exported checkout without .git


def _cpu() -> dict:
    out = {"model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    out["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                out["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def provenance(qh) -> dict:
    import numpy
    import scipy
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "qhgeo").iterdir()):
        if p.suffix in (".py", ".json"):
            src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "qhgeo": qh.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_phase(work, seconds: float, setup_repeats: int):
    """Set up setup_repeats times, then run rounds for `seconds`."""
    setups = []
    for _ in range(setup_repeats):
        state = None  # release the previous build before the next one
        t0 = time.perf_counter()
        state = work.setup()
        setups.append(time.perf_counter() - t0)
    ops, walls = [], []
    t_start = time.perf_counter()
    while len(walls) < work.min_rounds or time.perf_counter() - t_start < seconds:
        t0 = time.perf_counter()
        ops += work.round(state, len(walls))
        walls.append(time.perf_counter() - t0)
    return state, setups, walls, ops


def traced_phase(tracing, qh, work):
    """Traced set-up plus round 0 of the workload, wrappers removed after."""
    tracer = tracing.Tracer()
    inst = tracing.Installation(qh, tracer)
    try:
        t0 = time.perf_counter()
        state = work.setup()
        t1 = time.perf_counter()
        ops = work.round(state, 0)
        t2 = time.perf_counter()
    finally:
        inst.restore()
    return tracer.spans, t1 - t0, t2 - t1, ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(EXPECTED_SPANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    try:
        qh = load_qhgeo()
    except ImportError as e:
        print(f"perfbench: cannot import qhgeo: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import tracing
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(provenance(qh), sort_keys=True))

    work = workloads.WORKLOADS[args.workload](qh, args.seed)
    state, setups, walls, ops = run_phase(work, args.seconds,
                                          workloads.SETUP_REPEATS)
    work.finish(state, ops)
    del state
    work.info.update(import_s=import_s, setup_each_s=setups,
                     rounds=len(walls))

    ms = [1e3 * o.seconds for o in ops]
    e2e = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (workloads.quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "radial_rel_err_max": work.extra.pop("radial_rel_err_max"),
    }
    checks = list(work.checks)  # (name, passed)
    checks.append(("untraced_run_unwrapped", not tracing.wrapped_names()))
    layers = {}
    if args.trace:
        spans, t_setup, t_round, tops = traced_phase(tracing, qh, work)
        ops += tops
        fired = {s[0] for s in spans}
        for name in EXPECTED_SPANS[args.workload]:
            checks.append((f"span_fired:{name}", name in fired))
        checks.append(("wrappers_removed", not tracing.wrapped_names()))
        layers = tracing.layer_metrics(spans, t_setup + t_round, len(tops),
                                       t_round - e2e["wall_s"][0])
        work.info["traced_spans"] = len(spans)
    metrics = layers if args.trace else e2e
    listed = spec["per_layer" if args.trace else "end_to_end"]
    checks.append(("metrics_match_BENCHMARK.json",
                   sorted(m["name"] for m in listed) == sorted(metrics)))

    issues = [f"operation {o.kind}: {o.note}" for o in ops if not o.ok]
    issues += [f"check {n} failed" for n, ok in checks if not ok]
    attempted = len(ops) + len(checks)
    failed = len(issues)
    work.extra["fail_frac"] = (failed / attempted, "ratio")
    print("info " + json.dumps(work.info, sort_keys=True))
    for name, (value, unit) in sorted({**e2e, **work.extra}.items()):
        print(f"e2e {name} {value:.6g} {unit}")
    for name, (value, unit) in layers.items():
        print(f"layer {name} {value:.6g} {unit}")
    for line in issues:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {"correct": not issues, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not issues else 1


if __name__ == "__main__":
    sys.exit(main())
