"""Every qhgeo name the benchmark harness binds still exists.

perfbench/tracing.py wraps qhgeo functions and methods by name and swaps
qhgeo.grid.csgraph for a proxy; perfbench/workloads.py calls the package's
module-level functions. A rename in qhgeo fails here, not only in the
benchmark's span-coverage self-test.
"""
import importlib.util
import re
from pathlib import Path

import qhgeo
import qhgeo.cli  # noqa: F401  (imported before tracing, as perfbench/run.py does)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for _, mod, attr, _ in tracing._FUNCTIONS:
        assert callable(getattr(getattr(qhgeo, mod), attr)), f"{mod}.{attr}"
    for _, mod, cls, attr, _ in tracing._METHODS:
        assert attr in vars(getattr(getattr(qhgeo, mod), cls)), f"{mod}.{cls}.{attr}"
    for attr in ("dijkstra", "connected_components"):
        assert callable(getattr(qhgeo.grid.csgraph, attr))


def test_workload_calls_resolve():
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bqh\.([A-Za-z_]\w*)", text))
    assert {"dist_field", "qh_distance", "qh_geodesic", "inner_distance"} <= names
    for name in sorted(names):
        assert hasattr(qhgeo, name), name
    for name in ("dist_field", "qh_distance", "qh_geodesic", "inner_distance"):
        assert getattr(qhgeo, name) is getattr(qhgeo.grid, name)
