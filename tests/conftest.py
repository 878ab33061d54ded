"""Session-scoped grids plus shared sampling helpers.

Grid construction dominates test time, so every test module draws from the
same cached fixtures. Helpers live here (not in a package module) because
tests import them directly via the conftest path hook.
"""
import os

import numpy as np
import pytest
from scipy.sparse import csgraph

from qhgeo import (GridGraph, GridParams, build_grid, compile_domain,
                   estimate_delta_four_point, estimate_delta_thin_triangles)
from qhgeo import grid as grid_module


def sample_interior(domain, n, seed, min_delta=0.0):
    """Rejection-sample n interior points from the bounding box."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(domain.bbox_lo)
    hi = np.asarray(domain.bbox_hi)
    out = []
    while len(out) < n:
        cand = rng.uniform(lo, hi, size=(max(4 * n, 64), 2))
        keep = domain.contains_many(cand)
        if min_delta > 0.0:
            keep &= domain.delta_many(cand) > min_delta
        out.extend(map(tuple, cand[keep]))
    return out[:n]


def eq1_lower_bounds(domain, x, y):
    """The two distance lower bounds: log(1 + gap/min delta), |log ratio|."""
    pts = np.asarray([x, y], float)
    dx, dy = domain.delta_many(pts)
    gap = float(np.hypot(*(pts[1] - pts[0])))
    return float(np.log1p(gap / min(dx, dy))), abs(float(np.log(dy / dx)))


def fresh_graph(g):
    """The same graph with no sweep run yet: no hub field, no Euclidean weights."""
    return GridGraph(g.domain, g.params, g.centers, g.deltas, g.levels,
                     g._spare[False], g.labels, g.warnings, g.stats)


def full_sweep(g, node, predecessors=False):
    """The full qh sweep from one node, run through scipy directly.

    An independent reference for the library's own sweeps; the sweeps
    fixture does not count it.
    """
    return csgraph.dijkstra(g.csr_qh, directed=True, indices=int(node),
                            return_predecessors=predecessors)


@pytest.fixture
def sweeps(monkeypatch):
    """The limit of every sweep run while the test runs, in call order.

    A forked worker's sweeps never reach this process's list, so the test
    runs on one worker: every sweep in this process, in the serial order.
    """
    limits = []
    real = GridGraph._sweep

    def spy(self, weights, sources, **kwargs):
        limits.append(kwargs.get("limit", np.inf))
        return real(self, weights, sources, **kwargs)

    monkeypatch.setattr(GridGraph, "_sweep", spy)
    monkeypatch.setattr(grid_module, "_WORKERS", 1)
    return limits


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {pid})")


@pytest.fixture(scope="session")
def disk_domain():
    return compile_domain({"type": "disk", "center": [0, 0], "radius": 1.0})


@pytest.fixture(scope="session")
def square_domain():
    return compile_domain({"type": "rect", "min": [-0.5, -0.5], "max": [0.5, 0.5]})


@pytest.fixture(scope="session")
def comb_domain():
    return compile_domain({"type": "comb", "teeth": 8})


@pytest.fixture(scope="session")
def slit_domain():
    return compile_domain({
        "type": "slits",
        "base": {"type": "disk", "center": [0, 0], "radius": 1.0},
        "segments": [[[0, 0], [1, 0]]],
    })


@pytest.fixture(scope="session")
def disk64(disk_domain):
    return build_grid(disk_domain, GridParams(h=1 / 64, boundary_layer=1))


@pytest.fixture(scope="session")
def disk128(disk_domain):
    return build_grid(disk_domain, GridParams(h=1 / 128, boundary_layer=1))


@pytest.fixture(scope="session")
def disk256(disk_domain):
    return build_grid(disk_domain, GridParams(h=1 / 256, boundary_layer=1))


@pytest.fixture(scope="session")
def square128(square_domain):
    return build_grid(square_domain, GridParams(h=1 / 128, boundary_layer=1))


@pytest.fixture(scope="session")
def comb_grid(comb_domain):
    return build_grid(comb_domain, GridParams(h=1 / 64, boundary_layer=3))


@pytest.fixture(scope="session")
def slit_grid(slit_domain):
    return build_grid(slit_domain, GridParams(h=1 / 64, boundary_layer=2))


# the two disk128 estimates that the acceptance and analysis tests both read
@pytest.fixture(scope="session")
def disk128_four_point(disk128):
    return estimate_delta_four_point(disk128, 2000, seed=7)


@pytest.fixture(scope="session")
def disk128_thin_triangles(disk128):
    return estimate_delta_thin_triangles(disk128, 200, seed=7)
