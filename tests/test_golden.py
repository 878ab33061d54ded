"""Suite reports stay byte-identical to the committed golden outputs.

The golden files are `qhgeo suite NAME` output: the report serialised as
the CLI does (indent 2, trailing newline). A change that alters any number
in a report fails here; a change that alters numerics on purpose must
regenerate the files and say so. Each suite run also counts its sweeps.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from qhgeo import SUITE_NAMES, GridGraph, run_suite
from qhgeo.grid import Basepoint

GOLDEN = Path(__file__).parent / "golden"

# one full sweep per suite (its basepoint, the hub field on the disk),
# plus one bounded sweep per ladder scale: 5 in example8 and comb, whose
# two probes share one ladder, and 5 for each of slit's two probes; the
# disk's two compare pairs each sweep once, bounded by the hub field
SWEEPS = {"example8": 6, "disk_reference": 3, "comb": 6, "slit": 11}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_matches_golden(name, sweeps):
    want = (GOLDEN / f"{name}.json").read_text()
    assert json.dumps(run_suite(name), indent=2) + "\n" == want
    assert len(sweeps) == SWEEPS[name]
    assert sum(not np.isfinite(limit) for limit in sweeps) == 1


@pytest.mark.parametrize("name", ["example8", "comb", "slit"])
def test_ladder_limits_within_path_through_x0(name, monkeypatch):
    # each ladder sweep from x_k stops at the tree bound to y_k, never above
    # the path through x0's node, f[x_k] + f[y_k] + 2 stub, with its slack
    bounds, limits = [], []
    real_bound, real_sweep = Basepoint.tree_bound, GridGraph.basepoint

    def tree_bound(bp, u, v):
        out = real_bound(bp, u, v)
        f = bp.field
        bounds.append((out, (f[u] + f[v] + 2 * bp.stub) * (1 + 1e-9)))
        return out

    def basepoint(g, x0, limit=np.inf):
        if np.isfinite(limit):  # a ladder sweep, not x0's own
            limits.append(limit)
        return real_sweep(g, x0, limit)

    monkeypatch.setattr(Basepoint, "tree_bound", tree_bound)
    monkeypatch.setattr(GridGraph, "basepoint", basepoint)
    run_suite(name)
    assert len(limits) == SWEEPS[name] - 1
    assert limits == [b for b, _ in bounds]
    assert all(b <= old for b, old in bounds)
