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

from qhgeo import SUITE_NAMES, run_suite

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
