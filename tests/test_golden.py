"""Suite reports stay byte-identical to the committed golden outputs.

The golden files are `qhgeo suite NAME` output: the report serialised as
the CLI does (indent 2, trailing newline). A change that alters any number
in a report fails here; a change that alters numerics on purpose must
regenerate the files and say so.
"""
import json
from pathlib import Path

import pytest

from qhgeo import SUITE_NAMES, run_suite

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_matches_golden(name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert json.dumps(run_suite(name), indent=2) + "\n" == want
