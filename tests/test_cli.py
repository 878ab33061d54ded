"""Command-line interface: formats, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhgeo
from qhgeo import CSV_HEADER
from qhgeo.cli import main as cli_main


@pytest.fixture(scope="session")
def disk_json(tmp_path_factory):
    p = tmp_path_factory.mktemp("dom") / "disk.json"
    p.write_text(json.dumps({"type": "disk", "center": [0, 0], "radius": 1.0}))
    return str(p)


@pytest.fixture(scope="session")
def split_json(tmp_path_factory):
    p = tmp_path_factory.mktemp("dom2") / "split.json"
    p.write_text(json.dumps({
        "type": "slits",
        "base": {"type": "disk", "center": [0, 0], "radius": 1.0},
        "segments": [[[-1, 0], [1, 0]]],
    }))
    return str(p)


def run_cli(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


def test_dist_json(disk_json, capsys):
    code, out, err = run_cli(["dist", "--domain", disk_json, "0,0", "0.5,0"], capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert set(obj) == {"k", "lower_bound_qh_eq_1", "bound_satisfied"}
    assert obj["bound_satisfied"] is True
    assert abs(obj["k"] - np.log(2)) < 0.03
    assert np.isclose(obj["lower_bound_qh_eq_1"], np.log(2), atol=1e-12)


def test_dist_csv(disk_json, capsys):
    code, out, _ = run_cli(["dist", "--domain", disk_json, "--format", "csv",
                            "0,0", "0.5,0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,lower_bound_qh_eq_1,bound_satisfied"
    assert len(lines) == 2
    k = float(lines[1].split(",")[0])
    assert abs(k - np.log(2)) < 0.03


def test_dist_deterministic(disk_json, capsys):
    _, a, _ = run_cli(["dist", "--domain", disk_json, "0.1,0.2", "-0.4,0.3"], capsys)
    _, b, _ = run_cli(["dist", "--domain", disk_json, "0.1,0.2", "-0.4,0.3"], capsys)
    assert a == b


def test_negative_x_point(disk_json, capsys):
    # argparse would read "-0.4,0.3" as an option without the point check
    code, out, err = run_cli(["dist", "--domain", disk_json, "0.1,0.2", "-0.4,0.3"],
                             capsys)
    assert code == 0, err
    assert np.isfinite(json.loads(out)["k"])
    code, out, err = run_cli(["geodesic", "--domain", disk_json, "--format", "json",
                              "-0.1,-0.2", "-0.4,0.3"], capsys)
    assert code == 0, err
    assert np.isfinite(json.loads(out)["k"])


def test_dist_out_file(disk_json, tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = run_cli(["dist", "--domain", disk_json, "--out", str(dest),
                            "0,0", "0.5,0"], capsys)
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["bound_satisfied"] is True


def test_dist_malformed_point(disk_json, capsys):
    code, _, err = run_cli(["dist", "--domain", disk_json, "0;0", "0.5,0"], capsys)
    assert code == 2
    assert "expected a point" in err


def test_dist_point_outside(disk_json, capsys):
    code, _, err = run_cli(["dist", "--domain", disk_json, "0,0", "2,0"], capsys)
    assert code == 2
    assert "not inside" in err


def test_dist_requires_domain(capsys):
    code, _, err = run_cli(["dist", "0,0", "0.5,0"], capsys)
    assert code == 2
    assert "--domain" in err


def test_dist_disconnected_exit_3(split_json, capsys):
    code, _, err = run_cli(["dist", "--domain", split_json, "0,0.5", "0,-0.5"], capsys)
    assert code == 3
    assert "components" in err


def test_geodesic_csv_default(disk_json, capsys):
    code, out, _ = run_cli(["geodesic", "--domain", disk_json, "0,0", "0.9,0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert (first[0], first[1]) == (0.0, 0.0) and first[3] == 0.0
    assert (last[0], last[1]) == (0.9, 0.0)
    # default grid is coarse (h=1/64): a few percent high on deep pairs
    assert abs(last[3] - np.log(10)) < 0.06 * np.log(10)


def test_geodesic_json(disk_json, capsys):
    code, out, _ = run_cli(["geodesic", "--domain", disk_json, "--format", "json",
                            "0,0", "0.5,0"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n_points"] >= 2
    assert obj["csv"].startswith(CSV_HEADER)
    assert abs(obj["k"] - np.log(2)) < 0.03


def test_visibility_disk(disk_json, capsys):
    code, out, _ = run_cli(["visibility", "--domain", disk_json,
                            "rim_east", "rim_west"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "visible"
    assert len(obj["m"]) == len(obj["scales"])


def test_visibility_unknown_anchor(disk_json, capsys):
    code, _, err = run_cli(["visibility", "--domain", disk_json,
                            "rim_east", "nowhere"], capsys)
    assert code == 2
    assert "anchor" in err and "rim_west" in err


def test_suite_unknown(capsys):
    code, _, err = run_cli(["suite", "nosuite"], capsys)
    assert code == 2
    assert "example8" in err


def test_suite_disk_reference(capsys):
    code, out, _ = run_cli(["suite", "disk_reference"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "disk_reference"
    assert obj["all_pass"] is True
    assert all(c["ok"] for c in obj["checks"])


def test_suite_without_seed_prints_golden(capsys):
    # with no --seed the suite runs at its pinned seed, as the goldens do
    golden = Path(__file__).parent / "golden" / "example8.json"
    code, out, _ = run_cli(["suite", "example8"], capsys)
    assert code == 0
    assert out == golden.read_text()


def test_suite_csv_flat(capsys):
    code, out, _ = run_cli(["suite", "disk_reference", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("all_pass,") for line in lines)


def test_module_entry_point(disk_json):
    # the child imports the same qhgeo as this process, installed or not
    src = str(Path(qhgeo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-m", "qhgeo", "dist", "--domain",
                        disk_json, "0,0", "0.5,0"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0
    assert json.loads(r.stdout)["bound_satisfied"] is True


def test_import_leaves_out_scipy_integrate():
    # only the integral condition's quadrature needs it, and imports it there
    src = str(Path(qhgeo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c",
                        "import sys, qhgeo, qhgeo.cli; "
                        "print('scipy.integrate' in sys.modules)"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
