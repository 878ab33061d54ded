"""Pinned diagnostic suites: reproducible end-to-end certification runs.

Every suite reads its domain, grid resolution, probe scales, and seed from
the shipped suite_params.json, so two runs of the same suite produce
byte-identical reports. A caller-supplied seed overrides the pinned one;
grid parameters are not overridable (they are part of what the published
verdicts mean).
"""
from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .analysis import (loop_probe, visibility_and_gromov_probes,
                       visibility_probe)
from .conditions import john_center_probe, qhbc_fit
from .domains import compile_domain
from .errors import ConstraintError
from .grid import GridParams, build_grid, dist_field
from .hyperbolic import compare_metrics_disk, hyp_distance_disk

SUITE_NAMES = ("example8", "disk_reference", "comb", "slit")


def load_suite_params() -> dict:
    text = resources.files("qhgeo").joinpath("suite_params.json").read_text()
    return json.loads(text)


def _build(params: dict) -> tuple:
    domain = compile_domain(params["domain"])
    g = build_grid(domain, GridParams(h=params["h"],
                                      boundary_layer=params["layers"]))
    return domain, g


def _run_example8(params: dict, seed: int) -> dict:
    domain, g = _build(params)
    x0 = g.basepoint(domain.anchor(params["x0"]).point)
    jr = john_center_probe(g, x0,
                           [domain.anchor(t) for t in params["john_targets"]],
                           params["john_scales"])
    fit = qhbc_fit(g, x0, params["qhbc_samples"], seed)
    vis = visibility_probe(g, domain.anchor(params["visibility_p"]),
                           domain.anchor(params["visibility_q"]), x0,
                           params["visibility_scales"])
    return {
        "suite": "example8",
        "john": "fails" if jr.verdict == "fails_john" else jr.verdict,
        "qhbc": fit.verdict,
        "visibility": vis.verdict,
        "details": {"john": jr.to_dict(), "qhbc": fit.to_dict(),
                    "visibility": vis.to_dict()},
    }


def _run_disk_reference(params: dict, seed: int) -> dict:
    domain, g = _build(params)
    del seed  # nothing stochastic in the closed-form checks
    checks = []
    # (0, 0) sits on the hub, so this is the hub field that bounds the compare sweeps
    field = dist_field(g, (0.0, 0.0))
    for r in params["radii"]:
        u, stub, _ = g.attach((float(r), 0.0))
        k = float(field[u] + stub)
        want = float(np.log(1.0 / (1.0 - r)))
        rel = abs(k - want) / want
        checks.append({"name": f"radial_k_r={r:g}", "value": k,
                       "expected": want, "rel_err": rel,
                       "ok": bool(rel <= params["radial_rel_tol"])})
    pairs = [tuple(map(tuple, pr)) for pr in params["compare_pairs"]]
    cmp_rep = compare_metrics_disk(g, pairs)
    for r in cmp_rep.rows:
        checks.append({"name": f"two_sided_{r.p[0]:g},{r.p[1]:g}_{r.q[0]:g},{r.q[1]:g}",
                       "value": r.k_hat, "expected": r.h,
                       "ok": r.lower_ok and r.upper_ok})
        want_h = hyp_distance_disk(r.p, r.q)
        checks.append({"name": f"hyp_closed_form_{r.q[0]:g},{r.q[1]:g}",
                       "value": r.h, "expected": want_h,
                       "ok": bool(abs(r.h - want_h) < 1e-12)})
    return {"suite": "disk_reference",
            "all_pass": all(c["ok"] for c in checks),
            "checks": checks}


def _run_comb(params: dict, seed: int) -> dict:
    domain, g = _build(params)
    del seed
    vis, gb = visibility_and_gromov_probes(
        g, domain.anchor(params["p"]), domain.anchor(params["q"]),
        domain.anchor(params["x0"]).point, params["scales"])
    return {"suite": "comb", "visibility": vis.verdict, "gromov": gb.verdict,
            "details": {"visibility": vis.to_dict(), "gromov": gb.to_dict()}}


def _run_slit(params: dict, seed: int) -> dict:
    domain, g = _build(params)
    del seed
    x0 = g.basepoint(tuple(params["x0"]))
    arcs = [domain.anchor(a) for a in params["loop_arcs"]]
    lp = loop_probe(g, arcs[0], x0, params["scales"], arcs)
    vis = visibility_probe(g, domain.anchor(params["visibility_p"]),
                           domain.anchor(params["visibility_q"]), x0,
                           params["scales"])
    return {"suite": "slit", "loop": lp.verdict, "loop_at": params["loop_at"],
            "visibility": vis.verdict,
            "details": {"loop": lp.to_dict(), "visibility": vis.to_dict()}}


_RUNNERS = {"example8": _run_example8, "disk_reference": _run_disk_reference,
            "comb": _run_comb, "slit": _run_slit}


def run_suite(name: str, seed: int | None = None) -> dict:
    if name not in _RUNNERS:
        known = ", ".join(SUITE_NAMES)
        raise ConstraintError(f"unknown suite '{name}' (choose from {known})")
    params = load_suite_params()[name]
    return _RUNNERS[name](params, params["seed"] if seed is None else seed)
