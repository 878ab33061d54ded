"""Command-line front end: distances, geodesics, probes, and pinned suites.

Exit codes: 0 ok; 2 usage, parse, or geometry error; 3 endpoints unreachable;
4 inconclusive verdict under --strict; 5 internal invariant breach (a printed
distance violating its own lower bound, which no shipped configuration should
ever produce).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import visibility_probe
from .domains import Domain, compile_domain
from .errors import InternalInvariantError, QhgeoError, UnreachableError
from .geometry import Point2, as_point
from .grid import GridParams, build_grid
from .suites import SUITE_NAMES, run_suite

_DEFAULT_SCALES = [0.25, 0.125, 0.0625, 0.03125, 0.015625]


def _parse_point(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise QhgeoError(f"expected a point as 'x,y', got '{text}'")
    try:
        return Point2(float(parts[0]), float(parts[1]))
    except ValueError:
        raise QhgeoError(f"expected a point as 'x,y', got '{text}'") from None


class _Parser(argparse.ArgumentParser):
    """Reads "-0.4,0.3" as a point, not as an option: no option has a comma."""

    def _parse_optional(self, arg_string):
        try:
            _parse_point(arg_string)
        except QhgeoError:
            return super()._parse_optional(arg_string)
        return None


def _load_domain(path: str) -> Domain:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise QhgeoError(f"cannot read domain file: {e}") from None
    except json.JSONDecodeError as e:
        raise QhgeoError(f"domain file is not valid JSON: {e}") from None
    return compile_domain(obj)


def _check_bound(domain: Domain, x: Point2, y: Point2, k: float) -> float:
    """qh distance lower bound log(1 + |x-y|/min(delta)); breach is internal."""
    dx = domain.boundary_distance(x)
    dy = domain.boundary_distance(y)
    gap = math.hypot(x.x - y.x, x.y - y.y)
    bound = math.log1p(gap / min(dx, dy))
    if k < bound - 1e-9:
        raise InternalInvariantError(
            f"distance {k:.12g} violates its lower bound {bound:.12g}")
    return bound


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _interior_anchor(domain: Domain) -> Point2:
    for a in domain.anchors.values():
        if a.inward is None:
            return a.point
    raise QhgeoError("domain has no interior anchor to observe from")


def cmd_dist(args) -> int:
    domain = _load_domain(args.domain)
    g = build_grid(domain, GridParams(h=args.h, boundary_layer=args.layers))
    x, y = _parse_point(args.x), _parse_point(args.y)
    k = g.qh_distance(x, y)
    bound = _check_bound(domain, x, y, k)
    report = {"k": k, "lower_bound_qh_eq_1": bound, "bound_satisfied": True}
    if args.format == "csv":
        text = ("k,lower_bound_qh_eq_1,bound_satisfied\n"
                f"{k:.12g},{bound:.12g},true\n")
    else:
        text = _dumps(report)
    _emit(text, args.out)
    return 0


def cmd_geodesic(args) -> int:
    domain = _load_domain(args.domain)
    g = build_grid(domain, GridParams(h=args.h, boundary_layer=args.layers))
    x, y = _parse_point(args.x), _parse_point(args.y)
    path = g.qh_geodesic(x, y)
    k = float(path.cum_qh[-1])
    _check_bound(domain, x, y, k)
    if args.format == "json":
        text = _dumps({"k": k, "n_points": len(path.points),
                       "csv": path.to_csv()})
    else:
        text = path.to_csv()
    _emit(text, args.out)
    return 0


def cmd_visibility(args) -> int:
    domain = _load_domain(args.domain)
    g = build_grid(domain, GridParams(h=args.h, boundary_layer=args.layers))
    p = domain.anchor(args.p_anchor)
    q = domain.anchor(args.q_anchor)
    x0 = _interior_anchor(domain)
    scales = args.scales if args.scales else list(_DEFAULT_SCALES)
    rep = visibility_probe(g, p, q, x0, scales)
    for (a, b), k in zip(rep.endpoints, rep.k_xy):
        _check_bound(domain, as_point(a), as_point(b), k)
    if args.format == "csv":
        lines = ["scale,m,clearance,gromov_product,verdict"]
        for t, m, c, gp in zip(rep.scales, rep.m, rep.clearance,
                               rep.gromov_products):
            lines.append(f"{t:.12g},{m:.12g},{c:.12g},{gp:.12g},{rep.verdict}")
        text = "\n".join(lines) + "\n"
    else:
        text = _dumps(rep.to_dict())
    _emit(text, args.out)
    if args.strict and rep.verdict == "inconclusive":
        return 4
    return 0


def cmd_suite(args) -> int:
    report = run_suite(args.name, seed=args.seed)
    if args.format == "csv":
        lines = ["key,value"]
        for key, val in report.items():
            if not isinstance(val, (dict, list)):
                lines.append(f"{key},{val}")
        text = "\n".join(lines) + "\n"
    else:
        text = _dumps(report)
    _emit(text, args.out)
    verdicts = [v for v in report.values() if isinstance(v, str)]
    if args.strict and "inconclusive" in verdicts:
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--domain", help="path to a domain spec JSON file")
    common.add_argument("--h", type=float, default=0.015625,
                        help="grid spacing (default 1/64)")
    common.add_argument("--layers", type=int, default=2,
                        help="boundary refinement layers (default 2)")
    common.add_argument("--seed", type=int, default=None,
                        help="suite seed (default: the suite's pinned seed)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default: json; geodesic: csv)")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--strict", action="store_true",
                        help="exit 4 on an inconclusive verdict")

    parser = _Parser(
        prog="qhgeo",
        description="Quasihyperbolic distances, geodesics, and boundary "
                    "diagnostics on planar domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", parents=[common],
                            help="quasihyperbolic distance between two points")
    p_dist.add_argument("x", help="first point as 'x,y'")
    p_dist.add_argument("y", help="second point as 'x,y'")
    p_dist.set_defaults(fn=cmd_dist, needs_domain=True)

    p_geo = sub.add_parser("geodesic", parents=[common],
                           help="quasihyperbolic geodesic polyline as CSV")
    p_geo.add_argument("x", help="first point as 'x,y'")
    p_geo.add_argument("y", help="second point as 'x,y'")
    p_geo.set_defaults(fn=cmd_geodesic, needs_domain=True)

    p_vis = sub.add_parser("visibility", parents=[common],
                           help="visibility probe between two boundary anchors")
    p_vis.add_argument("p_anchor", help="boundary anchor name")
    p_vis.add_argument("q_anchor", help="boundary anchor name")
    p_vis.add_argument("scales", nargs="*", type=float,
                       help="probe scales (strictly decreasing; default "
                            "0.25 .. 1/64)")
    p_vis.set_defaults(fn=cmd_visibility, needs_domain=True)

    p_suite = sub.add_parser("suite", parents=[common],
                             help="run a pinned diagnostic suite")
    p_suite.add_argument("name", help=f"one of: {', '.join(SUITE_NAMES)}")
    p_suite.set_defaults(fn=cmd_suite, needs_domain=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "csv" if args.fn is cmd_geodesic else "json"
    if args.needs_domain and not args.domain:
        parser.error(f"{args.command} requires --domain")  # exits 2
    try:
        return args.fn(args)
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 5
    except UnreachableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except QhgeoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
