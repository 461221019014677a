"""Command line front end.

Every subcommand reads JSON (file path or ``-`` for stdin), writes JSON to
stdout or ``--out``, and communicates its verdict through the exit code:

* 0 — pass / true / success
* 1 — fail / false (a well-formed negative verdict)
* 2 — error or indeterminate (bad input, domain violation, no safe answer)

Tolerances resolve in order: built-in defaults, then the ``ADHMKIT_TOL``
environment variable (``rank=1e-9,eq=1e-8,root=1e-6``), then flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import geometry, hirz, plane, propsuite, serialize
from .errors import (
    ADHMKitError,
    DomainError,
    IndeterminateError,
    InvalidPointError,
    ParseError,
    ShapeError,
)
from .linalg import DEFAULT_TOL
from .report import merge
from .sigma import sigma_matrix

_TOL_KEYS = {"rank": "rank_rel_tol", "eq": "eq_rel_tol", "root": "root_cluster_tol"}


class _CliError(Exception):
    def __init__(self, kind, detail, path=None):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.path = path


def _emit(payload, out_path):
    text = serialize.dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read(path):
    if path == "-":
        return serialize.loads(sys.stdin.read(), path="stdin")
    return serialize.load_path(path)


def _expect(obj, kind_cls, what):
    if not isinstance(obj, kind_cls):
        raise _CliError("kind", f"expected {what} input, got {type(obj).__name__}")
    return obj


def _resolve_tol(args):
    values = {}
    env = os.environ.get("ADHMKIT_TOL", "")
    if env.strip():
        for item in env.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise _CliError("config", f"ADHMKIT_TOL entry {item!r} is not key=value")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key not in _TOL_KEYS:
                raise _CliError("config", f"ADHMKIT_TOL key {key!r} unknown "
                                          f"(expected one of {sorted(_TOL_KEYS)})")
            try:
                values[_TOL_KEYS[key]] = float(raw)
            except ValueError:
                raise _CliError("config", f"ADHMKIT_TOL value {raw!r} is not a number") from None
    for flag, field in (("tol_rank", "rank_rel_tol"), ("tol_eq", "eq_rel_tol"),
                        ("tol_root", "root_cluster_tol")):
        v = getattr(args, flag, None)
        if v is not None:
            values[field] = v
    try:
        return dataclasses.replace(DEFAULT_TOL, **values)
    except (ValueError, TypeError) as exc:
        raise _CliError("config", f"bad tolerance: {exc}") from exc


def _report_exit(report):
    if any(chk.verdict == "fail" for chk in report.checks):
        return 1
    if report.indeterminate:
        return 2
    return 0


def _cmd_validate(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    if args.p3_method == "direct":
        reports = [hirz.validate_p1(d, tol), hirz.validate_p2(d, tol)]
    else:
        reports = [hirz.validate_hirz(d, tol)]
    if args.p3_method in ("direct", "both"):
        try:
            reports.append(hirz.validate_p3_direct(d, tol))
        except InvalidPointError as exc:
            raise _CliError("invalid_point", str(exc)) from exc
    report = merge(*reports)
    _emit(report.to_json(), args.out)
    return _report_exit(report)


def _cmd_validate_plane(args, tol):
    d = _expect(_read(args.path), plane.PlaneADHM, "plane triple")
    report = plane.validate_plane(d, tol)
    _emit(report.to_json(), args.out)
    return _report_exit(report)


def _cmd_chart_set(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    report = hirz.validate_p2(d, tol)
    charts = list(report.chart_set or ())
    _emit({"charts": charts}, args.out)
    return _report_exit(report)


def _cmd_to_chart(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    cc = hirz.to_chart(d, args.m, tol)
    _emit(serialize.encode(cc), args.out)
    return 0


def _cmd_from_chart(args, tol):
    cc = _expect(_read(args.path), hirz.ChartCoords, "chart coordinates")
    d = hirz.from_chart(cc.m, hirz.plane_part(cc), cc.A2m, cc.n, tol)
    _emit(serialize.encode(d), args.out)
    return 0


def _cmd_transition(args, tol):
    cc = _expect(_read(args.path), hirz.ChartCoords, "chart coordinates")
    moved = hirz.transition_omega(cc, args.l, tol)
    _emit(serialize.encode(moved), args.out)
    return 0


def _cmd_transition_plane(args, tol):
    d = _expect(_read(args.path), plane.PlaneADHM, "plane triple")
    moved = plane.transition_plane(d, args.m, args.l, args.n, args.cbase, tol)
    _emit(serialize.encode(moved), args.out)
    return 0


def _cmd_canonical(args, tol):
    obj = _read(args.path)
    if isinstance(obj, plane.PlaneADHM):
        can, gauge = plane.canonical_form(obj, tol)
        _emit({"point": serialize.encode(can),
               "gauge": serialize._pairs(gauge)},
              args.out)
        return 0
    if isinstance(obj, hirz.HirzADHM):
        can, m = hirz.canonicalize(obj, tol)
        _emit({"chart": m, "point": serialize.encode(can)}, args.out)
        return 0
    raise _CliError("kind", f"expected a plane triple or surface point, got {type(obj).__name__}")


def _cmd_orbit_equal(args, tol):
    a = _read(args.path)
    b = _read(args.path2)
    if isinstance(a, plane.PlaneADHM) and isinstance(b, plane.PlaneADHM):
        equal = plane.orbit_equal_plane(a, b, tol)
    elif isinstance(a, hirz.HirzADHM) and isinstance(b, hirz.HirzADHM):
        equal = hirz.orbit_equal(a, b, tol)
    else:
        raise _CliError("kind", "both inputs must be plane triples or both surface points")
    _emit({"equal": bool(equal)}, args.out)
    return 0 if equal else 1


def _support_json(sup):
    out = {"base": [{"point": serialize._pairs((pt.lam1, pt.lam2)), "multiplicity": mult}
                    for pt, mult in sup.base]}
    if sup.chart_pairs is not None:
        m, pairs = sup.chart_pairs
        out["chart"] = {"m": m, "pairs": serialize._pairs(pairs)}
    return out


def _cmd_support(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    if args.m is None:
        sup = geometry.base_support(d, tol)
    else:
        sup = geometry.chart_support(d, args.m, tol)
    _emit(_support_json(sup), args.out)
    return 0


def _cmd_hilbert_chow(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    sup = geometry.base_support(d, tol)
    form = geometry.pencil_form(d.A2, d.A1)
    coeffs = np.asarray(form.coeffs)
    lead = coeffs[np.argmax(np.abs(coeffs))]
    normalized = coeffs / lead
    _emit({"degree": form.degree,
           "form": serialize._pairs(normalized),
           "cycle": _support_json(sup)["base"]},
          args.out)
    return 0


def _cmd_sigma(args, tol):
    sg = sigma_matrix(args.h, args.m, args.cbase)
    _emit({"h": sg.h, "m": sg.m, "cbase": sg.c_base,
           "entries": [[float(v) for v in row] for row in sg.entries]},
          args.out)
    return 0


def _cmd_syst_rank(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    rank = hirz.syst_rank(d.A1, d.A2, d.n, tol)
    expected = (d.n - 1) * d.c * d.c
    _emit({"rank": rank, "expected": expected}, args.out)
    return 0 if rank == expected else 1


def _cmd_jacobian_dim(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    nullity = hirz.jacobian_nullity(d, tol)
    expected = 2 * d.c * d.c + 2 * d.c
    _emit({"nullity": nullity, "expected": expected,
           "orbit_dim": nullity - 2 * d.c * d.c if nullity >= 2 * d.c * d.c else None},
          args.out)
    return 0 if nullity == expected else 1


def _cmd_c1_from_ytilde(args, tol):
    p = _expect(_read(args.path), geometry.YTildePoint, "hypersurface point")
    checked = geometry.ytilde_point(p.y1, p.y2, p.x1, p.x2, args.n)
    d = geometry.ytilde_to_p1(checked, args.n, tol)
    _emit(serialize.encode(d), args.out)
    return 0


def _cmd_c1_to_tot(args, tol):
    d = _expect(_read(args.path), hirz.HirzADHM, "surface point")
    t = geometry.p1_to_tot(d, tol)
    _emit(serialize.encode(t), args.out)
    return 0


def _cmd_property_run(args, tol):
    report = propsuite.run_suite(seed=args.seed, max_n=args.max_n, max_c=args.max_c,
                                 samples=args.samples, name_filter=args.filter, tol=tol)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def _add_tol_flags(p):
    p.add_argument("--tol.rank", dest="tol_rank", type=float, default=None,
                   help="relative singular value cutoff for rank decisions")
    p.add_argument("--tol.eq", dest="tol_eq", type=float, default=None,
                   help="relative tolerance for equality of matrices and multisets")
    p.add_argument("--tol.root", dest="tol_root", type=float, default=None,
                   help="clustering radius for coincident roots")
    p.add_argument("--out", default=None, help="write JSON output to this file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adhmkit",
        description="Matrix-data models of point configurations on twisted line bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text, **kw):
        p = sub.add_parser(name, help=help_text, **kw)
        p.set_defaults(fn=fn)
        _add_tol_flags(p)
        return p

    p = cmd("validate", _cmd_validate, "check all defining conditions of a surface point")
    p.add_argument("path")
    p.add_argument("--p3-method", choices=("chart", "direct", "both"), default="chart",
                   help="how to test co-stability")

    p = cmd("validate-plane", _cmd_validate_plane, "check a commuting plane triple")
    p.add_argument("path")

    p = cmd("chart-set", _cmd_chart_set, "list chart indices where the point is visible")
    p.add_argument("path")

    p = cmd("to-chart", _cmd_to_chart, "convert a surface point to chart coordinates")
    p.add_argument("path")
    p.add_argument("--m", type=int, required=True)

    p = cmd("from-chart", _cmd_from_chart, "assemble a surface point from chart coordinates")
    p.add_argument("path")

    p = cmd("transition", _cmd_transition, "move chart coordinates to another chart")
    p.add_argument("path")
    p.add_argument("--l", type=int, required=True)

    p = cmd("transition-plane", _cmd_transition_plane,
            "apply the raw overlap map to a plane triple")
    p.add_argument("path")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cbase", type=int, required=True)

    p = cmd("canonical", _cmd_canonical, "canonical orbit representative")
    p.add_argument("path")

    p = cmd("orbit-equal", _cmd_orbit_equal, "decide whether two inputs share an orbit")
    p.add_argument("path")
    p.add_argument("path2")

    p = cmd("support", _cmd_support, "supporting cycle on the base curve")
    p.add_argument("path")
    p.add_argument("--m", type=int, default=None,
                   help="also report fibre coordinates in this chart")

    p = cmd("hilbert-chow", _cmd_hilbert_chow,
            "degree-c form and cycle of the configuration's image on the base")
    p.add_argument("path")

    p = cmd("sigma", _cmd_sigma, "change-of-weight matrix between chart frames")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cbase", type=int, required=True)

    p = cmd("syst-rank", _cmd_syst_rank, "rank of the stacked intertwining system")
    p.add_argument("path")

    p = cmd("jacobian-dim", _cmd_jacobian_dim,
            "numeric tangent dimension of the defining equations at a point")
    p.add_argument("path")

    p = cmd("c1-from-ytilde", _cmd_c1_from_ytilde,
            "lift a single hypersurface point to matrix data (c = 1)")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)

    p = cmd("c1-to-tot", _cmd_c1_to_tot,
            "push a c = 1 point to total-space coordinates")
    p.add_argument("path")

    p = cmd("property-run", _cmd_property_run, "run the randomized property suite")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-c", type=int, default=6)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--filter", default=None, help="substring filter on property names")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep its choice
        return int(exc.code or 0)
    try:
        tol = _resolve_tol(args)
        return args.fn(args, tol)
    except ParseError as exc:
        _emit({"error": "parse", "path": exc.path, "detail": exc.detail}, None)
        return 2
    except _CliError as exc:
        _emit({"error": exc.kind, "path": exc.path, "detail": exc.detail}, None)
        return 2
    except (ShapeError, DomainError, InvalidPointError, IndeterminateError) as exc:
        kind = {
            ShapeError: "shape",
            DomainError: "domain",
            InvalidPointError: "invalid_point",
            IndeterminateError: "indeterminate",
        }[type(exc)]
        _emit({"error": kind, "path": None, "detail": str(exc)}, None)
        return 2
    except ADHMKitError as exc:
        _emit({"error": "internal", "path": None, "detail": str(exc)}, None)
        return 2
    except Exception as exc:  # never leak a traceback through the CLI
        _emit({"error": "internal", "path": None, "detail": f"{type(exc).__name__}: {exc}"}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
