"""Command line front end.

Every subcommand reads JSON (file path or ``-`` for stdin), writes JSON to
stdout or ``--out``, and communicates its verdict through the exit code:

* 0 — pass / true / success
* 1 — fail / false (a well-formed negative verdict)
* 2 — error or indeterminate (bad input, domain violation, no safe answer)

Tolerances resolve in order: built-in defaults, then the ``ADHMKIT_TOL``
environment variable (``rank=1e-9,eq=1e-8,root=1e-6``), then flags.

A subcommand is a function ``(args, tol, *inputs) -> (payload, exit code)``
that maps decoded inputs to a JSON payload; it neither reads files nor
prints.  ``build_parser`` declares each input file by its kind (or ``None``
for any kind), and ``main`` owns everything around the call: tolerances,
reading every input, kind checks, writing the payload to stdout or
``--out``, and turning errors into ``{"error": kind, ...}`` on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import geometry, hirz, plane, serialize
from .errors import ADHMKitError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .report import FAIL, INDETERMINATE, PASS, merge
from .sigma import sigma_matrix

# short key -> tolerance field, for ADHMKIT_TOL entries and --tol.<key> flags
_TOL_FIELDS = {f.metadata["key"]: f for f in dataclasses.fields(ToleranceConfig)}


class _CliError(ADHMKitError):
    def __init__(self, kind, detail, path=None):
        super().__init__(detail)
        self.kind, self.path = kind, path


def _emit(payload, out_path):
    text = serialize.dumps(payload)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _CliError("output", f"cannot write output: {exc.strerror}", out_path) from None
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (`... | head -1`): send the rest to devnull,
        # so the flush at exit cannot raise and main keeps its exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read(path):
    if path == "-":
        return serialize.loads(sys.stdin.read(), path="stdin")
    return serialize.load_path(path)


def _expect(obj, kind_cls, what):
    if not isinstance(obj, kind_cls):
        raise _CliError("kind", f"expected {what} input, got {type(obj).__name__}")


def _resolve_tol(args):
    values = {}
    for item in os.environ.get("ADHMKIT_TOL", "").split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise _CliError("config", f"ADHMKIT_TOL entry {item!r} is not key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _TOL_FIELDS:
            raise _CliError("config", f"ADHMKIT_TOL key {key!r} unknown "
                                      f"(expected one of {sorted(_TOL_FIELDS)})")
        try:
            values[_TOL_FIELDS[key].name] = float(raw)
        except ValueError:
            raise _CliError("config", f"ADHMKIT_TOL value {raw!r} is not a number") from None
    for key, field in _TOL_FIELDS.items():
        v = getattr(args, f"tol_{key}", None)
        if v is not None:
            values[field.name] = v
    try:
        return dataclasses.replace(DEFAULT_TOL, **values)
    except (ValueError, TypeError) as exc:
        raise _CliError("config", f"bad tolerance: {exc}") from exc


_POINT = (hirz.HirzADHM, "surface point")
_PLANE = (plane.PlaneADHM, "plane triple")
_CHART = (hirz.ChartCoords, "chart coordinates")
_YTILDE = (geometry.YTildePoint, "hypersurface point")
_EXIT = {PASS: 0, FAIL: 1, INDETERMINATE: 2}  # exit code of a report's verdict


def _cmd_validate(args, tol, d):
    report = hirz.validate_hirz(d, tol)
    pre = hirz._preconditions(report)
    if args.p3_method == "direct":
        report = pre
    if args.p3_method != "chart" and pre.passed:
        report = merge(report, hirz.validate_p3_direct(d, tol))
    return report.to_json(), _EXIT[report.verdict]


def _cmd_validate_plane(args, tol, d):
    report = plane.validate_plane(d, tol)
    return report.to_json(), _EXIT[report.verdict]


def _cmd_chart_set(args, tol, d):
    report = hirz.validate_p2(d, tol)
    return {"charts": list(report.chart_set or ())}, _EXIT[report.verdict]


def _cmd_to_chart(args, tol, d):
    return serialize.encode(hirz.to_chart(d, args.m, tol)), 0


def _cmd_from_chart(args, tol, cc):
    return serialize.encode(hirz.from_chart(cc.m, hirz.plane_part(cc), cc.A2m, cc.n, tol)), 0


def _cmd_transition(args, tol, cc):
    return serialize.encode(hirz.transition_omega(cc, args.l, tol)), 0


def _cmd_transition_plane(args, tol, d):
    moved = plane.transition_plane(d, args.m, args.l, args.n, args.cbase, tol)
    return serialize.encode(moved), 0


def _cmd_canonical(args, tol, obj):
    if isinstance(obj, plane.PlaneADHM):
        can, gauge = plane.canonical_form(obj, tol)
        return {"point": serialize.encode(can), "gauge": serialize._pairs(gauge)}, 0
    if isinstance(obj, hirz.HirzADHM):
        can, m = hirz.canonicalize(obj, tol)
        return {"chart": m, "point": serialize.encode(can)}, 0
    raise _CliError("kind", f"expected a plane triple or surface point, got {type(obj).__name__}")


def _cmd_orbit_equal(args, tol, a, b):
    if isinstance(a, plane.PlaneADHM) and isinstance(b, plane.PlaneADHM):
        equal = plane.orbit_equal_plane(a, b, tol)
    elif isinstance(a, hirz.HirzADHM) and isinstance(b, hirz.HirzADHM):
        equal = hirz.orbit_equal(a, b, tol)
    else:
        raise _CliError("kind", "both inputs must be plane triples or both surface points")
    return {"equal": bool(equal)}, 0 if equal else 1


def _support_json(sup):
    out = {"base": [{"point": serialize._pairs((pt.lam1, pt.lam2)), "multiplicity": mult}
                    for pt, mult in sup.base]}
    if sup.chart_pairs is not None:
        m, pairs = sup.chart_pairs
        out["chart"] = {"m": m, "pairs": serialize._pairs(pairs)}
    return out


def _cmd_support(args, tol, d):
    if args.m is None:
        return _support_json(geometry.base_support(d, tol)), 0
    return _support_json(geometry.chart_support(d, args.m, tol)), 0


def _cmd_hilbert_chow(args, tol, d):
    sup = geometry.base_support(d, tol)
    form = geometry._regular_pencil_form(d)
    coeffs = np.asarray(form.coeffs)
    lead = coeffs[np.argmax(np.abs(coeffs))]
    return {"degree": form.degree,
            "form": serialize._pairs(coeffs / lead),
            "cycle": _support_json(sup)["base"]}, 0


def _cmd_sigma(args, tol):
    sg = sigma_matrix(args.h, args.m, args.cbase)
    return {"h": sg.h, "m": sg.m, "cbase": sg.c_base,
            "entries": [[float(v) for v in row] for row in sg.entries]}, 0


def _cmd_syst_rank(args, tol, d):
    rank = hirz.syst_rank(d.A1, d.A2, d.n, tol)
    expected = (d.n - 1) * d.c * d.c
    return {"rank": rank, "expected": expected}, 0 if rank == expected else 1


def _cmd_jacobian_dim(args, tol, d):
    nullity = hirz.jacobian_nullity(d, tol)
    expected = 2 * d.c * d.c + 2 * d.c
    return ({"nullity": nullity, "expected": expected, "orbit_dim": nullity - 2 * d.c * d.c},
            0 if nullity == expected else 1)


def _cmd_c1_from_ytilde(args, tol, p):
    return serialize.encode(geometry.ytilde_to_p1(p, args.n, tol)), 0


def _cmd_c1_to_tot(args, tol, d):
    return serialize.encode(geometry.p1_to_tot(d, tol)), 0


def _cmd_property_run(args, tol):
    from . import propsuite  # loaded only for this command

    report = propsuite.run_suite(seed=args.seed, max_n=args.max_n, max_c=args.max_c,
                                 samples=args.samples, name_filter=args.filter, tol=tol)
    return report.to_json(), 0 if report.passed else 1


def _add_tol_flags(p):
    for key, field in _TOL_FIELDS.items():
        p.add_argument(f"--tol.{key}", dest=f"tol_{key}", type=float, default=None,
                       help=field.metadata["help"])
    p.add_argument("--out", default=None, help="write JSON output to this file")


_PATHS = ("path", "path2")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adhmkit",
        description="Matrix-data models of point configurations on twisted line bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text, *inputs):
        """Subcommand reading one file per input: a (class, what) kind, or None for any."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, inputs=inputs)
        _add_tol_flags(p)
        for dest in _PATHS[:len(inputs)]:
            p.add_argument(dest)
        return p

    p = cmd("validate", _cmd_validate, "check all defining conditions of a surface point", _POINT)
    p.add_argument("--p3-method", choices=("chart", "direct", "both"), default="chart",
                   help="how to test co-stability")
    cmd("validate-plane", _cmd_validate_plane, "check a commuting plane triple", _PLANE)
    cmd("chart-set", _cmd_chart_set, "list chart indices where the point is visible", _POINT)
    p = cmd("to-chart", _cmd_to_chart, "convert a surface point to chart coordinates", _POINT)
    p.add_argument("--m", type=int, required=True)
    cmd("from-chart", _cmd_from_chart, "assemble a surface point from chart coordinates", _CHART)
    p = cmd("transition", _cmd_transition, "move chart coordinates to another chart", _CHART)
    p.add_argument("--l", type=int, required=True)

    p = cmd("transition-plane", _cmd_transition_plane,
            "apply the raw overlap map to a plane triple", _PLANE)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cbase", type=int, required=True)

    cmd("canonical", _cmd_canonical, "canonical orbit representative", None)
    cmd("orbit-equal", _cmd_orbit_equal, "decide whether two inputs share an orbit", None, None)
    p = cmd("support", _cmd_support, "supporting cycle on the base curve", _POINT)
    p.add_argument("--m", type=int, default=None,
                   help="also report fibre coordinates in this chart")
    cmd("hilbert-chow", _cmd_hilbert_chow,
        "degree-c form and cycle of the configuration's image on the base", _POINT)

    p = cmd("sigma", _cmd_sigma, "change-of-weight matrix between chart frames")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cbase", type=int, required=True)

    cmd("syst-rank", _cmd_syst_rank, "rank of the stacked intertwining system", _POINT)
    cmd("jacobian-dim", _cmd_jacobian_dim,
        "numeric tangent dimension of the defining equations at a point", _POINT)
    p = cmd("c1-from-ytilde", _cmd_c1_from_ytilde,
            "lift a single hypersurface point to matrix data (c = 1)", _YTILDE)
    p.add_argument("--n", type=int, required=True)
    cmd("c1-to-tot", _cmd_c1_to_tot, "push a c = 1 point to total-space coordinates", _POINT)

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
        inputs = [_read(getattr(args, dest)) for dest in _PATHS[:len(args.inputs)]]
        for obj, kind in zip(inputs, args.inputs):
            if kind is not None:
                _expect(obj, *kind)
        with np.errstate(all="ignore"):  # the library turns each non-finite value into a verdict
            payload, code = args.fn(args, tol, *inputs)
        _emit(payload, args.out)
        return code
    except ADHMKitError as exc:  # a ParseError's detail leaves out the path it prefixes
        _emit({"error": exc.kind, "path": getattr(exc, "path", None),
               "detail": getattr(exc, "detail", str(exc))}, None)
        return 2
    except Exception as exc:  # never leak a traceback through the CLI
        _emit({"error": "internal", "path": None, "detail": f"{type(exc).__name__}: {exc}"}, None)
        return 2


if __name__ == "__main__":
    sys.exit(main())
