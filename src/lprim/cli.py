"""Batch command-line front end.

Subcommands map one-to-one onto library operations; inputs are DSL
expressions or JSON descriptors, outputs are CSV rows with a fixed
17-significant-digit format so identical invocations diff byte-identically.
Exit codes: 0 success, 1 usage/input error, 2 tolerance or assertion
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

from .convolution import conv_lq, star
from .errors import LprimError, SchemaError
from .expr import FunctionExpr
from .fourier import fourier, parseval_check, transform_of
from .higher import IteratedMultiplier, NthDistribution, pair_n
from .lpspace import (
    DeltaTrain,
    Multiplier,
    PrimitiveDistribution,
    dual_norm,
    membership_check,
    pair,
    reconstruct,
    step_approximate,
)
from .parser import parse_expr
from .poisson import HalfPlanePoint, boundary_gaps, extension_result
from .quadrature import QuadConfig
from .verify import run_suites


@dataclass
class RunReport:
    command: str
    inputs: str  # canonical JSON of the invocation
    outputs: list = field(default_factory=list)  # rows: (label, value, err_est) by default
    pass_fail: list = field(default_factory=list)  # (name, ok, tolerance)
    wall_time: float = 0.0
    header: str = "label,value,err_est"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(v):
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def load_descriptor(text):
    """Build a FunctionExpr / PrimitiveDistribution / Multiplier /
    DeltaTrain from a DSL string or JSON descriptor."""
    text = text.strip()
    if not text.startswith("{"):
        return parse_expr(text)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", pointer="/") from exc
    return _from_json(obj)


def _expr_from_json(obj, pointer):
    if isinstance(obj, str):
        return parse_expr(obj)
    if not isinstance(obj, dict):
        raise SchemaError("expected a string or object", pointer=pointer)
    if "expr" not in obj:
        raise SchemaError("missing 'expr'", pointer=pointer + "/expr")
    e = parse_expr(obj["expr"])
    sing = obj.get("singularities", [])
    support = obj.get("support")
    if not isinstance(sing, list):
        raise SchemaError("'singularities' must be a list",
                          pointer=pointer + "/singularities")
    if support is not None and (not isinstance(support, list) or len(support) != 2):
        raise SchemaError("'support' must be [lo, hi]",
                          pointer=pointer + "/support")
    return replace(
        e,
        singularities=tuple(sorted(set(e.singularities) | {float(s) for s in sing})),
        support=tuple(float(v) for v in support) if support else e.support,
        decay=("compact",) if support else e.decay,
    )


def _exponent(obj, key, pointer, lo=1.0):
    if key not in obj:
        raise SchemaError(f"missing '{key}'", pointer=f"{pointer}/{key}")
    try:
        v = float(obj[key])
    except (TypeError, ValueError):
        raise SchemaError(f"'{key}' must be a number", pointer=f"{pointer}/{key}")
    if not v >= lo:
        raise SchemaError(f"'{key}' must be >= {lo:g}", pointer=f"{pointer}/{key}")
    return v


def _from_json(obj):
    if "primitive" in obj:
        p = _exponent(obj, "p", "")
        F = _expr_from_json(obj["primitive"], "/primitive")
        return PrimitiveDistribution(F, p)
    if "density" in obj:
        q = _exponent(obj, "q", "", lo=1.0)
        if q <= 1.0:
            raise SchemaError("'q' must be > 1 (use 'inf' for bounded)",
                              pointer="/q")
        g = _expr_from_json(obj["density"], "/density")
        return Multiplier(g, q)
    if "atoms" in obj:
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or not all(
            isinstance(a, list) and len(a) == 3 for a in atoms
        ):
            raise SchemaError("'atoms' must be a list of [a, x, y] triples",
                              pointer="/atoms")
        return DeltaTrain([(float(a), float(x), float(y)) for a, x, y in atoms])
    if "expr" in obj:
        return _expr_from_json(obj, "")
    raise SchemaError(
        "descriptor needs one of 'primitive', 'density', 'atoms', 'expr'",
        pointer="/",
    )


def _expr_arg(text):
    obj = load_descriptor(text)
    if isinstance(obj, PrimitiveDistribution):
        return obj.F
    if isinstance(obj, Multiplier):
        return obj.g
    if not isinstance(obj, FunctionExpr):
        raise SchemaError("expected a function descriptor", pointer="/")
    return obj


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--abs-tol", type=float, default=None)
    shared.add_argument("--rel-tol", type=float, default=None)
    shared.add_argument("--out", default=None,
                        help="write CSV here instead of stdout")
    top = _Parser(prog="lprim", description="L^p primitive integral toolkit",
                  parents=[shared])
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        c = sub.add_parser(name, parents=[shared], **kwargs)
        return c

    c = cmd("norm", help="L'^p norm of a distribution")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--f", required=True)

    c = cmd("pair", help="pairing integral of f with a multiplier")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--n", type=int, default=1, help="distribution order")
    c.add_argument("--F", required=True, help="primitive (or atoms descriptor)")
    c.add_argument("--g", required=True, help="multiplier density")

    c = cmd("dualnorm", help="norm via its dual characterization")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--f", required=True)

    c = cmd("reconstruct", help="regularized primitive values F_n(x)")
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--F", required=True)
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--ns", default="4,16,64", help="comma-separated n values")

    c = cmd("steps", help="delta-train/step approximation errors")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--F", required=True)
    c.add_argument("--ns", default="4,16,64")

    c = cmd("conv", help="Young convolution f*g into L'^r")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--r", type=float, required=True)
    c.add_argument("--F", required=True)
    c.add_argument("--g", required=True)
    c.add_argument("--x", default="0", help="evaluation points for the density")

    c = cmd("star", help="Banach-algebra product of two L'^1 elements")
    c.add_argument("--F", required=True)
    c.add_argument("--G", required=True)
    c.add_argument("--x", default="0")

    c = cmd("fourier", help="transform values of f in L'^1")
    c.add_argument("--F", required=True)
    c.add_argument("--s", required=True, help="comma-separated s values")
    c.add_argument("--primitive-only", action="store_true",
                   help="report F^ instead of f^ = is F^")

    c = cmd("parseval", help="Parseval identity check in L'^2")
    c.add_argument("--F", required=True)
    c.add_argument("--G", required=True)
    c.add_argument("--grid", type=int, default=2 ** 14)

    c = cmd("poisson", help="Poisson extension value at (x, y)")
    c.add_argument("--F", required=True)
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--y", type=float, required=True)
    c.add_argument("--n", type=int, default=0)

    c = cmd("poisson-converge", help="boundary norms ||U_y - F||_p")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--F", required=True)
    c.add_argument("--ys", default="1,0.3,0.1")

    c = cmd("membership", help="certify that a density lies in L'^p")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--f", required=True)
    c.add_argument("--alpha", type=float, default=None)

    c = cmd("verify", help="run named acceptance suites")
    c.add_argument("--suite", default="all")
    return top


def _product_rows(res, xs, density_first):
    """The primitive(x) and density(x) rows of a conv or star result, the
    values of each kind from one call; a density row carries its integral
    family's err_est."""
    prim = res.payload.F.values(xs)
    fn = res.diagnostics.get("density")
    dens = None if fn is None else fn(xs)
    rows = []
    for i, x in enumerate(xs):
        pair = [(f"primitive({x:g})", float(prim[i]), 0.0)]
        if dens is not None:
            pair.insert(0 if density_first else 1,
                        (f"density({x:g})", float(dens[i]), fn.max_err))
        rows += pair
    return rows


def _run(args, cfg):
    rows = []
    checks = []
    cmd = args.command

    if cmd == "norm":
        f = PrimitiveDistribution(_expr_arg(args.f), args.p, cfg=cfg)
        rows.append(("norm", f.norm, 0.0))
    elif cmd == "pair":
        Fd = load_descriptor(args.F)
        g = _expr_arg(args.g)
        q = math.inf if args.p == 1.0 else args.p / (args.p - 1.0)
        if isinstance(Fd, DeltaTrain):
            from .lpspace import pair_delta_train

            rows.append(("pair", pair_delta_train(Fd, Multiplier(g, q, cfg=cfg)), 0.0))
        elif args.n > 1:
            F = Fd.F if isinstance(Fd, PrimitiveDistribution) else Fd
            f = NthDistribution(F, args.p, args.n, cfg=cfg)
            rows.append(("pair", pair_n(f, IteratedMultiplier(g, q, args.n, cfg=cfg), cfg), 0.0))
        else:
            F = Fd.F if isinstance(Fd, PrimitiveDistribution) else Fd
            f = PrimitiveDistribution(F, args.p, cfg=cfg)
            rows.append(("pair", pair(f, Multiplier(g, q, cfg=cfg), cfg=cfg), 0.0))
    elif cmd == "dualnorm":
        f = PrimitiveDistribution(_expr_arg(args.f), args.p, cfg=cfg)
        rows.append(("dualnorm", dual_norm(f, cfg=cfg), 0.0))
    elif cmd == "reconstruct":
        f = PrimitiveDistribution(_expr_arg(args.F), args.p, cfg=cfg)
        for n in _floats(args.ns):
            rows.append((f"F_{n:g}({args.x:g})", reconstruct(f, args.x, n, cfg=cfg), 0.0))
    elif cmd == "steps":
        f = PrimitiveDistribution(_expr_arg(args.F), args.p, cfg=cfg)
        for n in _floats(args.ns):
            approx = step_approximate(f, int(n), cfg=cfg)
            rows.append((f"step_error_n={int(n)}", approx.error, 0.0))
    elif cmd == "conv":
        f = PrimitiveDistribution(_expr_arg(args.F), args.p, cfg=cfg)
        res = conv_lq(f, _expr_arg(args.g), args.r, cfg=cfg)
        rows.append(("young_bound", res.diagnostics["young_bound"], 0.0))
        rows.append(("norm_r", res.payload.norm, 0.0))
        rows += _product_rows(res, _floats(args.x), density_first=False)
    elif cmd == "star":
        f = PrimitiveDistribution(_expr_arg(args.F), 1.0, cfg=cfg)
        g = PrimitiveDistribution(_expr_arg(args.G), 1.0, cfg=cfg)
        res = star(f, g, cfg=cfg)
        rows.append(("norm_1", res.payload.norm, 0.0))
        rows += _product_rows(res, _floats(args.x), density_first=True)
    elif cmd == "fourier":
        f = PrimitiveDistribution(_expr_arg(args.F), 1.0, cfg=cfg)
        Fhat = transform_of(f, cfg)  # every s shares f's samplings
        for s in _floats(args.s):
            v = Fhat.at(s) if args.primitive_only else fourier(f, s, cfg)
            rows.append((_fmt(s), v.re, v.im, v.err_est))
    elif cmd == "parseval":
        f = PrimitiveDistribution(_expr_arg(args.F), 2.0, cfg=cfg)
        g = PrimitiveDistribution(_expr_arg(args.G), 2.0, cfg=cfg)
        lhs, rhs = parseval_check(f, g, grid=args.grid, cfg=cfg)
        rows.append(("inner_product", lhs, 0.0))
        rows.append(("parseval_rhs", rhs, 0.0))
        rows.append(("gap", abs(lhs - rhs), 0.0))
    elif cmd == "poisson":
        F = _expr_arg(args.F)
        pt = HalfPlanePoint(args.x, args.y)
        f = NthDistribution(F, 2.0, args.n, cfg=cfg) if args.n >= 1 else F
        u = extension_result(f, pt, cfg)
        rows.append((f"u({args.x:g},{args.y:g})", u.value, u.err_est))
    elif cmd == "poisson-converge":
        f = PrimitiveDistribution(_expr_arg(args.F), args.p, cfg=cfg)
        ys = _floats(args.ys)
        norms, errors, contraction = boundary_gaps(f, ys, cfg)
        for y, v, e in zip(ys, norms, errors):
            rows.append((_fmt(y), v, e))
        checks.append(("poisson-contraction", contraction, 1e-6))
    elif cmd == "membership":
        alpha = args.alpha if args.alpha is not None else 1.0 / args.p + 0.5
        res = membership_check(_expr_arg(args.f), args.p, alpha=alpha, cfg=cfg)

        def tri(v):
            return -1.0 if v is None else float(v)

        rows.append(("verdict", res.verdict, 0.0))
        rows.append(("integral_zero", tri(res.integral_zero), 0.0))
        rows.append(("weighted_exists", tri(res.weighted_exists), 0.0))
        rows.append(("conditional", tri(res.conditional), 0.0))
    elif cmd == "verify":
        records, ok = run_suites(args.suite.split(","))
        for r in records:
            label, status, value, tolerance = r.row()
            rows.append((f"{label}[{status}]", value, tolerance))
            checks.append((label, r.passed, tolerance))
    return rows, checks


def dispatch(argv):
    """Parse argv, run the mapped operation, return (report, exit_code)."""
    parser = build_parser()
    t0 = time.monotonic()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        report = RunReport("usage-error", json.dumps({"argv": list(argv)}))
        report.outputs.append(("error", str(exc), 0.0))
        return report, 1

    overrides = {}
    if args.abs_tol is not None:
        overrides["abs_tol"] = args.abs_tol
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    cfg = QuadConfig.from_env(**overrides)

    inputs = {k: v for k, v in sorted(vars(args).items()) if k != "out"}
    report = RunReport(args.command, json.dumps(inputs, sort_keys=True),
                       header=_HEADERS.get(args.command, "label,value,err_est"))
    try:
        rows, checks = _run(args, cfg)
    except (SchemaError, LprimError) as exc:
        report.outputs.append(("error", f"{type(exc).__name__}: {exc}", 0.0))
        report.wall_time = time.monotonic() - t0
        return report, 1
    report.outputs = rows
    report.pass_fail = checks
    report.wall_time = time.monotonic() - t0
    code = 0 if all(ok for _, ok, _ in checks) else 2
    return report, code


_HEADERS = {"fourier": "s,re,im,err_est", "poisson-converge": "y,norm,err_est"}


def render_csv(report):
    lines = [report.header]
    for row in report.outputs:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def main(argv=None):
    report, code = dispatch(sys.argv[1:] if argv is None else list(argv))
    csv = render_csv(report)
    # --out is re-scanned here because usage errors bypass arg storage
    argv = sys.argv[1:] if argv is None else list(argv)
    path = None
    for i, a in enumerate(argv):
        if a == "--out" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--out="):
            path = a.split("=", 1)[1]
    if path:
        with open(path, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if code == 2:
        sys.stderr.write("tolerance violations detected\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
