"""Command-line front end.

Subcommands: trace, frac, zeta, product, stirling, branchmap, verify,
fermion.  Output is CSV (or JSON for verify) written to --out or stdout,
with LF line endings and no timestamps, so identical configurations give
byte-identical files.

Exit codes: 0 ok, 1 verification failure, 2 spec/parse error,
3 mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .contour import branch_map, write_grid_csv
from .errors import (
    EmptySpecError,
    HankelConditionsFailedError,
    NonpositiveConstantError,
    NotPolynomialError,
    OutOfRegularizationRegionError,
    QuadratureFailureError,
    RadiusTooLargeError,
    RouteDisagreementError,
    ZetaRegError,
)
from .fractional import RegulatorConfig, frac_regulator
from .generator import GeneratorSpec, load_generator, make_generator
from .integer_trace import trace_integer
from .stirling import stirling2_frac
from .verify import run_all
from .zeta_fn import gen_zeta, reg_product

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SPEC_ERROR = 2
EXIT_MATH_ERROR = 3

_PARSE_ERRORS = (EmptySpecError, NonpositiveConstantError, ValueError, KeyError,
                 OSError, json.JSONDecodeError)
_MATH_ERRORS = (HankelConditionsFailedError, RadiusTooLargeError,
                OutOfRegularizationRegionError, NotPolynomialError,
                QuadratureFailureError, RouteDisagreementError, OverflowError)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def parse_alpha_grid(spec: str) -> list:
    """'a:b:step' inclusive of both endpoints up to rounding."""
    try:
        a, b, step = (float(p) for p in spec.split(":"))
    except Exception as exc:
        raise ValueError(f"bad --alpha-grid {spec!r}; expected a:b:step") from exc
    if step <= 0 or b < a:
        raise ValueError(f"bad --alpha-grid {spec!r}; need step > 0 and b >= a")
    count = int((b - a) / step + 1e-9) + 1
    return [a + k * step for k in range(count)]


def parse_m_range(spec: str) -> list:
    try:
        lo, hi = (int(p) for p in spec.split(".."))
    except Exception as exc:
        raise ValueError(f"bad --m-range {spec!r}; expected a..b") from exc
    if lo < 0 or hi < lo:
        raise ValueError(f"bad --m-range {spec!r}")
    return list(range(lo, hi + 1))


def parse_grid(spec: str) -> tuple:
    try:
        re0, re1, im0, im1, nx, ny = spec.split(":")
        out = (float(re0), float(re1), float(im0), float(im1), int(nx), int(ny))
    except Exception as exc:
        raise ValueError(f"bad --grid {spec!r}; expected re0:re1:im0:im1:nx:ny") from exc
    if out[4] < 1 or out[5] < 1:
        raise ValueError("grid must be non-empty")
    return out


def _load_gen(args) -> GeneratorSpec:
    if args.generator is None:
        return make_generator([1], name="riemann")
    return load_generator(args.generator)


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_trace(args) -> int:
    g = _load_gen(args)
    rows = ["m,zeta_part,correction,total"]
    for m in parse_m_range(args.m_range):
        tv = trace_integer(g, m)
        rows.append(f"{m},{tv.zeta_part},{tv.correction},{tv.total}")
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_frac(args) -> int:
    g = _load_gen(args)
    cfg = RegulatorConfig(tol=args.tol, crosscheck=args.crosscheck, rho=args.rho)
    rows = ["alpha,re_total,im_total,route,err_estimate,crosscheck_delta"]
    for a in parse_alpha_grid(args.alpha_grid):
        R = frac_regulator(g, a, cfg)
        delta = "" if R.crosscheck_delta is None else _fmt(R.crosscheck_delta)
        rows.append(f"{_fmt(a)},{_fmt(R.total.real)},{_fmt(R.total.imag)},"
                    f"{R.route},{_fmt(R.err_estimate)},{delta}")
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_zeta(args) -> int:
    g = _load_gen(args)
    cfg = RegulatorConfig(tol=args.tol)
    rows = ["alpha,re_value,im_value"]
    for a in parse_alpha_grid(args.alpha_grid):
        v = gen_zeta(g, a, cfg)
        rows.append(f"{_fmt(a)},{_fmt(v.real)},{_fmt(v.imag)}")
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_product(args) -> int:
    g = _load_gen(args)
    p = reg_product(g, step=args.step)
    rows = ["generator,z_prime_0,product,step,richardson_order",
            f"{g.name},{_fmt(p.z_prime_0)},{_fmt(p.product)},"
            f"{_fmt(p.step)},{p.richardson_order}"]
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_stirling(args) -> int:
    alpha = complex(args.alpha.replace("i", "j")) if isinstance(args.alpha, str) \
        else complex(args.alpha)
    rows = ["alpha,k,re_value,im_value"]
    for k in range(1, args.k_max + 1):
        v = stirling2_frac(alpha, k)
        rows.append(f"{args.alpha},{k},{_fmt(v.real)},{_fmt(v.imag)}")
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_branchmap(args) -> int:
    g = _load_gen(args)
    re0, re1, im0, im1, nx, ny = parse_grid(args.grid)
    grid = branch_map(g, args.alpha, (re0, re1), (im0, im1), nx, ny, tol=args.tol)
    buf = io.StringIO()
    write_grid_csv(grid, buf)
    _emit(args, buf.getvalue())
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_generator(args.generator) if args.generator else None
    checks = run_all(generator=g)
    failed = [c for c in checks if c.status == "fail"]
    report = {
        "passed": not failed,
        "counts": {
            "pass": sum(c.status == "pass" for c in checks),
            "fail": len(failed),
            "skip": sum(c.status == "skip" for c in checks),
        },
        "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                   for c in checks],
    }
    _emit(args, json.dumps(report, indent=2) + "\n")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_fermion(args) -> int:
    if args.planck_h <= 0 or args.mass <= 0 or args.box_length <= 0:
        raise ValueError("physical parameters must be positive")
    g = _load_gen(args)
    tv = trace_integer(g, 2)
    stiffness = 48.0 * args.planck_h**2 / (args.mass * args.box_length**4) * float(tv.total)
    if tv.total == 0:
        kind = "zero"
    elif tv.total > 0:
        kind = "restoring"
    else:
        kind = "repulsive"
    rows = ["generator,sum_n2,stiffness,classification",
            f"{g.name},{tv.total},{_fmt(stiffness)},{kind}"]
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetareg",
        description="Generalized zeta-function regularization of sum(n^alpha) "
                    "for generators L = -h(t) d/dt")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, generator=True):
        if generator:
            p.add_argument("--generator", help="generator spec JSON path (default: h = 1)")
        p.add_argument("--out", help="output file (default: stdout)")

    def tol(p, default=1e-11):
        p.add_argument("--tol", type=float, default=default)

    p = sub.add_parser("trace", help="integer trace identities as exact rationals")
    common(p)
    p.add_argument("--m-range", default="0..3", help="a..b inclusive")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("frac", help="fractional regulator over an alpha grid")
    common(p)
    tol(p)
    p.add_argument("--alpha-grid", default="-0.5:2.5:0.25", help="a:b:step")
    p.add_argument("--rho", type=float, default=0.25)
    p.add_argument("--crosscheck", action="store_true",
                   help="also run the circle+ray route and record the delta")
    p.set_defaults(func=cmd_frac)

    p = sub.add_parser("zeta", help="generalized zeta function Z_L(alpha), Re alpha < 1")
    common(p)
    tol(p)
    p.add_argument("--alpha-grid", default="-2.5:0.9:0.2", help="a:b:step")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("product", help="regularized product exp(-Z_L'(0))")
    common(p)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("stirling", help="complex-order Stirling numbers {alpha, k}")
    common(p, generator=False)
    p.add_argument("--alpha", required=True, help="complex order, e.g. 0.5 or 2+0.5i")
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("branchmap", help="grid of Li_(-alpha)(e^(-Phi(z))) samples")
    common(p)
    tol(p, default=1e-9)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--grid", default="-3:3:-3:3:121:121",
                   help="re0:re1:im0:im1:nx:ny")
    p.set_defaults(func=cmd_branchmap)

    p = sub.add_parser("verify", help="run every invariant suite; JSON report")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fermion", help="fermion-box force stiffness from sum(n^2)")
    common(p)
    p.add_argument("--planck-h", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--box-length", type=float, default=1.0)
    p.set_defaults(func=cmd_fermion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_ERROR
    except ZetaRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
