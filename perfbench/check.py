"""Check each op's output against the oracles and classify failures.

An op fails as ``timeout`` (overran its deadline), ``raised`` (raised, or
exited non-zero, where a value was expected), ``not_refused`` (exit 0 where
a refusal, exit 3, was expected) or ``wrong`` (a value missed its
reference).  The allowed error of a value is its own ``err_estimate`` where
the CSV carries one, else the bound of the matching ``zetareg verify``
check: 1e-8 for regulator values, 1e-6 for products, exact equality for
rationals.  Every bound also admits the rounding of the reference to a
double (a few units in the last place), which no printed double can beat.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import random
from fractions import Fraction as F

import numpy as np

import oracles as O

EPS = 2.0 ** -52
REPR = 4 * EPS          # rounding of an exact reference to a printed double
REGULATOR_BOUND = 1e-8
PRODUCT_BOUND = 1e-6
STIFFNESS_BOUND = 1e-12  # float product of exact inputs
BRANCH_TOL = 1e-9        # the branchmap command's default --tol
DEFINED_MARGIN = 1e-9    # cells with |w| >= 1 - margin are undefined
MAX_DIGITS = 16.0
LAURENT_MAX_M = 24       # largest sampled row cross-checked by the Laurent route
SYMPY_SHARE = 0.05       # share of trace ops whose sample is also checked by sympy


class Wrong(Exception):
    pass


def scaled_error(v, ref) -> float:
    """|v - ref| / max(1, |ref|), exact when ref is a Fraction."""
    if isinstance(ref, F):
        err = abs(F(v.real) - ref) + abs(F(v.imag)) if isinstance(v, complex) else abs(F(v) - ref)
        return float(err) / max(1.0, abs(float(ref)))
    return abs(complex(v) - complex(ref)) / max(1.0, abs(ref))


def _finite(x) -> bool:
    return isinstance(x, F) or cmath.isfinite(complex(x))


def _close(v, ref, bound: float, what: str) -> float:
    """Digits of v against ref, -log10 of the scaled error capped at
    MAX_DIGITS; raise Wrong if that error exceeds bound + REPR, or if the
    value, the reference or the bound is not finite (NaN compares False)."""
    if not (_finite(v) and _finite(ref) and math.isfinite(bound)):
        raise Wrong(f"{what}: non-finite value {v!r}, reference {ref!r} or bound {bound!r}")
    err = scaled_error(v, ref)
    if err > bound + REPR:
        raise Wrong(f"{what}: {v!r} vs {complex(ref) if isinstance(ref, F) else ref!r}")
    return MAX_DIGITS if err == 0 else min(MAX_DIGITS, -math.log10(err))


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _check_frac(op, coeffs, text) -> list:
    rows = _rows(text)
    if len(rows) != len(op["alphas"]):
        raise Wrong(f"{len(rows)} rows for {len(op['alphas'])} alphas")
    out = []
    for row, a in zip(rows, op["alphas"]):
        alpha = float(a)
        if float(row["alpha"]) != alpha:
            raise Wrong(f"alpha column {row['alpha']} != {a}")
        v = complex(float(row["re_total"]), float(row["im_total"]))
        ref = O.regulator(coeffs, F(alpha))
        bound = float(row["err_estimate"])
        if "--crosscheck" in op["argv"] and row["route"] == "fp_mellin":
            delta = float(row["crosscheck_delta"] or "nan")
            if not (math.isfinite(delta) and delta <= 1e-7):
                raise Wrong(f"crosscheck_delta {row['crosscheck_delta']!r} at alpha={a}")
        scale = max(1.0, abs(complex(ref)))
        out.append(_close(v, ref, bound / scale, f"R({a})"))
    return out


def _check_zeta(op, coeffs, text) -> list:
    rows = _rows(text)
    if len(rows) != len(op["alphas"]):
        raise Wrong(f"{len(rows)} rows for {len(op['alphas'])} alphas")
    out = []
    for row, a in zip(rows, op["alphas"]):
        if float(row["alpha"]) != float(a):
            raise Wrong(f"alpha column {row['alpha']} != {a}")
        v = complex(float(row["re_value"]), float(row["im_value"]))
        ref = O.regulator(coeffs, -F(float(a)))
        out.append(_close(v, ref, REGULATOR_BOUND, f"Z({a})"))
    return out


def _check_product(op, coeffs, text) -> list:
    (row,) = _rows(text)
    zp, prod = O.product(coeffs)
    return [_close(float(row["z_prime_0"]), zp, PRODUCT_BOUND, "Z'(0)"),
            _close(float(row["product"]), prod, PRODUCT_BOUND, "product")]


def _cross_check_trace(coeffs, polynomial: bool, m: int, rng: random.Random):
    """Row m of the oracle against the library's closed form (m <= 3) or its
    Laurent-bookkeeping route, and on a few ops against sympy."""
    from zetareg import make_generator
    from zetareg.integer_trace import trace_closed_form, trace_laurent_oracle
    g = make_generator(coeffs, polynomial=polynomial)
    route = trace_closed_form(g, m) if m <= 3 else trace_laurent_oracle(g, m)
    if route != O.trace_row(coeffs, m)[2]:
        name = "closed-form" if m <= 3 else "Laurent"
        raise Wrong(f"the library's {name} route disagrees with the oracle at m={m}")
    if rng.random() < SYMPY_SHARE:
        k = min(m, 6)
        if O.trace_sympy(coeffs, k) != O.trace_row(coeffs, k)[2]:
            raise Wrong(f"sympy disagrees with the oracle at m={k}")


def _check_trace(op, coeffs, text, rng: random.Random, polynomial: bool = True) -> list:
    rows = _rows(text)
    if [int(r["m"]) for r in rows] != list(range(op["m_hi"] + 1)):
        raise Wrong("m column does not match the requested range")
    for r in rows:
        m = int(r["m"])
        want = O.trace_row(coeffs, m, op["m_hi"])
        got = (F(r["zeta_part"]), F(r["correction"]), F(r["total"]))
        if got != want:
            raise Wrong(f"trace row m={m}: {got} != {want}")
    for m in (rng.randint(0, 3), rng.randint(4, max(4, min(op["m_hi"], LAURENT_MAX_M)))):
        if m <= op["m_hi"]:
            _cross_check_trace(coeffs, polynomial, m, rng)
    return [MAX_DIGITS] * len(rows)


def _check_fermion(op, coeffs, text, rng: random.Random, polynomial: bool = True) -> list:
    (row,) = _rows(text)
    total = O.trace_row(coeffs, 2)[2]
    _cross_check_trace(coeffs, polynomial, 2, rng)
    if F(row["sum_n2"]) != total:
        raise Wrong(f"sum_n2 {row['sum_n2']} != {total}")
    hb, mass, length = (F(float(x)) for x in op["phys"])
    stiffness = 48 * hb ** 2 / (mass * length ** 4) * total
    kind = "zero" if total == 0 else ("restoring" if total > 0 else "repulsive")
    if row["classification"] != kind:
        raise Wrong(f"classification {row['classification']} != {kind}")
    return [_close(float(row["stiffness"]), stiffness, STIFFNESS_BOUND, "stiffness")]


def _check_branchmap(op, coeffs, text, rng: random.Random) -> list:
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    n = op["n"]
    re0, re1, im0, im1 = op["window"]
    xs, ys = np.linspace(re0, re1, n), np.linspace(im0, im1, n)
    if data.shape != (n * n, 5):
        raise Wrong(f"grid shape {data.shape}, want {(n * n, 5)}")
    zx, zy = np.meshgrid(xs, ys)
    if not (np.array_equal(data[:, 0], zx.ravel()) and np.array_equal(data[:, 1], zy.ravel())):
        raise Wrong("grid coordinates differ from the requested window")
    # independent w = exp(-Phi(z)), Phi by numpy's polyval
    phi_coeffs = [float(c) / (k + 1) for k, c in enumerate(coeffs)][::-1] + [0.0]
    w = np.exp(-np.polyval(phi_coeffs, zx + 1j * zy)).ravel()
    aw = np.abs(w)
    gap = aw - (1.0 - DEFINED_MARGIN)
    defined = data[:, 4] == 1
    firm = np.abs(gap) > 1e-12
    if np.any(defined[firm] != (gap[firm] < 0)):
        raise Wrong("defined flags differ from |exp(-Phi)| < 1 - 1e-9")
    if np.any(np.isfinite(data[~defined, 2])) or not np.all(np.isfinite(data[defined, 2:4])):
        raise Wrong("undefined cells must be nan and defined cells finite")
    # sampled values: direct-series cells and near-one cells (|w| > 0.99);
    # cells within 1e-3 of the w = 1 singularity are left out, where the
    # double rounding of Phi(z) alone moves Li by more than the tolerance
    ok = defined & (np.abs(1.0 - w) > 1e-3)
    out = []
    alpha = F(op["alpha"])
    for pool in (np.nonzero(ok & (aw <= 0.99))[0], np.nonzero(ok & (aw > 0.99))[0]):
        for i in rng.sample(list(pool), min(3, len(pool))):
            v = data[i, 2] * complex(math.cos(data[i, 3]), math.sin(data[i, 3]))
            ref = O.polylog_at(coeffs, alpha, complex(data[i, 0], data[i, 1]))
            out.append(_close(v, ref, BRANCH_TOL, f"Li at z={data[i, 0]}+{data[i, 1]}i"))
    return out


_CHECKERS = {"frac": _check_frac, "zeta": _check_zeta, "product": _check_product,
             "trace": _check_trace, "fermion": _check_fermion}


def check_op(op: dict, spec: dict, rec: dict, text: str | None, seed: int) -> dict:
    """{"status": pass|timeout|raised|not_refused|wrong, "digits": [...],
    "detail": str} for one executed op."""
    res = {"status": "pass", "digits": [], "detail": ""}
    if rec["status"] == "timeout":
        res["status"] = "timeout"
    elif op["expect"] == "refusal":
        if rec["status"] == "ok" and rec["rc"] == 0:
            res["status"], res["detail"] = "not_refused", "exit 0 where exit 3 was expected"
        elif rec["status"] != "ok" or rec["rc"] != 3:
            res["status"] = "raised"
            res["detail"] = rec["error"] or f"exit {rec['rc']}: {rec['stderr'].strip()}"
    elif rec["status"] != "ok" or rec["rc"] != 0:
        res["status"] = "raised"
        res["detail"] = rec["error"] or f"exit {rec['rc']}: {rec['stderr'].strip()[-200:]}"
    else:
        coeffs = O.coeffs_of(spec)
        rng = random.Random(f"{seed}:{op['id']}")
        try:
            if op["kind"] == "branchmap":
                res["digits"] = _check_branchmap(op, coeffs, text, rng)
            elif op["kind"] in ("trace", "fermion"):
                res["digits"] = _CHECKERS[op["kind"]](op, coeffs, text, rng, spec["polynomial"])
            else:
                res["digits"] = _CHECKERS[op["kind"]](op, coeffs, text)
        except (Wrong, KeyError, ValueError) as exc:
            res["status"], res["detail"] = "wrong", f"{type(exc).__name__}: {exc}"[:300]
    return res
