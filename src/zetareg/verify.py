"""Self-verification suites: every documented invariant as a runnable check.

Each check returns a CheckResult with status "pass", "fail", or "skip"
(skips carry the reason, e.g. fractional checks on a generator that fails
the Hankel conditions).  ``run_all`` runs the ``CHECKS`` battery; the CLI
``verify`` command renders the results as JSON and exits nonzero on any
failure.  The test suite's acceptance criteria are these same checks, so
each invariant, with its generators, grids and closed forms, is written
once, here.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .contour import branch_map, regulator_circle_ray
from .errors import ZetaRegError
from .fractional import (
    finite_part_mellin,
    frac_action_direct_sum,
    frac_regulator,
    frac_regulator_fp,
    richardson_integer_limit,
)
from .generator import GeneratorSpec, make_generator, phi_eval_real, validate_hankel
from .integer_trace import trace_closed_form, trace_integer, trace_laurent_oracle
from .series import PowerSeries, exp_series
from .special import (
    bernoulli_values,
    eulerian_rows,
    gamma_c,
    polylog_expand_near_one,
    polylog_neg_int,
    polylog_series,
    zeta_c,
    zeta_neg_int,
)
from .stirling import eigen_check, stirling2_exact, stirling2_frac
from .zeta_fn import reg_product

F = Fraction

RIEMANN = make_generator([1], name="riemann")
CUBIC = make_generator([1, 0, 3], name="cubic")
QUINTIC = make_generator([1, 0, 0, 0, 5], name="quintic")

ALPHA_GRID = (-0.5, -0.1, 0.3, 0.5, 1.3, 1.7, 2.5)
NON_INTEGER_ALPHAS = (-0.7, -0.3, 0.25, 0.5, 0.75, 1.2, 1.5, 1.8, 2.3, 2.7)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass / fail / skip
    detail: str = ""


def _result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, status="pass" if ok else "fail", detail=detail)


def check_series_ring(seed: int = 20260809) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 32)
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(rng.randint(1, 5))
        a = PowerSeries(coeffs)
        prod = a * a.reciprocal()
        if prod.coeffs[0] != 1 or any(c != 0 for c in prod.coeffs[1:]):
            return _result("series_ring", False, "a * 1/a != 1")
    return _result("series_ring", True, "25 reciprocal roundtrips exact, order <= 32")


def check_bernoulli_expansion(table: tuple | None = None) -> CheckResult:
    """1/(e^t - 1) = sum B_k t^(k-1)/k!, checked coefficientwise."""
    K = 20
    B = bernoulli_values(K) if table is None else table
    emt_over_t = PowerSeries(exp_series(K + 1).coeffs[1:])
    got = emt_over_t.reciprocal()
    for k in range(min(K, len(B) - 1) + 1):
        if got[k] != B[k] / factorial(k):
            return _result("bernoulli_expansion", False,
                           f"coefficient {k}: {got[k]} != B_{k}/{k}!")
    return _result("bernoulli_expansion", True, f"coefficients 0..{K} exact")


def check_eulerian_table() -> CheckResult:
    rows = eulerian_rows(9)
    for m in range(1, 10):
        if sum(rows[m]) != factorial(m) or rows[m][0] != 1:
            return _result("eulerian_table", False, f"row {m} malformed")
        if any(rows[m][k] != rows[m][m - 1 - k] for k in range(m)):
            return _result("eulerian_table", False, f"row {m} asymmetric")
    return _result("eulerian_table", True, "rows 1..9: sums, symmetry")


def check_gamma_recurrence(seed: int = 314159) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) < 0.1 or (z.imag == 0 and z.real <= 0):
            continue
        lhs, rhs = gamma_c(z + 1), z * gamma_c(z)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    return _result("gamma_recurrence", worst <= 1e-12, f"worst rel {worst:.2e}")


def check_zeta_negative_integers() -> CheckResult:
    worst = max(abs(zeta_c(complex(-m)) - complex(zeta_neg_int(m))) for m in range(11))
    return _result("zeta_negative_integers", worst < 1e-12, f"worst {worst:.2e}")


def check_polylog_agreement() -> CheckResult:
    worst = 0.0
    for m in range(5):
        for x in (0.1, 0.5, 0.9):
            a = polylog_series(complex(-m), x, tol=1e-13)
            b = complex(polylog_neg_int(m, x))
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    a = polylog_expand_near_one(-0.5, -0.01)
    b = polylog_series(-0.5, math.exp(-0.01), tol=1e-13)
    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return _result("polylog_agreement", worst <= 1e-10, f"worst scaled {worst:.2e}")


def check_trace_routes(seed: int = 16180339887, count: int = 50) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(count):
        coeffs = [F(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 4)):
            coeffs.append(F(rng.randint(-5, 5)))
        g = make_generator(coeffs)
        for m in range(4):
            a = trace_integer(g, m).total
            b = trace_closed_form(g, m)
            c = trace_laurent_oracle(g, m)
            if not a == b == c:
                return _result("trace_routes", False,
                               f"disagreement at {coeffs}, m={m}")
    return _result("trace_routes", True, f"{count} random generators, m<=3, exact")


def check_trace_known_values() -> CheckResult:
    cases = [
        (CUBIC, 1, F(-25, 12)),
        (CUBIC, 2, F(0)),
        (CUBIC, 3, F(1, 120) + 60),
        (make_generator([1, 2]), 2, F(-20)),
        (make_generator([1, 2, 3]), 2, F(4)),
    ]
    for g, m, want in cases:
        if trace_integer(g, m).total != want:
            return _result("trace_known_values", False, f"{g.name} m={m}")
    return _result("trace_known_values", True,
                   "sum(n^2) = 0, -20, 4 for 1 + 3t^2, 1 + 2t, 1 + 2t + 3t^2; "
                   "cubic sum(n), sum(n^3) = -25/12, 60 + 1/120")


def check_trace_structure(seed: int = 31337) -> CheckResult:
    # parity: even inv_h => odd Phi => even-m corrections vanish
    for coeffs in ([1, 0, 3], [2, 0, 1, 0, 5], [1, 0, 0, 0, 7]):
        g = make_generator(coeffs)
        for m in (0, 2, 4):
            tv = trace_integer(g, m)
            if tv.correction != 0 or tv.total != zeta_neg_int(m):
                return _result("trace_structure", False, f"parity {coeffs} m={m}")
    # locality: the order-m correction sees inv_h indices <= m+1 only
    rng = random.Random(seed)
    base = [F(2), F(1), F(-3), F(2), F(1), F(-1), F(4)]
    for m in range(4):
        ref = trace_integer(make_generator(base), m)
        for _ in range(5):
            bumped = list(base)
            idx = rng.randint(m + 2, len(base) - 1)
            bumped[idx] += rng.randint(1, 9)
            tv = trace_integer(make_generator(bumped), m)
            if (tv.total, tv.correction) != (ref.total, ref.correction):
                return _result("trace_structure", False, f"locality {bumped} m={m}")
    return _result("trace_structure", True,
                   "parity (3 generators, m = 0, 2, 4) and locality (m <= 3, 20 bumps) exact")


def check_hankel_gate() -> CheckResult:
    ok = (validate_hankel(RIEMANN) and validate_hankel(CUBIC)
          and not validate_hankel(make_generator([1, 2]))
          # p(-x) = 1 - x/1000 + x^2/5e6 changes sign at x = 1382 and 3618
          and not validate_hankel(make_generator([1, F(1, 1000), F(1, 5 * 10**6)])))
    return _result("hankel_gate", ok, "[1], [1,0,3] pass; [1,2], [1,1e-3,2e-7] fail")


def check_riemann_reduction() -> CheckResult:
    worst = 0.0
    for a in ALPHA_GRID:
        want = zeta_c(complex(-a))
        worst = max(worst, abs(frac_regulator_fp(RIEMANN, a).total - want))
        worst = max(worst, abs(regulator_circle_ray(RIEMANN, a).total - want))
    return _result("riemann_reduction", worst <= 1e-8, f"worst {worst:.2e}")


def cubic_closed_form(a: complex) -> complex:
    """R_L(a) for 1/h = 1 + 3t^2, in closed form."""
    a = complex(a)
    return zeta_c(-a) - gamma_c(3 * (1 + a) / 2) * cmath.sin(cmath.pi * a / 2) \
        / gamma_c((3 + a) / 2)


def check_closed_form_regulator() -> CheckResult:
    fp = max(abs(frac_regulator(CUBIC, a).total - cubic_closed_form(a))
             for a in NON_INTEGER_ALPHAS)
    cr = max(abs(regulator_circle_ray(CUBIC, a).total - cubic_closed_form(a))
             for a in ALPHA_GRID)
    return _result("closed_form_regulator", fp <= 1e-8 and cr <= 1e-8,
                   f"worst fp_mellin {fp:.2e}, circle_ray {cr:.2e}")


def check_finite_part_oracle() -> CheckResult:
    worst = 0.0
    for a in NON_INTEGER_ALPHAS:
        want = gamma_c(-(a + 1) / 2) * gamma_c(3 * (a + 1) / 2) / (2 * gamma_c(a + 1))
        worst = max(worst, abs(finite_part_mellin(CUBIC, a).value - want))
    return _result("finite_part_oracle", worst <= 1e-9, f"worst {worst:.2e}")


def check_route_equivalence() -> CheckResult:
    worst = 0.0
    for g in (RIEMANN, CUBIC, QUINTIC):
        for a in ALPHA_GRID:
            worst = max(worst, abs(frac_regulator_fp(g, a).total
                                   - regulator_circle_ray(g, a).total))
    return _result("route_equivalence", worst <= 1e-7, f"worst {worst:.2e}")


def check_rho_invariance() -> CheckResult:
    worst = 0.0
    for g in (RIEMANN, CUBIC, QUINTIC):
        for a in ALPHA_GRID:
            r2 = regulator_circle_ray(g, a, rho=0.2).total
            r3 = regulator_circle_ray(g, a, rho=0.3).total
            worst = max(worst, abs(r2 - r3))
    return _result("rho_invariance", worst <= 1e-9, f"worst {worst:.2e}")


def check_integer_continuity() -> CheckResult:
    worst = 0.0
    for m in (1, 2, 3):
        lim = richardson_integer_limit(CUBIC, m).total
        worst = max(worst, abs(lim - complex(trace_integer(CUBIC, m).total)))
    return _result("integer_continuity", worst <= 1e-5, f"worst {worst:.2e}")


def check_eigen_identity() -> CheckResult:
    worst = max(eigen_check(a, n)
                for a in (0.5, 1.5, -0.3, 2 + 0.5j) for n in range(1, 9))
    return _result("eigen_identity", worst < 1e-10, f"worst {worst:.2e}")


def check_stirling_classical() -> CheckResult:
    worst = 0.0
    for m in range(11):
        for k in range(1, m + 1):
            got = stirling2_frac(complex(m), k)
            worst = max(worst, abs(got - stirling2_exact(m, k)))
    return _result("stirling_classical", worst == 0.0, f"worst {worst:.2e}")


def check_regularized_products() -> CheckResult:
    d1 = abs(reg_product(RIEMANN).product - math.sqrt(2 * math.pi))
    d2 = abs(reg_product(CUBIC).product - math.sqrt(2 * math.pi) * math.exp(-math.pi / 2))
    ok = d1 <= 1e-6 and d2 <= 1e-6
    return _result("regularized_products", ok, f"deltas {d1:.2e}, {d2:.2e}")


def check_direct_sum_asymptotics() -> CheckResult:
    """Li_{-a}(e^-Phi(t)) - Gamma(1+a) Phi^-(1+a) -> zeta(-a), off by O(Phi(t))."""
    a = 0.5
    details = []
    for g in (RIEMANN, CUBIC):
        ds = []
        for t in (1e-2, 1e-3):
            phi = phi_eval_real(g, t)
            v = frac_action_direct_sum(g, a, t, tol=1e-11)
            d = abs(v - gamma_c(1 + a) * phi ** (-1 - a) - zeta_c(-a))
            bound = 2 * abs(zeta_c(complex(-a - 1))) * phi + 1e-8
            if d > bound:
                return _result("direct_sum_asymptotics", False,
                               f"{g.name} t={t}: |d|={d:.2e} > {bound:.2e}")
            ds.append(d)
        # the discrepancy shrinks in proportion to Phi(t) ~ t
        if not 0.05 <= ds[1] / ds[0] < 0.2:
            return _result("direct_sum_asymptotics", False,
                           f"{g.name}: |d| ratio {ds[1] / ds[0]:.3f} outside [0.05, 0.2)")
        details.append(f"{g.name}: |d| = {ds[0]:.2e} -> {ds[1]:.2e}")
    return _result("direct_sum_asymptotics", True, "; ".join(details))


def check_phase_consistency() -> CheckResult:
    worst = max(abs(regulator_circle_ray(g, a).total.imag)
                for g in (CUBIC, QUINTIC) for a in (-0.5, 0.5, 2.5))
    return _result("phase_consistency", worst <= 1e-10, f"worst imag {worst:.2e}")


def check_branch_map_sanity() -> CheckResult:
    """|Li_{-1/2}(e^-Phi(z))| peaks at the branch points z + z^3 = -2 pi i k."""
    n = 161
    grid = branch_map(CUBIC, 0.5, (-3.0, 3.0), (-3.0, 3.0), n, n)
    mags = np.where(grid.defined, np.abs(grid.values), 0.0)
    xs = np.linspace(-3, 3, n)
    zs = xs[None, :] + 1j * xs[:, None]

    def roots_for(ks):
        return [r for k in ks for r in np.roots([1.0, 0.0, 1.0, 2j * math.pi * k])
                if abs(r.real) <= 3 and abs(r.imag) <= 3]

    # near each k in {0, +-1} branch point the largest magnitude within 0.3
    # sits within 0.05 of the point itself
    worst = 0.0
    for r in roots_for((0, 1, -1)):
        near = np.abs(zs - r) < 0.3
        best = np.unravel_index(np.argmax(np.where(near, mags, -np.inf)), mags.shape)
        worst = max(worst, abs(zs[best] - r))
    if worst >= 0.05:
        return _result("branch_map_sanity", False,
                       f"maximum {worst:.4f} from a k in {{0, +-1}} branch point")
    # every local maximum above 3 lies within 0.05 of some branch point
    masked = np.pad(np.where(grid.defined, mags, -np.inf), 1, constant_values=-np.inf)
    nbhd = np.max([masked[1 + dy:n + 1 + dy, 1 + dx:n + 1 + dx]
                   for dy in (-1, 0, 1) for dx in (-1, 0, 1)], axis=0)
    peaks = zs[(masked[1:-1, 1:-1] >= 3.0) & (masked[1:-1, 1:-1] >= nbhd)]
    roots = np.array(roots_for(range(-8, 9)))
    stray = [z for z in peaks if np.min(np.abs(z - roots)) >= 0.05]
    if stray:
        return _result("branch_map_sanity", False, f"stray maximum at {stray[0]}")
    return _result("branch_map_sanity", len(peaks) >= 10,
                   f"k in {{0, +-1}} maxima within {worst:.4f}; {len(peaks)} maxima "
                   f"above 3, all near branch points")


def generator_checks(g: GeneratorSpec) -> list:
    """Checks for a user-supplied generator; fractional ones skip with a
    reason when the Hankel conditions fail."""
    out = []
    for m in range(4):
        a = trace_integer(g, m).total
        c = trace_laurent_oracle(g, m)
        b = trace_closed_form(g, m)
        if not a == b == c:
            out.append(_result("generator_traces", False, f"m={m} routes disagree"))
            break
    else:
        out.append(_result("generator_traces", True, "m=0..3 routes agree exactly"))

    if g.is_polynomial and g.hankel_passed:
        out.append(_result("generator_hankel", True,
                           "-Phi(-x) positive and increasing (exact)"))
        worst = 0.0
        try:
            for a in (0.5, 1.7):
                worst = max(worst, abs(frac_regulator_fp(g, a).total
                                       - regulator_circle_ray(g, a).total))
            out.append(_result("generator_fractional_routes", worst <= 1e-7,
                               f"worst {worst:.2e}"))
        except ZetaRegError as exc:
            out.append(_result("generator_fractional_routes", False, str(exc)))
    else:
        reason = ("series-only generator" if not g.is_polynomial
                  else "Hankel conditions failed (-Phi(-x) not positive and increasing)")
        out.append(CheckResult("generator_hankel", "skip", reason))
        out.append(CheckResult("generator_fractional_routes", "skip",
                               f"skipped: {reason}"))
    return out


CHECKS = (
    check_series_ring,
    check_bernoulli_expansion,
    check_eulerian_table,
    check_gamma_recurrence,
    check_zeta_negative_integers,
    check_polylog_agreement,
    check_trace_routes,
    check_trace_known_values,
    check_trace_structure,
    check_hankel_gate,
    check_riemann_reduction,
    check_closed_form_regulator,
    check_finite_part_oracle,
    check_route_equivalence,
    check_rho_invariance,
    check_integer_continuity,
    check_eigen_identity,
    check_stirling_classical,
    check_regularized_products,
    check_direct_sum_asymptotics,
    check_phase_consistency,
    check_branch_map_sanity,
)


def run_all(generator: GeneratorSpec | None = None) -> list:
    checks = [check() for check in CHECKS]
    if generator is not None:
        checks.extend(generator_checks(generator))
    return checks
