"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure); the assertions carry the same condition.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from zetareg.contour import branch_map, regulator_circle_ray
from zetareg.fractional import (
    frac_action_direct_sum,
    frac_regulator,
    frac_regulator_fp,
    richardson_integer_limit,
)
from zetareg.generator import make_generator, phi_eval_real
from zetareg.integer_trace import (
    trace_closed_form,
    trace_integer,
    trace_laurent_oracle,
)
from zetareg.special import gamma_c, zeta_c
from zetareg.stirling import eigen_check
from zetareg.zeta_fn import reg_product

F = Fraction

RIEMANN = make_generator([1], name="riemann")
CUBIC = make_generator([1, 0, 3], name="cubic")
QUINTIC = make_generator([1, 0, 0, 0, 5], name="quintic")

ALPHA_GRID = (-0.5, -0.1, 0.3, 0.5, 1.3, 1.7, 2.5)
NON_INTEGER_ALPHAS = (-0.7, -0.3, 0.25, 0.5, 0.75, 1.2, 1.5, 1.8, 2.3, 2.7)


def check(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def cubic_closed_form(a: complex) -> complex:
    a = complex(a)
    return zeta_c(-a) - gamma_c(3 * (1 + a) / 2) * cmath.sin(cmath.pi * a / 2) \
        / gamma_c((3 + a) / 2)


def test_criterion_01_riemann_reduction():
    worst = 0.0
    for a in ALPHA_GRID:
        want = zeta_c(complex(-a))
        worst = max(worst, abs(frac_regulator_fp(RIEMANN, a).total - want))
        worst = max(worst, abs(regulator_circle_ray(RIEMANN, a).total - want))
    check(1, "riemann-reduction", worst <= 1e-8,
          f"worst |R - zeta(-a)| = {worst:.2e} over both routes")


def test_criterion_02_integer_trace_identities():
    rng = random.Random(16180339887)
    ok = True
    for _ in range(50):
        coeffs = [F(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 4)):
            coeffs.append(F(rng.randint(-5, 5)))
        g = make_generator(coeffs)
        for m in range(4):
            a = trace_integer(g, m).total
            ok = ok and a == trace_closed_form(g, m) == trace_laurent_oracle(g, m)
    ok = ok and trace_integer(CUBIC, 1).total == F(-25, 12)
    ok = ok and trace_integer(CUBIC, 2).total == 0
    ok = ok and trace_integer(CUBIC, 3).total == F(1, 120) + 60
    check(2, "integer-trace-identities", ok,
          "50 random generators exact; cubic values -25/12, 0, 1/120+60")


def test_criterion_03_conclusion_triple():
    vals = [trace_integer(make_generator(c), 2).total
            for c in ([1, 0, 3], [1, 2], [1, 2, 3])]
    ok = vals == [0, -20, 4]
    shown = ", ".join(str(v) for v in vals)
    check(3, "conclusion-triple", ok, f"sum(n^2) = {shown} for the three generators")


def test_criterion_04_closed_form_fractional():
    worst = max(abs(frac_regulator(CUBIC, a).total - cubic_closed_form(a))
                for a in NON_INTEGER_ALPHAS)
    check(4, "closed-form-fractional", worst <= 1e-8,
          f"worst |R - closed form| = {worst:.2e} at 10 non-integer alpha")


def test_criterion_05_continuity_at_integers():
    worst = 0.0
    for m in (1, 2, 3):
        lim = richardson_integer_limit(CUBIC, m).total
        worst = max(worst, abs(lim - complex(trace_integer(CUBIC, m).total)))
    check(5, "continuity-at-integers", worst <= 1e-5,
          f"worst |limit - integer value| = {worst:.2e} for m = 1, 2, 3")


def test_criterion_06_regularized_products():
    d1 = abs(reg_product(RIEMANN).product - math.sqrt(2 * math.pi))
    d2 = abs(reg_product(CUBIC).product
             - math.sqrt(2 * math.pi) * math.exp(-math.pi / 2))
    check(6, "regularized-products", d1 <= 1e-6 and d2 <= 1e-6,
          f"|prod - sqrt(2pi)| = {d1:.2e}, |prod - sqrt(2pi)e^(-pi/2)| = {d2:.2e}")


def test_criterion_07_eigen_identity():
    worst = max(eigen_check(a, n)
                for a in (0.5, 1.5, -0.3, 2 + 0.5j) for n in range(1, 9))
    check(7, "fractional-operator-eigen-identity", worst < 1e-10,
          f"worst deviation = {worst:.2e} for n <= 8")


def test_criterion_08_route_equivalence():
    worst_eq = 0.0
    worst_rho = 0.0
    for g in (RIEMANN, CUBIC, QUINTIC):
        for a in ALPHA_GRID:
            worst_eq = max(worst_eq, abs(frac_regulator_fp(g, a).total
                                         - regulator_circle_ray(g, a).total))
            r2 = regulator_circle_ray(g, a, rho=0.2).total
            r3 = regulator_circle_ray(g, a, rho=0.3).total
            worst_rho = max(worst_rho, abs(r2 - r3))
    check(8, "route-equivalence", worst_eq <= 1e-7 and worst_rho <= 1e-9,
          f"worst route delta = {worst_eq:.2e}, worst rho delta = {worst_rho:.2e}")


def test_criterion_09_singular_subtraction_limit():
    a = 0.5
    ok = True
    details = []
    for g in (RIEMANN, CUBIC):
        ds = []
        for t in (1e-2, 1e-3):
            phi = phi_eval_real(g, t)
            v = frac_action_direct_sum(g, a, t, tol=1e-11)
            d = v - gamma_c(1 + a) * phi ** (-1 - a) - zeta_c(-a)
            ok = ok and abs(d) <= 2 * abs(zeta_c(complex(-a - 1))) * phi + 1e-8
            ds.append(abs(d))
        ratio = ds[1] / ds[0]
        ok = ok and 0.05 <= ratio <= 0.2  # proportional to Phi(t) ~ t
        details.append(f"{g.name}: |d| = {ds[0]:.2e} -> {ds[1]:.2e}")
    check(9, "singular-subtraction-limit", ok, "; ".join(details))


def test_criterion_10_branch_map_sanity():
    n = 161
    grid = branch_map(CUBIC, 0.5, (-3.0, 3.0), (-3.0, 3.0), n, n, tol=1e-8)
    mags = np.where(grid.defined, np.abs(grid.values), -np.inf)
    xs = np.linspace(-3, 3, n)
    worst = 0.0
    for k in (0, 1, -1):
        for r in np.roots([1.0, 0.0, 1.0, 2j * math.pi * k]):
            if abs(r.real) > 3 or abs(r.imag) > 3:
                continue
            best, best_z = -math.inf, None
            for iy in range(n):
                for ix in range(n):
                    z = complex(xs[ix], xs[iy])
                    if abs(z - r) < 0.3 and mags[iy, ix] > best:
                        best, best_z = mags[iy, ix], z
            worst = max(worst, abs(best_z - r))
    check(10, "branch-map-sanity", worst < 0.05,
          f"worst max-to-root distance = {worst:.4f} for k in {{0, +1, -1}}")
