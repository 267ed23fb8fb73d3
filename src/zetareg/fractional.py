"""Fractional regulator R_L(alpha) = zeta(-alpha) + correction, Re alpha > -1.

The primary route evaluates the finite part of the divergent integral

    fp int_0^inf x**(-alpha-2) phi(-x)**(-alpha-1) dx

by splitting at x = 1 and subtracting the leading Taylor terms of
phi(-x)**(-alpha-1) on [0, 1] (their finite-part integrals 1/(j-alpha-1)
are added back analytically).  On [0, x_s] the subtracted remainder is its
Taylor tail, integrated term by term in closed form; [x_s, 1] and
[1, inf) are adaptive quadratures.  The regulator is zeta(-alpha) minus
that finite part divided by Gamma(-alpha).

``frac_regulator`` dispatches: real alpha at an exact nonnegative integer
goes to the exact integer formula, everything else (however close to an
integer) to the finite-part route, optionally cross-checked against the
contour route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .contour import RegulatorValue, regulator_circle_ray
from .errors import OutOfRegularizationRegionError, RouteDisagreementError
from .generator import GeneratorSpec, phi_eval_real, require_hankel
from .integer_trace import trace_integer
from .quadrature import adaptive_quadrature, integrate_to_infinity
from .series import PowerSeries
from .special import SUM_ROUNDING, polylog_series, rgamma, zeta_c

# largest |fp_mellin - circle_ray| a cross-checked value may show
CROSSCHECK_TOL = 1e-7


@dataclass(frozen=True)
class FinitePartResult:
    value: complex
    subtracted_terms: int
    tail_error: float


@dataclass(frozen=True)
class RegulatorConfig:
    tol: float = 1e-11
    crosscheck: bool = False
    rho: float = 0.25


def finite_part_mellin(g: GeneratorSpec, alpha: complex,
                       tol: float = 1e-11) -> FinitePartResult:
    """fp int_0^inf x**(-alpha-2) phi(-x)**(-alpha-1) dx, Re alpha > -1.

    Split at x = 1; the first J Taylor terms of phi(-x)**(-alpha-1) are
    removed on [0, 1] and their finite parts 1/(j-alpha-1) added back
    analytically.  Below the switch point x_s the subtracted remainder is
    the Taylor *tail* (direct subtraction there would amplify float
    cancellation by the x**(-alpha-2) weight), whose K terms integrate
    exactly to t_k x_s**e_k / e_k; its error is the summation rounding
    plus the last term.  On [x_s, 1] the remainder is evaluated by direct
    subtraction and integrated adaptively, as is [1, inf).
    """
    alpha = complex(alpha)
    if alpha.real <= -1.0:
        raise OutOfRegularizationRegionError(f"Re alpha = {alpha.real} <= -1")
    if alpha.imag == 0.0 and alpha.real == round(alpha.real) and alpha.real >= 0:
        raise ValueError("finite part has a pole at nonnegative integer alpha; "
                         "use the integer trace formula")
    require_hankel(g)

    # one extra subtracted term beyond the convergence minimum keeps the
    # remainder exponent J - alpha - 2 strictly positive near integers
    J = math.floor(alpha.real) + 3
    K = 120  # Taylor-tail terms integrated in closed form on [0, x_s]
    s = -(alpha + 1.0)
    signed = [(-1) ** k * c for k, c in enumerate(g.phi_reduced_np[::-1].tolist())]
    coeffs = PowerSeries(signed, order=J + K + 1).cpow(s).coeffs
    a, tail_coeffs = coeffs[:J], np.array(coeffs[J:J + K])
    xs = g.taylor_switch_radius

    def integrand_outer(x: np.ndarray) -> np.ndarray:
        base = np.polyval(g.phi_reduced_np, -x)
        psi = np.exp(s * np.log(base))
        sub = np.polyval(a[::-1], x)
        return np.exp((-alpha - 2.0) * np.log(x)) * (psi - sub)

    def integrand_right(x: np.ndarray) -> np.ndarray:
        base = np.polyval(g.phi_reduced_np, -x)
        return np.exp(s * np.log(base)) * np.exp((-alpha - 2.0) * np.log(x))

    # int_0^xs x**(k+J-alpha-2) dx = xs**e_k / e_k with e_k = k + J - 1 - alpha
    # > 1, ordered like the analytic terms below
    e = np.arange(J, J + K) - 1.0 - alpha
    terms = tail_coeffs * np.exp(e * math.log(xs)) / e
    abs_terms = np.abs(terms)
    inner = complex(terms.sum())
    inner_err = float(SUM_ROUNDING * abs_terms.sum() + abs_terms[-1])
    outer = adaptive_quadrature(integrand_outer, xs, 1.0, tol=tol / 3)
    right = integrate_to_infinity(integrand_right, 1.0, tol=tol / 3)
    # (j - 1.0) - alpha is exact near the pole at alpha = j - 1, while
    # (j - alpha) - 1.0 rounds at the ulp of 1 just below it
    analytic = sum(a[j] / (j - 1.0 - alpha) for j in range(J))
    value = inner + outer.value + analytic + right.value
    return FinitePartResult(
        value=value,
        subtracted_terms=J,
        tail_error=inner_err + outer.err_estimate + right.err_estimate,
    )


def frac_regulator_fp(g: GeneratorSpec, alpha: complex,
                      cfg: RegulatorConfig | None = None) -> RegulatorValue:
    """Finite-part Mellin route: zeta(-alpha) - fp/Gamma(-alpha)."""
    cfg = cfg or RegulatorConfig()
    alpha = complex(alpha)
    fp = finite_part_mellin(g, alpha, tol=cfg.tol)
    rg = rgamma(-alpha)
    zeta_part = zeta_c(-alpha)
    correction = -fp.value * rg
    total = zeta_part + correction
    return RegulatorValue(
        alpha=alpha,
        zeta_part=zeta_part,
        correction=correction,
        total=total,
        route="fp_mellin",
        # never below the rounding of a total that reaches 1e3 on steep
        # generators
        err_estimate=max(fp.tail_error * abs(rg) + 1e-13 * (1.0 + abs(zeta_part)),
                         SUM_ROUNDING * abs(total)),
    )


def frac_action_direct_sum(g: GeneratorSpec, alpha: complex, t: float,
                           tol: float = 1e-12) -> complex:
    """L^alpha applied to the spectral function at t > 0, summed directly:
    sum_k k**alpha e**(-k Phi(t)) = Li_{-alpha}(e**(-Phi(t)))."""
    if t <= 0:
        raise ValueError("t must be positive")
    w = math.exp(-phi_eval_real(g, t))
    return polylog_series(-complex(alpha), w, tol=tol)


def richardson_integer_limit(g: GeneratorSpec, m: int,
                             cfg: RegulatorConfig | None = None,
                             eps_pair: tuple = (1e-2, 1e-3)) -> RegulatorValue:
    """Cauchy-sense limit of the fractional route at integer m.

    Central averages A(eps) = (R(m+eps) + R(m-eps))/2 kill the odd terms;
    Richardson extrapolation over the two eps values removes the eps**2
    term.
    """
    e1, e2 = eps_pair
    avgs = []
    errs = 0.0
    for eps in (e1, e2):
        hi = frac_regulator_fp(g, m + eps, cfg)
        lo = frac_regulator_fp(g, m - eps, cfg)
        avgs.append(0.5 * (hi.total + lo.total))
        errs += hi.err_estimate + lo.err_estimate
    a1, a2 = avgs
    total = a2 + (a2 - a1) * e2**2 / (e1**2 - e2**2)
    zeta_part = zeta_c(complex(-m))
    return RegulatorValue(
        alpha=complex(m),
        zeta_part=zeta_part,
        correction=total - zeta_part,
        total=total,
        route="integer_limit",
        err_estimate=abs(a2 - a1) * e2**2 / (e1**2 - e2**2) + errs,
    )


def frac_regulator(g: GeneratorSpec, alpha: complex,
                   cfg: RegulatorConfig | None = None) -> RegulatorValue:
    """Dispatching regulator for Re alpha > -1.

    Alpha at an exact nonnegative integer goes to the exact integer formula
    (route ``integer_formula``); otherwise the finite-part route runs,
    optionally cross-checked against the circle+ray contour route.
    """
    cfg = cfg or RegulatorConfig()
    alpha = complex(alpha)
    if alpha.real <= -1.0:
        raise OutOfRegularizationRegionError(f"Re alpha = {alpha.real} <= -1")

    if alpha.imag == 0.0 and alpha.real == round(alpha.real):
        tv = trace_integer(g, round(alpha.real))
        return RegulatorValue(
            alpha=alpha,
            zeta_part=complex(tv.zeta_part),
            correction=complex(tv.correction),
            total=complex(tv.total),
            route="integer_formula",
            err_estimate=0.0,
        )

    value = frac_regulator_fp(g, alpha, cfg)
    if cfg.crosscheck:
        other = regulator_circle_ray(g, alpha, rho=cfg.rho)
        delta = abs(value.total - other.total)
        if delta > CROSSCHECK_TOL:
            raise RouteDisagreementError(
                f"fp_mellin and circle_ray differ by {delta:.3e} at alpha={alpha}")
        value = replace(value, crosscheck_delta=delta)
    return value
