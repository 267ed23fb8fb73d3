"""Independent reference values, computed outside the timed region.

* regulator values R_L(alpha): ``mpmath.zeta`` for h = 1, the mpmath closed
  form for 1/h = 1 + 3t^2, and otherwise mpmath tanh-sinh quadrature of the
  finite-part integral at 25 digits; exact traces at integer alpha;
* regularized products exp(-Z_L'(0)): closed forms for h = 1 and the cubic,
  otherwise a central difference of the quadrature oracle at 40 digits;
* integer traces: every row from [z^n] (1/phi)^n by repeated multiplication
  in exact integer arithmetic (one pass per generator), cross-checked on a sample
  against ``trace_laurent_oracle``, ``trace_closed_form`` and sympy;
* polylogarithms: ``mpmath.polylog`` at the exact grid point.

None of this calls the program's fractional routes, special functions or
quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from functools import lru_cache

import mpmath as mp

DPS = 25          # regulator values; 20 digits or better after cancellation
PRODUCT_DPS = 40  # the central difference at h = 1e-12 cancels 12 more
CUBIC = (F(1), F(0), F(3))
RIEMANN = (F(1),)


def coeffs_of(spec: dict) -> tuple:
    return tuple(F(c) for c in spec["inv_h"])


def _is_int(a: F) -> bool:
    return a.denominator == 1


# --------------------------------------------------------------------------
# exact integer traces
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _zeta_neg(m: int) -> F:
    import sympy
    z = sympy.zeta(-m)
    return F(int(z.p), int(z.q))


def trace_rows(coeffs: tuple, M: int) -> list:
    """Exact sum(n^m) for m = 0..M: zeta(-m) + m! [z^(m+1)] (1/phi)^(m+1),
    with phi(z) = Phi(z)/z and Phi the antiderivative of 1/h.

    Integer arithmetic: phi = A/D with A an integer polynomial, and
    E_n[k] = A_0^(n+k) [z^k] A^(-n) are integers with E_n = E_(n-1) * E_1."""
    phi = [c / (k + 1) for k, c in enumerate(coeffs)]
    D = math.lcm(*(c.denominator for c in phi))
    A = [int(c * D) for c in phi]
    a0, N = A[0], M + 1
    e1 = [1]
    for k in range(1, N + 1):
        e1.append(-sum(A[i] * a0 ** (i - 1) * e1[k - i] for i in range(1, min(k, len(A) - 1) + 1)))
    en = [1] + [0] * N
    rows = []
    for n in range(1, N + 1):
        en = [sum(en[j] * e1[k - j] for j in range(k + 1)) for k in range(N + 1)]
        m = n - 1
        corr = math.factorial(m) * F(D ** n * en[n], a0 ** (2 * n))
        rows.append((_zeta_neg(m), corr, _zeta_neg(m) + corr))
    return rows


_TRACE_CACHE: dict = {}


def trace_row(coeffs: tuple, m: int, upto: int = 0) -> tuple:
    """(zeta_part, correction, total) at order m, exact.  Rows are kept per
    generator; pass ``upto`` to compute the longest range needed at once."""
    rows = _TRACE_CACHE.get(coeffs, [])
    if len(rows) <= m:
        rows = _TRACE_CACHE[coeffs] = trace_rows(coeffs, max(m, upto))
    return rows[m]


def trace_sympy(coeffs: tuple, m: int) -> F:
    """m! [z^(m+1)] (z/Phi(z))^(m+1) + zeta(-m) by sympy series expansion."""
    import sympy
    z = sympy.Symbol("z")
    Phi = sum(sympy.Rational(c.numerator, c.denominator) * z ** (k + 1) / (k + 1)
              for k, c in enumerate(coeffs))
    expr = sympy.series((z / Phi) ** (m + 1), z, 0, m + 2).removeO()
    c = sympy.factorial(m) * expr.coeff(z, m + 1) + sympy.zeta(-m)
    return F(int(c.p), int(c.q))


# --------------------------------------------------------------------------
# fractional regulator
# --------------------------------------------------------------------------

def _mpq(c: F):
    return mp.mpf(c.numerator) / c.denominator


def _fp_integral(coeffs: tuple, a, delta=F(1, 100), K: int = 24):
    """fp int_0^inf x^(-a-2) phi(-x)^(-a-1) dx at the working precision.

    On [0, delta] the integrand's Taylor series is integrated termwise
    (finite parts of the first J terms); on [delta, 1] the first J terms are
    subtracted directly; [1, inf) is integrated as it stands."""
    phin = [_mpq(c) / (k + 1) * (-1) ** k for k, c in enumerate(coeffs)]
    while len(phin) > 1 and phin[-1] == 0:
        phin.pop()
    if len(phin) > 1:
        # the K-term tail on [0, delta] needs delta well inside the radius
        # of convergence, the nearest zero of phi(-x)
        rmin = min(abs(r) for r in mp.polyroots(phin[::-1], maxsteps=200, extraprec=40))
        if 4 * _mpq(delta) > rmin:
            raise RuntimeError(f"oracle split {delta} too close to a zero of phi at {rmin}")
    s = -(a + 1)
    J = int(mp.floor(mp.re(a))) + 3
    N = J + K
    A = phin + [mp.mpf(0)] * (N + 1)
    b = [A[0] ** s]
    for n in range(1, N + 1):
        acc = mp.mpf(0)
        for k in range(1, n + 1):
            acc += ((s + 1) * k - n) * A[k] * b[n - k]
        b.append(acc / (n * A[0]))
    d = _mpq(delta)
    rev = phin[::-1]
    head_poly = b[:J][::-1]

    def psi(x):
        return mp.polyval(rev, x) ** s

    def f_mid(x):
        return x ** (-a - 2) * (psi(x) - mp.polyval(head_poly, x))

    def f_right(x):
        return x ** (-a - 2) * psi(x)

    head = mp.fsum(b[j] * d ** (j - a - 1) / (j - a - 1) for j in range(J, N + 1))
    analytic = mp.fsum(b[j] / (j - a - 1) for j in range(J))
    mid = mp.quad(f_mid, [d, mp.mpf(1) / 4, 1])
    right = mp.quad(f_right, [1, 4, mp.inf])
    return head + analytic + mid + right


def _regulator_mp(coeffs: tuple, a):
    if coeffs == RIEMANN:
        return mp.zeta(-a)
    if coeffs == CUBIC:
        return mp.zeta(-a) - mp.gamma(3 * (1 + a) / 2) * mp.sin(mp.pi * a / 2) \
            / mp.gamma((3 + a) / 2)
    return mp.zeta(-a) - _fp_integral(coeffs, a) * mp.rgamma(-a)


@lru_cache(maxsize=None)
def regulator(coeffs: tuple, alpha: F):
    """R_L(alpha) for real alpha > -1: a Fraction at nonnegative integers,
    else a complex float rounded from DPS digits."""
    if _is_int(alpha) and alpha >= 0:
        return trace_row(coeffs, int(alpha))[2]
    with mp.workdps(DPS):
        return complex(_regulator_mp(coeffs, _mpq(alpha)))


@lru_cache(maxsize=None)
def product(coeffs: tuple) -> tuple:
    """(Z_L'(0), exp(-Z_L'(0))) with Z_L(a) = R_L(-a)."""
    with mp.workdps(PRODUCT_DPS):
        if coeffs == RIEMANN:
            zp = -mp.log(2 * mp.pi) / 2
        elif coeffs == CUBIC:
            zp = -mp.log(2 * mp.pi) / 2 + mp.pi / 2
        else:
            h = mp.mpf(10) ** -12
            zp = -(_regulator_mp(coeffs, h) - _regulator_mp(coeffs, -h)) / (2 * h)
        return float(mp.re(zp)), float(mp.exp(-mp.re(zp)))


# --------------------------------------------------------------------------
# branch maps
# --------------------------------------------------------------------------

def polylog_at(coeffs: tuple, alpha: F, z: complex) -> complex:
    """Li_{-alpha}(exp(-Phi(z))) at the exact grid point z."""
    with mp.workdps(30):
        zz = mp.mpc(z.real, z.imag)
        Phi = mp.fsum(_mpq(c) * zz ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        s = -_mpq(alpha) if not _is_int(alpha) else -int(alpha)
        return complex(mp.polylog(s, mp.exp(-Phi)))
