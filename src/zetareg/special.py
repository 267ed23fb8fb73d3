"""Self-contained special functions.

Exact-rational Bernoulli and Eulerian tables, complex Gamma (Lanczos),
complex Riemann zeta (Borwein alternating-series acceleration plus the
functional equation, with an Euler-Maclaurin fallback where the eta
denominator 1 - 2**(1-s) nearly vanishes), and polylogarithm evaluation in
the three regimes this package needs: |w| < 1 direct series,
negative-integer closed form, and the expansion around w = 1, one value
at a time or, in ``polylog_grid``, over a whole array of arguments.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, factorial

import numpy as np

from .errors import (
    ConvergenceError,
    DivergentArgumentError,
    InvalidOrderError,
    OutOfDiskError,
    PoleAtNonpositiveIntegerError,
    PoleAtOneError,
)

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# exact integer/rational tables
# --------------------------------------------------------------------------

# Each table is computed once, up to the largest size asked for so far, and
# grown by rebinding to a longer tuple, so a concurrent reader never sees a
# half-grown table.
_BERNOULLI = (Fraction(1),)
_EULERIAN = ((1,),)


def bernoulli_values(K: int) -> tuple:
    """B_0..B_K from the defining recurrence sum_j C(k+1, j) B_j = 0,
    with the B_1 = -1/2 convention."""
    global _BERNOULLI
    if len(_BERNOULLI) <= K:
        B = list(_BERNOULLI)
        for k in range(len(B), K + 1):
            s = sum(comb(k + 1, j) * B[j] for j in range(k))
            B.append(Fraction(-s, k + 1))
        _BERNOULLI = tuple(B)
    return _BERNOULLI[:K + 1]


def eulerian_rows(M: int) -> tuple:
    """Eulerian numbers, rows m = 0..M; row m holds <m, 0> .. <m, max(m-1, 0)>."""
    global _EULERIAN
    if len(_EULERIAN) <= M:
        rows = list(_EULERIAN)
        for m in range(len(rows), M + 1):
            prev = rows[m - 1]
            row = []
            for k in range(m):
                a = (k + 1) * prev[k] if k < len(prev) else 0
                b = (m - k) * prev[k - 1] if 0 <= k - 1 < len(prev) else 0
                row.append(a + b)
            rows.append(tuple(row))
        _EULERIAN = tuple(rows)
    return _EULERIAN[:M + 1]


def zeta_neg_int(m: int) -> Fraction:
    """zeta(-m) = (-1)**m B_{m+1}/(m+1), exact."""
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    B = bernoulli_values(m + 1)
    return Fraction((-1) ** m) * B[m + 1] / (m + 1)


# --------------------------------------------------------------------------
# Gamma
# --------------------------------------------------------------------------

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set).
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real == round(z.real) and z.real <= 0.0


def _sinpi(z: complex) -> complex:
    """sin(pi*z) with argument reduction; exact zeros at real integers."""
    if z.imag == 0.0:
        x = z.real
        n = round(x)
        r = math.sin(math.pi * (x - n))
        return complex(-r if n % 2 else r)
    return cmath.sin(cmath.pi * z)


@lru_cache(maxsize=65536)
def gamma_c(z: complex) -> complex:
    """Gamma(z) for complex z; raises at the poles z = 0, -1, -2, ..."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleAtNonpositiveIntegerError(f"Gamma pole at z = {z}")
    if z.real < 0.5:
        return math.pi / (_sinpi(z) * gamma_c(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, 15):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc


def rgamma(z: complex) -> complex:
    """1/Gamma(z); entire, returns exactly 0 at nonpositive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return 1.0 / gamma_c(z)


# --------------------------------------------------------------------------
# Riemann zeta
# --------------------------------------------------------------------------

_BORWEIN_N = 64


@lru_cache(maxsize=None)
def _borwein_ratios(n: int) -> tuple:
    """(d_k - d_n)/d_n as floats for Borwein's alternating acceleration."""
    terms = []
    acc = Fraction(0)
    for j in range(n + 1):
        acc += Fraction(factorial(n + j - 1) * 4**j, factorial(n - j) * factorial(2 * j))
        terms.append(n * acc)
    dn = terms[-1]
    return tuple(float((dk - dn) / dn) for dk in terms[:-1])


def _zeta_eta(s: complex) -> complex:
    """zeta via eta acceleration; accurate for Re s >= -1, away from
    the zeros of 1 - 2**(1-s)."""
    r = _borwein_ratios(_BORWEIN_N)
    re_parts, im_parts = [], []
    for k, rk in enumerate(r):
        term = rk * (k + 1) ** (-s)
        if k % 2:
            term = -term
        re_parts.append(term.real)
        im_parts.append(term.imag)
    sigma = complex(math.fsum(re_parts), math.fsum(im_parts))
    return -sigma / (1.0 - 2.0 ** (1.0 - s))


def _zeta_euler_maclaurin(s: complex, N: int = 24, J: int = 14) -> complex:
    """Euler-Maclaurin tail formula; used near the eta-denominator zeros."""
    B = bernoulli_values(2 * J)
    acc = complex(0.0)
    for k in range(1, N):
        acc += k ** (-s)
    acc += 0.5 * N ** (-s)
    acc += N ** (1.0 - s) / (s - 1.0)
    poch = s  # rising factorial s(s+1)...(s+2j-2), here (s)_1
    for j in range(1, J + 1):
        acc += float(B[2 * j]) / factorial(2 * j) * poch * N ** (-s - (2 * j - 1))
        poch *= (s + (2 * j - 1)) * (s + 2 * j)
    return acc


@lru_cache(maxsize=65536)
def zeta_c(s: complex) -> complex:
    """zeta(s) for complex s != 1.

    Eta acceleration for Re s >= -1/2 (with an Euler-Maclaurin fallback
    where 1 - 2**(1-s) nearly vanishes) and the functional equation
    zeta(s) = 2**s pi**(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) otherwise.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleAtOneError("zeta pole at s = 1")
    if s.real >= -0.5:
        if abs(1.0 - 2.0 ** (1.0 - s)) < 0.01:
            return _zeta_euler_maclaurin(s)
        return _zeta_eta(s)
    chi = 2.0**s * cmath.pi ** (s - 1.0) * _sinpi(0.5 * s) * gamma_c(1.0 - s)
    return chi * zeta_c(1.0 - s)


# --------------------------------------------------------------------------
# polylogarithms
# --------------------------------------------------------------------------

def polylog_neg_int(m: int, x):
    """Li_{-m}(x) by the Eulerian closed form; exact for rational x.

    Li_0(x) = x/(1-x); for m >= 1,
    Li_{-m}(x) = (1-x)**-(m+1) * sum_k <m, k> x**(m-k).
    """
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    if np.any(x == 1):
        raise PoleAtOneError("polylog argument at the w = 1 singularity")
    one = x * 0 + 1
    if m == 0:
        return x / (one - x)
    row = eulerian_rows(m)[m]
    num = x * 0
    for k in range(m):
        num = num + row[k] * x ** (m - k)
    return num / (one - x) ** (m + 1)


def _remainder_below(k: int, aw: float, log_aw: float, p: float,
                     log_tol: float) -> bool:
    """Whether the tail of sum_k k**(-s) w**k after k terms is below tol:
    (k+1)**p |w|**(k+1) / (1 - |w| e**(p/(k+1))), p = max(0, -Re s)."""
    q = aw * math.exp(p / (k + 1))
    return q < 1.0 and (k + 1) * log_aw + p * math.log(k + 1) - math.log(1.0 - q) <= log_tol


def polylog_series(s: complex, w: complex, tol: float = 1e-12,
                   max_terms: int = 10**6) -> complex:
    """Li_s(w) = sum_k k**(-s) w**k by direct summation, |w| < 1.

    Stops when the remainder bound (K+1)**p |w|**(K+1) / (1 - |w| e**(p/(K+1)))
    with p = max(0, -Re s) drops below tol; errors out at the term cap.
    """
    s = complex(s)
    w = complex(w)
    aw = abs(w)
    if aw >= 1.0:
        raise DivergentArgumentError(f"|w| = {aw} >= 1")
    if w == 0.0:
        return 0.0 + 0.0j
    p = max(0.0, -s.real)
    log_aw = math.log(aw)
    log_tol = math.log(tol)
    re_parts, im_parts = [], []
    wk = complex(1.0)
    k = 0
    while k < max_terms:
        k += 1
        wk *= w
        term = cmath.exp(-s * math.log(k)) * wk
        re_parts.append(term.real)
        im_parts.append(term.imag)
        if _remainder_below(k, aw, log_aw, p, log_tol):
            return complex(math.fsum(re_parts), math.fsum(im_parts))
    raise ConvergenceError(
        f"polylog series hit the {max_terms}-term cap at |w| = {aw}")


def polylog_expand_near_one(s: complex, mu: complex, terms: int = 60) -> complex:
    """Li_s(e**mu) from the expansion about mu = 0.

    Gamma(1-s) (-mu)**(s-1) + zeta(s) + sum_{k>=1} zeta(s-k) mu**k / k!,
    valid for 0 < |mu| < 2*pi and s not a positive integer; principal
    branch of (-mu)**(s-1).
    """
    s = complex(s)
    mu = complex(mu)
    if s.imag == 0.0 and s.real == round(s.real) and s.real >= 1.0:
        raise InvalidOrderError("expansion invalid at positive integer order")
    if abs(mu) >= TWO_PI:
        raise OutOfDiskError(f"|mu| = {abs(mu)} >= 2*pi")
    if mu == 0.0:
        raise ValueError("mu must be nonzero (the (-mu)**(s-1) term is singular)")
    acc = gamma_c(1.0 - s) * cmath.exp((s - 1.0) * cmath.log(-mu))
    acc += zeta_c(s)
    muk = complex(1.0)
    fact = 1.0
    settled = False
    for k in range(1, terms + 1):
        muk *= mu
        fact *= k
        term = zeta_c(s - k) * muk / fact
        # stop at the second negligible term in a row, without adding it:
        # near integer s, zeta(s - k) nearly vanishes at every other k
        small = k > 4 and abs(term) <= 1e-20 * (1.0 + abs(acc + term))
        if small and settled:
            break
        acc += term
        settled = small
    return acc


# polylog_grid sends the cells with |log w| < NEAR_ONE_RADIUS to the
# expansion about w = 1 and the rest to the direct series.  The principal
# log has |Im log w| <= pi, so with pi < R < 2 pi every series cell has
# |w| <= exp(-sqrt(R**2 - pi**2)) = 0.084 and needs a few terms, while the
# expansion's terms fall like (R / 2 pi)**k: 80 of them reach about 1e-16.
NEAR_ONE_RADIUS = 4.0
NEAR_ONE_TERMS = 80
EPS = np.finfo(float).eps
# rounding error of a float sum, in units of the magnitudes summed (measured
# on the expansion: at most about 5 eps where 1/|s - n| cancels, s near 1..5)
SUM_ROUNDING = 16 * EPS


def polylog_grid(s: complex, w, tol: float = 1e-12) -> np.ndarray:
    """Li_s(w) on an array of arguments |w| < 1.

    Nonpositive integer s takes the Eulerian closed form on every cell.
    Other s take the expansion about w = 1 (``polylog_expand_near_one``,
    its coefficients zeta(s-k)/k! computed once per call) where
    |log w| < NEAR_ONE_RADIUS, and the direct series elsewhere, stopped by
    the ``polylog_series`` remainder bound at the largest |w| among them,
    there below rounding rather than tol.  The series also takes the cells
    with |w| <= 0.99 where the expansion's error estimate exceeds tol and
    the series' is smaller.  The expansion is invalid at positive integer
    s, so there the series takes every cell to tol and any |w| > 0.99
    raises InvalidOrderError.
    """
    s = complex(s)
    w = np.asarray(w, dtype=complex)
    aw = np.abs(w)
    if np.any(aw >= 1.0):
        raise DivergentArgumentError(f"|w| = {aw.max()} >= 1")
    if s.imag == 0.0 and s.real == round(s.real):
        if s.real <= 0.0:
            return polylog_neg_int(int(-s.real), w)
        if np.any(aw > 0.99):
            raise InvalidOrderError("expansion invalid at positive integer order")
        return _series_grid(s, w, aw, tol)
    # |log w| >= -log |w|, so only |w| > e**-R can be near; this also
    # keeps w = 0 (underflowed e**-Phi) away from the log
    near = aw > math.exp(-NEAR_ONE_RADIUS)
    mu = np.log(w[near])
    inside = np.abs(mu) < NEAR_ONE_RADIUS
    near[near] = inside
    mu = mu[inside]
    coeffs = [zeta_c(s - k) / factorial(k) for k in range(NEAR_ONE_TERMS, -1, -1)]
    singular = gamma_c(1.0 - s) * np.exp((s - 1.0) * np.log(-mu))
    value = singular + np.polyval(coeffs, mu)
    # estimated errors: the expansion's rounding, which grows where its terms
    # cancel (near a positive integer s = n the singular term is about
    # |mu|**(n-1) / |s - n|), plus its last term, large at big -Re s; and
    # the series' rounding, eps sum_k k**p |w|**k ~ Gamma(1+p) / (-log|w|)**(1+p).
    # A cell with |w| <= 0.99 whose expansion misses tol takes the series
    # where that is estimated to be more accurate
    amu = np.abs(mu)
    err = (SUM_ROUNDING * (np.abs(singular) + np.polyval(np.abs(coeffs), amu))
           + abs(coeffs[0]) * amu ** NEAR_ONE_TERMS)
    p = max(0.0, -s.real)
    series_err = SUM_ROUNDING * np.exp(math.lgamma(1.0 + p) - (1.0 + p) * np.log(-mu.real))
    keep = ((err <= np.maximum(tol * np.maximum(1.0, np.abs(value)), series_err))
            | (aw[near] > 0.99))
    near[near] = keep
    out = np.empty_like(w)
    out[near] = value[keep]
    # the series runs to rounding, not to tol: its cells need a few terms
    # more, and their error then does not depend on how close their |w|
    # lies to the largest one, at which the stopping bound is taken
    out[~near] = _series_grid(s, w[~near], aw[~near], min(tol, EPS))
    return out


def _series_grid(s: complex, w: np.ndarray, aw: np.ndarray, tol: float) -> np.ndarray:
    """sum_k k**(-s) w**k on every cell, until the remainder bound at the
    largest |w| < 1 is below tol."""
    out = np.zeros_like(w)
    top = aw.max(initial=0.0)
    if top == 0.0:
        return out
    p = max(0.0, -s.real)
    log_top = math.log(top)
    log_tol = math.log(tol)
    wk = np.ones_like(w)
    for k in count(1):
        wk *= w
        out += cmath.exp(-s * math.log(k)) * wk
        if _remainder_below(k, top, log_top, p, log_tol):
            return out
