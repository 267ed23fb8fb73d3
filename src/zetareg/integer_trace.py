"""Regularized integer traces sum(n^m) = zeta(-m) + correction.

Three independent routes, all in exact rational arithmetic:

* ``trace_integer``     -- m! [z^(m+1)] phi^(-(m+1)), one exact negative power
                           of the polynomial phi by the sparse integer power
                           recurrence (the coefficient-extraction form of
                           the residue formula).
* ``trace_closed_form`` -- the explicit h-derivative formulas for m <= 3.
* ``trace_laurent_oracle`` -- direct Laurent bookkeeping of
                           m! Phi(z)^(-m-1) = m! z^(-m-1) (phi^(m+1))^(-1),
                           computed power-then-reciprocal, reading the z^0
                           Laurent coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import UnsupportedOrderError
from .generator import GeneratorSpec, build_phi
from .special import zeta_neg_int


@dataclass(frozen=True)
class TraceValue:
    m: int
    zeta_part: Fraction
    correction: Fraction
    total: Fraction


def trace_integer(g: GeneratorSpec, m: int) -> TraceValue:
    """Exact regularized value of sum(n^m) for nonnegative integer m.

    The correction is m! [z^(m+1)] phi^(-(m+1)), read off
    ``PowerSeries.cpow`` at the exponent -(m+1) directly (no reciprocal);
    on rationals that power runs in integers over the nonzero
    coefficients of phi only, O(m d) for a degree-d generator.
    """
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    correction = factorial(m) * build_phi(g, m + 2).cpow(-(m + 1))[m + 1]
    zeta_part = zeta_neg_int(m)
    return TraceValue(m=m, zeta_part=zeta_part, correction=correction,
                      total=zeta_part + correction)


def _h_derivatives(g: GeneratorSpec, upto: int) -> list:
    """h^(k)(0) = k! [t^k] (1/p), exact."""
    h = g.inv_h.truncate(upto).reciprocal()
    return [factorial(k) * h[k] for k in range(upto + 1)]


def trace_closed_form(g: GeneratorSpec, m: int) -> Fraction:
    """The explicit first trace identities, m in {0, 1, 2, 3}."""
    if not 0 <= m <= 3:
        raise UnsupportedOrderError("closed forms cover m = 0..3 only")
    h0, h1, h2, h3, h4 = _h_derivatives(g, 4)
    if m == 0:
        corr = Fraction(1, 2) * h1
    elif m == 1:
        corr = Fraction(1, 12) * (4 * h0 * h2 + h1**2)
    elif m == 2:
        corr = Fraction(1, 4) * (h3 * h0**2 + 2 * h0 * h1 * h2)
    else:
        corr = Fraction(1, 120) * (
            24 * h0**3 * h4 + 56 * h0**2 * h2**2 - h1**4
            + 108 * h0**2 * h3 * h1 + 64 * h0 * h1**2 * h2
        )
    return zeta_neg_int(m) + corr


def trace_laurent_oracle(g: GeneratorSpec, m: int) -> Fraction:
    """Constant Laurent coefficient of m! Phi^(-m-1) plus zeta(-m).

    Independent of :func:`trace_integer`: phi is raised to the (m+1)-st
    power by repeated multiplication first, the reciprocal is taken last,
    and the singular shift z^(-m-1) is handled by explicit index
    bookkeeping (the z^0 Laurent coefficient sits at series index m+1).
    """
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    phi = build_phi(g, m + 2)
    power = phi
    for _ in range(m):
        power = power * phi
    laurent = power.reciprocal()  # coefficient j is the z^(j-m-1) Laurent term
    constant_term = laurent[m + 1]
    return zeta_neg_int(m) + factorial(m) * constant_term
