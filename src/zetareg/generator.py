"""Generators L = -h(t) d/dt encoded by the series p(t) = 1/h(t).

A generator is stored through the expansion of 1/h about t = 0 with exact
rational coefficients; when ``is_polynomial`` is set those coefficients are
the complete polynomial and evaluation anywhere on the real axis is exact.
This module builds the antiderivative Phi(t) = integral_0^t p(u) du, its
reduced factor phi(z) = Phi(z)/z, evaluates the generalized spectral
function 1/(e^Phi - 1), and decides the Hankel-route conditions
(-Phi(-x) positive and strictly increasing on the positive axis) exactly,
in rational arithmetic, with Sturm chains.
``GeneratorSpec`` keeps the data the fractional routes derive from p:
float Phi and phi coefficients, the Hankel verdict, the Taylor switch
radius and the nearest branch point.

The fractional-route derivations assume no secondary branch cut crosses
(-inf, 0]; this is not verified geometrically and is carried as a standing
assumption for each generator that passes the Hankel check.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    EmptySpecError,
    HankelConditionsFailedError,
    NonpositiveConstantError,
    NotPolynomialError,
)
from .series import PowerSeries


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator, held as p(t) = 1/h(t) about t = 0.

    Everything derived from a polynomial p is computed on first use and
    kept on the instance; equality and hashing see only the fields.
    """

    name: str
    inv_h: PowerSeries
    is_polynomial: bool = True

    @property
    def p0(self) -> Fraction:
        return self.inv_h.coeffs[0]

    @cached_property
    def phi_coeffs(self) -> tuple:
        """Exact coefficients of the polynomial Phi, constant (zero) first."""
        if not self.is_polynomial:
            raise NotPolynomialError(
                f"generator {self.name!r} is series-only; global evaluation not available")
        return self.inv_h.integrate().coeffs

    @cached_property
    def phi_np(self) -> np.ndarray:
        """Phi as float coefficients, highest degree first (``np.polyval``)."""
        arr = np.array([float(c) for c in reversed(self.phi_coeffs)])
        arr.flags.writeable = False
        return arr

    @cached_property
    def phi_reduced_np(self) -> np.ndarray:
        """phi(z) = Phi(z)/z as float coefficients, highest degree first."""
        return self.phi_np[:-1]

    @cached_property
    def hankel_passed(self) -> bool:
        """The exact ``validate_hankel`` verdict, decided once."""
        return validate_hankel(self)

    @cached_property
    def taylor_switch_radius(self) -> float:
        """Safe point below the convergence radius of the phi(-x)**s
        expansion (distance from 0 to the nearest complex zero of phi(-x))."""
        red = self.phi_reduced_np[::-1]
        signed = [(-1) ** k * red[k] for k in range(len(red))]
        roots = np.roots(signed[::-1])
        rmin = min(abs(r) for r in roots) if len(roots) else math.inf
        return min(0.6, 0.65 * rmin)

    @cached_property
    def branch_point_radius(self) -> float:
        """|z| of the nearest nonzero solution of Phi(z) = 2 pi i k, k = -2..2
        (the secondary branch points, plus the zeros of Phi off the origin)."""
        nearest = math.inf
        for k in range(-2, 3):
            shifted = self.phi_np.astype(complex)
            shifted[-1] -= 2j * math.pi * k
            for r in np.roots(shifted):
                if abs(r) > 1e-9:
                    nearest = min(nearest, abs(r))
        return nearest


def make_generator(coeffs: Sequence, name: str = "", polynomial: bool = True) -> GeneratorSpec:
    """Validated GeneratorSpec from the coefficients of p(t) = 1/h(t)."""
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs:
        raise EmptySpecError("generator needs at least the constant coefficient of 1/h")
    if coeffs[0] <= 0:
        raise NonpositiveConstantError(f"p(0) = {coeffs[0]} must be positive")
    if not name:
        name = "p=" + ",".join(str(c) for c in coeffs)
    return GeneratorSpec(name=name, inv_h=PowerSeries(coeffs), is_polynomial=polynomial)


def generator_from_dict(d: dict) -> GeneratorSpec:
    """Parse the JSON spec form {"name", "inv_h": ["p/q", ...], "polynomial"}."""
    try:
        raw = d["inv_h"]
    except KeyError as exc:
        raise EmptySpecError("generator spec is missing 'inv_h'") from exc
    if not isinstance(raw, list):
        raise ValueError("'inv_h' must be a list of rational strings")
    try:
        coeffs = [Fraction(str(c)) for c in raw]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational in 'inv_h': {exc}") from exc
    return make_generator(
        coeffs,
        name=str(d.get("name", "")),
        polynomial=bool(d.get("polynomial", True)),
    )


def load_generator(path) -> GeneratorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return generator_from_dict(json.load(fh))


def build_phi(g: GeneratorSpec, order: int) -> PowerSeries:
    """phi = Phi/z, exact, from Phi truncated at the given order."""
    return PowerSeries(g.inv_h.integrate().coeffs[1:], order=order - 1)


def phi_eval_real(g: GeneratorSpec, x: float) -> float:
    """Phi(x) from the float coefficients of the exact antiderivative."""
    return float(np.polyval(g.phi_np, x))


def neg_phi_neg(g: GeneratorSpec, x: float) -> float:
    """-Phi(-x); positive on x > 0 for Hankel-type generators."""
    return -phi_eval_real(g, -x)


def gsf_eval(g: GeneratorSpec, t: float) -> float:
    """Generalized spectral function 1/(e^Phi(t) - 1) for t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    return 1.0 / math.expm1(phi_eval_real(g, t))


def validate_hankel(g: GeneratorSpec) -> bool:
    """Exact test that -Phi(-x) is positive and strictly increasing on x > 0.

    -Phi(-x) vanishes at 0 and has derivative p(-x), with p(0) > 0, so the
    test holds exactly when p(-x) has no root of odd multiplicity on
    (0, inf).  Also warns (without failing) when p' is negative somewhere
    on t > 0, i.e. h(t) is not non-increasing.
    """
    if not g.is_polynomial:
        raise NotPolynomialError(
            f"generator {g.name!r} is series-only; the Hankel test needs a polynomial 1/h")
    p = list(g.inv_h.coeffs)
    if not _nonnegative_on_positive_axis(_deriv(p)):
        warnings.warn(
            f"generator {g.name!r}: h(t) is not monotonically non-increasing "
            "on t > 0 (integer traces are unaffected)",
            UserWarning,
            stacklevel=_caller_stacklevel(),
        )
    return _nonnegative_on_positive_axis([(-1) ** k * c for k, c in enumerate(p)])


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _caller_stacklevel() -> int:
    """Stacklevel for a ``warnings.warn`` in the calling function that names
    the first caller outside this package and ``functools`` (through whose
    ``cached_property`` the ``hankel_passed`` verdict is first asked for)."""
    frame = sys._getframe(1)
    level = 1
    while frame is not None and (frame.f_code.co_filename.startswith(_PACKAGE_DIR)
                                 or frame.f_code.co_filename == functools.__file__):
        frame = frame.f_back
        level += 1
    return level


def require_hankel(g: GeneratorSpec):
    if not g.is_polynomial:
        raise HankelConditionsFailedError(
            f"generator {g.name!r} is series-only; fractional routes need a polynomial 1/h")
    if not g.hankel_passed:
        raise HankelConditionsFailedError(
            f"generator {g.name!r} fails the Hankel conditions "
            "(-Phi(-x) positive and increasing)")


# --------------------------------------------------------------------------
# exact sign test for polynomials: Fraction coefficients, constant first
# --------------------------------------------------------------------------

def _nonnegative_on_positive_axis(f: list) -> bool:
    """True when the polynomial f takes no negative value on (0, inf)."""
    f = _trim(f)
    while f and f[0] == 0:
        f = f[1:]  # t**k > 0 on the axis
    return not f or (f[0] > 0 and _odd_root_count(f) == 0)


def _odd_root_count(f: list) -> int:
    """Distinct roots of odd multiplicity on (0, inf) of f, with f(0) != 0.

    The Sturm chain of f counts its distinct roots there and ends in
    g = gcd(f, f'), where a root of multiplicity k has multiplicity k - 1,
    so the even-multiplicity roots of f are the odd-multiplicity roots of g.
    """
    chain = [f, _deriv(f)]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    distinct = _sign_changes(q[0] for q in chain) - _sign_changes(q[-1] for q in chain)
    g = chain[-1]
    return distinct - _odd_root_count(g) if len(g) > 1 else distinct


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _trim(f: list) -> list:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _deriv(f: list) -> list:
    return _trim([k * c for k, c in enumerate(f)][1:])


def _rem(f: list, g: list) -> list:
    """Remainder of f divided by a nonzero trimmed g."""
    r = list(f)
    for i in range(len(r) - len(g), -1, -1):
        c = r[i + len(g) - 1] / g[-1]
        for j, gj in enumerate(g):
            r[i + j] -= c * gj
    return _trim(r[:len(g) - 1])
