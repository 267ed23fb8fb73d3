"""Truncated formal power series over exact rationals or complex floats.

A series is a finite coefficient tuple ``c[0] + c[1] z + ... + c[N] z**N``
with truncation order ``N``.  Coefficients may be :class:`fractions.Fraction`
(exact arithmetic, used for the integer trace identities) or ``complex`` /
``float`` (used for the fractional and quadrature work).  Binary operations
truncate to the smaller operand order; ``integrate`` extends the order by
one.  ``cpow`` runs the power recurrence over the nonzero coefficients
only, so a polynomial of degree d padded to order N costs O(N d); an
integer power of a rational series runs in Python ints.  Instances are
immutable and safe to share.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

from .errors import ZeroConstantTermError


def _is_exact_int(s) -> bool:
    """True when s can be used as an exact integer exponent."""
    if isinstance(s, bool):
        return False
    if isinstance(s, int):
        return True
    if isinstance(s, Fraction):
        return s.denominator == 1
    return False


class PowerSeries:
    """Immutable truncated power series.

    ``PowerSeries([1, 2, 3])`` represents ``1 + 2z + 3z**2`` with
    truncation order 2.  ``order=N`` pads with zeros or truncates.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("coefficient list must be non-empty")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            zero = coeffs[0] * 0
            coeffs = coeffs[: order + 1] + (zero,) * (order + 1 - len(coeffs))
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("PowerSeries is immutable")

    # --- basic protocol ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)!r})"

    # --- ring operations --------------------------------------------------

    def __add__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return PowerSeries(out)

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self.coeffs])

    def __sub__(self, other) -> "PowerSeries":
        return self + (-other if isinstance(other, PowerSeries) else -1 * other)

    def __rsub__(self, other) -> "PowerSeries":
        return (-self) + other

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            out = []
            for k in range(n + 1):
                acc = self.coeffs[0] * other.coeffs[k]
                for j in range(1, k + 1):
                    acc = acc + self.coeffs[j] * other.coeffs[k - j]
                out.append(acc)
            return PowerSeries(out)
        return PowerSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        """Series b with self*b = 1 up to truncation; needs c[0] != 0."""
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("reciprocal needs a nonzero constant term")
        inv0 = _invert(a[0])
        out = [inv0]
        for n in range(1, len(a)):
            acc = a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + a[k] * out[n - k]
            out.append(-inv0 * acc)
        return PowerSeries(out)

    # --- calculus ---------------------------------------------------------

    def diff(self) -> "PowerSeries":
        """Termwise derivative; order drops by one."""
        if self.order == 0:
            return PowerSeries([self.coeffs[0] * 0])
        return PowerSeries([k * self.coeffs[k] for k in range(1, len(self.coeffs))])

    def integrate(self) -> "PowerSeries":
        """Termwise antiderivative with zero constant; order grows by one."""
        zero = self.coeffs[0] * 0
        return PowerSeries([zero] + [_divint(self.coeffs[k], k + 1) for k in range(len(self.coeffs))])

    def cpow(self, s) -> "PowerSeries":
        """self**s via the power recurrence; needs c[0] != 0.

        b[n] = (1/(n c[0])) sum_k ((s+1) k - n) c[k] b[n-k], with the sum
        over the nonzero c[k] only (k <= n), so a polynomial of degree d
        padded to order N costs O(N d), not O(N**2).

        Integer s on exact rationals runs in Python ints (see
        :func:`_rational_pow`) and returns Fractions.  Other integer s keeps
        the coefficient field; non-integer s coerces to complex and uses
        the principal branch for c[0]**s.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("cpow needs a nonzero constant term")
        if _is_exact_int(s):
            s = int(s)
            if all(isinstance(c, (int, Fraction)) for c in a):
                return PowerSeries(_rational_pow(a, s))
            b0 = a[0] ** s if s >= 0 else _invert(a[0]) ** (-s)
        else:
            a = tuple(complex(c) for c in a)
            s = complex(s)
            b0 = cmath.exp(s * cmath.log(a[0]))
        inv0 = _invert(a[0])
        # (k, (s+1) k, c[k]) for the nonzero c[k]; skipping the zero ones
        # leaves every sum (and its order of addition) as it was
        terms = [(k, (s + 1) * k, c) for k, c in enumerate(a) if k and c != 0]
        out = [b0]
        for n in range(1, len(a)):
            acc = None
            for k, sk, c in terms:
                if k > n:
                    break
                t = (sk - n) * c * out[n - k]
                acc = t if acc is None else acc + t
            out.append(_divint(inv0 * acc, n) if acc is not None else b0 * 0)
        return PowerSeries(out)

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries(self.coeffs, order=order)


def _invert(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1) / c
    return 1 / c


def _rational_pow(a: tuple, s: int) -> list:
    """Coefficients of a**s for rationals a and integer s, as Fractions.

    With a = A/D (D the common denominator, A integers) the scaled
    coefficients e[j] = A0**(j-s) [z**j] A**s are integers (for s >= 0 a
    term of [z**j] A**s takes A0 from at least s - j factors; for s < 0,
    A**s = A0**s (1 + (A - A0)/A0)**s), and the power recurrence for them is
    e[n] = (1/n) sum_k ((s+1) k - n) A[k] A0**(k-1) e[n-k];
    each division by n is exact.  Then b[j] = e[j] / (A0**(j-s) D**s).
    """
    D = math.lcm(*(c.denominator for c in a))
    A = [c.numerator * (D // c.denominator) for c in a]
    A0 = A[0]
    terms = [(k, (s + 1) * k, c * A0 ** (k - 1)) for k, c in enumerate(A) if k and c]
    e = [1]
    for n in range(1, len(A)):
        acc = 0
        for k, sk, w in terms:
            if k > n:
                break
            acc += (sk - n) * w * e[n - k]
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError(f"power recurrence: {acc} not divisible by {n}")
        e.append(q)
    num = D ** max(-s, 0)
    den = D ** max(s, 0)
    return [Fraction(e[j] * num * A0 ** max(s - j, 0), den * A0 ** max(j - s, 0))
            for j in range(len(e))]


def _divint(c, n: int):
    if isinstance(c, (int, Fraction)):
        return Fraction(c, 1) / n
    return c / n


def exp_series(order: int) -> PowerSeries:
    """exp(z) with exact rational coefficients 1/k!."""
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] / k)
    return PowerSeries(coeffs)
