"""Truncated formal power series over exact rationals or complex floats.

A series is a finite coefficient tuple ``c[0] + c[1] z + ... + c[N] z**N``
with truncation order ``N``.  Coefficients may be :class:`fractions.Fraction`
(exact arithmetic, used for the integer trace identities) or ``complex`` /
``float`` (used for the fractional and quadrature work).  Binary operations
truncate to the smaller operand order; ``integrate`` extends the order by
one.  Instances are immutable and safe to share.
"""

from __future__ import annotations

import cmath
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

        Integer s keeps the coefficient field (exact over rationals);
        non-integer s coerces to complex and uses the principal branch
        for c[0]**s.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTermError("cpow needs a nonzero constant term")
        if _is_exact_int(s):
            s = int(s)
            b0 = a[0] ** s if s >= 0 else _invert(a[0]) ** (-s)
        else:
            a = tuple(complex(c) for c in a)
            s = complex(s)
            b0 = cmath.exp(s * cmath.log(a[0]))
        inv0 = _invert(a[0])
        out = [b0]
        for n in range(1, len(a)):
            acc = ((s + 1) * 1 - n) * a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + ((s + 1) * k - n) * a[k] * out[n - k]
            out.append(_divint(inv0 * acc, n))
        return PowerSeries(out)

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries(self.coeffs, order=order)


def _invert(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1) / c
    return 1 / c


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
