"""Power series arithmetic: frozen examples, oracles, and ring invariants."""

import cmath
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zetareg.errors import ZeroConstantTermError
from zetareg.generator import load_generator
from zetareg.series import PowerSeries

F = Fraction
DEMOS = Path(__file__).resolve().parents[1] / "demos" / "generators"


def fps(*coeffs):
    return PowerSeries([F(c) for c in coeffs])


def random_rational_series(rng, order, nonzero_const=False):
    coeffs = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(order + 1)]
    if nonzero_const and coeffs[0] == 0:
        coeffs[0] = F(rng.randint(1, 5))
    return PowerSeries(coeffs)


class TestArithmetic:
    def test_mul_difference_of_squares(self):
        a = fps(1, 1, 0)
        b = fps(1, -1, 0)
        assert a * b == fps(1, 0, -1)

    def test_add(self):
        assert fps(1, 1) + fps(1, -1) == fps(2, 0)

    def test_mul_identity(self):
        assert fps(1, 2, 3) * fps(1, 0, 0) == fps(1, 2, 3)

    def test_truncation_is_min_order(self):
        a = fps(1, 2, 3, 4)
        b = fps(1, 1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_scalar_ops(self):
        a = fps(1, 2)
        assert a + 1 == fps(2, 2)
        assert 3 * a == fps(3, 6)
        assert a - fps(0, 2) == fps(1, 0)


class TestReciprocal:
    def test_geometric(self):
        a = PowerSeries([F(1), F(1)], order=3)
        assert a.reciprocal() == fps(1, -1, 1, -1)

    def test_geometric_in_3z2(self):
        # 1/(1+3z^2) = 1 - 3z^2 + 9z^4 - ... (geometric series in 3z^2)
        a = PowerSeries([F(1), F(0), F(3)], order=4)
        assert a.reciprocal() == fps(1, 0, -3, 0, 9)

    def test_constant(self):
        assert fps(2).reciprocal() == fps(F(1, 2))

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroConstantTermError):
            fps(0, 1).reciprocal()

    def test_mul_reciprocal_is_one(self, verify_check):
        assert verify_check("series_ring").status == "pass"


class TestCalculus:
    def test_integrate_cubic_generator(self):
        assert fps(1, 0, 3).integrate() == fps(0, 1, 0, 1)

    def test_diff_inverts_integrate(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_rational_series(rng, rng.randint(0, 12))
            assert a.integrate().diff() == a


class TestPowers:
    def test_integer_reciprocal_power(self):
        a = PowerSeries([F(1), F(0), F(1)], order=4)
        assert a.cpow(-1) == fps(1, 0, -1, 0, 1)

    def test_half_power_binomial_oracle(self):
        # Oracle: binomial series coefficients C(1/2, k) for (1+z)**(1/2)
        out = PowerSeries([complex(F(1)), complex(F(1))], order=2).cpow(0.5)
        binom = [F(1), F(1, 2), F(1, 2) * (F(1, 2) - 1) / 2]
        for got, want in zip(out.coeffs, binom):
            assert got == pytest.approx(complex(want), abs=1e-15)

    def test_integer_power_matches_repeated_mul(self):
        # rational series with interior zeros, a0 of either sign and
        # |a0| != 1; s from -8 to 8 against repeated mul of a or 1/a
        rng = random.Random(99)
        for trial in range(12):
            a = list(random_rational_series(rng, rng.randint(0, 12)).coeffs)
            a[0] = F(rng.choice([-1, 1]) * rng.randint(2, 7), rng.randint(1, 4))
            for k in rng.sample(range(1, len(a)), min(3, len(a) - 1)):
                a[k] = F(0)
            a = PowerSeries(a)
            for s in range(-8, 9):
                base = a if s >= 0 else a.reciprocal()
                want = PowerSeries([F(1)], order=a.order)
                for _ in range(abs(s)):
                    want = want * base
                got = a.cpow(s)
                assert got == want, (trial, s)
                assert all(isinstance(c, F) for c in got)

    def test_complex_power_is_the_dense_recurrence_bit_for_bit(self):
        # phi(-x) of the demo generators, as the fp route's Taylor base
        def dense_cpow(a, s):
            b = [cmath.exp(s * cmath.log(a[0]))]
            inv0 = 1 / a[0]
            for n in range(1, len(a)):
                acc = ((s + 1) * 1 - n) * a[1] * b[n - 1]
                for k in range(2, n + 1):
                    acc = acc + ((s + 1) * k - n) * a[k] * b[n - k]
                b.append(inv0 * acc / n)
            return b

        def bits(zs):
            return [(z.real.hex(), z.imag.hex()) for z in zs]

        for path in sorted(DEMOS.glob("*.json")):
            phi = load_generator(path).phi_reduced_np[::-1].tolist()
            signed = PowerSeries([(-1) ** k * c for k, c in enumerate(phi)], order=125)
            a = [complex(c) for c in signed.coeffs]
            for s in (-1.5, -2.75, -4.0 + 0.0j, 0.5 - 0.25j, -7.9):
                assert bits(signed.cpow(s).coeffs) == bits(dense_cpow(a, complex(s))), \
                    (path.name, s)

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroConstantTermError):
            fps(0, 1).cpow(2)


def test_immutability():
    a = fps(1, 2)
    with pytest.raises(AttributeError):
        a.coeffs = (F(0),)
