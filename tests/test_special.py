"""Special functions: exact tables, Gamma, zeta, polylogarithms."""

import cmath
import math
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from zetareg.errors import (
    DivergentArgumentError,
    InvalidOrderError,
    OutOfDiskError,
    PoleAtNonpositiveIntegerError,
    PoleAtOneError,
)
from zetareg.series import PowerSeries, exp_series
from zetareg.special import (
    BernoulliTable,
    EulerianTable,
    bernoulli_values,
    eulerian_rows,
    gamma_c,
    polylog_expand_near_one,
    polylog_neg_int,
    polylog_series,
    rgamma,
    zeta_c,
    zeta_neg_int,
)

F = Fraction


def close(a, b, tol):
    """|a-b| <= tol scaled by max(1, |b|); large values compare relatively."""
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestBernoulli:
    def test_defining_recurrence(self):
        B = bernoulli_values(24)
        for k in range(1, 24):
            assert sum(comb(k + 1, j) * B[j] for j in range(k + 1)) == 0

    def test_convention_and_odd_vanishing(self):
        B = BernoulliTable.build(21)
        assert B[0] == 1 and B[1] == F(-1, 2)
        assert all(B[2 * k + 1] == 0 for k in range(1, 10))

    def test_generating_series(self):
        # 1/(e^t - 1) = sum B_k t^(k-1)/k!  <=>  t/(e^t - 1) has coeffs B_k/k!
        K = 20
        e = exp_series(K + 1)
        emt_over_t = PowerSeries(e.coeffs[1:])  # (e^t - 1)/t
        B = bernoulli_values(K)
        got = emt_over_t.reciprocal()
        for k in range(K + 1):
            assert got[k] == B[k] / factorial(k) if k < len(B) else True


class TestEulerian:
    def test_row_sums_are_factorials(self):
        rows = eulerian_rows(9)
        for m in range(1, 10):
            assert sum(rows[m]) == factorial(m)

    def test_first_entry_and_symmetry(self):
        t = EulerianTable.build(9)
        for m in range(1, 10):
            assert t(m, 0) == 1
            for k in range(m):
                assert t(m, k) == t(m, m - 1 - k)


class TestZetaNegInt:
    def test_values(self):
        assert zeta_neg_int(0) == F(-1, 2)
        assert zeta_neg_int(1) == F(-1, 12)
        assert zeta_neg_int(2) == 0
        assert zeta_neg_int(3) == F(1, 120)


class TestGamma:
    def test_factorial(self):
        assert gamma_c(5) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma_c(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_recurrence_at_complex_point(self):
        z = 1.5 + 1.0j
        assert gamma_c(z + 1) == pytest.approx(z * gamma_c(z), rel=1e-12)

    def test_recurrence_random_sample(self):
        rng = random.Random(314159)
        for _ in range(100):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) < 0.1 or (z.imag == 0 and z.real <= 0):
                continue
            lhs = gamma_c(z + 1)
            rhs = z * gamma_c(z)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_pole_raises(self):
        for z in (0, -1, -5.0, complex(-3, 0)):
            with pytest.raises(PoleAtNonpositiveIntegerError):
                gamma_c(z)

    def test_rgamma_zero_at_poles(self):
        assert rgamma(0) == 0 and rgamma(-4) == 0
        assert rgamma(3) == pytest.approx(0.5, rel=1e-13)


class TestZeta:
    def test_basel(self):
        assert zeta_c(2) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_minus_one(self):
        assert zeta_c(-1) == pytest.approx(-1 / 12, rel=1e-12)

    def test_zero(self):
        assert zeta_c(0) == pytest.approx(-0.5, rel=1e-12)

    def test_matches_exact_negative_integers(self):
        for m in range(11):
            assert abs(zeta_c(complex(-m)) - complex(zeta_neg_int(m))) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleAtOneError):
            zeta_c(1)

    def test_functional_equation_consistency(self):
        # chi(s) zeta(1-s) must reproduce the eta-route value inside the strip
        for s in (0.3, 0.4 + 2j, -0.2 + 5j):
            s = complex(s)
            chi = 2**s * cmath.pi ** (s - 1) * cmath.sin(cmath.pi * s / 2) * gamma_c(1 - s)
            assert zeta_c(s) == pytest.approx(chi * zeta_c(1 - s), rel=1e-10)

    def test_near_eta_denominator_zero(self):
        # 1 - 2^(1-s) vanishes at s = 1 + 2 pi i/ln 2; the fallback must hold
        s0 = complex(1.0, 2 * math.pi / math.log(2.0))
        for ds in (0.0, 1e-9, 1e-5):
            s = s0 + ds
            v = zeta_c(s)
            w = zeta_c(s + 1e-7)  # continuity probe
            assert abs(v - w) < 1e-4
            assert cmath.isfinite(v)


class TestPolylogNegInt:
    def test_geometric(self):
        assert polylog_neg_int(0, F(1, 2)) == 1

    def test_sum_k_over_2k(self):
        assert polylog_neg_int(1, F(1, 2)) == 2

    def test_sum_k2_over_2k(self):
        assert polylog_neg_int(2, F(1, 2)) == 6

    def test_pole(self):
        with pytest.raises(PoleAtOneError):
            polylog_neg_int(3, 1)

    def test_brute_force_partial_sums(self):
        # direct sum oracle at a few (m, x)
        for m in (1, 2, 3):
            for x in (0.2, 0.5):
                brute = sum(k**m * x**k for k in range(1, 200))
                assert polylog_neg_int(m, x) == pytest.approx(brute, rel=1e-12)


class TestPolylogSeries:
    def test_matches_closed_form(self):
        assert polylog_series(-1, 0.5) == pytest.approx(2.0, abs=1e-11)

    def test_zero_argument(self):
        assert polylog_series(2, 0) == 0

    def test_sqrt_k_sum(self):
        # brute-force oracle with explicit remainder control
        w = math.exp(-1)
        brute = sum(math.sqrt(k) * w**k for k in range(1, 120))
        assert polylog_series(-0.5, w) == pytest.approx(brute, abs=1e-11)

    def test_agreement_with_neg_int(self):
        for m in range(5):
            for x in (0.1, 0.5, 0.9):
                a = polylog_series(complex(-m), x, tol=1e-13)
                b = complex(polylog_neg_int(m, x))
                assert close(a, b, 1e-10)

    def test_divergent_argument(self):
        with pytest.raises(DivergentArgumentError):
            polylog_series(-0.5, 1.0)
        with pytest.raises(DivergentArgumentError):
            polylog_series(-0.5, -1.2)

    def test_term_cap_is_an_error(self):
        from zetareg.errors import ConvergenceError
        with pytest.raises(ConvergenceError):
            polylog_series(-0.5, 0.99, tol=1e-30, max_terms=50)

    def test_power_cache_keeps_latest_order_only(self):
        from zetareg.special import _KPOW_CACHE
        first = polylog_series(-0.5, 0.9)
        polylog_series(-1.5, 0.9)
        assert list(_KPOW_CACHE) == [complex(-1.5)]
        assert polylog_series(-0.5, 0.9) == first
        assert list(_KPOW_CACHE) == [complex(-0.5)]


class TestPolylogNearOne:
    def test_against_direct_series(self):
        a = polylog_expand_near_one(-0.5, -0.01)
        b = polylog_series(-0.5, math.exp(-0.01), tol=1e-13)
        assert close(a, b, 1e-10)

    def test_constant_term_is_zeta(self):
        # value minus the singular term tends to zeta(s) as mu -> 0,
        # at the rate of the first correction term zeta(s-1) mu
        s = -0.5
        for mu in (-1e-4, -1e-5):
            v = polylog_expand_near_one(s, mu)
            sing = gamma_c(1 - s) * cmath.exp((s - 1) * cmath.log(complex(-mu)))
            next_order = abs(zeta_c(s - 1)) * abs(mu)
            assert abs((v - sing) - zeta_c(s)) < 2 * next_order + 1e-9

    def test_against_closed_form_m2(self):
        a = polylog_expand_near_one(-2, -0.01)
        b = complex(polylog_neg_int(2, math.exp(-0.01)))
        assert close(a, b, 1e-10)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            polylog_expand_near_one(3, -0.01)

    def test_out_of_disk(self):
        with pytest.raises(OutOfDiskError):
            polylog_expand_near_one(-0.5, 6.5)
