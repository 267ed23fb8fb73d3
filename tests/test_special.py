"""Special functions: exact tables, Gamma, zeta, polylogarithms."""

import cmath
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from zetareg.errors import (
    DivergentArgumentError,
    InvalidOrderError,
    OutOfDiskError,
    PoleAtNonpositiveIntegerError,
    PoleAtOneError,
)
from zetareg.special import (
    NEAR_ONE_RADIUS,
    bernoulli_values,
    eulerian_rows,
    gamma_c,
    polylog_expand_near_one,
    polylog_grid,
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


def against_mpmath(draw, check):
    """Run ``check(mpmath, *args)`` at 30 digits on derandomized hypothesis
    draws of ``draw(strategies)``; both are test-only dependencies, so the
    test skips without them."""
    mpmath = pytest.importorskip("mpmath")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, deadline=None)
    @hypothesis.given(draw(hypothesis.strategies))
    def run(args):
        with mpmath.workdps(30):
            check(mpmath, *args)
    run()


def mp_polylog(mp, s, w):
    """Li_s(w) from mpmath, whose algorithm loses about log10(1/|s - n|)
    digits near an integer n; the working precision gains as many."""
    gap = abs(s - round(s.real))
    with mp.workdps(30 + (int(-math.log10(gap)) if gap else 0)):
        return complex(mp.polylog(s, w))


def complexes(st, re, im):
    return st.builds(complex, st.floats(*re), st.floats(*im))


def disk(st, r):
    """Points w with |w| <= r."""
    return st.builds(cmath.rect, st.floats(0, r), st.floats(-math.pi, math.pi))


class TestBernoulli:
    def test_defining_recurrence(self):
        B = bernoulli_values(24)
        for k in range(1, 24):
            assert sum(comb(k + 1, j) * B[j] for j in range(k + 1)) == 0

    def test_convention_and_odd_vanishing(self):
        B = bernoulli_values(21)
        assert B[0] == 1 and B[1] == F(-1, 2)
        assert all(B[2 * k + 1] == 0 for k in range(1, 10))

    def test_generating_series(self, verify_check):
        assert verify_check("bernoulli_expansion").status == "pass"

    def test_growing_table_keeps_its_prefixes(self):
        tables = [bernoulli_values(K) for K in (7, 40, 3, 0, 61)]
        assert [len(B) for B in tables] == [8, 41, 4, 1, 62]
        assert all(B == tables[-1][:len(B)] for B in tables)


class TestEulerian:
    def test_row_sums_are_factorials(self, verify_check):
        assert verify_check("eulerian_table").status == "pass"

    def test_first_entry_and_symmetry(self, verify_check):
        assert verify_check("eulerian_table").status == "pass"

    def test_growing_table_keeps_its_prefixes(self):
        tables = [eulerian_rows(M) for M in (5, 30, 2, 0, 33)]
        assert [len(rows) for rows in tables] == [6, 31, 3, 1, 34]
        assert all(rows == tables[-1][:len(rows)] for rows in tables)
        assert all(sum(row) == math.factorial(m) for m, row in enumerate(tables[-1]))


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

    def test_recurrence_random_sample(self, verify_check):
        assert verify_check("gamma_recurrence").status == "pass"

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

    def test_matches_exact_negative_integers(self, verify_check):
        assert verify_check("zeta_negative_integers").status == "pass"

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

    def test_agreement_with_neg_int(self, verify_check):
        assert verify_check("polylog_agreement").status == "pass"

    def test_divergent_argument(self):
        with pytest.raises(DivergentArgumentError):
            polylog_series(-0.5, 1.0)
        with pytest.raises(DivergentArgumentError):
            polylog_series(-0.5, -1.2)

    def test_term_cap_is_an_error(self):
        from zetareg.errors import ConvergenceError
        with pytest.raises(ConvergenceError):
            polylog_series(-0.5, 0.99, tol=1e-30, max_terms=50)


class TestPolylogNearOne:
    def test_against_direct_series(self, verify_check):
        assert verify_check("polylog_agreement").status == "pass"

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


def grid_regions(seed=7, n=24):
    """Arguments w of polylog_grid by region: near w = 1 (|log w| < R),
    straddling |log w| = R, near w = -1, and far cells (with w = 0 and a
    subnormal w, as an underflowed e**-Phi gives)."""
    rng = np.random.default_rng(seed)
    near = np.exp(-rng.uniform(1e-6, 2.5, n) + 1j * rng.uniform(-3.0, 3.0, n))
    rho = NEAR_ONE_RADIUS + rng.uniform(-0.1, 0.1, 4 * n)
    mu = rho * np.exp(1j * rng.uniform(math.pi / 2, 3 * math.pi / 2, 4 * n))
    edge = np.exp(mu[np.abs(mu.imag) < math.pi][:n])
    # few cells near -1: mpmath's polylog is slow there
    minus_one = -(1.0 - 10.0 ** rng.uniform(-8, -2, 6)) * np.exp(1j * rng.uniform(-0.01, 0.01, 6))
    far = np.append(0.08 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(-3.2, 3.2, n)),
                    [0.0, 1e-310j])
    return {"near": near, "edge": edge, "minus_one": minus_one, "far": far}


class TestPolylogGrid:
    """The array kernel against mpmath and against the scalar regimes, at
    the branch map's tol."""

    TOL = 1e-9
    ORDERS = [0.5, -0.75, -1.75, -10.25, 2.5, -1.5 + 0.3j]
    NEAR_POSITIVE_INTEGER = [2 + 1e-7, 1 - 1e-6]
    INTEGER_ORDERS = [0, -1, -3]

    @pytest.mark.parametrize("s", ORDERS + NEAR_POSITIVE_INTEGER + INTEGER_ORDERS)
    def test_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        bound = 1e-12 if s in self.INTEGER_ORDERS else self.TOL
        for region, w in grid_regions().items():
            if s in self.NEAR_POSITIVE_INTEGER:
                # the cancellation in the expansion is left to the series
                # only where |w| <= 0.99; beyond, both lose digits
                w = w[np.abs(w) <= 0.99]
            got = polylog_grid(s, w, self.TOL)
            for wi, gi in zip(w, got):
                assert close(gi, mp_polylog(mp, complex(s), complex(wi)), bound), (region, wi)

    @pytest.mark.parametrize("s", [0.5, -0.75, -1.75, 2.5, -1.5 + 0.3j])
    def test_series_cells_sum_to_rounding(self, s):
        # the series runs to rounding, not to tol, so a cell's error does
        # not depend on how close its |w| lies to the largest series |w|
        mp = pytest.importorskip("mpmath")
        regions = grid_regions()
        for region in ("edge", "far"):
            w = regions[region]
            for wi, gi in zip(w, polylog_grid(s, w, self.TOL)):
                assert close(gi, mp_polylog(mp, complex(s), complex(wi)), 1e-13), (region, wi)

    def test_large_order_takes_the_more_accurate_regime(self):
        # at alpha = 20.5 a few near cells miss tol in either regime; the
        # series alone is 3e-6 off on one of them, the expansion 2e-9
        mp = pytest.importorskip("mpmath")
        w = grid_regions()["near"]
        for wi, gi in zip(w, polylog_grid(-20.5, w, self.TOL)):
            assert close(gi, mp_polylog(mp, -20.5 + 0j, complex(wi)), 1e-8), wi

    @pytest.mark.parametrize("s", [0.5, -1.75, -1.5 + 0.3j])
    def test_against_scalar_regimes(self, s):
        for region, w in grid_regions().items():
            got = polylog_grid(s, w, self.TOL)
            for wi, gi in zip(w, got):
                mu = cmath.log(wi) if wi else None
                if region in ("near", "edge", "minus_one"):
                    assert close(gi, polylog_expand_near_one(s, mu), self.TOL), (region, wi)
                if region in ("edge", "far"):
                    assert close(gi, polylog_series(s, wi), self.TOL), (region, wi)

    @pytest.mark.parametrize("m", [0, 1, 3, 7])
    def test_integer_orders_are_the_closed_form(self, m):
        for w in grid_regions().values():
            got = polylog_grid(-m, w, self.TOL)
            want = [complex(polylog_neg_int(m, complex(wi))) for wi in w]
            assert all(close(a, b, 1e-12) for a, b in zip(got, want))

    def test_divergent_argument(self):
        with pytest.raises(DivergentArgumentError):
            polylog_grid(0.5, np.array([0.5, 1.0]))


class TestMpmathOracle:
    def test_gamma(self):
        def check(mp, z):
            if z.imag == 0 and z.real <= 0 and z.real == round(z.real):
                return  # pole
            want = complex(mp.gamma(z))
            assert abs(gamma_c(z) - want) <= 1e-12 * abs(want)
        against_mpmath(lambda st: st.tuples(complexes(st, (-10, 10), (-10, 10))), check)

    def test_zeta(self):
        def check(mp, s):
            if abs(s - 1) < 0.1:
                return
            want = complex(mp.zeta(s))
            assert abs(zeta_c(s) - want) <= 1e-12 * abs(want)
        against_mpmath(lambda st: st.tuples(complexes(st, (-10, 5), (-20, 20))), check)

    def test_polylog_series(self):
        def check(mp, s, w):
            assert close(polylog_series(s, w), mp_polylog(mp, s, w), 1e-10)
        against_mpmath(lambda st: st.tuples(complexes(st, (-4, 3), (-3, 3)), disk(st, 0.98)),
                       check)

    def test_polylog_expand_near_one(self):
        def check(mp, s, mu):
            want = mp_polylog(mp, s, mp.exp(mu))
            assert close(polylog_expand_near_one(s, mu), want, 1e-10)
        against_mpmath(lambda st: st.tuples(complexes(st, (-4, 0.5), (-2, 2)),
                                            complexes(st, (-2, -1e-6), (-3, 3))), check)

    def test_polylog_neg_int(self):
        def check(mp, m, w):
            assert close(complex(polylog_neg_int(m, w)), complex(mp.polylog(-m, w)), 1e-12)
        against_mpmath(lambda st: st.tuples(st.integers(0, 10), disk(st, 0.98)), check)
