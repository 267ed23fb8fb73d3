"""Finite-part route, direct-sum action, and the dispatching regulator."""

import math

import pytest

from zetareg.errors import (
    HankelConditionsFailedError,
    OutOfRegularizationRegionError,
)
from zetareg.fractional import (
    RegulatorConfig,
    finite_part_mellin,
    frac_action_direct_sum,
    frac_regulator,
    frac_regulator_fp,
)
from zetareg.generator import GeneratorSpec, make_generator, phi_eval_real
from zetareg.integer_trace import trace_integer
from zetareg.special import polylog_neg_int, zeta_c
from zetareg.verify import CUBIC, RIEMANN, cubic_closed_form

# m +/- 10**-k, above 0 only at m = 0 (the region ends at alpha = -1)
NEAR_INTEGER_ALPHAS = [m + sign * 10.0**-k for m in range(4) for k in range(3, 15)
                       for sign in (1, -1) if m or sign > 0]

# generators whose phi(-x) has complex zeros close to the origin, so the
# Taylor tail covers only [0, x_s] with x_s < 0.6: 1/h = 1 + 12 t^2
# (x_s = 0.325) and the Hankel quartic (1 - t + 2t^2)(1 + t + 3t^2)
STEEP = (make_generator([1, 0, 12], name="steep-cubic"),
         make_generator([1, 0, 4, -1, 6], name="quartic"))
# at 3.05 the steep-cubic total is about 1.1e3 and rounds beyond the
# quadrature and tail estimates alone
LATTICE_ALPHAS = [k / 4 for k in range(-3, 16) if k % 4] + [1 + 1e-3, 3.05]


def mp_regulator(g: GeneratorSpec, alpha: float) -> complex:
    """R_L(alpha) from the finite part evaluated in mpmath at 30 digits.

    mp.taylor gives the coefficients of psi(x) = phi(-x)**(-alpha-1); the
    first J are subtracted on [0.01, 1] (tanh-sinh) and added back as
    finite parts, their tail is integrated termwise on [0, 0.01], where
    direct subtraction would cancel every digit against x**(-alpha-2), and
    [1, inf) is integrated as it stands.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(alpha)
        phi_neg = [mp.mpf(c.numerator) / c.denominator / (k + 1) * (-1) ** k
                   for k, c in enumerate(g.inv_h.coeffs)][::-1]

        def psi(x):
            return mp.polyval(phi_neg, x) ** (-a - 1)

        J = math.floor(alpha) + 3
        t = mp.taylor(psi, 0, J + 20)
        d = mp.mpf(1) / 100
        tail = mp.fsum(t[j] * d ** (j - a - 1) / (j - a - 1) for j in range(J, len(t)))
        head = t[:J][::-1]
        sub = mp.quad(lambda x: x ** (-a - 2) * (psi(x) - mp.polyval(head, x)), [d, 1])
        right = mp.quad(lambda x: x ** (-a - 2) * psi(x), [1, mp.inf])
        analytic = mp.fsum(t[j] / (j - a - 1) for j in range(J))
        return complex(mp.zeta(-a) - (tail + sub + analytic + right) * mp.rgamma(-a))


class TestFinitePart:
    def test_riemann_vanishes(self):
        # the split contributions -1/(a+1) and +1/(a+1) cancel exactly
        for a in (0.5, 1.7, -0.5, 2.2):
            fp = finite_part_mellin(RIEMANN, a)
            assert abs(fp.value) < 1e-11

    def test_cubic_gamma_closed_form(self, verify_check):
        assert verify_check("finite_part_oracle").status == "pass"

    def test_half_alpha_value(self, verify_check):
        assert verify_check("finite_part_oracle").status == "pass"

    def test_subtraction_count_invariant(self):
        for a in (-0.5, 0.5, 2.5):
            fp = finite_part_mellin(CUBIC, a)
            assert fp.subtracted_terms >= math.floor(a) + 2
            assert fp.tail_error >= 0

    def test_hankel_gate(self):
        with pytest.raises(HankelConditionsFailedError):
            finite_part_mellin(make_generator([1, 2]), 0.5)

    def test_series_only_gate(self):
        with pytest.raises(HankelConditionsFailedError):
            finite_part_mellin(make_generator([1], polynomial=False), 0.5)


class TestSteepGeneratorOracle:
    @pytest.mark.parametrize("g", STEEP, ids=lambda g: g.name)
    def test_matches_mpmath_finite_part(self, g):
        assert g.taylor_switch_radius < 0.6
        for alpha in LATTICE_ALPHAS:
            R = frac_regulator_fp(g, alpha)
            want = mp_regulator(g, alpha)
            err = abs(R.total - want)
            assert err / max(1.0, abs(want)) <= 1e-12, alpha
            assert err <= R.err_estimate, alpha


class TestFpRegulator:
    def test_riemann_reduction(self, verify_check):
        assert verify_check("riemann_reduction").status == "pass"

    def test_cubic_closed_form(self, verify_check):
        assert verify_check("closed_form_regulator").status == "pass"

    def test_total_splits(self):
        R = frac_regulator_fp(CUBIC, 0.5)
        assert R.total == R.zeta_part + R.correction
        assert R.route == "fp_mellin"
        assert R.err_estimate >= 0

    def test_approaches_zero_at_even_integer(self):
        # R(2 +/- eps) -> zeta(-2) = 0
        for eps in (1e-2, 1e-3):
            R = frac_regulator_fp(CUBIC, 2.0 + eps)
            assert abs(R.total) < 0.05 * (eps / 1e-3)


class TestDirectSum:
    def test_riemann_alpha1(self):
        # sum k 2^-k = 2 at t = ln 2
        v = frac_action_direct_sum(RIEMANN, 1.0, math.log(2.0))
        assert v == pytest.approx(2.0, abs=1e-10)

    def test_integer_alpha_matches_closed_form(self):
        for m in (0, 1, 2, 3):
            for g, t in ((RIEMANN, 0.7), (CUBIC, 0.5)):
                w = math.exp(-phi_eval_real(g, t))
                got = frac_action_direct_sum(g, float(m), t)
                want = complex(polylog_neg_int(m, w))
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_singular_subtraction_limit(self, verify_check):
        assert verify_check("direct_sum_asymptotics").status == "pass"

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            frac_action_direct_sum(RIEMANN, 0.5, 0.0)


class TestDispatcher:
    @pytest.mark.parametrize("alpha", [1.0] + NEAR_INTEGER_ALPHAS)
    def test_integer_dispatch_only_at_exact_integers(self, alpha):
        R = frac_regulator(CUBIC, alpha)
        if alpha == 1.0:
            assert R.route == "integer_formula"
            assert R.total == complex(trace_integer(CUBIC, 1).total)
        else:
            assert R.route == "fp_mellin"
            assert abs(R.total - cubic_closed_form(alpha)) <= 1e-12

    def test_fractional_route_off_integers(self):
        R = frac_regulator(CUBIC, 1.5)
        assert R.route == "fp_mellin"

    def test_riemann_fractional_value(self):
        R = frac_regulator(RIEMANN, 0.3)
        assert abs(R.total - zeta_c(complex(-0.3))) < 1e-9

    def test_riemann_integer_value(self):
        from zetareg.special import zeta_neg_int
        for m in (0, 1, 2, 3):
            R = frac_regulator(RIEMANN, float(m))
            assert R.correction == 0
            assert R.total == complex(zeta_neg_int(m))

    def test_richardson_limits_match_integer_traces(self, verify_check):
        assert verify_check("integer_continuity").status == "pass"

    def test_crosscheck_populates_delta(self):
        cfg = RegulatorConfig(crosscheck=True)
        R = frac_regulator(CUBIC, 0.5, cfg)
        assert R.crosscheck_delta is not None
        assert R.crosscheck_delta <= 1e-7

    def test_out_of_region(self):
        with pytest.raises(OutOfRegularizationRegionError):
            frac_regulator(RIEMANN, -1.5)
        with pytest.raises(OutOfRegularizationRegionError):
            frac_regulator(RIEMANN, -1.0)

    def test_complex_alpha_avoids_snap(self):
        R = frac_regulator(CUBIC, 1.0 + 0.2j)
        assert R.route == "fp_mellin"


class TestRouteEquivalence:
    def test_fp_vs_circle_ray_grid(self, verify_check):
        assert verify_check("route_equivalence").status == "pass"
