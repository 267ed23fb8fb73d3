"""Complex-order Stirling numbers and the fractional operator."""

import math

import pytest

from zetareg.fractional import frac_action_direct_sum
from zetareg.generator import make_generator, phi_eval_real
from zetareg.series import PowerSeries
from zetareg.stirling import (
    eigen_check,
    frac_operator_apply,
    stirling2_frac,
)


class TestStirlingNumbers:
    def test_classical_3_2(self):
        assert stirling2_frac(3, 2) == pytest.approx(3.0, abs=1e-13)

    def test_k1_is_one_for_any_order(self):
        for alpha in (0.5, -0.3, 2 + 0.5j, 17.2):
            assert stirling2_frac(alpha, 1) == 1

    def test_half_order_two_term_sum(self):
        # (1/2!) [ -C(2,1) 1^a + C(2,2) 2^a ] = (2^a - 2)/2 at a = 1/2
        want = (math.sqrt(2.0) - 2.0) / 2.0
        assert stirling2_frac(0.5, 2) == pytest.approx(want, abs=1e-14)

    def test_matches_exact_recurrence_table(self, verify_check):
        assert verify_check("stirling_classical").status == "pass"

    def test_vanishes_above_integer_order(self):
        # {m, k} = 0 for k > m at integer order
        for m in range(1, 6):
            for k in range(m + 1, m + 4):
                assert stirling2_frac(complex(m), k) == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            stirling2_frac(0.5, 65)


class TestFractionalOperator:
    def test_half_power_on_square(self):
        out = frac_operator_apply(0.5, PowerSeries([0.0, 0.0, 1.0 + 0j]))
        assert out[2] == pytest.approx(math.sqrt(2.0), abs=1e-13)
        assert abs(out[0]) == 0 and abs(out[1]) == 0

    def test_integer_order_classical_action(self):
        # m-th action on z^n scales by n^m
        for m in (1, 2, 3):
            for n in (1, 2, 5):
                f = PowerSeries([0.0] * n + [1.0 + 0j])
                out = frac_operator_apply(float(m), f)
                assert out[n] == pytest.approx(n**m, rel=1e-13)

    def test_per_monomial_oracle(self):
        f = PowerSeries([0.0 + 0j] + [1.0 + 0j] * 6)
        out = frac_operator_apply(0.7, f)
        for n in range(1, 7):
            assert out[n] == pytest.approx(n**0.7, abs=1e-12)

    def test_identity_at_zero_order(self):
        f = PowerSeries([2.0 + 0j, 3.0, 4.0])
        out = frac_operator_apply(0.0, f)
        assert out.coeffs == (2.0, 3.0, 4.0)


class TestEigenIdentity:
    def test_half_order_n4(self):
        assert eigen_check(0.5, 4) < 1e-12

    def test_integer_case(self):
        assert eigen_check(2, 3) < 1e-13

    def test_complex_order_n8(self):
        assert eigen_check(2 + 0.5j, 8) < 1e-10

    def test_grid(self, verify_check):
        assert verify_check("eigen_identity").status == "pass"


class TestCrossModule:
    def test_truncated_polylog_consistency(self):
        # applying the operator to the truncated spectral series at z = 1
        # tracks the partial sums of the direct polylog action
        g = make_generator([1, 0, 3])
        t = 1.0
        alpha = 0.7
        w = math.exp(-phi_eval_real(g, t))
        N = 24
        f = PowerSeries([0.0 + 0j] + [w**n for n in range(1, N + 1)])
        image = frac_operator_apply(alpha, f)
        truncated = sum(image.coeffs)  # evaluate at z = 1
        partial = sum(n**alpha * w**n for n in range(1, N + 1))
        assert truncated == pytest.approx(partial, rel=1e-10)
        full = frac_action_direct_sum(g, alpha, t, tol=1e-12)
        tail_bound = (N + 1) ** alpha * w ** (N + 1) / (1 - w) * 2
        assert abs(full - partial) < tail_bound + 2e-12
