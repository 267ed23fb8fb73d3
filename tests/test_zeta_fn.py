"""Generalized zeta function and regularized products."""

import math

import pytest

from zetareg.errors import OutOfRegularizationRegionError
from zetareg.special import zeta_c
from zetareg.verify import CUBIC, RIEMANN, cubic_closed_form
from zetareg.zeta_fn import gen_zeta, reg_product


class TestGenZeta:
    def test_value_at_zero(self):
        assert gen_zeta(RIEMANN, 0) == -0.5

    def test_riemann_half(self):
        assert gen_zeta(RIEMANN, 0.5) == pytest.approx(zeta_c(0.5), abs=1e-10)

    def test_riemann_reduction_grid(self):
        for a in (-2.5, -1.3, 0, 0.4, 0.9):
            assert abs(gen_zeta(RIEMANN, a) - zeta_c(complex(a))) <= 1e-8

    def test_cubic_closed_form(self):
        # Z_L(a) = R_L(-a)
        for a in (-1.5, -0.4, 0.3, 0.7):
            assert abs(gen_zeta(CUBIC, a) - cubic_closed_form(-a)) <= 1e-9

    def test_region_gate(self):
        with pytest.raises(OutOfRegularizationRegionError):
            gen_zeta(RIEMANN, 1.2)


class TestRegProduct:
    def test_riemann_sqrt_two_pi(self, verify_check):
        assert verify_check("regularized_products").status == "pass"

    def test_riemann_z_prime(self):
        p = reg_product(RIEMANN)
        assert p.z_prime_0 == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-7)

    def test_cubic_product(self, verify_check):
        assert verify_check("regularized_products").status == "pass"

    def test_step_halving_stability(self):
        a = reg_product(CUBIC, step=1e-3).product
        b = reg_product(CUBIC, step=5e-4).product
        assert abs(a - b) < 1e-7

    def test_product_positive(self):
        p = reg_product(CUBIC)
        assert p.product > 0 and p.richardson_order == 2
