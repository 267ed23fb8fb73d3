"""Integer trace identities: known values, route agreement, structure."""

import random
from fractions import Fraction

import pytest

from zetareg.errors import UnsupportedOrderError
from zetareg.generator import make_generator
from zetareg.integer_trace import (
    trace_closed_form,
    trace_integer,
    trace_laurent_oracle,
)
from zetareg.special import zeta_neg_int

F = Fraction


def random_generator(rng, max_degree=4):
    coeffs = [F(rng.randint(1, 5))]
    for _ in range(rng.randint(0, max_degree)):
        coeffs.append(F(rng.randint(-5, 5)))
    return make_generator(coeffs)


class TestRiemannReduction:
    def test_correction_vanishes(self):
        g = make_generator([1])
        for m in range(8):
            tv = trace_integer(g, m)
            assert tv.correction == 0
            assert tv.total == zeta_neg_int(m)


class TestKnownValues:
    def test_cubic_m1(self, verify_check):
        assert verify_check("trace_known_values").status == "pass"

    def test_cubic_m2(self, verify_check):
        assert verify_check("trace_known_values").status == "pass"

    def test_cubic_m3(self, verify_check):
        assert verify_check("trace_known_values").status == "pass"

    def test_linear_m2(self, verify_check):
        assert verify_check("trace_known_values").status == "pass"

    def test_mixed_m2(self, verify_check):
        assert verify_check("trace_known_values").status == "pass"

    def test_linear_m0_closed_form(self):
        # h'(0) = -2 into sum(1) = zeta(0) + h'(0)/2
        assert trace_closed_form(make_generator([1, 2]), 0) == F(-3, 2)

    def test_total_splits(self):
        tv = trace_integer(make_generator([1, 0, 3]), 1)
        assert tv.zeta_part == F(-1, 12) and tv.correction == -2
        assert tv.total == tv.zeta_part + tv.correction


class TestLaurentOracle:
    def test_cubic_m3(self):
        assert trace_laurent_oracle(make_generator([1, 0, 3]), 3) == F(1, 120) + 60

    def test_riemann_m5(self):
        assert trace_laurent_oracle(make_generator([1]), 5) == F(-1, 252)

    def test_matches_closed_form_on_random_generators(self):
        rng = random.Random(2718281828)
        for _ in range(25):
            g = random_generator(rng)
            for m in range(4):
                assert trace_laurent_oracle(g, m) == trace_closed_form(g, m)


class TestThreeRouteAgreement:
    def test_fifty_random_generators(self, verify_check):
        assert verify_check("trace_routes").status == "pass"

    def test_higher_orders_two_routes(self):
        rng = random.Random(777)
        for _ in range(10):
            g = random_generator(rng)
            for m in range(4, 8):
                assert trace_integer(g, m).total == trace_laurent_oracle(g, m)

    def test_series_only_degree_six_to_m_80(self, laurent_traces):
        rng = random.Random(6)
        for den in (2, 3):
            coeffs = [F(rng.randint(1, 5), den)]
            coeffs += [F(rng.randint(-5, 5), den) for _ in range(5)] + [F(1, den)]
            g = make_generator(coeffs, polynomial=False)
            want = laurent_traces(g, 80)
            assert want[:21] == [trace_laurent_oracle(g, m) for m in range(21)]
            assert [trace_integer(g, m).total for m in range(81)] == want, den


class TestStructure:
    def test_locality_in_inv_h_coefficients(self, verify_check):
        assert verify_check("trace_structure").status == "pass"

    def test_parity_even_inv_h(self, verify_check):
        assert verify_check("trace_structure").status == "pass"


class TestErrors:
    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            trace_closed_form(make_generator([1]), 4)
