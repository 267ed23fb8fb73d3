"""Generator construction, Phi data, spectral function, Hankel validation."""

import json
import math
import random
from fractions import Fraction

import pytest

from zetareg.errors import (
    EmptySpecError,
    HankelConditionsFailedError,
    NonpositiveConstantError,
    NotPolynomialError,
)
from zetareg.fractional import frac_regulator_fp
from zetareg.generator import (
    build_phi,
    generator_from_dict,
    gsf_eval,
    load_generator,
    make_generator,
    neg_phi_neg,
    phi_eval_real,
    validate_hankel,
)
from zetareg.series import PowerSeries

F = Fraction


class TestMakeGenerator:
    def test_riemann(self):
        g = make_generator([1], name="riemann")
        assert g.p0 == 1 and g.is_polynomial

    def test_cubic_odd(self):
        g = make_generator([1, 0, 3])
        assert g.inv_h.coeffs == (F(1), F(0), F(3))

    def test_linear(self):
        g = make_generator([1, 2])
        assert g.p0 == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptySpecError):
            make_generator([])

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(NonpositiveConstantError):
            make_generator([0, 1])
        with pytest.raises(NonpositiveConstantError):
            make_generator([-2])


class TestJSONInterface:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(
            {"name": "cubic", "inv_h": ["1", "0", "3"], "polynomial": True}))
        g = load_generator(path)
        assert g.name == "cubic"
        assert g.inv_h.coeffs == (F(1), F(0), F(3))

    def test_rational_strings(self):
        g = generator_from_dict({"name": "r", "inv_h": ["1/2", "3/4"], "polynomial": True})
        assert g.inv_h.coeffs == (F(1, 2), F(3, 4))

    def test_malformed_rational(self):
        with pytest.raises(ValueError):
            generator_from_dict({"name": "bad", "inv_h": ["1/x"], "polynomial": True})

    def test_missing_inv_h(self):
        with pytest.raises(EmptySpecError):
            generator_from_dict({"name": "bad"})


class TestBuildPhi:
    def test_riemann(self):
        g = make_generator([1])
        assert g.phi_coeffs == (F(0), F(1))
        assert build_phi(g, order=4).coeffs == (F(1), F(0), F(0), F(0))

    def test_cubic(self):
        g = make_generator([1, 0, 3])
        assert g.phi_coeffs == (F(0), F(1), F(0), F(1))
        assert build_phi(g, order=4).coeffs == (F(1), F(0), F(1), F(0))

    def test_termwise_integration(self):
        assert make_generator([1, 2, 3]).phi_coeffs == (F(0), F(1), F(1), F(1))

    def test_diff_recovers_inv_h(self):
        rng = random.Random(5)
        for _ in range(20):
            coeffs = [F(rng.randint(1, 5))] + [
                F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
            g = make_generator(coeffs)
            assert PowerSeries(g.phi_coeffs).diff().coeffs == tuple(coeffs)

    def test_reduced_shift(self):
        g = make_generator([1, 2, 3])
        assert build_phi(g, order=10).coeffs == g.phi_coeffs[1:] + (F(0),) * 7

    def test_phi0_is_p0(self):
        assert build_phi(make_generator([F(3, 2), 1]), order=6)[0] == F(3, 2)


class TestRealEvaluation:
    def test_cubic_at_two(self):
        g = make_generator([1, 0, 3])
        assert phi_eval_real(g, 2.0) == 10.0

    def test_odd_symmetry(self):
        g = make_generator([1, 0, 3])
        assert neg_phi_neg(g, 2.0) == 10.0

    def test_riemann(self):
        assert phi_eval_real(make_generator([1]), 7.0) == 7.0

    def test_even_inv_h_gives_odd_phi(self):
        g = make_generator([2, 0, 1, 0, 5])
        assert all(g.phi_coeffs[k] == 0 for k in range(0, len(g.phi_coeffs), 2))
        for x in (0.3, 1.7, 12.0):
            assert neg_phi_neg(g, x) == phi_eval_real(g, x)

    def test_series_only_rejected(self):
        g = make_generator([1, 1], polynomial=False)
        with pytest.raises(NotPolynomialError):
            phi_eval_real(g, 1.0)


class TestSpectralFunction:
    def test_log2_value(self):
        assert gsf_eval(make_generator([1]), math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_geometric_sum_oracle(self):
        # K_L(t) = sum_n e^(-n Phi(t)) summed directly
        for coeffs in ([1], [1, 0, 3], [1, 2, 3]):
            g = make_generator(coeffs)
            for t in (0.5, 1.0, 2.0):
                phi = phi_eval_real(g, t)
                brute = sum(math.exp(-n * phi) for n in range(1, 200))
                assert gsf_eval(g, t) == pytest.approx(brute, abs=1e-12)

    def test_decay_at_large_t(self):
        assert gsf_eval(make_generator([1]), 40.0) < 1e-15


class TestHankelValidation:
    def test_riemann_passes(self):
        assert validate_hankel(make_generator([1])) is True

    def test_cubic_passes(self):
        assert validate_hankel(make_generator([1, 0, 3])) is True

    def test_linear_fails(self):
        # -Phi(-x) = x - x^2 turns negative at x = 2
        assert neg_phi_neg(make_generator([1, 2]), 2.0) == -2.0
        assert validate_hankel(make_generator([1, 2])) is False

    def test_monotonicity_warning(self):
        # p decreasing near 0 (h increasing) warns; p(-x) = 1 + x/10 - x^3
        g = make_generator([1, F(-1, 10), 0, 1])
        with pytest.warns(UserWarning):
            assert validate_hankel(g) is False

    def test_no_warning_for_standard_generators(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            validate_hankel(make_generator([1, 0, 3]))

    @pytest.mark.parametrize("coeffs, passed", [
        ([1, 2, 3], True),
        ([1, 2, 1], True),        # p(-x) = (1 - x)^2 touches zero, keeps its sign
        ([1, 4, 6, 4, 1], True),  # (1 - x)^4
        ([1, F(1, 1000), F(1, 5 * 10**6)], False),  # sign changes at x = 1382, 3618
    ])
    def test_exact_verdicts_without_warning(self, coeffs, passed):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            assert validate_hankel(make_generator(coeffs)) is passed

    def test_accepts_with_warning(self):
        # (1 - t/2)(1 + t + t^2): p(-x) > 0 on x > 0, but p decreases for large t
        g = make_generator([1, F(1, 2), F(1, 2), F(-1, 2)])
        with pytest.warns(UserWarning):
            assert validate_hankel(g) is True

    def test_warning_names_the_caller(self):
        # through the cached verdict and the fractional route, the warning
        # points at this file, not at the library
        g = make_generator([1, F(1, 2), F(1, 2), F(-1, 2)])
        with pytest.warns(UserWarning) as direct:
            validate_hankel(g)
        with pytest.warns(UserWarning) as routed:
            frac_regulator_fp(g, 0.5)
        assert [w.filename for w in direct] + [w.filename for w in routed] == [__file__] * 2

    def test_far_root_refused(self):
        # p(-x) = 1 + x - x^2/1e7 changes sign near x = 1e7
        g = make_generator([1, -1, F(-1, 10**7)])
        with pytest.warns(UserWarning):
            assert g.hankel_passed is False
        with pytest.raises(HankelConditionsFailedError):
            frac_regulator_fp(g, -0.5)


class TestDerivedData:
    def test_cubic_radii(self):
        # phi(-x) = 1 + x^2 vanishes at +-i; Phi(z) = z + z^3 at 0 for z = +-i
        g = make_generator([1, 0, 3])
        assert g.taylor_switch_radius == 0.6
        assert g.branch_point_radius == pytest.approx(1.0, abs=1e-12)

    def test_float_coefficients(self):
        g = make_generator([F(3, 2), 1, 3])
        assert list(g.phi_np) == [1.0, 0.5, 1.5, 0.0]
        assert list(g.phi_reduced_np) == [1.0, 0.5, 1.5]
        with pytest.raises(ValueError):
            g.phi_np[0] = 2.0

    def test_traces_compute_no_float_data(self):
        from zetareg.integer_trace import trace_integer
        g = make_generator([1, 2, 3])
        trace_integer(g, 3)
        assert not {"phi_np", "hankel_passed"} & set(vars(g))

    def test_equality_ignores_cached_data(self):
        g, h = make_generator([1, 0, 3]), make_generator([1, 0, 3])
        assert g.hankel_passed
        assert g == h and hash(g) == hash(h)

    def test_series_only_has_no_global_data(self):
        with pytest.raises(NotPolynomialError):
            make_generator([1, 1], polynomial=False).phi_np
