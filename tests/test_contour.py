"""Circle + ray contour route and branch-map emission."""

import cmath
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from zetareg.contour import (
    branch_map,
    circle_integral,
    grid_rows,
    ray_integral,
    regulator_circle_ray,
    validate_radius,
    write_grid_csv,
)
from zetareg.errors import HankelConditionsFailedError, InvalidOrderError, RadiusTooLargeError
from zetareg.generator import load_generator, make_generator
from zetareg.integer_trace import trace_integer
from zetareg.special import polylog_series, rgamma, zeta_c
from zetareg.verify import CUBIC, RIEMANN

DEMO_GENERATORS = Path(__file__).resolve().parent.parent / "demos" / "generators"

# (generator, window, size) of the benchmark's branch-map ops: the demo
# square, strips across |w| = 1 near the imaginary axis, right-half-plane
# zooms; plus a window where e**-Phi underflows to 0
WINDOWS = (
    ("cubic_odd", (-3, 3, -3, 3), 121),
    ("riemann", (-0.25, 0.5, -2.5, 2.5), 61),
    ("mixed", (0.2, 2.2, -1, 1), 101),
    ("linear", (-1, 2, 0, 3), 161),
    ("mixed", (-3, 3, -3, 3), 81),
    ("cubic_odd", (-0.25, 0.5, -2.5, 2.5), 61),
    ("riemann", (0.2, 2.2, -1, 1), 141),
    ("riemann", (700, 800, -1, 1), 21),
)


class TestCircle:
    def test_riemann_closed_form(self):
        rho = 0.25
        for a in (0.5, 1.7, -0.5):
            got = circle_integral(RIEMANN, a)
            want = rgamma(complex(-a)) / (rho ** (1 + a) * (1 + a))
            assert got == pytest.approx(want, abs=1e-11)

    def test_integer_alpha_equals_exact_correction(self):
        for g in (CUBIC, make_generator([1, 1, 1])):
            for m in (0, 1, 2, 3):
                got = circle_integral(g, float(m))
                want = complex(trace_integer(g, m).correction)
                assert got == pytest.approx(want, abs=1e-10)

    def test_rho_independence_with_ray(self):
        for rho in (0.2, 0.3):
            v = circle_integral(CUBIC, 0.5, rho) - ray_integral(CUBIC, 0.5, rho)
            w = circle_integral(CUBIC, 0.5, 0.25) - ray_integral(CUBIC, 0.5, 0.25)
            assert v == pytest.approx(w, abs=1e-9)

    def test_radius_guard(self):
        with pytest.raises(RadiusTooLargeError):
            circle_integral(CUBIC, 0.5, rho=0.95)
        with pytest.raises(RadiusTooLargeError):
            validate_radius(RIEMANN, 7.0)  # |Phi| = 7 > 2 pi on the circle
        validate_radius(CUBIC, 0.25)

    def test_node_doubling_stability(self):
        from zetareg.contour import _circle_once
        for a in (0.5, 1.7):
            v1 = _circle_once(CUBIC, complex(a), 0.25, 512)
            v2 = _circle_once(CUBIC, complex(a), 0.25, 1024)
            assert abs(v1 - v2) < 1e-11


class TestRay:
    def test_riemann_closed_form(self):
        rho = 0.25
        for a in (0.5, 1.7, -0.5):
            got = ray_integral(RIEMANN, a)
            want = rgamma(complex(-a)) / (rho ** (1 + a) * (1 + a))
            assert got == pytest.approx(want, abs=1e-11)

    def test_exact_zero_at_integers(self):
        for m in (0, 1, 2, 5):
            assert ray_integral(CUBIC, float(m)) == 0

    def test_hankel_gate(self):
        with pytest.raises(HankelConditionsFailedError):
            ray_integral(make_generator([1, 2]), 0.5)


class TestRegulator:
    def test_riemann_reduction(self):
        for a in (0.7, -0.5, 1.3):
            R = regulator_circle_ray(RIEMANN, a)
            assert abs(R.total - zeta_c(complex(-a))) <= 1e-10

    def test_cubic_closed_form(self, verify_check):
        assert verify_check("closed_form_regulator").status == "pass"

    def test_route_equivalence(self, verify_check):
        assert verify_check("route_equivalence").status == "pass"

    def test_rho_invariance_of_total(self, verify_check):
        assert verify_check("rho_invariance").status == "pass"

    def test_phase_consistency(self, verify_check):
        assert verify_check("phase_consistency").status == "pass"


class TestBranchMap:
    def test_divergent_point_undefined(self):
        grid = branch_map(RIEMANN, 0.5, (-1.0, -1.0), (0.01, 0.01), 1, 1)
        assert not grid.defined[0, 0]
        assert np.isnan(grid.values[0, 0].real)

    def test_convergent_point_value(self):
        grid = branch_map(RIEMANN, 0.5, (1.0, 1.0), (0.0, 0.0), 1, 1)
        assert grid.defined[0, 0]
        brute = sum(k**0.5 * math.exp(-k) for k in range(1, 100))
        assert grid.values[0, 0] == pytest.approx(brute, abs=1e-8)

    def test_spikes_near_secondary_branch_points(self, verify_check):
        assert verify_check("branch_map_sanity").status == "pass"

    def test_csv_format(self):
        grid = branch_map(RIEMANN, 0.5, (-1.0, 1.0), (-1.0, 1.0), 3, 2)
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "re,im,abs,arg,defined"
        assert len(lines) == 1 + 3 * 2 + 1  # header + rows + trailing newline
        undefined = [ln for ln in lines[1:-1] if ln.endswith(",0")]
        for ln in undefined:
            assert ",nan,nan,0" in ln

    def test_positive_integer_order(self):
        # the expansion about w = 1 is invalid at alpha = -1: a map whose
        # defined cells all have |w| <= 0.99 is summed, one beyond is refused
        grid = branch_map(RIEMANN, -1.0, (0.5, 3.0), (-1, 1), 5, 5)
        assert grid.defined.all()
        xs, ys = np.linspace(0.5, 3.0, 5), np.linspace(-1, 1, 5)
        for (iy, ix), v in np.ndenumerate(grid.values):
            want = polylog_series(1.0, cmath.exp(-complex(xs[ix], ys[iy])))
            assert abs(v - want) <= 1e-9 * max(1.0, abs(want))
        with pytest.raises(InvalidOrderError):
            branch_map(RIEMANN, -1.0, (0.001, 3.0), (-1, 1), 5, 5)

    @pytest.mark.parametrize("alpha", [0.5, 1.75, 2.0])
    def test_no_floating_point_warnings(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, win, n in WINDOWS:
                g = load_generator(DEMO_GENERATORS / f"{name}.json")
                grid = branch_map(g, alpha, win[:2], win[2:], n, n)
                assert np.isfinite(grid.values[grid.defined]).all()
            grid = branch_map(RIEMANN, -1.0, (700, 800), (-1, 1), 21, 21)
        assert grid.defined.all() and (grid.values.real[:, -1] == 0).all()

    def test_csv_matches_formatted_rows(self):
        grid = branch_map(CUBIC, 0.5, (-1.5, 1.5), (-1.5, 1.5), 9, 7)
        assert grid.defined.any() and not grid.defined.all()
        buf = io.StringIO()
        write_grid_csv(grid, buf)
        want = "re,im,abs,arg,defined\n" + "".join(
            f"{re:.17g},{im:.17g},{av:.17g},{ph:.17g},{d}\n" for re, im, av, ph, d in grid_rows(grid))
        assert buf.getvalue() == want

    def test_row_major_order(self):
        grid = branch_map(RIEMANN, 0.5, (0.5, 1.5), (0.0, 1.0), 2, 2)
        rows = list(grid_rows(grid))
        assert [r[:2] for r in rows] == [(0.5, 0.0), (1.5, 0.0), (0.5, 1.0), (1.5, 1.0)]
