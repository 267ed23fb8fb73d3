"""Circle + ray contour route for the fractional regulator, and branch maps.

The keyhole decomposition of the Hankel contour gives

    R_L(alpha) = zeta(-alpha)
               + Gamma(1+alpha)/(2 pi i) * circle integral of Phi**-(1+alpha) dz/z
               - 1/Gamma(-alpha)       * ray integral over [rho, inf)

The circle factor Phi**-(1+alpha) = z**-(1+alpha) phi(z)**-(1+alpha) is
sampled on a midpoint trapezoid grid with the log branch tracked
continuously from theta = 0; the analytic periodic factor is transformed
per Fourier mode and each mode's phase integral is closed-form
(2 pi sinc(m-1-alpha)), which keeps the node-doubling loop spectrally
convergent for non-integer alpha and exact at integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import RadiusTooLargeError
from .generator import GeneratorSpec, require_hankel
from .quadrature import adaptive_quadrature, integrate_to_infinity
from .special import gamma_c, polylog_grid, rgamma, zeta_c

TWO_PI = 2.0 * math.pi
TOL = 1e-11               # node-doubling and quadrature tolerance
N_CIRCLE = 512            # first circle grid; doubled up to MAX_N_CIRCLE
MAX_N_CIRCLE = 1 << 15
TAIL_CUT = 1.0            # the ray splits into [rho, cut] and [cut, inf)


@dataclass(frozen=True)
class RegulatorValue:
    """R_L(alpha) = zeta_part + correction, as computed by ``route``."""

    alpha: complex
    zeta_part: complex
    correction: complex
    total: complex
    route: str
    err_estimate: float
    crosscheck_delta: float | None = None


@dataclass(frozen=True)
class ComplexGrid:
    re_range: tuple
    im_range: tuple
    nx: int
    ny: int
    values: np.ndarray   # complex, NaN where undefined
    defined: np.ndarray  # bool


def validate_radius(g: GeneratorSpec, rho: float):
    """Reject rho unless |Phi| < 2 pi on the circle and no nonzero solution
    of Phi(z) = 2 pi i k (the secondary branch points, plus the k = 0
    zeros of Phi away from the origin) lies within rho/0.9."""
    if rho <= 0:
        raise RadiusTooLargeError("rho must be positive")
    theta = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
    z = rho * np.exp(1j * theta)
    if np.abs(np.polyval(g.phi_np, z)).max() >= TWO_PI:
        raise RadiusTooLargeError(
            f"|Phi| reaches 2*pi on the rho = {rho} circle for {g.name!r}")
    nearest = g.branch_point_radius
    if rho >= 0.9 * nearest:
        raise RadiusTooLargeError(
            f"rho = {rho} too close to a secondary branch point at |z| = {nearest:.4g}")


def _circle_once(g: GeneratorSpec, alpha: complex, rho: float, n: int) -> complex:
    h = TWO_PI / n
    theta = -math.pi + (np.arange(n) + 0.5) * h
    z = rho * np.exp(1j * theta)
    phi_reduced = np.polyval(g.phi_reduced_np, z)
    # continuous branch of log(phi) along theta, anchored near theta = 0
    # where phi(rho) > 0
    ang = np.unwrap(np.angle(phi_reduced))
    mid = n // 2
    ang -= TWO_PI * round(ang[mid] / TWO_PI)
    logphi = np.log(np.abs(phi_reduced)) + 1j * ang
    gvals = np.exp(-(1.0 + alpha) * logphi)
    # DFT on the midpoint grid; mode m carries the phase e^{-im theta_j}
    m = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ...
    ghat = np.fft.fft(gvals) / n * np.exp(1j * m * (math.pi - 0.5 * h))
    modes = np.sinc(m - 1.0 - alpha)
    total = np.sum(ghat * modes)
    return gamma_c(1.0 + alpha) * rho ** (-(1.0 + alpha)) * total


def circle_integral(g: GeneratorSpec, alpha: complex, rho: float = 0.25) -> complex:
    """Gamma(1+alpha)/(2 pi i) times the circle integral of
    Phi**-(1+alpha) dz/z, node-doubled until stable below TOL."""
    alpha = complex(alpha)
    require_hankel(g)
    validate_radius(g, rho)
    n = N_CIRCLE
    prev = _circle_once(g, alpha, rho, n)
    while n < MAX_N_CIRCLE:
        n *= 2
        cur = _circle_once(g, alpha, rho, n)
        if abs(cur - prev) < TOL:
            return cur
        prev = cur
    return prev


def ray_integral(g: GeneratorSpec, alpha: complex, rho: float = 0.25) -> complex:
    """1/Gamma(-alpha) * int_rho^inf (-Phi(-x))**-(1+alpha) dx/x.

    Exactly zero at nonnegative integer alpha (1/Gamma(-m) = 0)."""
    alpha = complex(alpha)
    require_hankel(g)
    rg = rgamma(-alpha)
    if rg == 0:
        return 0.0 + 0.0j

    def integrand(x: np.ndarray) -> np.ndarray:
        base = x * np.polyval(g.phi_reduced_np, -x)  # -Phi(-x) > 0
        return np.exp(-(1.0 + alpha) * np.log(base)) / x

    cut = max(TAIL_CUT, rho)
    head = adaptive_quadrature(integrand, rho, cut, tol=TOL / 2)
    tail = integrate_to_infinity(integrand, cut, tol=TOL / 2)
    return rg * (head.value + tail.value)


def regulator_circle_ray(g: GeneratorSpec, alpha: complex,
                         rho: float = 0.25) -> RegulatorValue:
    """zeta(-alpha) + circle - ray, assembled as a RegulatorValue."""
    alpha = complex(alpha)
    circ = circle_integral(g, alpha, rho)
    ray = ray_integral(g, alpha, rho)
    zeta_part = zeta_c(-alpha)
    correction = circ - ray
    return RegulatorValue(
        alpha=alpha,
        zeta_part=zeta_part,
        correction=correction,
        total=zeta_part + correction,
        route="circle_ray",
        err_estimate=TOL * 4 + 1e-13 * (1.0 + abs(zeta_part)),
    )


# --------------------------------------------------------------------------
# branch maps
# --------------------------------------------------------------------------

DEFINED_MARGIN = 1e-9


def branch_map(g: GeneratorSpec, alpha: complex,
               re_range: tuple = (-3.0, 3.0), im_range: tuple = (-3.0, 3.0),
               nx: int = 121, ny: int = 121, tol: float = 1e-9) -> ComplexGrid:
    """Sample Li_{-alpha}(e^{-Phi(z)}) where the series converges.

    Grid points with |e^{-Phi(z)}| >= 1 - 1e-9 are undefined (NaN)."""
    alpha = complex(alpha)
    xs = np.linspace(re_range[0], re_range[1], nx)
    ys = np.linspace(im_range[0], im_range[1], ny)
    zx, zy = np.meshgrid(xs, ys)  # shape (ny, nx)
    z = zx + 1j * zy
    w = np.exp(-np.polyval(g.phi_np, z))
    defined = np.abs(w) < 1.0 - DEFINED_MARGIN
    values = np.full(z.shape, complex("nan+nanj"), dtype=complex)
    values[defined] = polylog_grid(-alpha, w[defined], tol=tol)
    return ComplexGrid(re_range=tuple(re_range), im_range=tuple(im_range),
                       nx=nx, ny=ny, values=values, defined=defined)


def grid_rows(grid: ComplexGrid):
    """CSV rows (re, im, abs, arg, defined), row-major; undefined cells
    carry nan, nan, 0 in the last three fields."""
    xs = np.linspace(grid.re_range[0], grid.re_range[1], grid.nx)
    ys = np.linspace(grid.im_range[0], grid.im_range[1], grid.ny)
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if grid.defined[iy, ix]:
                v = grid.values[iy, ix]
                yield (xs[ix], ys[iy], abs(v), cmath.phase(v), 1)
            else:
                yield (xs[ix], ys[iy], float("nan"), float("nan"), 0)


def write_grid_csv(grid: ComplexGrid, fh):
    fh.write("re,im,abs,arg,defined\n")
    fh.writelines(map("%.17g,%.17g,%.17g,%.17g,%d\n".__mod__, grid_rows(grid)))
