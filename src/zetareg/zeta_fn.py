"""Generalized zeta function Z_L(alpha) = R_L(-alpha) and regularized products.

The regularized product of the positive integers is exp(-Z_L'(0)); the
derivative is taken by central differences with Richardson extrapolation,
evaluating the finite-part route at +/-step, so the stencil avoids the
exact integer alpha = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRegularizationRegionError
from .fractional import RegulatorConfig, frac_regulator, frac_regulator_fp
from .generator import GeneratorSpec


@dataclass(frozen=True)
class ProductValue:
    z_prime_0: float
    product: float
    step: float
    richardson_order: int


def gen_zeta(g: GeneratorSpec, alpha: complex,
             cfg: RegulatorConfig | None = None) -> complex:
    """Z_L(alpha) = R_L(-alpha) for Re alpha < 1."""
    alpha = complex(alpha)
    if alpha.real >= 1.0:
        raise OutOfRegularizationRegionError(
            f"Z_L is computed for Re alpha < 1; got {alpha.real}")
    return frac_regulator(g, -alpha, cfg).total


def reg_product(g: GeneratorSpec, step: float = 1e-3,
                cfg: RegulatorConfig | None = None) -> ProductValue:
    """prod(n) = exp(-Z_L'(0)) with a Richardson-extrapolated stencil.

    Central differences at the given step and at step/2 (defaults 1e-3 and
    5e-4), combined to cancel the h**2 term.
    """
    def z_at(a: float) -> float:
        return frac_regulator_fp(g, -a, cfg).total.real

    diffs = []
    for h in (step, step / 2.0):
        diffs.append((z_at(h) - z_at(-h)) / (2.0 * h))
    d1, d2 = diffs
    z_prime = (4.0 * d2 - d1) / 3.0
    return ProductValue(
        z_prime_0=z_prime,
        product=math.exp(-z_prime),
        step=step,
        richardson_order=2,
    )
