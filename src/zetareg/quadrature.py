"""Adaptive Gauss-Kronrod (G7/K15) quadrature for complex-valued integrands.

The integrand receives a float numpy array of nodes and returns complex
values; all active panels are evaluated in one batched call per refinement
sweep.  Panels with the largest error estimates are bisected until the
summed |K15 - G7| estimate meets the absolute tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailureError

# G7/K15 nodes on [-1, 1] and weights (Kronrod abscissae; the Gauss rule
# uses the odd-indexed nodes).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err_estimate: float
    n_evals: int
    n_panels: int


def _panel_rule(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Vectorized K15 value and error estimate per panel.

    The raw |K15 - G7| difference is inflated on panels with large
    variation (resasc scaling, as in QUADPACK) so that near-singular
    panels do not under-report.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
    k15 = half * (vals @ _WK)
    g7 = half * (vals[:, _GAUSS_IDX] @ _WG)
    err = np.abs(k15 - g7)
    mean = k15 / (hi - lo)
    resasc = half * (np.abs(vals - mean[:, None]) @ _WK)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    scaled = np.where(resasc > 0, scaled, err)
    return k15, np.maximum(err, scaled)


def adaptive_quadrature(f: Callable, a: float, b: float, tol: float = 1e-11,
                        max_panels: int = 4000) -> QuadratureResult:
    """Integrate f over [a, b] to the given absolute tolerance.

    Raises QuadratureFailureError when the panel budget is exhausted with
    the summed error estimate still above tol, or when that estimate is not
    finite (no panel could then be chosen for splitting).
    """
    if a == b:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, 0)
    lo = np.array([float(a)])
    hi = np.array([float(b)])
    vals, errs = _panel_rule(f, lo, hi)
    n_evals = 15

    while True:
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        if not math.isfinite(total_err):
            raise QuadratureFailureError(
                f"quadrature error estimate is {total_err} with {len(lo)} panels")
        if len(lo) >= max_panels:
            raise QuadratureFailureError(
                f"quadrature did not reach tol={tol}; "
                f"err={total_err:.3e} with {len(lo)} panels")
        # split every panel whose error exceeds its share of the budget
        share = max(tol / max(len(lo), 1), 1e-300)
        split = errs > 0.5 * share
        if not split.any():
            split = errs == errs.max()
        keep = ~split
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[keep], lo[split], mids])
        new_hi = np.concatenate([hi[keep], mids, hi[split]])
        new_vals, new_errs = _panel_rule(f, new_lo[keep.sum():], new_hi[keep.sum():])
        n_evals += 15 * (len(new_lo) - keep.sum())
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        lo, hi = new_lo, new_hi

    return QuadratureResult(
        value=complex(vals.sum()),
        err_estimate=float(errs.sum()),
        n_evals=n_evals,
        n_panels=len(lo),
    )


def integrate_to_infinity(f: Callable, a: float, tol: float = 1e-11,
                          max_panels: int = 4000) -> QuadratureResult:
    """Integrate f over [a, inf) by mapping x = a/u, u in (0, 1].

    int_a^inf f(x) dx = int_0^1 f(a/u) a/u**2 du, evaluated adaptively;
    the integrand must decay fast enough for the mapped endpoint u = 0 to
    be integrable.
    """
    if a <= 0:
        raise ValueError("lower endpoint must be positive for the 1/u mapping")

    def mapped(u: np.ndarray) -> np.ndarray:
        x = a / u
        return np.asarray(f(x), dtype=complex) * (a / u**2)

    return adaptive_quadrature(mapped, 0.0, 1.0, tol=tol, max_panels=max_panels)
