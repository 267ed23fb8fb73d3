"""Adaptive Gauss-Kronrod quadrature: failure modes."""

import numpy as np
import pytest

from zetareg.errors import QuadratureFailureError
from zetareg.quadrature import adaptive_quadrature


def test_nan_on_part_of_interval_raises():
    # a NaN error estimate compares False with every split threshold; the
    # loop must stop instead of spinning without splitting any panel
    def f(x):
        return np.where(x < 0.7, x, np.nan).astype(complex)

    with pytest.raises(QuadratureFailureError):
        adaptive_quadrature(f, 0.0, 1.0)
