"""Trapezoidal quadrature on uniform grids.

All inner products and integrals in the package are dot products with the
same weight vector, so eigenfunctions stay orthonormal under the exact
discretization that produced them.
"""

import numpy as np

from .errors import GridError


def trapezoid_weights(n_points: int, length: float = 1.0) -> np.ndarray:
    """Trapezoid-rule weights for a uniform grid spanning `length`.

    Endpoint weights are half the interior weight; the weights sum to
    `length` exactly up to rounding. Fewer than 2 points raise GridError.
    """
    if n_points < 2:
        raise GridError("trapezoid weights need at least 2 grid points")
    dt = length / (n_points - 1)
    w = np.full(n_points, dt)
    w[0] = dt / 2.0
    w[-1] = dt / 2.0
    return w

