"""The finite-difference oracle the gradient tests compare ``backward`` against."""

from typing import Callable

import numpy as np


def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += h
        xm[i] -= h
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max abs difference scaled by max(1, largest numeric entry)."""
    scale = max(1.0, float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale
