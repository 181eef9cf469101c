"""Directional statistics for angle-valued data.

All phases in this package live on (-pi, pi]; plain arithmetic means and
distances are wrong near the branch cut, so every module routes angle math
through these helpers.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap(angle):
    """Wrap angles to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(angle), TWO_PI)


def circ_dist(a, b):
    """Signed circular distance a - b, wrapped to (-pi, pi]."""
    return wrap(np.asarray(a) - np.asarray(b))


def circ_mean(angles, axis=None):
    """Circular mean: argument of the sum of unit phasors."""
    phasors = np.exp(1j * np.asarray(angles, dtype=float))
    return np.angle(phasors.sum(axis=axis))


def resultant_length(angles, axis=None):
    """Mean resultant length R-bar in [0, 1]; clipped, since the rounded
    mean of equal unit phasors can exceed 1 by an ulp."""
    phasors = np.exp(1j * np.asarray(angles, dtype=float))
    return np.minimum(np.abs(phasors.mean(axis=axis)), 1.0)


def circ_std(angles, axis=None):
    """Circular standard deviation sqrt(-2 ln R-bar), in radians: +0.0 for
    equal angles, inf where all phasors cancel exactly (R-bar = 0).
    """
    rbar = resultant_length(angles, axis=axis)
    with np.errstate(divide="ignore"):
        # ln R-bar <= 0; abs gives -2 ln R-bar exactly, and +0.0 at R-bar = 1
        return np.sqrt(np.abs(2.0 * np.log(rbar)))
