"""Test-side references that the library itself does not need: the rotation
matrix and the base metric between two points, each written out directly."""

from __future__ import annotations

import numpy as np

from cocyclelab.base import BaseSystem, BasePoint, ShiftSystem, torus_distances
from cocyclelab.errors import HorizonExceeded


def rotation(theta: float) -> np.ndarray:
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, -st], [st, ct]], dtype=float)


def base_distance(sys: BaseSystem, x: BasePoint, y: BasePoint) -> float:
    """lambda0 ** k for shift points that first disagree k steps from the
    centre (0 when they agree on every symbol both windows hold), and the
    torus metric for torus points."""
    if isinstance(sys, ShiftSystem):
        # the symbols both windows hold on both sides of the current one
        common = min(x.horizon - abs(x.offset), y.horizon - abs(y.offset))
        if common < 0:
            raise HorizonExceeded("windows share no common index range")
        cx = x.horizon + x.offset
        cy = y.horizon + y.offset
        xs = x.window[cx - common : cx + common + 1]
        ys = y.window[cy - common : cy + common + 1]
        mismatch = np.nonzero(xs != ys)[0]
        if mismatch.size == 0:
            return 0.0
        k = int(np.min(np.abs(mismatch - common)))
        return sys.lambda0 ** k
    return float(torus_distances(x.coords, y.coords))
