"""Scale-freeness: a cocycle times 2**k has exponents shifted by k log 2
and exactly the same directions, for every spec kind on both bases."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab.base import sample_points
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
)
from cocyclelab.oseledets import stable_directions, unstable_directions
from cocyclelab.spectrum import finite_time_exponents

# shift_gapped's table, shift_bunched's matrix and torus_pointwise's factors
GAPPED = [
    [[1.2, 0.0], [0.0, 0.8333333333333334]],
    [[1.194004998333631, -0.0831945138723568], [0.11980009997619379, 0.8291701377316882]],
]
BUNCHED = [[1.189207115002721, 0.0], [0.0, 0.8408964152537145]]
TORUS_FACTOR = [[1.5, 0.0], [0.0, 0.6666666666666666]]

# entries from about 2**255 fail mat2.regular; at 2**-400 the direction
# bits of the table and pointwise kinds move
SCALES = [-200, -30, 0, 200]


def build(kind: str, k: int):
    """(spec, base fixture name) for one spec kind scaled by 2**k."""
    if kind == "table":
        return LocallyConstantCocycle(table=np.ldexp(GAPPED, k)), "shift2"
    if kind in ("constant-shift", "constant-torus"):
        base = "shift2" if kind == "constant-shift" else "cat"
        return ConstantCocycle(matrix=np.ldexp(BUNCHED, k)), base
    angle = TrigExpr(sin_u=0.15, cos_v=0.1)
    factors = (RotationFactor(angle=angle), ConstantFactor(np.ldexp(TORUS_FACTOR, k)))
    return PointwiseCocycle(factors=factors), "cat"


KINDS = ["table", "constant-shift", "constant-torus", "pointwise"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("kind", KINDS)
def test_scaled_cocycle(kind, k, request):
    spec, base = build(kind, k)
    ref, _ = build(kind, 0)
    sys_ = request.getfixturevalue(base)
    n, depth = 60, 30
    points = sample_points(sys_, 100, n + depth, seed=3)
    got = finite_time_exponents(spec, sys_, points, n)
    want = finite_time_exponents(ref, sys_, points, n)
    shift = k * np.log(2.0)
    for g, w in ((got.plus, want.plus), (got.minus, want.minus)):
        # a few ulps of the larger of the two terms summed
        ulp = np.spacing(np.abs(w) + abs(shift))
        assert np.all(np.abs(g - (w + shift)) <= 4 * ulp)
    for extract in (unstable_directions, stable_directions):
        for g, w in zip(extract(spec, sys_, points, depth), extract(ref, sys_, points, depth)):
            assert np.array_equal(g, w)
