"""Test-side references that the library itself does not need: the rotation
matrix, the base metric between two points, a shift spec's value read
symbol by symbol and the attraction of directions onto the splitting, each
written out directly."""

from __future__ import annotations

import numpy as np

from cocyclelab import engine, mat2
from cocyclelab.base import (
    BaseSystem,
    BasePoint,
    ShiftSystem,
    sample_points,
    torus_distances,
)
from cocyclelab.cocycle import (
    ConstantCocycle,
    LocallyConstantCocycle,
    PerturbedCocycle,
    StackedCocycle,
)
from cocyclelab.errors import HorizonExceeded
from cocyclelab.oseledets import stable_directions, unstable_directions


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


def word_matrix(spec, symbols) -> np.ndarray:
    """A(x) of a shift spec, read from the forward symbols x_0, x_1, ...
    one at a time: a table's entry at its word's number, formed in Python
    ints with x_0 most significant; a constant's matrix; a perturbation
    composed from its parts' values, A + t B or A expm(t B).  A stack
    gives one matrix per member."""
    if isinstance(spec, StackedCocycle):
        return np.array([word_matrix(m, symbols) for m in spec.members])
    if isinstance(spec, LocallyConstantCocycle):
        number = 0
        for s in symbols[: spec.depth]:
            number = number * spec.alphabet_size + int(s)
        return spec.table[number]
    if isinstance(spec, ConstantCocycle):
        return spec.matrix
    if isinstance(spec, PerturbedCocycle):
        base = word_matrix(spec.base, symbols)
        step = spec.t * word_matrix(spec.direction, symbols)
        return base + step if spec.rule == "additive" else base @ mat2.expm(step)
    raise TypeError(f"no word lookup for {type(spec).__name__}")


def oracle_entries(spec, points, at: int = 0):
    """The four entries of A(f^at x) at each shift point, from
    ``word_matrix``, as contiguous (S,) arrays ((M, S) for a stack)."""
    depth = max(spec.symbol_depth, 1)
    mats = np.array(
        [word_matrix(spec, [p.symbol(at + i) for i in range(depth)]) for p in points]
    )
    mats = np.moveaxis(mats, 0, -3)  # members first, then samples
    return tuple(
        np.ascontiguousarray(mats[..., i, j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))
    )


def oracle_direction_walk(spec, points, n: int, backward: bool):
    """The state fields of an n-step direction scan at each shift point
    (``engine.forward_scan``, or ``engine.backward_scan`` when
    ``backward``), and for a forward walk the (log_scale, logdet) path, from
    a walk over ``word_matrix``'s matrices one step at a time with the
    scans' mat2 arithmetic: multiply, divide by the operator norm, and add
    the logs of the norm and of |det|."""
    size = len(points)
    a, b, c, d = np.ones(size), np.zeros(size), np.zeros(size), np.ones(size)
    log_scale, logdet = np.zeros(size), np.zeros(size)
    ls_path, ldet_path = [], []
    for j in range(n):
        va, vb, vc, vd = oracle_entries(spec, points, -1 - j if backward else j)
        if backward:
            prod = mat2.matmul_batch(a, b, c, d, va, vb, vc, vd)
        else:
            prod = mat2.matmul_batch(va, vb, vc, vd, a, b, c, d)
        nrm = mat2.opnorm_batch(*prod)
        a, b, c, d = (x / nrm for x in prod)
        log_scale = log_scale + np.log(nrm)
        logdet = logdet + np.log(np.abs(va * vd - vb * vc))
        ls_path.append(log_scale)
        ldet_path.append(logdet)
    state = dict(a=a, b=b, c=c, d=d, log_scale=log_scale, logdet=logdet)
    return state, (np.array(ls_path), np.array(ldet_path))


def _push_lines(va, vb, vc, vd, x, y):
    """Push (S, k) direction columns by per-sample matrices and normalize."""
    wx = va[:, None] * x + vb[:, None] * y
    wy = vc[:, None] * x + vd[:, None] * y
    nrm = np.hypot(wx, wy)
    return wx / nrm, wy / nrm


def stepwise_attraction(spec, sys, side, samples, grid, n, depth, seed):
    """(samples, grid) projective distances between a grid of directions and
    the extracted direction after both are pushed n steps along each
    sampled orbit, one step at a time: A read at the batch's position and
    the batch moved by one step, forward for the unstable side, backward
    with A inverted as adj(A)/det(A) for the stable side.  Small distances
    show the grid collapsing onto the splitting."""
    extract = unstable_directions if side == "unstable" else stable_directions
    pts = sample_points(sys, samples, depth + n + 2 + spec.symbol_depth, seed)
    rx, ry, ok = extract(spec, sys, pts, depth)
    assert ok.all()
    # grid of initial angles, offset to avoid symmetry artifacts
    thetas = np.pi * (np.arange(grid) + 0.37) / grid
    gx = np.tile(np.cos(thetas), (samples, 1))
    gy = np.tile(np.sin(thetas), (samples, 1))
    rx, ry = rx[:, None], ry[:, None]
    batch = engine.batch_of(sys, pts)
    for k in range(n):
        if side == "unstable":
            va, vb, vc, vd = engine.values(spec, sys, batch)
            if k + 1 < n:
                engine.step(sys, batch, 1)
        else:
            engine.step(sys, batch, -1)
            va, vb, vc, vd = engine.values(spec, sys, batch)
            sdet = va * vd - vb * vc
            va, vb, vc, vd = mat2.adjugate_batch(va, vb, vc, vd)
            va, vb, vc, vd = va / sdet, vb / sdet, vc / sdet, vd / sdet
        gx, gy = _push_lines(va, vb, vc, vd, gx, gy)
        rx, ry = _push_lines(va, vb, vc, vd, rx, ry)
    return np.abs(gx * ry - gy * rx)
