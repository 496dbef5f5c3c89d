"""Test-side references that the library itself does not need: the rotation
matrix, the adjugate, a torus base's eigendata, the base metric between two
points, a shift spec's value read symbol by symbol, a torus spec's value
with every term formed, a torus exponent walk one step at a time, an
exponent walk that rescales after every factor, a constant's power in
closed form and the attraction of directions onto the splitting, each
written out directly; and test doubles of a torus hook: one with chosen
entries at chosen points, and one that no regularity bound reads."""

from __future__ import annotations

from math import log

import numpy as np

from cocyclelab import engine, mat2
from cocyclelab.base import (
    BaseSystem,
    BasePoint,
    ShiftSystem,
    TorusSystem,
    sample_points,
    torus_distances,
)
from cocyclelab.cocycle import (
    ConstantCocycle,
    DiagonalFactor,
    LocallyConstantCocycle,
    PerturbedCocycle,
    PointwiseCocycle,
    PointwiseEntriesField,
    RotationFactor,
    StackedCocycle,
)
from cocyclelab.errors import HorizonExceeded, SingularValueError
from cocyclelab.oseledets import stable_directions, unstable_directions


def rotation(theta: float) -> np.ndarray:
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, -st], [st, ct]], dtype=float)


def adjugate_batch(a, b, c, d):
    # adj(M) shares the singular values of M and equals det(M) * inv(M).
    return d, -b, -c, a


def _eigen(sys: TorusSystem):
    """The eigenvalues and unit eigenvectors of the torus matrix, the
    contracting pair first."""
    evals, evecs = np.linalg.eig(sys.int_matrix.astype(float))
    order = np.argsort(np.abs(evals.real))
    return evals.real[order], evecs.real[:, order]


def expansion(sys: TorusSystem) -> float:
    """|eigenvalue| of the torus matrix's expanding direction."""
    return float(abs(_eigen(sys)[0][1]))


def stable_vector(sys: TorusSystem) -> np.ndarray:
    return _eigen(sys)[1][:, 0]


def unstable_vector(sys: TorusSystem) -> np.ndarray:
    return _eigen(sys)[1][:, 1]


def constant_power(m: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """m**n for n >= 0 as (normalized, log_scale) with unit operator norm,
    by repeated squaring, renormalizing after every product: about log2 n
    products, where the scans take n."""
    base = np.asarray(m, dtype=float)
    norm = mat2.opnorm(base)
    acc = np.eye(2)
    acc_log = 0.0
    cur = base / norm
    cur_log = log(norm)
    k = n
    while k:
        if k & 1:
            acc = cur @ acc
            s = mat2.opnorm(acc)
            acc /= s
            acc_log += cur_log + log(s)
        k >>= 1
        if k:
            cur = cur @ cur
            s = mat2.opnorm(cur)
            cur /= s
            cur_log = 2.0 * cur_log + log(s)
    return acc, acc_log


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


def same_values(got, ref) -> bool:
    """Equal shapes, equal values with NaN equal to NaN, and equal sign
    bits, so that +0.0 and -0.0 differ."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return (
        got.shape == ref.shape
        and np.array_equal(got, ref, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(ref))
    )


def trig_all_terms(expr, u, v):
    """A ``TrigExpr`` at coordinates u, v with its constant and both linear
    terms formed, zero ones included, then each trig mode whose coefficient
    is nonzero."""
    two_pi = 2.0 * np.pi
    out = expr.const + expr.lin_u * u + expr.lin_v * v
    if expr.sin_u:
        out = out + expr.sin_u * np.sin(two_pi * u)
    if expr.cos_u:
        out = out + expr.cos_u * np.cos(two_pi * u)
    if expr.sin_v:
        out = out + expr.sin_v * np.sin(two_pi * v)
    if expr.cos_v:
        out = out + expr.cos_v * np.cos(two_pi * v)
    return out


def expm_all_terms(a, b, c, d):
    """exp(M) in closed form with every term of the split M = s I + N
    formed: w2 = na^2 + b c, and cosh + sinhc * na on the diagonal, whatever
    the diagonal is; the branches as ``mat2.expm_batch`` selects them."""
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    s = 0.5 * (a + d)
    traced = s.any()
    na = a - s if traced else a
    nd = d - s if traced else d
    w2 = na * na + b * c
    abs_w2 = np.abs(w2)
    w = np.sqrt(abs_w2)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cosh_term = np.cos(w)
        sinhc_term = np.sin(w) / w
        hyperbolic = w2 > 0
        if hyperbolic.any():
            wh = np.where(hyperbolic, w, 0.0)
            cosh_term = np.where(hyperbolic, np.cosh(wh), cosh_term)
            sinhc_term = np.where(hyperbolic, np.sinh(wh) / wh, sinhc_term)
        series = abs_w2 < mat2._EXPM_SERIES_CUT
        if series.any():
            cosh_term = np.where(series, 1.0 + 0.5 * w2, cosh_term)
            sinhc_term = np.where(series, 1.0 + w2 / 6.0, sinhc_term)
        ea = cosh_term + sinhc_term * na
        eb = sinhc_term * b
        ec = sinhc_term * c
        ed = cosh_term + sinhc_term * nd
        if traced:
            scale = np.exp(s)
            ea, eb, ec, ed = scale * ea, scale * eb, scale * ec, scale * ed
    return ea, eb, ec, ed


def values_all_terms(spec, coords):
    """A torus spec's four entry arrays at the (S, 2) ``coords``, each
    expression formed on its own by ``trig_all_terms``: factors multiplied
    in order, exp(t B) by ``expm_all_terms`` of t times every entry of B,
    and a stack as its members' rows, (M, S)."""
    u, v = coords[:, 0], coords[:, 1]
    ones = np.ones_like(u)
    if isinstance(spec, StackedCocycle):
        rows = [values_all_terms(m, coords) for m in spec.members]
        return tuple(np.stack(col) for col in zip(*rows))
    if isinstance(spec, PerturbedCocycle):
        base = values_all_terms(spec.base, coords)
        step = [spec.t * f for f in values_all_terms(spec.direction, coords)]
        if spec.rule == "additive":
            return tuple(x + y for x, y in zip(base, step))
        return mat2.matmul_batch(*base, *expm_all_terms(*step))
    if isinstance(spec, PointwiseEntriesField):
        entries = (spec.e00, spec.e01, spec.e10, spec.e11)
        return tuple(trig_all_terms(e, u, v) * ones for e in entries)
    if isinstance(spec, ConstantCocycle):
        m = spec.matrix
        return m[0, 0] * ones, m[0, 1] * ones, m[1, 0] * ones, m[1, 1] * ones
    if not isinstance(spec, PointwiseCocycle):
        raise TypeError(f"no torus values for {type(spec).__name__}")
    out = None
    for f in spec.factors:
        if isinstance(f, RotationFactor):
            th = trig_all_terms(f.angle, u, v)
            vals = (np.cos(th), -np.sin(th), np.sin(th), np.cos(th))
        elif isinstance(f, DiagonalFactor):
            d1 = np.exp(trig_all_terms(f.log_d1, u, v))
            d2 = np.exp(trig_all_terms(f.log_d2, u, v))
            vals = (d1, np.zeros_like(d1), np.zeros_like(d1), d2)
        else:
            m = f.matrix
            vals = (m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        if out is None:
            out = tuple(x * ones for x in vals)
        else:
            out = mat2.matmul_batch(*out, *vals)
    return out


def torus_exponent_walk(spec, sys, points, n: int):
    """(log_scale, logdet) of ``engine.exponent_scan`` over a torus, from a
    walk of n >= 1 steps that reads each step's values by
    ``values_all_terms`` and absorbs them one at a time: the step's
    regularity read back from a log |det| that is NaN where it fails
    ``mat2.regular``, the product taken on the left and divided by the
    power of two above its largest entry, and the determinant product kept
    as a frexp mantissa and exponent.  Raises SingularValueError where a
    step fails."""
    size = len(points)
    a, b, c, d = np.ones(size), np.zeros(size), np.zeros(size), np.ones(size)
    exps, det, det_exps = np.zeros(size, dtype=np.int64), np.ones(size), 0
    ok = True
    batch = engine.batch_of(sys, points)
    for j in range(n):
        if j:
            engine.step(sys, batch, 1)
        va, vb, vc, vd = values_all_terms(spec, batch.coords)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step_det = va * vd - vb * vc
            regular = mat2.regular(va, vb, vc, vd, step_det)
            log_det = np.log(np.abs(step_det), out=np.full_like(step_det, np.nan), where=regular)
        ok = ok & ~np.isnan(log_det)
        a, b, c, d = mat2.matmul_batch(va, vb, vc, vd, a, b, c, d)
        big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        k = np.frexp(big)[1]
        a, b, c, d = (np.ldexp(x, -k) for x in (a, b, c, d))
        exps = exps + k
        det, k = np.frexp(det * step_det)
        det_exps = det_exps + k
    if not np.all(ok):
        raise SingularValueError("a step fails mat2.regular")
    ln2 = np.log(2.0)
    log_scale = exps * ln2 + np.log(mat2.opnorm_batch(a, b, c, d))
    return log_scale, det_exps * ln2 + np.log(np.abs(det))


def per_factor_exponent_walk(spec, sys, points, n: int):
    """(log_scale, logdet, regular) of an n-step exponent walk that
    rescales after every factor it absorbs: the engine's own factors (its
    word tables' words over a shift, each step's values with det and
    ``mat2.regular`` flag over a torus), each taken on the left of the
    product, which is then divided by the power of two above its largest
    entry, the determinant product split by frexp, and the exponents
    summed.  ``regular`` is False where a step fails the rule."""
    size = len(points)
    a, b, c, d = np.ones(size), np.zeros(size), np.zeros(size), np.ones(size)
    exps, det, det_exps, regular = np.zeros(size, dtype=np.int64), np.ones(size), 0, True
    batch = engine.batch_of(sys, points)
    if isinstance(sys, ShiftSystem):
        words = engine.word_tables(spec, sys, n)
        starts = engine._symbol_starts(batch, n, spec.symbol_depth, False)
        factors = engine._word_walk(words, batch.windows, starts, n)
    else:

        def steps():
            for j in range(n):
                if j:
                    engine.step(sys, batch, 1)
                yield engine._step_factor(*spec.values_at_coords(batch.coords))

        factors = steps()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for fa, fb, fc, fd, fe, fdet, fde, fregular in factors:
            a, b, c, d = mat2.matmul_batch(fa, fb, fc, fd, a, b, c, d)
            big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
            k = np.frexp(big)[1]
            a, b, c, d = (np.ldexp(x, -k) for x in (a, b, c, d))
            exps = exps + fe + k
            det, k = np.frexp(det * fdet)
            det_exps = det_exps + k + fde
            regular = np.minimum(regular, fregular)
        ln2 = np.log(2.0)
        log_scale = exps * ln2 + np.log(mat2.opnorm_batch(a, b, c, d))
        logdet = det_exps * ln2 + np.log(np.abs(det))
    return log_scale, logdet, np.broadcast_to(np.asarray(regular, dtype=bool), log_scale.shape)


class NanAt:
    """A torus spec, or direction field, equal to ``inner`` except for the
    entries ``at`` (a, b, c, d; NaN by default) at points whose u
    coordinate is one of ``us``: a test double of the ``values_at_coords``
    hook."""

    symbol_depth = 0
    is_constant = False

    def __init__(self, inner, us, at=(np.nan,) * 4):
        self.inner, self.us, self.at = inner, us, at
        self.r = getattr(inner, "r", 1.0)

    def values_at_coords(self, coords, modes=None):
        hit = np.isin(coords[:, 0], self.us)
        inner = self.inner.values_at_coords(coords, modes)
        return tuple(np.where(hit, x, v) for x, v in zip(self.at, inner))


class Unproven:
    """A spec that reads as ``inner`` in every attribute but is none of the
    spec classes, so ``cocycle.proven_regular`` proves nothing of it, or of
    a perturbation of it, and its torus walks test every step."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


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
            va, vb, vc, vd = adjugate_batch(va, vb, vc, vd)
            va, vb, vc, vd = va / sdet, vb / sdet, vc / sdet, vd / sdet
        gx, gy = _push_lines(va, vb, vc, vd, gx, gy)
        rx, ry = _push_lines(va, vb, vc, vd, rx, ry)
    return np.abs(gx * ry - gy * rx)
