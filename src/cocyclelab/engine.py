"""Batched orbit iteration kernels.

Matrices are carried as four entry arrays of shape (S,), one slot per
sample, so every step is a handful of fused elementwise operations.  Every
scan renormalizes at each step and keeps the scale and the |det| apart from
the matrix, so no product ever overflows, in one of two ways:

- the direction scans (``forward_scan``, ``backward_scan``,
  ``forward_record``) divide by the operator norm, because their callers
  read the unit-norm product as a direction;
- ``exponent_scan``, which only needs the final scales, divides by the
  power of two above the largest entry, which is exact, keeps the integer
  exponents, and takes one norm and one log per track at the end.

A shift batch's symbol window is checked once per scan, before the first
step, and singular steps are caught once, after the last one.

Cocycle specs plug in through two duck-typed hooks: ``values_at_symbols``
for shift bases and ``values_at_coords`` for torus bases, plus an integer
``symbol_depth`` giving how many forward symbols a shift spec reads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import mat2
from .mat2 import DET_FLOOR
from .base import (
    BasePoint,
    BaseSystem,
    ShiftPoint,
    ShiftSystem,
    TorusPoint,
    TorusSystem,
)
from .errors import ConfigError, HorizonExceeded, SingularValueError

BLOCK = 4096
_LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# batches


@dataclass(eq=False)
class ShiftBatch:
    windows: np.ndarray  # (S, 2*horizon + 1) int16, shared, read-only
    offsets: np.ndarray  # (S,) int64, moved by step() and the scans
    horizon: int

    @property
    def size(self) -> int:
        return self.windows.shape[0]


@dataclass(eq=False)
class TorusBatch:
    coords: np.ndarray  # (S, 2) float64 in [0, 1), mutated by step()

    @property
    def size(self) -> int:
        return self.coords.shape[0]


Batch = ShiftBatch | TorusBatch


def batch_of(sys: BaseSystem, points: Sequence[BasePoint]) -> Batch:
    """Pack points into a batch; shift points must share one window length."""
    if not points:
        raise ConfigError("cannot build an empty batch")
    if isinstance(sys, ShiftSystem):
        if not all(isinstance(p, ShiftPoint) for p in points):
            raise ConfigError("shift system needs shift points")
        horizons = {p.horizon for p in points}
        if len(horizons) != 1:
            raise ConfigError("batched shift points must share a window length")
        windows = np.stack([p.window for p in points])
        windows.setflags(write=False)
        offsets = np.array([p.offset for p in points], dtype=np.int64)
        return ShiftBatch(windows=windows, offsets=offsets, horizon=horizons.pop())
    if not all(isinstance(p, TorusPoint) for p in points):
        raise ConfigError("torus system needs torus points")
    coords = np.array([[p.u, p.v] for p in points], dtype=float)
    return TorusBatch(coords=coords)


def step(sys: BaseSystem, batch: Batch, j: int = 1) -> None:
    """Advance every sample by f^j in place."""
    if isinstance(batch, ShiftBatch):
        batch.offsets += j
        if np.any(np.abs(batch.offsets) > batch.horizon):
            raise HorizonExceeded(
                "orbit step leaves the represented symbol window"
            )
        return
    m = sys.int_matrix if j >= 0 else sys.int_inverse
    u = batch.coords[:, 0]
    v = batch.coords[:, 1]
    for _ in range(abs(j)):
        # Elementwise form mirrors the single-point map exactly, so batched
        # and per-point orbits agree bit for bit.
        u, v = (m[0, 0] * u + m[0, 1] * v) % 1.0, (m[1, 0] * u + m[1, 1] * v) % 1.0
    batch.coords = np.column_stack([u, v])


# ---------------------------------------------------------------------------
# orbit walks


def _orbit_values(spec, sys: BaseSystem, batch: Batch, n: int, backward: bool):
    """Yield the cocycle values a scan of n steps absorbs, in scan order:
    A(x), A(fx), ..., A(f^{n-1}x) forward, or A(f^{-1}x), ..., A(f^{-n}x)
    backward.

    On a shift batch the whole walk is checked against the symbol window
    once, before the first value: every offset visited and every symbol
    read must lie inside it.  The batch is then moved to its final position
    (f^{n-1}x forward, f^{-n}x backward) up front, and each step gathers its
    symbols at precomputed flat indices; a torus batch steps as it goes and
    ends in the same place.
    """
    if n == 0:
        return
    if isinstance(batch, TorusBatch):
        for j in range(n):
            if backward:
                step(sys, batch, -1)
            elif j:
                step(sys, batch, 1)
            yield spec.values_at_coords(batch.coords)
        return
    depth = spec.symbol_depth
    first, last = (-n, -1) if backward else (0, n - 1)
    reach = last + max(depth - 1, 0)
    if (
        int(batch.offsets.min()) + first < -batch.horizon
        or int(batch.offsets.max()) + reach > batch.horizon
    ):
        raise HorizonExceeded(
            f"a {n}-step scan reading {depth} symbols per step leaves the "
            f"represented symbol window of horizon {batch.horizon}"
        )
    # flat indices into the windows of the symbols each sample reads at its
    # current offset; the step at relative offset k reads them shifted by k
    starts = np.arange(batch.size) * batch.windows.shape[1] + batch.horizon
    here = (starts + batch.offsets)[:, None] + np.arange(depth)
    batch.offsets += first if backward else last
    order = range(-1, -n - 1, -1) if backward else range(n)
    for k in order:
        yield spec.values_at_symbols(np.take(batch.windows, here + k))


def values(spec, sys: BaseSystem, batch: Batch):
    """Cocycle entries at the batch's current positions, as four (S,) arrays."""
    return next(_orbit_values(spec, sys, batch, 1, backward=False))


def _require_regular(low_det: np.ndarray) -> None:
    """Raise if any step absorbed had |det| below the floor; low_det is the
    running minimum of |det| per sample."""
    if np.any(low_det < DET_FLOOR):
        raise SingularValueError("cocycle value is singular along the orbit")


# ---------------------------------------------------------------------------
# renormalized scans


@dataclass(eq=False)
class ScanState:
    """Renormalized product: matrix = exp(log_scale) * [[a, b], [c, d]] with
    [[a, b], [c, d]] of unit operator norm; logdet accumulates log |det| of
    the product.

    The direction scans keep [[a, b], [c, d]] at unit norm after every step,
    since their callers read it as a direction.  ``exponent_scan`` rescales
    by powers of two along the way and normalizes once at the end; it alone
    fills the ``inv_*`` fields with the inverse product, in the same form.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    log_scale: np.ndarray
    logdet: np.ndarray
    inv_a: np.ndarray | None = None
    inv_b: np.ndarray | None = None
    inv_c: np.ndarray | None = None
    inv_d: np.ndarray | None = None
    inv_log_scale: np.ndarray | None = None


def _identity_state(size: int) -> ScanState:
    ones = np.ones(size)
    zeros = np.zeros(size)
    return ScanState(
        a=ones.copy(),
        b=zeros.copy(),
        c=zeros.copy(),
        d=ones.copy(),
        log_scale=zeros.copy(),
        logdet=zeros.copy(),
    )


# direction scans: unit-norm renormalization at every step


def _renormalize(st: ScanState, a, b, c, d, abs_det) -> None:
    """st <- the new product [[a, b], [c, d]], renormalized; abs_det is the
    |det| of the step it absorbed."""
    nrm = mat2.opnorm_batch(a, b, c, d)
    st.a, st.b, st.c, st.d = a / nrm, b / nrm, c / nrm, d / nrm
    st.log_scale += np.log(nrm)
    st.logdet += np.log(abs_det)


def _direction_scan(spec, sys, batch, n, backward, paths=None) -> ScanState:
    """Walk n steps, renormalizing to unit norm at every step; with
    ``paths`` = (ls_path, ldet_path) row j records the state after step j.
    The singularity check runs once, after the walk."""
    st = _identity_state(batch.size)
    low_det = np.full(batch.size, np.inf)
    # a singular step turns the product into 0/0 noise; the warning is
    # replaced by the SingularValueError raised after the walk
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _orbit_values(spec, sys, batch, n, backward)
        for j, (va, vb, vc, vd) in enumerate(values):
            abs_det = np.abs(va * vd - vb * vc)
            np.fmin(low_det, abs_det, out=low_det)
            if backward:
                prod = mat2.matmul_batch(st.a, st.b, st.c, st.d, va, vb, vc, vd)
            else:
                prod = mat2.matmul_batch(va, vb, vc, vd, st.a, st.b, st.c, st.d)
            _renormalize(st, *prod, abs_det)
            if paths is not None:
                paths[0][j] = st.log_scale
                paths[1][j] = st.logdet
    _require_regular(low_det)
    return st


def forward_scan(spec, sys: BaseSystem, batch: Batch, n: int) -> ScanState:
    """Renormalized product over the forward window [0, n).

    The batch is left positioned at f^{n-1} of its starting points (or
    untouched when n = 0).
    """
    if n < 0:
        raise ConfigError("forward_scan needs n >= 0")
    return _direction_scan(spec, sys, batch, n, backward=False)


def forward_record(
    spec, sys: BaseSystem, batch: Batch, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """log_scale and logdet after each of the first n steps, shape (n, S)."""
    if n < 1:
        raise ConfigError("forward_record needs n >= 1")
    paths = (np.empty((n, batch.size)), np.empty((n, batch.size)))
    _direction_scan(spec, sys, batch, n, backward=False, paths=paths)
    return paths


def backward_scan(spec, sys: BaseSystem, batch: Batch, n: int) -> ScanState:
    """Renormalized product over the backward window:
    A(f^{-1}x) A(f^{-2}x) ... A(f^{-n}x), which equals A^n(f^{-n}x).

    The batch is left positioned at f^{-n} of its starting points.
    """
    if n < 0:
        raise ConfigError("backward_scan needs n >= 0")
    return _direction_scan(spec, sys, batch, n, backward=True)


# exponent scan: exact power-of-two renormalization


def _radix_scale(a, b, c, d, exps):
    """Divide [[a, b], [c, d]] by the smallest power of two above its
    largest absolute entry and add that power's exponent to ``exps`` in
    place.  Scaling by the floating-point radix is exact (short of
    underflow), so no rounding enters."""
    big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    k = np.frexp(big)[1]
    exps += k
    k = -k
    return np.ldexp(a, k), np.ldexp(b, k), np.ldexp(c, k), np.ldexp(d, k)


def _unit_form(a, b, c, d, exps):
    """(2**exps) [[a, b], [c, d]] as unit-norm entries plus the log scale."""
    nrm = mat2.opnorm_batch(a, b, c, d)
    return a / nrm, b / nrm, c / nrm, d / nrm, exps * _LN2 + np.log(nrm)


def exponent_scan(spec, sys: BaseSystem, batch: Batch, n: int) -> ScanState:
    """Forward product over [0, n) and, independently, the product of the
    step inverses inv(A(x)) inv(A(fx)) ... inv(A(f^{n-1}x)), for exponents.

    Each track, and the running product of step determinants, is rescaled
    at every step by an exact power of two with its exponent kept as an
    integer, so no product overflows and the only rounding is in the
    products themselves; one operator norm and one log per track at the
    end give the returned unit-norm ScanState with its ``inv_*`` fields.
    The two log scales come from different arithmetic, so checking them
    against ``logdet`` is a genuine cross-check.

    The batch is left positioned at f^{n-1} of its starting points (or
    untouched when n = 0).
    """
    if n < 0:
        raise ConfigError("exponent_scan needs n >= 0")
    size = batch.size
    a, b, c, d = np.ones(size), np.zeros(size), np.zeros(size), np.ones(size)
    ia, ib, ic, id_ = a, b, c, d
    det = np.ones(size)
    exps = np.zeros(size, dtype=np.int64)
    inv_exps = np.zeros(size, dtype=np.int64)
    det_exps = np.zeros(size, dtype=np.int64)
    low_det = np.full(size, np.inf)
    # as in _direction_scan, a singular step raises after the walk instead
    with np.errstate(divide="ignore", invalid="ignore"):
        for va, vb, vc, vd in _orbit_values(spec, sys, batch, n, backward=False):
            sdet = va * vd - vb * vc
            np.fmin(low_det, np.abs(sdet), out=low_det)
            a, b, c, d = _radix_scale(
                *mat2.matmul_batch(va, vb, vc, vd, a, b, c, d), exps
            )
            sa, sb, sc, sd = mat2.adjugate_batch(va, vb, vc, vd)
            ia, ib, ic, id_ = _radix_scale(
                *mat2.matmul_batch(
                    ia, ib, ic, id_, sa / sdet, sb / sdet, sc / sdet, sd / sdet
                ),
                inv_exps,
            )
            det, k = np.frexp(det * sdet)
            det_exps += k
    _require_regular(low_det)
    a, b, c, d, log_scale = _unit_form(a, b, c, d, exps)
    ia, ib, ic, id_, inv_log_scale = _unit_form(ia, ib, ic, id_, inv_exps)
    return ScanState(
        a=a,
        b=b,
        c=c,
        d=d,
        log_scale=log_scale,
        logdet=det_exps * _LN2 + np.log(np.abs(det)),
        inv_a=ia,
        inv_b=ib,
        inv_c=ic,
        inv_d=id_,
        inv_log_scale=inv_log_scale,
    )


# ---------------------------------------------------------------------------
# deterministic threading


def block_map(
    fn: Callable[[int, int], tuple[np.ndarray, ...]],
    count: int,
    threads: int = 1,
) -> tuple[np.ndarray, ...]:
    """Apply fn(start, stop) over fixed BLOCK-wide index blocks and
    concatenate the results positionally.

    The block layout never depends on the thread count, and results are
    reassembled in index order, so outputs are identical for any value of
    ``threads``.
    """
    if count < 1:
        raise ConfigError("block_map needs count >= 1")
    bounds = [(s, min(s + BLOCK, count)) for s in range(0, count, BLOCK)]
    if threads <= 1 or len(bounds) == 1:
        parts = [fn(s, e) for s, e in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda se: fn(*se), bounds))
    width = len(parts[0])
    return tuple(
        np.concatenate([p[i] for p in parts], axis=-1) for i in range(width)
    )
