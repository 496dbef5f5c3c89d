"""Batched orbit iteration kernels.

Matrices are carried as four entry arrays of shape (S,), one slot per
sample, so every step is a handful of fused elementwise operations.  Scans
renormalize to unit operator norm at each step and accumulate the log scale
and the log |det| separately; downstream code reconstructs whatever
combination it needs without ever forming an overflowing product.

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

BLOCK = 1024


# ---------------------------------------------------------------------------
# batches


@dataclass(eq=False)
class ShiftBatch:
    windows: np.ndarray  # (S, 2*horizon + 1) int16, shared, read-only
    offsets: np.ndarray  # (S,) int64, mutated by step()
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


def values(spec, sys: BaseSystem, batch: Batch):
    """Cocycle entries at the batch's current positions, as four (S,) arrays."""
    if isinstance(batch, ShiftBatch):
        depth = spec.symbol_depth
        if depth == 0:
            block = np.empty((batch.size, 0), dtype=np.int64)
        else:
            last = batch.offsets + depth - 1
            if np.any(last > batch.horizon):
                raise HorizonExceeded(
                    "cocycle evaluation reads past the represented window"
                )
            cols = batch.horizon + batch.offsets[:, None] + np.arange(depth)
            block = batch.windows[np.arange(batch.size)[:, None], cols]
        va, vb, vc, vd = spec.values_at_symbols(block)
    else:
        va, vb, vc, vd = spec.values_at_coords(batch.coords)
    return va, vb, vc, vd


# ---------------------------------------------------------------------------
# renormalized scans


@dataclass(eq=False)
class ScanState:
    """Renormalized product: matrix = exp(log_scale) * [[a, b], [c, d]] with
    [[a, b], [c, d]] of unit operator norm; logdet accumulates log |det| of
    the product."""

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


def _identity_state(size: int, want_inverse: bool) -> ScanState:
    ones = np.ones(size)
    zeros = np.zeros(size)
    st = ScanState(
        a=ones.copy(),
        b=zeros.copy(),
        c=zeros.copy(),
        d=ones.copy(),
        log_scale=zeros.copy(),
        logdet=zeros.copy(),
    )
    if want_inverse:
        st.inv_a = ones.copy()
        st.inv_b = zeros.copy()
        st.inv_c = zeros.copy()
        st.inv_d = ones.copy()
        st.inv_log_scale = zeros.copy()
    return st


def _step_dets(va, vb, vc, vd):
    sdet = va * vd - vb * vc
    if np.any(np.abs(sdet) < DET_FLOOR):
        raise SingularValueError("cocycle value is singular along the orbit")
    return sdet


def _renormalize(st: ScanState, a, b, c, d, sdet) -> None:
    """st <- the new product [[a, b], [c, d]], renormalized; sdet is the
    determinant of the step it absorbed."""
    nrm = mat2.opnorm_batch(a, b, c, d)
    st.a, st.b, st.c, st.d = a / nrm, b / nrm, c / nrm, d / nrm
    st.log_scale += np.log(nrm)
    st.logdet += np.log(np.abs(sdet))


def _absorb_inverse(st: ScanState, va, vb, vc, vd, sdet) -> None:
    """Track (product)^{-1} = inv(step_1) inv(step_2) ... by right-multiplying
    each step inverse; renormalized independently of the forward track."""
    ia, ib, ic, id_ = mat2.adjugate_batch(va, vb, vc, vd)
    ia, ib, ic, id_ = ia / sdet, ib / sdet, ic / sdet, id_ / sdet
    a, b, c, d = mat2.matmul_batch(
        st.inv_a, st.inv_b, st.inv_c, st.inv_d, ia, ib, ic, id_
    )
    nrm = mat2.opnorm_batch(a, b, c, d)
    st.inv_a, st.inv_b, st.inv_c, st.inv_d = a / nrm, b / nrm, c / nrm, d / nrm
    st.inv_log_scale += np.log(nrm)


def forward_scan(
    spec,
    sys: BaseSystem,
    batch: Batch,
    n: int,
    want_inverse: bool = False,
) -> ScanState:
    """Renormalized product over the forward window [0, n).

    The batch is left positioned at f^{n-1} of its starting points (or
    untouched when n = 0).  With ``want_inverse`` the inverse product is
    accumulated along the way from per-step inverses, renormalized on its
    own, so the two log scales come from genuinely different arithmetic.
    """
    if n < 0:
        raise ConfigError("forward_scan needs n >= 0")
    st = _identity_state(batch.size, want_inverse)
    for j in range(n):
        va, vb, vc, vd = values(spec, sys, batch)
        sdet = _step_dets(va, vb, vc, vd)
        prod = mat2.matmul_batch(va, vb, vc, vd, st.a, st.b, st.c, st.d)
        _renormalize(st, *prod, sdet)
        if want_inverse:
            _absorb_inverse(st, va, vb, vc, vd, sdet)
        if j + 1 < n:
            step(sys, batch, 1)
    return st


def forward_record(
    spec, sys: BaseSystem, batch: Batch, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """log_scale and logdet after each of the first n steps, shape (n, S)."""
    if n < 1:
        raise ConfigError("forward_record needs n >= 1")
    ls_path = np.empty((n, batch.size))
    ldet_path = np.empty((n, batch.size))
    st = _identity_state(batch.size, want_inverse=False)
    for j in range(n):
        va, vb, vc, vd = values(spec, sys, batch)
        sdet = _step_dets(va, vb, vc, vd)
        prod = mat2.matmul_batch(va, vb, vc, vd, st.a, st.b, st.c, st.d)
        _renormalize(st, *prod, sdet)
        ls_path[j] = st.log_scale
        ldet_path[j] = st.logdet
        if j + 1 < n:
            step(sys, batch, 1)
    return ls_path, ldet_path


def backward_scan(spec, sys: BaseSystem, batch: Batch, n: int) -> ScanState:
    """Renormalized product over the backward window:
    A(f^{-1}x) A(f^{-2}x) ... A(f^{-n}x), which equals A^n(f^{-n}x).

    The batch is left positioned at f^{-n} of its starting points.
    """
    if n < 0:
        raise ConfigError("backward_scan needs n >= 0")
    st = _identity_state(batch.size, want_inverse=False)
    for _ in range(n):
        step(sys, batch, -1)
        va, vb, vc, vd = values(spec, sys, batch)
        sdet = _step_dets(va, vb, vc, vd)
        prod = mat2.matmul_batch(st.a, st.b, st.c, st.d, va, vb, vc, vd)
        _renormalize(st, *prod, sdet)
    return st


# ---------------------------------------------------------------------------
# deterministic threading


def block_map(
    fn: Callable[[int, int], tuple[np.ndarray, ...]],
    count: int,
    threads: int = 1,
) -> tuple[np.ndarray, ...]:
    """Apply fn(start, stop) over fixed 1024-wide index blocks and
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
