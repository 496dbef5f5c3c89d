"""Batched orbit iteration kernels.

Matrices are carried as four entry arrays of shape (S,), one slot per
sample, so every step is a handful of fused elementwise operations.  A
stacked spec (``cocycle.StackedCocycle``) returns (M, S) arrays, one row
per member, and every scan's state takes the shape of the values it
absorbs, so one walk of the orbits serves all M members.  Every scan
renormalizes at each step and keeps the scale and the |det| apart from the
matrix, so no product ever overflows, in one of two ways:

- the direction scans (``forward_scan``, ``backward_scan``,
  ``forward_record``) divide by the operator norm, because their callers
  read the unit-norm product as a direction;
- ``exponent_scan``, which only needs the final scales, divides by the
  power of two above the largest entry, which is exact, keeps the integer
  exponents, and takes one norm and one log per track at the end.  Over a
  symbol table it absorbs one precomputed k-step word product per k
  symbols instead of one matrix per symbol.

A shift batch's symbol window is checked once per scan, before the first
step, and singular steps are caught once, after the last one.

Cocycle specs plug in through two duck-typed hooks: ``values_at_symbols``
for shift bases and ``values_at_coords`` for torus bases, plus an integer
``symbol_depth`` giving how many forward symbols a shift spec reads.  A
spec that is one matrix per word of symbols may also expose its entries
through ``symbol_table()``, which the exponent scan's word tables read.
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
    ShiftDraw,
    ShiftSystem,
    TorusDraw,
)
from .errors import ConfigError, HorizonExceeded, SingularValueError

BLOCK = 4096
# a block of a stacked spec (several members per sample) holds at most this
# many member-samples, so the scans' working arrays stay cache-sized
STACK_SPAN = 6144
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
    """Pack points into a batch; shift points must share one window length.

    A draw from ``sample_points`` (or a slice of one) is taken as a view of
    its rows, without touching the points one by one."""
    if not len(points):
        raise ConfigError("cannot build an empty batch")
    if isinstance(sys, ShiftSystem):
        if isinstance(points, ShiftDraw):
            windows = points.windows
            offsets = np.full(len(points), points.offset, dtype=np.int64)
        else:
            try:
                windows = np.stack([p.window for p in points])
                offsets = np.array([p.offset for p in points], dtype=np.int64)
            except AttributeError as err:
                raise ConfigError("shift system needs shift points") from err
            except ValueError as err:
                raise ConfigError(
                    "batched shift points must share a window length"
                ) from err
            windows.setflags(write=False)
        horizon = (windows.shape[1] - 1) // 2
        return ShiftBatch(windows=windows, offsets=offsets, horizon=horizon)
    if isinstance(points, TorusDraw):
        return TorusBatch(coords=points.coords.copy())
    try:
        coords = np.array([[p.u, p.v] for p in points], dtype=float)
    except AttributeError as err:
        raise ConfigError("torus system needs torus points") from err
    return TorusBatch(coords=coords)


def pushed(sys: BaseSystem, draw: ShiftDraw | TorusDraw) -> ShiftDraw | TorusDraw:
    """The draw moved by f, as one array: the same shift windows one offset
    on, or the torus coordinates stepped once.  As ``apply_f``, a shift
    draw raises HorizonExceeded when the step leaves its window."""
    batch = batch_of(sys, draw)
    step(sys, batch, 1)
    if isinstance(batch, ShiftBatch):
        return ShiftDraw(batch.windows, draw.offset + 1)
    batch.coords.setflags(write=False)
    return TorusDraw(batch.coords)


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


def _symbol_starts(batch: ShiftBatch, n: int, depth: int, backward: bool):
    """Flat index into the windows of each sample's current symbol, for a
    walk of n >= 1 steps reading ``depth`` symbols per step.

    The whole walk is checked against the symbol window once: every offset
    visited and every symbol read must lie inside it.  The batch is then
    moved to its final position (f^{n-1}x forward, f^{-n}x backward).
    """
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
    starts = np.arange(batch.size) * batch.windows.shape[1] + batch.horizon
    starts = starts + batch.offsets
    batch.offsets += first if backward else last
    return starts


def _orbit_values(spec, sys: BaseSystem, batch: Batch, n: int, backward: bool):
    """Yield the cocycle values a scan of n steps absorbs, in scan order:
    A(x), A(fx), ..., A(f^{n-1}x) forward, or A(f^{-1}x), ..., A(f^{-n}x)
    backward.

    A shift batch is checked and moved to its final position up front (see
    ``_symbol_starts``), and each step gathers its symbols at precomputed
    flat indices; a torus batch steps as it goes and ends in the same place.
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
    # the step at relative offset k reads the symbols at here + k
    here = _symbol_starts(batch, n, depth, backward)[:, None] + np.arange(depth)
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
    """A direction scan's renormalized product: matrix = exp(log_scale) *
    [[a, b], [c, d]] with [[a, b], [c, d]] of unit operator norm after every
    step; logdet accumulates log |det| of the product.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    log_scale: np.ndarray
    logdet: np.ndarray


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
    |det| of the step it absorbed.  The state takes the shape of the
    product, so a stacked spec's (M, S) values widen an (S,) start."""
    nrm = mat2.opnorm_batch(a, b, c, d)
    st.a, st.b, st.c, st.d = a / nrm, b / nrm, c / nrm, d / nrm
    st.log_scale = st.log_scale + np.log(nrm)
    st.logdet = st.logdet + np.log(abs_det)


def _direction_scan(spec, sys, batch, n, backward, paths=None) -> ScanState:
    """Walk n steps, renormalizing to unit norm at every step; with
    ``paths`` = (ls_path, ldet_path) row j records the state after step j.
    The singularity check runs once, after the walk."""
    st = _identity_state(batch.size)
    low_det = np.inf
    # a singular step turns the product into 0/0 noise; the warning is
    # replaced by the SingularValueError raised after the walk
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _orbit_values(spec, sys, batch, n, backward)
        for j, (va, vb, vc, vd) in enumerate(values):
            abs_det = np.abs(va * vd - vb * vc)
            low_det = np.fmin(low_det, abs_det)
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
    """Divide the fresh product [[a, b], [c, d]], in place, by the smallest
    power of two above its largest absolute entry; returns ``exps`` plus
    that power's exponent.  Scaling by the floating-point radix is exact
    (short of underflow), so no rounding enters."""
    big = np.abs(a)
    for x in (b, c, d):
        np.maximum(big, np.abs(x), out=big)
    k = np.frexp(big)[1]
    down = -k
    for x in (a, b, c, d):
        np.ldexp(x, down, out=x)
    return exps + k


def _log_norm(a, b, c, d, exps):
    """log of the operator norm of (2**exps) [[a, b], [c, d]]."""
    return exps * _LN2 + np.log(mat2.opnorm_batch(a, b, c, d))


# A factor is what exponent_scan absorbs, one step or one word of steps:
# (a, b, c, d, e) the forward product 2**e [[a, b], [c, d]], the same five
# for the product of the step inverses, the determinant product as
# (mantissa, exponent), and the smallest step |det|.
def _identity_factor(size: int):
    one, zero = np.ones(size), np.zeros(size, dtype=np.int64)
    return (one, 0.0, 0.0, one, zero, one, 0.0, 0.0, one, zero, one, zero, np.inf)


def _step_factor(va, vb, vc, vd):
    """One step A as a factor; its inverse is adj(A) / det(A)."""
    sdet = va * vd - vb * vc
    sa, sb, sc, sd = mat2.adjugate_batch(va, vb, vc, vd)
    return (
        va, vb, vc, vd, 0,
        sa / sdet, sb / sdet, sc / sdet, sd / sdet, 0,
        sdet, 0, np.abs(sdet),
    )


def _absorb(acc, factor):
    """The running product acc followed by one more factor: the forward
    track and the determinant take it on the left, the inverse track on
    the right; both tracks are rescaled by exact powers of two."""
    a, b, c, d, e, ia, ib, ic, id_, ie, det, de, low = acc
    fa, fb, fc, fd, fe, ga, gb, gc, gd, ge, fdet, fde, flow = factor
    a, b, c, d = mat2.matmul_batch(fa, fb, fc, fd, a, b, c, d)
    e = _radix_scale(a, b, c, d, e + fe)
    ia, ib, ic, id_ = mat2.matmul_batch(ia, ib, ic, id_, ga, gb, gc, gd)
    ie = _radix_scale(ia, ib, ic, id_, ie + ge)
    det, k = np.frexp(det * fdet)
    return a, b, c, d, e, ia, ib, ic, id_, ie, det, de + k + fde, np.fmin(low, flow)


# A word table covers at most WORD_SPAN words: the word length k is the
# largest with alphabet**k <= WORD_SPAN (and at least 1).  It depends on the
# alphabet only, so a depth-expanded stack groups its steps exactly as each
# member does alone.
WORD_SPAN = 256


def _word_length(alphabet: int) -> int:
    k = 1
    while alphabet ** (k + 1) <= WORD_SPAN:
        k += 1
    return k


def _word_factors(entries, alphabet: int, depth: int, length: int) -> np.ndarray:
    """The factor of every word of length + depth - 1 symbols (x_0 most
    significant): the product of the ``length`` steps it determines, built
    with the scan's own arithmetic.  Returned as one float array of shape
    (13, ..., words), exponents held exactly as floats, so a scan gathers a
    word's whole factor at once."""
    words = np.arange(alphabet ** (length + depth - 1))
    acc = _identity_factor(1)
    for j in range(length):
        idx = words // alphabet ** (length - 1 - j) % alphabet ** depth
        acc = _absorb(acc, _step_factor(*(e[..., idx] for e in entries)))
    return np.ascontiguousarray(np.stack(np.broadcast_arrays(*acc)), dtype=float)


@dataclass(frozen=True, eq=False)
class WordTables:
    """The word factors an n-step exponent scan of a symbol-table spec
    absorbs: ``factors[L]`` for every word length L it uses (k, and n mod k
    when that is not 0)."""

    alphabet: int
    depth: int
    k: int
    factors: dict


def word_tables(spec, sys: BaseSystem, n: int) -> WordTables | None:
    """Word tables for n-step exponent scans of ``spec``, to build once and
    pass to every block's scan; None when the spec has no symbol table
    (``symbol_table()``) over the system's alphabet, or n < 1."""
    hook = getattr(spec, "symbol_table", None)
    table = hook() if hook is not None and isinstance(sys, ShiftSystem) else None
    if table is None or table[1] != sys.alphabet_size or n < 1:
        return None
    entries, alphabet, depth = table
    k = _word_length(alphabet)
    # errors from singular steps surface in the scans' own check
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = {
            length: _word_factors(entries, alphabet, depth, length)
            for length in {min(k, n), n % k} - {0}
        }
    return WordTables(alphabet=alphabet, depth=depth, k=k, factors=factors)


def _word_walk(words: WordTables, batch: ShiftBatch, n: int):
    """Yield the factors of a forward walk of n >= 1 steps: one gathered
    word factor per k steps, the last word shorter when k does not divide
    n."""
    alphabet, depth, k = words.alphabet, words.depth, words.k
    starts = _symbol_starts(batch, n, depth, backward=False)[:, None]
    for at in range(0, n, k):
        length = min(k, n - at)
        span = length + depth - 1
        symbols = np.take(batch.windows, starts + np.arange(at, at + span))
        powers = alphabet ** np.arange(span - 1, -1, -1, dtype=np.int64)
        idx = symbols.astype(np.int64) @ powers
        yield np.take(words.factors[length], idx, axis=-1)


def exponent_scan(
    spec, sys: BaseSystem, batch: Batch, n: int, words: WordTables | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log_scale, inv_log_scale, logdet) for exponents: the log operator
    norms of the forward product over [0, n) and, independently, of the
    product of the step inverses inv(A(x)) inv(A(fx)) ... inv(A(f^{n-1}x)),
    and log |det| of the forward product.

    Each track, and the running product of step determinants, is rescaled
    by an exact power of two as it goes, with the exponent kept apart, so
    no product overflows and the only rounding is in the products
    themselves; one operator norm and one log per track at the end give the
    two log scales.  They come from different arithmetic, so checking them
    against ``logdet`` is a genuine cross-check.

    A spec with a symbol table over the system's alphabet is walked a word
    at a time: each iteration gathers one precomputed k-step factor per
    sample from ``words`` (see ``word_tables``, built here when not
    passed), so an n-step walk takes about n / k iterations.  Other specs
    are walked a step at a time.  The window is checked once, before the
    walk, and singular steps once, after it.

    The batch is left positioned at f^{n-1} of its starting points (or
    untouched when n = 0).  As in ``forward_record``, the arrays take the
    shape of the values absorbed.
    """
    if n < 0:
        raise ConfigError("exponent_scan needs n >= 0")
    if words is None:
        words = word_tables(spec, sys, n)
    if words is None:
        values = _orbit_values(spec, sys, batch, n, backward=False)
        factors = (_step_factor(*v) for v in values)
    else:
        factors = _word_walk(words, batch, n)
    acc = _identity_factor(batch.size)
    # as in _direction_scan, a singular step raises after the walk instead
    with np.errstate(divide="ignore", invalid="ignore"):
        for factor in factors:
            acc = _absorb(acc, factor)
    a, b, c, d, exps, ia, ib, ic, id_, inv_exps, det, det_exps, low_det = acc
    _require_regular(low_det)
    return (
        _log_norm(a, b, c, d, exps),
        _log_norm(ia, ib, ic, id_, inv_exps),
        det_exps * _LN2 + np.log(np.abs(det)),
    )


# ---------------------------------------------------------------------------
# deterministic threading


def block_map(
    fn: Callable[[int, int], tuple[np.ndarray, ...]],
    count: int,
    threads: int = 1,
    rows: int = 1,
) -> tuple[np.ndarray, ...]:
    """Apply fn(start, stop) over fixed index blocks and concatenate the
    results positionally along their last axis.

    Blocks are BLOCK wide, or narrower when each sample carries ``rows``
    members of a stacked spec: at most STACK_SPAN member-samples per
    block.  The block layout never depends on the thread count, and
    results are reassembled in index order, so outputs are identical for
    any value of ``threads``.
    """
    if count < 1:
        raise ConfigError("block_map needs count >= 1")
    width = max(1, min(BLOCK, STACK_SPAN // rows))
    bounds = [(s, min(s + width, count)) for s in range(0, count, width)]
    if threads <= 1 or len(bounds) == 1:
        parts = [fn(s, e) for s, e in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda se: fn(*se), bounds))
    width = len(parts[0])
    return tuple(
        np.concatenate([p[i] for p in parts], axis=-1) for i in range(width)
    )
