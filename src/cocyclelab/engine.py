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
  read the unit-norm product as a direction.  Over a regular symbol table
  each step's a, b, c, d and log |det| come in one gather from a
  (5, ..., words) step table built once per scan;
- ``exponent_scan``, which only needs the final scales, divides by the
  power of two above the largest entry, which is exact, keeps the integer
  exponents, and takes one norm and one log at the end.  Over a symbol
  table it absorbs one precomputed k-step word product per k symbols
  instead of one matrix per symbol.

A shift batch's symbol window is checked once per scan, before the first
step, and singular steps are caught once, after the last one.  A table
scan numbers the words it reads once per walk (``_word_numbers``), a chunk
of steps at a time, as every word table is indexed.

On a shift the first k steps of a direction scan read only a word of
k + depth - 1 symbols.  ``scan_head`` walks each of the a^(k + depth - 1)
words of an a-symbol alphabet once, with k maximizing the sample-steps
saved, k (S - a^(k + depth - 1)) over S samples; ``forward_scan`` and
``backward_scan`` gather each sample's state by its word's number, as the
word tables are indexed, and walk the other n - k steps.  The per-sample
arithmetic is the same, so the result is bitwise the unshared walk's.

Cocycle specs plug in through two duck-typed hooks: ``values_at_symbols``
for shift bases and ``values_at_coords`` for torus bases, plus an integer
``symbol_depth`` giving how many forward symbols a shift spec reads.  A
spec that is one matrix per word of symbols may also expose its entries
through ``symbol_table()``, which the step and word tables read.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, Sequence

import numpy as np

from . import mat2
from .base import (
    BasePoint,
    BaseSystem,
    ShiftDraw,
    ShiftSystem,
    TorusDraw,
    wrap_unit,
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
        # The elementwise form and the wrap are those of apply_f, so batched
        # and per-point orbits agree bit for bit.
        u, v = (
            wrap_unit(m[0, 0] * u + m[0, 1] * v),
            wrap_unit(m[1, 0] * u + m[1, 1] * v),
        )
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


def _orbit_values(
    spec, sys, batch: Batch, n: int, backward: bool, skip=0, starts=None, table=None
):
    """Yield the cocycle values a scan of n steps absorbs, in scan order:
    A(x), A(fx), ..., A(f^{n-1}x) forward, or A(f^{-1}x), ..., A(f^{-n}x)
    backward, leaving out the first ``skip`` (shift batches only).

    A shift batch is checked for the whole walk and moved to its final
    position up front (see ``_symbol_starts``; a caller that has already
    done so passes its ``starts``), and each step gathers its symbols at
    precomputed flat indices; a torus batch steps as it goes and ends in
    the same place.  Given a regular symbol ``table`` (``_regular_table``),
    a step is (a, b, c, d, log |det|), one gather from a step table formed
    with the loop's own arithmetic, so bitwise the hook's values.
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
    if starts is None:
        starts = _symbol_starts(batch, n, depth, backward)
    order = np.arange(-1 - skip, -n - 1, -1) if backward else np.arange(skip, n)
    if table is not None:
        (a, b, c, d), alphabet, _ = table
        steps = np.stack([a, b, c, d, np.log(np.abs(a * d - b * c))])
        for idx in _word_numbers(batch.windows, starts, order, depth, alphabet):
            yield np.take(steps, idx, axis=-1)
        return
    # the step at relative offset k reads the symbols at here + k
    here = starts[:, None] + np.arange(depth)
    for k in order:
        yield spec.values_at_symbols(np.take(batch.windows, here + k))


def values(spec, sys: BaseSystem, batch: Batch):
    """Cocycle entries at the batch's current positions, as four (S,) arrays."""
    return next(_orbit_values(spec, sys, batch, 1, backward=False))


def _require_regular(regular) -> None:
    """Raise unless every step absorbed passed ``mat2.regular``; regular is
    the running minimum of that verdict per sample, True or 1.0 where every
    step passed."""
    if not np.all(regular):
        raise SingularValueError("cocycle value is singular along the orbit")


def _regular_table(spec, sys: BaseSystem):
    """(entries, alphabet, depth) of a spec that is one matrix per word of
    symbols over the shift's alphabet (``symbol_table()``), when every
    entry passes ``mat2.regular``, so every step does; None otherwise."""
    hook = getattr(spec, "symbol_table", None)
    table = hook() if hook is not None and isinstance(sys, ShiftSystem) else None
    ok = table is not None and table[1] == sys.alphabet_size
    return table if ok and np.all(mat2.regular(*table[0])) else None


NUMBER_SPAN = 2**15


def _word_numbers(windows, starts, at, width: int, alphabet: int):
    """Yield, for each relative offset in ``at``, the number of the word of
    ``width`` symbols each sample reads from there (``starts`` as
    ``_symbol_starts`` gives them), its first symbol most significant, as
    every word table is indexed: Horner's rule over the symbol columns, for
    NUMBER_SPAN (offset, sample) pairs at a time."""
    rows = max(1, NUMBER_SPAN // starts.size)
    for lo in range(0, len(at), rows):
        here = starts + at[lo : lo + rows, None]
        idx = np.take(windows, here).astype(np.int64)
        for i in range(1, width):
            idx = idx * alphabet + np.take(windows, here + i)
        yield from idx


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
    one, zero = np.ones(size), np.zeros(size)
    return ScanState(one, zero, zero.copy(), one.copy(), zero.copy(), zero.copy())


# direction scans: unit-norm renormalization at every step


def _renormalize(st: ScanState, a, b, c, d, log_det) -> None:
    """st <- the new product [[a, b], [c, d]], renormalized; log_det is the
    log |det| of the step it absorbed.  The state takes the shape of the
    product, so a stacked spec's (M, S) values widen an (S,) start."""
    nrm = mat2.opnorm_batch(a, b, c, d)
    st.a, st.b, st.c, st.d = a / nrm, b / nrm, c / nrm, d / nrm
    st.log_scale = st.log_scale + np.log(nrm)
    st.logdet = st.logdet + log_det


def _direction_scan(
    spec, sys, batch, n, backward, paths=None, head=None
) -> ScanState:
    """Walk n steps, renormalizing to unit norm at every step; with
    ``paths`` = (ls_path, ldet_path) row j records the state after step j.
    With a ``head`` (see ``scan_head``) the walk is checked against the
    window, starts from each sample's state after the head's k steps,
    gathered by the number of its word, and takes the other n - k.  Steps
    over a regular symbol table come from its step table; other specs'
    are checked for singularity once, after the walk."""
    st, done, starts = _identity_state(batch.size), 0, None
    if head is not None:
        if (head.n, head.backward) != (n, backward):
            raise ConfigError("scan head was built for another scan")
        starts = _symbol_starts(batch, n, spec.symbol_depth, backward)
        (idx,) = _word_numbers(
            batch.windows, starts, head.reads[:1], head.reads.size, sys.alphabet_size
        )
        st = ScanState(*(np.take(x, idx, axis=-1) for x in vars(head.state).values()))
        done = head.k
    # a symbol table's steps are its entries: when they all pass the rule,
    # every step does
    table = _regular_table(spec, sys)
    steps = _orbit_values(spec, sys, batch, n, backward, done, starts, table)
    regular = True
    # a singular step turns the product into 0/0 noise; the warning is
    # replaced by the SingularValueError raised after the walk
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, values in enumerate(steps, done):
            if table is None:
                va, vb, vc, vd = values
                det = va * vd - vb * vc
                regular = regular & mat2.regular(va, vb, vc, vd, det)
                log_det = np.log(np.abs(det))
            else:
                va, vb, vc, vd, log_det = values
            if backward:
                prod = mat2.matmul_batch(st.a, st.b, st.c, st.d, va, vb, vc, vd)
            else:
                prod = mat2.matmul_batch(va, vb, vc, vd, st.a, st.b, st.c, st.d)
            _renormalize(st, *prod, log_det)
            if paths is not None:
                paths[0][j] = st.log_scale
                paths[1][j] = st.logdet
    _require_regular(regular)
    return st


def forward_scan(
    spec, sys: BaseSystem, batch: Batch, n: int, head: ScanHead | None = None
) -> ScanState:
    """Renormalized product over the forward window [0, n), from ``head``
    when one is passed (see ``scan_head``).

    The batch is left positioned at f^{n-1} of its starting points (or
    untouched when n = 0).
    """
    if n < 0:
        raise ConfigError("forward_scan needs n >= 0")
    return _direction_scan(spec, sys, batch, n, backward=False, head=head)


def forward_record(
    spec, sys: BaseSystem, batch: Batch, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """log_scale and logdet after each of the first n steps, shape (n, S)."""
    if n < 1:
        raise ConfigError("forward_record needs n >= 1")
    paths = (np.empty((n, batch.size)), np.empty((n, batch.size)))
    _direction_scan(spec, sys, batch, n, backward=False, paths=paths)
    return paths


def backward_scan(
    spec, sys: BaseSystem, batch: Batch, n: int, head: ScanHead | None = None
) -> ScanState:
    """Renormalized product over the backward window:
    A(f^{-1}x) A(f^{-2}x) ... A(f^{-n}x), which equals A^n(f^{-n}x); from
    ``head`` when one is passed (see ``scan_head``).

    The batch is left positioned at f^{-n} of its starting points.
    """
    if n < 0:
        raise ConfigError("backward_scan needs n >= 0")
    return _direction_scan(spec, sys, batch, n, backward=True, head=head)


# shared heads: the first k steps once per word of symbols


@dataclass(frozen=True, eq=False)
class ScanHead:
    """The first k steps of n-step direction scans over a shift: ``state``
    has one column per word of the symbols at the relative offsets
    ``reads``, numbered as ``_word_numbers`` numbers them."""

    n: int
    k: int
    backward: bool
    reads: np.ndarray
    state: ScanState


def scan_head(
    spec, sys: BaseSystem, count: int, n: int, backward: bool
) -> ScanHead | None:
    """The first k steps of the n-step direction scans (``backward_scan``
    when ``backward``, else ``forward_scan``) of ``spec`` over a draw of
    ``count`` samples, walked once per word of the k + depth - 1 symbols
    they read, with k maximizing the sample-steps saved, k (count - words).
    None off a shift, when no k saves a step, or without a regular symbol
    table (``_regular_table``): a word the draw never reads must not raise.
    """
    table = _regular_table(spec, sys)
    if table is None:
        return None
    _, alphabet, depth = table
    span = max(depth, 1) - 1
    # a longer head saves nothing once its words outnumber the samples
    steps = takewhile(lambda j: alphabet ** (j + span) < count, range(1, n + 1))
    k = max(steps, key=lambda j: j * (count - alphabet ** (j + span)), default=None)
    if k is None:
        return None
    # the first k steps read the symbols at 0 .. k + span - 1 forward, and
    # at -k .. span - 1 backward; every word, in windows around them
    reach = k + span
    reads = np.arange(reach) - (k if backward else 0)
    words = np.arange(alphabet**reach)[:, None]
    near = np.zeros((words.size, 2 * reach + 1), dtype=np.int16)
    near[:, reach + reads] = words // alphabet ** np.arange(reach - 1, -1, -1) % alphabet
    heads = ShiftBatch(near, np.zeros(words.size, dtype=np.int64), reach)
    state = _direction_scan(spec, sys, heads, k, backward)
    return ScanHead(n=n, k=k, backward=backward, reads=reads, state=state)


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
# (a, b, c, d, e) the forward product 2**e [[a, b], [c, d]], the
# determinant product as (mantissa, exponent), and whether every step
# passed ``mat2.regular`` (a bool, or 1.0 / 0.0 in a word table).
def _identity_factor(size: int):
    one, zero = np.ones(size), np.zeros(size, dtype=np.int64)
    return (one, 0.0, 0.0, one, zero, one, zero, True)


def _step_factor(va, vb, vc, vd):
    """One step A as a factor."""
    sdet = va * vd - vb * vc
    return (va, vb, vc, vd, 0, sdet, 0, mat2.regular(va, vb, vc, vd, sdet))


def _absorb(acc, factor):
    """The running product acc followed by one more factor, taken on the
    left; the product is rescaled by an exact power of two and the
    determinant is kept as a frexp mantissa and exponent."""
    a, b, c, d, e, det, de, regular = acc
    fa, fb, fc, fd, fe, fdet, fde, fregular = factor
    a, b, c, d = mat2.matmul_batch(fa, fb, fc, fd, a, b, c, d)
    e = _radix_scale(a, b, c, d, e + fe)
    det, k = np.frexp(det * fdet)
    return a, b, c, d, e, det, de + k + fde, np.minimum(regular, fregular)


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
    (8, ..., words), exponents held exactly as floats, so a scan gathers a
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
    pass to every block's scan; None when the spec has no regular symbol
    table (see ``_regular_table``), or n < 1."""
    table = _regular_table(spec, sys)
    if table is None or n < 1:
        return None
    entries, alphabet, depth = table
    k = _word_length(alphabet)
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
    starts = _symbol_starts(batch, n, depth, backward=False)
    full = n - n % k
    for length, at in ((k, np.arange(0, full, k)), (n - full, np.arange(full, n)[:1])):
        for idx in _word_numbers(batch.windows, starts, at, length + depth - 1, alphabet):
            yield np.take(words.factors[length], idx, axis=-1)


def exponent_scan(
    spec, sys: BaseSystem, batch: Batch, n: int, words: WordTables | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(log_scale, logdet) for exponents: the log operator norm and log
    |det| of the forward product over [0, n).

    The product, and the running product of step determinants, are
    rescaled by an exact power of two as they go, with the exponent kept
    apart, so no product overflows and the only rounding is in the
    products themselves; one operator norm and one log at the end give the
    log scale.  For a 2x2 product sigma1 * sigma2 = |det|, so the bottom
    exponent is the log-det rate minus the top one.

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
    for factor in factors:
        acc = _absorb(acc, factor)
    a, b, c, d, exps, det, det_exps, regular = acc
    _require_regular(regular)
    return _log_norm(a, b, c, d, exps), det_exps * _LN2 + np.log(np.abs(det))


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
