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
  exponents, and takes one norm and one log at the end.  Over a shift it
  absorbs one precomputed k-step word product per k symbols instead of
  one matrix per symbol; over a torus it takes one step at a time.

Every scan is one walk of the orbits (``_walk``): the unit-norm product
of the first ``depth`` steps, backward or forward, and the radix-scaled
product of the first n forward steps, each public scan asking for one of
them or, ``forward_walk``, for both.  A walk checks a shift batch's symbol
window once, for max(depth, n) steps, moves the batch once, and catches
singular steps once, after the last one.  Every step enters the exponent
product as its values, det and ``mat2.regular`` flag (``_step_factor``),
and the direction product with log |det| in place of the last two, NaN
wherever the flag is False (``_step``), from ``_orbit_values``.  Over a
torus each step is formed once for both products, and the walk asks
``cocycle.proven_regular`` once: the values of a spec proven regular over
the whole torus pass the rule at every step, so they take the flag True
and an unmasked log, and no step calls ``mat2.regular``.  Over a shift the
direction steps are gathered from the step table and the exponent steps
from the word tables, each sample's words numbered from one set of
starting indices (``_word_numbers``), a chunk of steps at a time, as every
table is indexed.

On a shift the first k steps of a direction scan read only a word of
k + depth - 1 symbols.  ``scan_head`` walks each of the a^(k + depth - 1)
words of an a-symbol alphabet once, with k maximizing the sample-steps
saved, k (S - a^(k + depth - 1)) over S samples; ``forward_scan`` and
``backward_scan`` gather each sample's state by its word's number, as the
word tables are indexed, and walk the other n - k steps.  Heads and word
tables come from one builder (``_word_states``) that folds the scan's own
step over every word, so each result is bitwise the unshared walk's.  A
table entry that fails ``mat2.regular`` marks only the words through it.

A shift spec is its symbol table (``cocycle.symbol_table``): one matrix per
word of the forward symbols it reads, from which a scan forms a
(5, ..., words) step table once and gathers every step with one
``np.take``.  A torus spec is its ``values_at_coords`` hook, called once per
step.  An integer ``symbol_depth`` gives how many forward symbols a shift
spec reads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import takewhile
from typing import Callable, Sequence

import numpy as np

from . import cocycle, mat2
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


def _step(a, b, c, d, proven=False):
    """Values [[a, b], [c, d]] as a direction scan absorbs them: (a, b, c,
    d, log |det|), with log |det| NaN wherever they fail ``mat2.regular``,
    which is the scans' one singularity signal.  Failing values warn
    nothing.  ``proven`` values pass the rule (see ``_step_factor``)."""
    return a, b, c, d, _log_det(_step_factor(a, b, c, d, proven))


def _log_det(factor):
    """log |det| of a step's factor (see ``_step_factor``), NaN where the
    step fails ``mat2.regular``; a proven step's log is unmasked."""
    det, ok = factor[5], factor[7]
    if ok is True:
        return np.log(np.abs(det))
    return np.log(np.abs(det), out=np.full_like(det, np.nan), where=ok)


def _step_table(spec, sys: BaseSystem):
    """(steps, alphabet, depth): ``_step`` of every entry of the spec's
    symbol table (``cocycle.symbol_table``), as one (5, ..., words)
    array."""
    # an exponential that overflowed leaves a failing entry, which _step
    # marks: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        entries, alphabet, depth = cocycle.symbol_table(spec, sys)
    return np.stack(_step(*entries)), alphabet, depth


def _orbit_values(
    spec, sys, batch: Batch, n: int, backward: bool, skip=0, starts=None, form=_step
):
    """Yield the steps a scan of n steps absorbs, in scan order, each as
    ``form`` (``_step``, or the scan's own) gives it from its entries:
    A(x), A(fx), ..., A(f^{n-1}x) forward, or A(f^{-1}x), ..., A(f^{-n}x)
    backward, leaving out the first ``skip`` (shift batches only).

    A shift batch is checked for the whole walk and moved to its final
    position up front (see ``_symbol_starts``; a caller that has already
    done so passes its ``starts``), and each step is one gather from the
    spec's step table by the number of the word it reads; a torus batch
    steps as it goes, calls the spec's hook and ends in the same place; a
    spec that ``cocycle.proven_regular`` proves is asked once per walk, and
    its steps skip the rule.
    """
    if n == 0:
        return
    if isinstance(batch, TorusBatch):
        if cocycle.proven_regular(spec):
            form = partial(form, proven=True)
        for j in range(n):
            if backward:
                step(sys, batch, -1)
            elif j:
                step(sys, batch, 1)
            yield form(*spec.values_at_coords(batch.coords))
        return
    steps, alphabet, depth = _step_table(spec, sys)
    if starts is None:
        starts = _symbol_starts(batch, n, depth, backward)
    order = np.arange(-1 - skip, -n - 1, -1) if backward else np.arange(skip, n)
    for idx in _word_numbers(batch.windows, starts, order, depth, alphabet):
        values = np.take(steps, idx, axis=-1)
        yield values if form is _step else form(*values[:4])


def values(spec, sys: BaseSystem, batch: Batch):
    """Cocycle entries at the batch's current positions, as four (S,)
    arrays ((M, S) for a stack)."""
    a, b, c, d, _ = next(_orbit_values(spec, sys, batch, 1, backward=False))
    return a, b, c, d


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


def _word_states(steps, alphabet, depth, length, state, absorb, backward=False):
    """``state`` after the ``length`` steps of each word of length +
    depth - 1 symbols, one column per word numbered as ``_word_numbers``
    does.  Step j reads ``depth`` symbols from j, or length - 1 - j
    backward, from ``steps``, folded in by the scan's own ``absorb``, so a
    sample reading a word gets bitwise its own walk's state."""
    words = np.arange(alphabet ** (length + depth - 1))
    for j in range(length):
        idx = words // alphabet ** (j if backward else length - 1 - j) % alphabet**depth
        state = absorb(state, np.take(steps, idx, axis=-1))
    return state


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


def _direction_step(st: ScanState, step, backward: bool) -> ScanState:
    """st after one more step (a, b, c, d, log |det|), taken on the right of
    a backward product and the left of a forward one, renormalized.  The
    state takes the shape of the product, so a stacked spec's (M, S) values
    widen an (S,) start."""
    here = st.a, st.b, st.c, st.d
    left, right = (here, step[:4]) if backward else (step[:4], here)
    a, b, c, d = mat2.matmul_batch(*left, *right)
    nrm = mat2.opnorm_batch(a, b, c, d)
    logs = st.log_scale + np.log(nrm), st.logdet + step[4]
    return ScanState(a / nrm, b / nrm, c / nrm, d / nrm, *logs)


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
    return _walk(spec, sys, batch, n, 0, head=head)[0]


def forward_record(
    spec, sys: BaseSystem, batch: Batch, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """log_scale and logdet after each of the first n steps, shape (n, S),
    or (n, M, S) for a stack, whose row m is bitwise member m's own."""
    if n < 1:
        raise ConfigError("forward_record needs n >= 1")
    paths = []
    _walk(spec, sys, batch, n, 0, paths=paths)
    ls_path, ldet_path = zip(*paths)
    return np.stack(ls_path), np.stack(ldet_path)


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
    return _walk(spec, sys, batch, n, 0, backward=True, head=head)[0]


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
    None off a shift, or when no k saves a step.  Every word is walked, so
    a table entry that fails ``mat2.regular`` leaves a NaN logdet in the
    words through it, which raises only in a scan that reads one.
    """
    if not isinstance(sys, ShiftSystem):
        return None
    steps, alphabet, depth = _step_table(spec, sys)
    span = depth - 1
    # a longer head saves nothing once its words outnumber the samples
    lengths = takewhile(lambda j: alphabet ** (j + span) < count, range(1, n + 1))
    k = max(lengths, key=lambda j: j * (count - alphabet ** (j + span)), default=None)
    if k is None:
        return None
    # the first k steps read the symbols at 0 .. k + span - 1, or -k .. span - 1 backward
    reads = np.arange(k + span) - (k if backward else 0)
    absorb = partial(_direction_step, backward=backward)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        state = _word_states(
            steps, alphabet, depth, k, _identity_state(1), absorb, backward
        )
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
# passed ``mat2.regular`` (a bool, or 1.0 in a word table).
def _identity_factor(size: int):
    one, zero = np.ones(size), np.zeros(size, dtype=np.int64)
    return (one, 0.0, 0.0, one, zero, one, zero, True)


def _step_factor(va, vb, vc, vd, proven=False):
    """One step's values as a factor: det, formed once, and the
    ``mat2.regular`` flag, with no log |det| (see ``_step``).  Values
    ``proven`` to pass the rule take the flag True, unbroadcast."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = va * vd - vb * vc
        ok = True if proven else mat2.regular(va, vb, vc, vd, det)
        return (va, vb, vc, vd, 0, det, 0, ok)


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


def _word_factors(steps, alphabet: int, depth: int, length: int) -> np.ndarray:
    """The factor of every word of length + depth - 1 symbols (x_0 most
    significant): the product of the ``length`` steps it determines, built
    by ``_word_states`` with the scan's own arithmetic.  Returned as one
    float array of shape (8, ..., words), exponents held exactly as floats,
    so a scan gathers a word's whole factor at once."""
    acc = _word_states(
        steps, alphabet, depth, length, _identity_factor(1),
        lambda acc, step: _absorb(acc, _step_factor(*step[:4])),
    )
    return np.ascontiguousarray(np.stack(np.broadcast_arrays(*acc)), dtype=float)


@dataclass(frozen=True, eq=False)
class WordTables:
    """The word factors an n-step exponent scan of a shift spec absorbs:
    ``factors[L]`` for every word length L it uses (k, and n mod k when
    that is not 0)."""

    n: int
    alphabet: int
    depth: int
    k: int
    factors: dict


def word_tables(spec, sys: BaseSystem, n: int) -> WordTables | None:
    """Word tables for n-step exponent scans of ``spec``, to build once and
    pass to every block's scan; None off a shift or for n < 1.  Every word
    is formed, so a table entry that fails ``mat2.regular`` leaves a zero
    flag in the words through it, which raises only in a scan reading one."""
    if not isinstance(sys, ShiftSystem) or n < 1:
        return None
    steps, alphabet, depth = _step_table(spec, sys)
    k = _word_length(alphabet)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = {
            length: _word_factors(steps, alphabet, depth, length)
            for length in {min(k, n), n % k} - {0}
        }
    return WordTables(n=n, alphabet=alphabet, depth=depth, k=k, factors=factors)


def _word_walk(words: WordTables, windows, starts, n: int):
    """Yield the factors of a forward walk of n >= 1 steps from ``starts``
    (see ``_symbol_starts``, whose check covers the walk): one gathered
    word factor per k steps, the last word shorter when k does not divide
    n."""
    alphabet, depth, k = words.alphabet, words.depth, words.k
    full = n - n % k
    for length, at in ((k, np.arange(0, full, k)), (n - full, np.arange(full, n)[:1])):
        for idx in _word_numbers(windows, starts, at, length + depth - 1, alphabet):
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

    A shift spec is walked a word at a time: each iteration gathers one
    precomputed k-step factor per sample from ``words`` (see
    ``word_tables``, built here when not passed, and refused with
    ConfigError when built for another n), so an n-step walk takes about
    n / k iterations.  A torus spec is walked a step at a time.  The window
    is checked once, before the walk, and singular steps once, after it.

    The batch is left positioned at f^{n-1} of its starting points (or
    untouched when n = 0).  As in ``forward_record``, the arrays take the
    shape of the values absorbed.
    """
    if n < 0:
        raise ConfigError("exponent_scan needs n >= 0")
    _, log_scale, logdet, regular = _walk(spec, sys, batch, 0, n, words=words)
    if not np.all(regular):
        raise SingularValueError("cocycle value is singular along the orbit")
    return log_scale, logdet


# ---------------------------------------------------------------------------
# the one walk


def _walk(
    spec, sys, batch, depth, n, backward=False, head=None, words=None, paths=None
):
    """(state, log_scale, logdet, regular): the unit-norm direction product
    of the first ``depth`` steps (``backward`` ones when asked, from
    ``head`` when one is passed; a list ``paths`` gets (log_scale, logdet)
    after each), then the radix-scaled exponent product of the first n
    forward steps, ``regular`` False where one of those fails
    ``mat2.regular``.  One among the first ``depth`` raises
    SingularValueError, after the walk.

    A shift batch is checked against its symbol window once, for
    max(depth, n) steps, and moved once (to f^{-depth} backward, else
    f^{max(depth, n) - 1}); its direction steps are gathered from the step
    table after the head's k, its exponent steps from ``words`` (built
    here when not passed, refused with ConfigError when built for another
    n), or a step at a time where ``word_tables`` gives None.  A torus
    step's values, det and flag are formed once for both products, each
    with its own arithmetic, so both are bitwise a one-product walk's.
    """
    if head is not None and (head.n, head.backward) != (depth, backward):
        raise ConfigError("scan head was built for another scan")
    if words is None:
        words = word_tables(spec, sys, n)
    elif words.n != n:
        raise ConfigError("word tables were built for another scan")
    st, acc = _identity_state(batch.size), _identity_factor(batch.size)
    span, done, starts = max(depth, n), 0, None
    if isinstance(batch, ShiftBatch) and span:
        starts = _symbol_starts(batch, span, spec.symbol_depth, backward)
        if head is not None:
            (idx,) = _word_numbers(
                batch.windows, starts, head.reads[:1], head.reads.size, sys.alphabet_size
            )
            st = ScanState(*(np.take(x, idx, axis=-1) for x in vars(head.state).values()))
            done = head.k

    def direction(st, values):
        st = _direction_step(st, values, backward)
        if paths is not None:
            paths.append((st.log_scale, st.logdet))
        return st

    # a singular step, or one too large for the norm's squares, turns the
    # products into inf, NaN or 0/0 noise; the logdet's NaN mark and the
    # flag tell, so no step warns
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(batch, TorusBatch):
            steps = _orbit_values(spec, sys, batch, span, backward, 0, None, _step_factor)
            for j, factor in enumerate(steps):
                if j < depth:
                    st = direction(st, (*factor[:4], _log_det(factor)))
                if j < n:
                    acc = _absorb(acc, factor)
        else:
            for values in _orbit_values(spec, sys, batch, depth, backward, done, starts):
                st = direction(st, values)
            if words is None:
                factors = _orbit_values(spec, sys, batch, n, False, 0, starts, _step_factor)
            else:
                factors = _word_walk(words, batch.windows, starts, n)
            for factor in factors:
                acc = _absorb(acc, factor)
        a, b, c, d, exps, det, det_exps, regular = acc
        log_scale = _log_norm(a, b, c, d, exps)
        logdet = det_exps * _LN2 + np.log(np.abs(det))
    if np.isnan(st.logdet).any():
        raise SingularValueError("cocycle value is singular along the orbit")
    regular = np.broadcast_to(np.asarray(regular, dtype=bool), log_scale.shape)
    return st, log_scale, logdet, regular


def forward_walk(
    spec, sys: BaseSystem, batch: Batch, depth: int, n: int,
    head: ScanHead | None = None, words: WordTables | None = None,
) -> tuple[ScanState, np.ndarray, np.ndarray, np.ndarray]:
    """(state, log_scale, logdet, regular): ``forward_scan(spec, sys,
    batch, depth, head)``'s state and ``exponent_scan(spec, sys, batch, n,
    words)``'s results, bitwise, with ``regular`` False where the exponent
    scan would raise; a singular step among the first ``depth`` raises.
    One walk of max(depth, n) steps serves both (see ``_walk``), and the
    batch is left at f^{max(depth, n) - 1} of its starting points.
    """
    if depth < 1 or n < 1:
        raise ConfigError("forward_walk needs depth >= 1 and n >= 1")
    return _walk(spec, sys, batch, depth, n, head=head, words=words)


# ---------------------------------------------------------------------------
# deterministic threading


def block_map(
    fn: Callable[[int, int], tuple[np.ndarray, ...]],
    count: int,
    threads: int = 1,
    rows: int = 1,
) -> tuple[np.ndarray, ...]:
    """Apply fn(start, stop) over fixed index blocks and join the results
    positionally along their last axis.

    Blocks are BLOCK wide, or narrower when each sample carries ``rows``
    members of a stacked spec: at most STACK_SPAN member-samples per
    block.  The block layout never depends on the thread count, and
    results are placed in index order, each block's into its slice of the
    outputs as it arrives, so outputs are identical for any value of
    ``threads`` and the blocks' results are never all held at once.
    """
    if count < 1:
        raise ConfigError("block_map needs count >= 1")
    width = max(1, min(BLOCK, STACK_SPAN // rows))
    bounds = [(s, min(s + width, count)) for s in range(0, count, width)]
    threaded = threads > 1 and len(bounds) > 1
    out = None
    with ThreadPoolExecutor(max_workers=threads) if threaded else nullcontext() as pool:
        parts = (pool.map if pool else map)(lambda se: fn(*se), bounds)
        for (start, stop), part in zip(bounds, parts):
            if out is None:
                out = tuple(np.empty(x.shape[:-1] + (count,), x.dtype) for x in part)
            for joined, x in zip(out, part):
                joined[..., start:stop] = x
    return out
