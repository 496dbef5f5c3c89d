"""Batched orbit iteration kernels.

Matrices are carried as four entry arrays of shape (S,), one slot per
sample, so every step is a handful of fused elementwise operations.  A
stacked spec (``cocycle.StackedCocycle``) returns (M, S) arrays, one row
per member, and a walk's state takes the shape of the values it absorbs,
so one walk of the orbits serves all M members.  Every walk renormalizes
as it goes and keeps the scale and the |det| apart from the matrix, so no
product ever overflows, in one of two ways:

- the direction product divides by the operator norm at each step,
  because its callers read the unit-norm product as a direction;
- the exponent product, which only needs the final scales, divides by the
  power of two above the largest entry, which is exact, keeps the integer
  exponents, and takes one norm and one log at the end.  Over a shift it
  absorbs one precomputed k-step word product per k symbols instead of
  one matrix per symbol; over a torus it takes one step at a time.  It
  rescales once per period of K factors and after the last, K proven
  from bounds on the factors' singular values (``_period``): a torus
  spec's ``cocycle.singular_bounds`` when ``cocycle.proven_regular``
  proves it, a shift's word tables' normalized words, and 1 where nothing
  is proven.  A power-of-two rescale commutes with rounding while every
  term stays normal, so the results are bitwise a rescale after every
  factor's unless a nonzero term of that walk lies below
  2**(RESCALE_SPAN - 1022).

Every draw is walked by ``walk``: it builds the draw's shared tables once,
blocks the draw (``block_map``), walks each block's orbits once (``_walk``)
and joins what its caller reads off the products: the unit-norm product
of the first ``depth`` steps, backward or forward, and the radix-scaled
product of the first n forward steps.  A walk checks a shift batch's
symbol window once, for max(depth, n) steps, moves the batch once, and
catches singular steps once, after the last one.  Every step enters the
exponent product as its values, det and ``mat2.regular`` flag
(``_step_factor``), and the direction product with log |det| in place of
the last two, NaN wherever the flag is False (``_step``), from
``_orbit_values``.  Over a torus each step is formed once for both
products, and the walk asks ``cocycle.proven_regular`` once: the values of
a spec proven regular over the whole torus pass the rule at every step, so
they take the flag True and an unmasked log, and no step calls
``mat2.regular``.  Over a shift the direction steps are gathered from the
step table and the exponent steps from the word tables, each sample's
words numbered from one set of starting indices (``_word_numbers``), a
chunk of steps at a time, as every table is indexed.  ``forward_record``,
the one other reader of a walk, keeps the direction product's scales
after every step.

On a shift the first k steps of a direction walk read only a word of
k + depth - 1 symbols.  ``_shared_head`` walks each of the
a^(k + depth - 1) words of an a-symbol alphabet once, with k maximizing
the sample-steps saved, k (S - a^(k + depth - 1)) over the draw's S
samples; ``_walk`` gathers each sample's state by its word's number, as
the word tables are indexed, and walks the other depth - k steps.  Heads
and word tables come from one builder (``_word_states``) that folds the
walk's own step over every word, so each result is bitwise the unshared
walk's.  A table entry that fails ``mat2.regular`` marks only the words
through it.

A shift spec is its symbol table (``cocycle.symbol_table``): one matrix per
word of the forward symbols it reads, from which a walk forms a
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
from math import inf, log2
from typing import Callable

import numpy as np

from . import cocycle, mat2
from .base import BaseSystem, ShiftDraw, ShiftSystem, TorusDraw, wrap_unit
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


def batch_of(sys: BaseSystem, draw: ShiftDraw | TorusDraw) -> Batch:
    """A batch over a draw of the system's own base (``sample_points``, or a
    slice of one): a view of a shift draw's window rows, or a copy of a
    torus draw's coordinates, which the walks move in place."""
    if not isinstance(draw, ShiftDraw if isinstance(sys, ShiftSystem) else TorusDraw):
        raise ConfigError("a batch needs a draw of the system's own base")
    if not len(draw):
        raise ConfigError("cannot build an empty batch")
    if isinstance(draw, ShiftDraw):
        offsets = np.full(len(draw), draw.offset, dtype=np.int64)
        return ShiftBatch(draw.windows, offsets, (draw.windows.shape[1] - 1) // 2)
    return TorusBatch(coords=draw.coords.copy())


def pushed(sys: BaseSystem, draw: ShiftDraw | TorusDraw, j: int = 1):
    """The draw moved by f^j, as one draw: the same shift windows j
    offsets on, or the torus coordinates stepped |j| times (see ``step``).
    A shift draw raises HorizonExceeded when the step leaves its window."""
    batch = batch_of(sys, draw)
    step(sys, batch, j)
    if isinstance(batch, ShiftBatch):
        return ShiftDraw(batch.windows, draw.offset + j)
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
        # tests/oracles.torus_step takes these steps one point at a time in
        # Python floats, the independent reference they match bit for bit
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
    steps as it goes, calls the spec's hook and ends in the same place.
    """
    if n == 0:
        return
    if isinstance(batch, TorusBatch):
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


def _entries(*entries):
    return entries


def values(spec, sys: BaseSystem, batch: Batch):
    """Cocycle entries at the batch's current positions, as four (S,)
    arrays ((M, S) for a stack)."""
    return next(_orbit_values(spec, sys, batch, 1, False, form=_entries))


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
# renormalized products


@dataclass(eq=False)
class ScanState:
    """A direction walk's renormalized product: matrix = exp(log_scale) *
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


# the direction product: unit-norm renormalization at every step


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


# shared heads: the first k steps once per word of symbols


def _shared_head(spec, sys: BaseSystem, count: int, n: int, backward: bool):
    """(k, width, state): the first k steps of the n-step direction walks
    of ``spec`` over a draw of ``count`` samples, walked once per word of
    the ``width`` = k + depth - 1 symbols they read, ``state`` one column
    per word numbered as ``_word_numbers`` numbers them, with k maximizing
    the sample-steps saved, k (count - words).  None off a shift, or when
    no k saves a step.  Every word is walked, so a table entry that fails
    ``mat2.regular`` leaves a NaN logdet in the words through it, which
    raises only in a walk that reads one.
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
    absorb = partial(_direction_step, backward=backward)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        state = _word_states(
            steps, alphabet, depth, k, _identity_state(1), absorb, backward
        )
    return k, k + span, state


# the exponent product: exact power-of-two renormalization


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


# A factor is what the exponent product absorbs, one step or one word of
# steps: (a, b, c, d, e) the forward product 2**e [[a, b], [c, d]], the
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


def _absorb(acc, factor, rescale=True):
    """The running product acc followed by one more factor, taken on the
    left, the factor's exponents added (a step's, the int 0, are not: the
    adds would only copy).  When ``rescale``, the product is then divided
    by the power of two above its largest entry and the determinant split
    into a frexp mantissa and exponent; between rescales both are only
    multiplied (see ``_period``)."""
    a, b, c, d, e, det, de, regular = acc
    fa, fb, fc, fd, fe, fdet, fde, fregular = factor
    a, b, c, d = mat2.matmul_batch(fa, fb, fc, fd, a, b, c, d)
    det = det * fdet
    if not isinstance(fe, int):
        e, de = e + fe, de + fde
    if rescale:
        e = _radix_scale(a, b, c, d, e)
        det, k = np.frexp(det)
        de = de + k
    return a, b, c, d, e, det, de, np.minimum(regular, fregular)


# A walk rescales its exponent product once per period of K factors, chosen
# so that between rescales it moves by at most 2**RESCALE_SPAN either way
RESCALE_SPAN = 256


def _period(s1: float, s2: float) -> int:
    """K for factors whose singular values lie within [s2, s1]: the
    largest with K max(log2 s1, -log2 s2, 1) <= RESCALE_SPAN; 1, a rescale
    after every factor, when a bound is not finite or s2 is 0.

    Over a period the product's largest entry stays within 2**RESCALE_SPAN
    of its size after the last rescale, and its det mantissa within
    2**(2 RESCALE_SPAN), so every term of the deferred walk is a term of
    the per-factor walk times 2**s with |s| <= RESCALE_SPAN: normal, and
    rounded alike, where that term is at least 2**(RESCALE_SPAN - 1022)."""
    if not (0.0 < s2 and s1 < inf):  # NaN too
        return 1
    per_factor = max(log2(s1), -log2(s2), 1.0)
    return max(1, int(RESCALE_SPAN // per_factor))


def _word_period(tables) -> int:
    """K for the word factors of ``tables``: sigma1 of each normalized
    product as its operator norm, sigma2 as |det| / sigma1 with |det| read
    from the factor's determinant mantissa and exponents; 1 when a word
    fails ``mat2.regular`` or a bound is not finite."""
    s1s, s2s = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, b, c, d, e, det, de, ok in tables:
            if not np.all(ok):
                return 1
            s1 = mat2.opnorm_batch(a, b, c, d)
            s1s.append(s1.max())
            s2s.append((np.ldexp(np.abs(det), (de - 2 * e).astype(int)) / s1).min())
    return _period(float(np.max(s1s)), float(np.min(s2s)))


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
    """The word factors an n-step exponent walk of a shift spec absorbs:
    ``factors[L]`` for every word length L it uses (k, and n mod k when
    that is not 0), and the rescale period of a walk over them, read once
    from them (see ``_word_period``)."""

    alphabet: int
    depth: int
    k: int
    factors: dict

    def __post_init__(self) -> None:
        # read once per table, for every walk over it
        object.__setattr__(self, "_period", _word_period(self.factors.values()))


def _word_tables(spec, sys: BaseSystem, n: int) -> WordTables | None:
    """Word tables for n-step exponent walks of ``spec``, built once per
    draw; None off a shift or for n < 1.  Every word is formed, so a table
    entry that fails ``mat2.regular`` leaves a zero flag in the words
    through it, which marks only a walk reading one."""
    if not isinstance(sys, ShiftSystem) or n < 1:
        return None
    steps, alphabet, depth = _step_table(spec, sys)
    k = _word_length(alphabet)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = {
            length: _word_factors(steps, alphabet, depth, length)
            for length in {min(k, n), n % k} - {0}
        }
    return WordTables(alphabet=alphabet, depth=depth, k=k, factors=factors)


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


# ---------------------------------------------------------------------------
# the one walk


def walk(
    spec, sys: BaseSystem, points, read, depth: int = 0, n: int = 0,
    backward: bool = False, threads: int = 1,
) -> tuple[np.ndarray, ...]:
    """``read(state, log_scale, logdet, regular)`` of every block of the
    draw ``points``, joined along the sample axis as ``block_map`` joins
    them: the unit-norm product of each sample's first ``depth`` steps,
    A(f^{depth-1}x) ... A(x), or backward A(f^{-1}x) ... A(f^{-depth}x) =
    A^depth(f^{-depth}x), and the exponent product of its first n forward
    steps, from one ``_walk`` per block.

    The draw's shared tables, a shift's head and word tables, are built
    once here for every block, and a stack's blocks are narrowed to its
    rows.  Refuses with ConfigError a negative window, two empty ones, and
    an exponent window on a backward walk.
    """
    if depth < 0 or n < 0 or not (depth or n):
        raise ConfigError("a walk needs depth >= 0 and n >= 0, not both 0")
    if backward and n:
        raise ConfigError("a backward walk takes no exponent window")
    head = _shared_head(spec, sys, len(points), depth, backward)
    words = _word_tables(spec, sys, n)

    def job(start: int, stop: int):
        batch = batch_of(sys, points[start:stop])
        return read(*_walk(spec, sys, batch, depth, n, backward, head, words))

    return block_map(job, len(points), threads, rows=getattr(spec, "rows", 1))


def _walk(
    spec, sys, batch, depth, n, backward=False, head=None, words=None, paths=None
):
    """(state, log_scale, logdet, regular): the unit-norm direction product
    of the first ``depth`` steps (``backward`` ones when asked, from
    ``head`` when one is passed, see ``_shared_head``; a list ``paths``
    gets (log_scale, logdet) after each), then the radix-scaled exponent
    product of the first n forward steps, ``regular`` False where one of
    those fails ``mat2.regular``.  One among the first ``depth`` raises
    SingularValueError, after the walk, for a single spec; in a stack it
    leaves its member-samples' state entries NaN, for the caller to
    censor, and the other rows as they are.

    A shift batch is checked against its symbol window once, for
    max(depth, n) steps, and moved once (to f^{-depth} backward, else
    f^{max(depth, n) - 1}); its direction steps are gathered from the step
    table after the head's k, its exponent steps from ``words`` (see
    ``_word_tables``), one k-step word factor per k steps.  A torus
    step's values, det and flag are formed once for both products, each
    with its own arithmetic, so both are bitwise a one-product walk's.

    The exponent product and the running product of step determinants are
    rescaled by an exact power of two, the exponents kept apart, once per
    period of K factors and after the last (see ``_period``): K is read
    from ``cocycle.singular_bounds`` of a torus spec that
    ``cocycle.proven_regular`` proves (a stack's widest over its members)
    or from the word tables' normalized words, and is 1 where nothing is
    proven.  The results are bitwise those of a rescale after every factor
    but for one exception: a nonzero term of that per-factor walk below
    2**(RESCALE_SPAN - 1022), which the deferred walk rounds as a normal
    number.
    """
    st, acc = _identity_state(batch.size), _identity_factor(batch.size)
    span, done, starts = max(depth, n), 0, None
    if isinstance(batch, ShiftBatch) and span:
        starts = _symbol_starts(batch, span, spec.symbol_depth, backward)
        if head is not None:
            done, width, heads = head
            # the head's k steps read the symbols from 0, or from -k backward
            at = np.array([-done if backward else 0])
            (idx,) = _word_numbers(batch.windows, starts, at, width, sys.alphabet_size)
            st = ScanState(*(np.take(x, idx, axis=-1) for x in vars(heads).values()))

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
            proven = cocycle.proven_regular(spec)
            period = _period(*cocycle.singular_bounds(spec)) if proven and n else 1
            form = partial(_step_factor, proven=proven)
            steps = _orbit_values(spec, sys, batch, span, backward, 0, None, form)
            for j, factor in enumerate(steps, 1):
                if j <= depth:
                    st = direction(st, (*factor[:4], _log_det(factor)))
                if j <= n:
                    acc = _absorb(acc, factor, j % period == 0 or j == n)
        else:
            for values in _orbit_values(spec, sys, batch, depth, backward, done, starts):
                st = direction(st, values)
            if n:
                count, period = -(-n // words.k), words._period
                for j, factor in enumerate(_word_walk(words, batch.windows, starts, n), 1):
                    acc = _absorb(acc, factor, j % period == 0 or j == count)
        a, b, c, d, exps, det, det_exps, regular = acc
        log_scale = _log_norm(a, b, c, d, exps)
        logdet = det_exps * _LN2 + np.log(np.abs(det))
    failed = np.isnan(st.logdet)
    if failed.any():
        if not isinstance(spec, cocycle.StackedCocycle):
            raise SingularValueError("cocycle value is singular along the orbit")
        entries = (np.where(failed, np.nan, x) for x in (st.a, st.b, st.c, st.d))
        st = ScanState(*entries, st.log_scale, st.logdet)
    regular = np.broadcast_to(np.asarray(regular, dtype=bool), log_scale.shape)
    return st, log_scale, logdet, regular


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
