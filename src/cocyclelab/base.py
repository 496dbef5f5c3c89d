"""Hyperbolic base dynamics: two-sided full shift and toral automorphism.

Both realizations expose the same small surface: orbit stepping, the base
metric, and measure sampling with per-point seed substreams.  Shift points
carry an explicit finite symbol window; stepping or reading past the
window is a hard error, never a silent fallback.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import gcd
from typing import Union

import numpy as np

from .errors import CocycleLabError, ConfigError, HorizonExceeded

_WINDOW_DTYPE = np.int16
_LATTICE_DENOM = 2**26
_STATIONARY_TOL = 1e-14
# sample_points turns uniforms into symbols this many float64 entries at a
# time (but at least _MIN_CHUNK_ROWS rows), so the draw never holds more
# than the int16 windows plus one chunk
_CHUNK_ENTRIES = 2**19
_MIN_CHUNK_ROWS = 256
# substreams are seeded this many at a time: a seed state is a few hundred
# bytes of Python integers, so a chunk of short rows must not seed at once
_SEED_BLOCK = 256
# Bernoulli uniforms become symbols through a table over their top bits
_BUCKET_BITS = 16


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True, eq=False)
class BernoulliMeasure:
    """Product measure on the shift given by one weight per symbol."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ConfigError("Bernoulli weights need at least two entries")
        if not np.all(np.isfinite(w)):
            raise ConfigError("Bernoulli weights must be finite")
        if np.any(w < 0.0):
            raise ConfigError("Bernoulli weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ConfigError("Bernoulli weights must sum to 1")
        if not np.any(w > 0.0):
            raise ConfigError("Bernoulli weights must have a positive entry")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov measure from an irreducible aperiodic row-stochastic
    transition matrix; the stationary vector is found by power iteration."""

    matrix: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 2:
            raise ConfigError("Markov matrix must be square, size >= 2")
        if np.any(p < 0.0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
            raise ConfigError("Markov matrix rows must be probability vectors")
        _require_irreducible_aperiodic(p > 0.0)
        pi = np.full(p.shape[0], 1.0 / p.shape[0])
        for _ in range(200_000):
            nxt = pi @ p
            nxt /= nxt.sum()
            if float(np.abs(nxt - pi).sum()) < _STATIONARY_TOL:
                pi = nxt
                break
            pi = nxt
        else:
            raise ConfigError("Markov stationary vector did not converge")
        object.__setattr__(
            self, "matrix", tuple(tuple(float(x) for x in row) for row in p)
        )
        object.__setattr__(self, "stationary", tuple(float(x) for x in pi))


@dataclass(frozen=True)
class LebesgueMeasure:
    """Normalized area measure on the torus."""


MeasureSpec = Union[BernoulliMeasure, MarkovMeasure, LebesgueMeasure]


def _require_irreducible_aperiodic(adj: np.ndarray) -> None:
    n = adj.shape[0]
    reach_fwd = _reachable(adj, 0)
    reach_bwd = _reachable(adj.T, 0)
    if not (reach_fwd.all() and reach_bwd.all()):
        raise ConfigError("Markov matrix is not irreducible")
    # Period = gcd of (level[u] + 1 - level[v]) over edges of a BFS layering.
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for v in np.nonzero(adj[u])[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    g = 0
    for u in range(n):
        for v in np.nonzero(adj[u])[0]:
            g = gcd(g, level[u] + 1 - level[int(v)])
    if abs(g) != 1:
        raise ConfigError("Markov matrix is not aperiodic")


def _reachable(adj: np.ndarray, start: int) -> np.ndarray:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    queue = [start]
    while queue:
        u = queue.pop()
        for v in np.nonzero(adj[u])[0]:
            if not seen[v]:
                seen[v] = True
                queue.append(int(v))
    return seen


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True, eq=False)
class ShiftSystem:
    """Two-sided full shift on ``alphabet_size`` symbols.

    The metric is d(x, y) = lambda0 ** k with k the smallest |i| where the
    symbol sequences disagree.  With this metric the shift is hyperbolic
    with constants C1 = 1 and contraction rate exactly lambda0.
    """

    alphabet_size: int
    measure: MeasureSpec
    lambda0: float = 0.5

    def __post_init__(self) -> None:
        if not 2 <= self.alphabet_size <= 1000:
            raise ConfigError("alphabet_size must be in [2, 1000]")
        if not 0.0 < self.lambda0 < 1.0:
            raise ConfigError("lambda0 must lie in (0, 1)")
        if isinstance(self.measure, BernoulliMeasure):
            if len(self.measure.weights) != self.alphabet_size:
                raise ConfigError("Bernoulli weights do not match alphabet")
        elif isinstance(self.measure, MarkovMeasure):
            if len(self.measure.matrix) != self.alphabet_size:
                raise ConfigError("Markov matrix does not match alphabet")
        else:
            raise ConfigError("shift base needs a Bernoulli or Markov measure")

    @property
    def contraction(self) -> float:
        return self.lambda0


@dataclass(frozen=True, eq=False)
class TorusSystem:
    """Hyperbolic automorphism of the 2-torus from an integer matrix with
    |det| = 1 and no eigenvalue on the unit circle.

    The metric is the max of the two circle distances; stable/unstable
    leaves are the eigenlines, along which that metric contracts or expands
    by exactly the eigenvalue modulus (C1 = 1 while orbits stay local).
    """

    matrix: tuple[tuple[int, int], tuple[int, int]]
    measure: MeasureSpec = LebesgueMeasure()

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.shape != (2, 2) or not np.issubdtype(m.dtype, np.integer):
            if m.shape == (2, 2) and np.all(m == np.round(m)):
                m = m.astype(int)
            else:
                raise ConfigError("torus matrix must be 2x2 integer")
        det = int(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if abs(det) != 1:
            raise ConfigError("torus matrix must have determinant +-1")
        evals = np.linalg.eig(m.astype(float))[0]
        if np.any(np.abs(evals.imag) > 1e-12):
            raise ConfigError("torus matrix must have real eigenvalues")
        evals = evals.real
        if np.any(np.abs(np.abs(evals) - 1.0) < 1e-9):
            raise ConfigError("torus matrix has an eigenvalue on the unit circle")
        if not isinstance(self.measure, LebesgueMeasure):
            raise ConfigError("torus base uses the Lebesgue measure")
        object.__setattr__(self, "matrix", tuple(tuple(int(v) for v in row) for row in m))
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_contraction", float(np.min(np.abs(evals))))

    @property
    def contraction(self) -> float:
        return self._contraction

    @property
    def int_matrix(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=np.int64)

    @property
    def int_inverse(self) -> np.ndarray:
        (a, b), (c, d) = self.matrix
        det = self._det
        return np.asarray([[d * det, -b * det], [-c * det, a * det]], dtype=np.int64)


BaseSystem = Union[ShiftSystem, TorusSystem]


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, eq=False)
class ShiftPoint:
    """A shift orbit segment: symbols on the index range [-H, H] plus the
    current offset of the distinguished coordinate inside that window."""

    window: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        w = np.asarray(self.window)
        if w.ndim != 1 or w.size % 2 != 1:
            raise ConfigError("shift window must be 1-d with odd length")
        if not np.issubdtype(w.dtype, np.integer):
            raise ConfigError("shift window must hold integer symbols")
        if w.dtype != _WINDOW_DTYPE:
            w = w.astype(_WINDOW_DTYPE)
        if not w.flags.writeable:
            pass
        else:
            w = w.copy()
            w.setflags(write=False)
        object.__setattr__(self, "window", w)
        if abs(self.offset) > self.horizon:
            raise HorizonExceeded(
                f"offset {self.offset} outside window horizon {self.horizon}"
            )

    @property
    def horizon(self) -> int:
        return (self.window.size - 1) // 2

    def symbol(self, i: int) -> int:
        j = self.offset + i
        if abs(j) > self.horizon:
            raise HorizonExceeded(
                f"symbol access at relative index {i} leaves the window"
            )
        return int(self.window[self.horizon + j])


@dataclass(frozen=True, eq=False)
class TorusPoint:
    u: float
    v: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", float(wrap_unit(float(self.u))))
        object.__setattr__(self, "v", float(wrap_unit(float(self.v))))

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.u, self.v], dtype=float)


BasePoint = Union[ShiftPoint, TorusPoint]


class ShiftDraw(Sequence):
    """Shift points at one common offset held as the rows of one read-only
    window array: indexing gives a ShiftPoint over a row, slicing a
    ShiftDraw over the same rows, so batches take views instead of copies."""

    def __init__(self, windows: np.ndarray, offset: int = 0):
        self.windows = windows
        self.offset = offset

    def __len__(self) -> int:
        return self.windows.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ShiftDraw(self.windows[i], self.offset)
        return ShiftPoint(window=self.windows[i], offset=self.offset)

    def symbols(self, i: int) -> np.ndarray:
        """Every point's symbol at relative index i, as one column."""
        horizon = (self.windows.shape[1] - 1) // 2
        j = self.offset + i
        if abs(j) > horizon:
            raise HorizonExceeded(
                f"symbol access at relative index {i} leaves the window"
            )
        return self.windows[:, horizon + j]


class TorusDraw(Sequence):
    """Torus points held as the rows of one read-only (count, 2) coordinate
    array; indexing gives a TorusPoint, slicing a TorusDraw."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TorusDraw(self.coords[i])
        u, v = self.coords[i]
        return TorusPoint(u, v)


# ---------------------------------------------------------------------------
# dynamics


def wrap_unit(x):
    """x mod 1 in [0, 1], the one reduction of torus coordinates.

    ``x - floor(x)`` is bitwise ``x % 1.0`` on finite input: for x >= 0
    both are the exact fractional part, and for x < 0 ``fmod(x, 1) + 1``
    and ``x + k`` are the same real number rounded once (a tiny negative
    x rounds up to 1.0 either way).  It is several times cheaper.
    """
    return x - np.floor(x)


def apply_f(sys: BaseSystem, x: BasePoint, j: int = 1) -> BasePoint:
    """Apply f^j.  Shift points move their offset inside the fixed window
    (hard error past the horizon); torus points step one matrix application
    at a time with ``wrap_unit`` reduction, which keeps composition exact."""
    j = int(j)
    if isinstance(sys, ShiftSystem):
        if not isinstance(x, ShiftPoint):
            raise ConfigError("shift system expects shift points")
        target = x.offset + j
        if abs(target) > x.horizon:
            raise HorizonExceeded(
                f"orbit access at offset {target} exceeds horizon {x.horizon}"
            )
        return ShiftPoint(window=x.window, offset=target)
    if not isinstance(x, TorusPoint):
        raise ConfigError("torus system expects torus points")
    step = sys.int_matrix if j >= 0 else sys.int_inverse
    u, v = x.u, x.v
    for _ in range(abs(j)):
        u, v = (
            wrap_unit(step[0, 0] * u + step[0, 1] * v),
            wrap_unit(step[1, 0] * u + step[1, 1] * v),
        )
    return TorusPoint(u, v)


def torus_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The torus metric between coordinate rows (..., 2): the max of the
    two circle distances."""
    d = wrap_unit(np.abs(xs - ys))
    d = np.minimum(d, 1.0 - d)
    return np.maximum(d[..., 0], d[..., 1])


# ---------------------------------------------------------------------------
# sampling


# numpy's SeedSequence mixing (bit_generator.pyx, after O'Neill's seed_seq
# in the PCG report) and PCG64's seeding, re-derived so the substreams of a
# block of indices are seeded with array arithmetic
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_XSHIFT = np.uint32(16)


def _seed_words(seed: int) -> list[int]:
    """The uint32 words numpy reads a seed as, least significant first."""
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _hasher(hash_const: int, mult: int):
    """numpy's SeedSequence hash: each call mixes one word (or array of
    words) with the current constant, then steps the constant.  Arrays of
    uint32 wrap on overflow, as numpy's C code does."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ (out >> _XSHIFT)


def _pcg64_states(seed: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(seed, spawn_key=(i,))) for each
    index i in [lo, hi) < 2**32.

    The hash constants do not depend on the data, so the pools of all the
    indices are mixed at once as uint32 arrays; PCG64's seeding, two LCG
    steps mod 2**128, then runs on Python integers per index."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    # a spawned sequence pads the seed's words to the pool size, then
    # appends the spawn key; an index below 2**32 is one word
    run = _seed_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.array([w], dtype=np.uint32) for w in run]
    entropy.append(np.arange(lo, hi, dtype=np.uint32))
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words cycling the pool, paired low
    # word first into seed = (high, low) and inc = (high, low)
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    halves = [
        (words[k] | words[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2)
    ]
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*halves):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _lattice_pair(state: int, inc: int) -> tuple[int, int]:
    """``integers(0, 2**26, size=2)`` of a Generator at PCG64 state
    (state, inc), from the state itself: one LCG step, the XSL-RR output
    of the new state, then Lemire's bounded draw on each 32-bit half, low
    half first.  For a range of 2**26 Lemire's draw never rejects and is
    the half shifted right by 6."""
    state = (state * _PCG64_MULT + inc) & _MASK128
    rot = state >> 122
    x = (state >> 64 ^ state) & _MASK64
    out = (x >> rot | x << (64 - rot)) & _MASK64
    return (out & _MASK32) >> 6, out >> 38


def _substreams(seed: int, lo: int, hi: int):
    """Yield, for each index i in [lo, hi), a Generator at the start of
    point i's substream, the stream of
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))``.  It is one
    Generator whose state is replaced each time, so take each point's draw
    before asking for the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for start in range(lo, hi, _SEED_BLOCK):
        for state, inc in _pcg64_states(seed, start, min(start + _SEED_BLOCK, hi)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def _check_seeding(seed: int) -> None:
    """The bulk route must seed point 0 exactly as numpy does, and its
    lattice pair must be the one numpy draws; a numpy that differs would
    break the substream contract, so it stops the draw instead."""
    got = _pcg64_states(seed, 0, 1)[0]  # a negative seed raises here
    bit_generator = np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(0,)))
    want = bit_generator.state["state"]
    pair = np.random.Generator(bit_generator).integers(0, _LATTICE_DENOM, size=2)
    if got != (want["state"], want["inc"]) or _lattice_pair(*got) != tuple(pair):
        raise CocycleLabError(
            "numpy's SeedSequence/PCG64 seeding differs from the bulk route "
            "(or its bounded draw from the lattice pair's), so points cannot "
            f"be drawn from their substreams (numpy {np.__version__})"
        )


def _cut_points(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights along the last axis as the cut points of [0, 1):
    a uniform u maps to the number of cut points <= u.  The cut points
    from the last positive weight on are inf, so a cumsum that rounds
    below 1 cannot map the top uniforms past the last symbol with weight
    (ten weights of 0.1 sum to 0.9999999999999999)."""
    n = weights.shape[-1]
    cut = np.cumsum(weights, axis=-1)
    last = n - 1 - np.argmax(weights[..., ::-1] > 0.0, axis=-1)
    cut[np.arange(n) >= np.expand_dims(last, -1)] = np.inf
    return cut


def _bucket_table(cut: np.ndarray) -> np.ndarray:
    """For each bucket [j, j + 1) * 2**-_BUCKET_BITS of [0, 1), the symbol
    of every uniform in it, or -1 where a cut point splits the bucket.

    A cut point counts for every bucket after its own, and for its own
    when it sits on that bucket's lower edge; built from per-bucket counts
    so the draw's memory peak sees no full-size temporaries."""
    scaled = cut[cut < 1.0] * 2.0**_BUCKET_BITS  # exact
    own = np.floor(scaled)
    splits = scaled > own
    counts = np.zeros(2**_BUCKET_BITS + 1, dtype=_WINDOW_DTYPE)
    np.add.at(counts, (own + splits).astype(np.intp), 1)
    table = np.cumsum(counts[:-1], dtype=_WINDOW_DTYPE)
    table[own[splits].astype(np.intp)] = -1
    return table


def _to_symbols(cut, table, uniforms: np.ndarray, out: np.ndarray) -> None:
    """out[...] = searchsorted(cut, uniforms, side="right"), bitwise, for
    C-contiguous arrays: u * 2**_BUCKET_BITS is exact, so its integer part
    is u's bucket, and only the uniforms of split buckets are searched,
    when the table has any.  ``uniforms`` is scaled in place."""
    uniforms *= 2.0**_BUCKET_BITS
    # indexing keeps the 16-bit index (np.take would widen it to intp)
    out[...] = table[uniforms.astype(np.uint16)]
    split = np.flatnonzero(out < 0) if table.min() < 0 else ()
    if len(split):
        scaled = uniforms.reshape(-1)[split]
        out.reshape(-1)[split] = np.searchsorted(
            cut * 2.0**_BUCKET_BITS, scaled, side="right"
        )


def _chunks(count: int, length: int) -> list[tuple[int, int]]:
    """Row ranges holding _CHUNK_ENTRIES entries of ``length`` each (but at
    least _MIN_CHUNK_ROWS rows)."""
    rows = max(_MIN_CHUNK_ROWS, _CHUNK_ENTRIES // length)
    return [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def sample_points(
    sys: BaseSystem, count: int, horizon: int, seed: int
) -> ShiftDraw | TorusDraw:
    """Draw ``count`` points of the invariant measure; shift points get a
    symbol window of half-width ``horizon``, which torus points ignore.
    Point i comes from its own substream, the stream of
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))``, so it does not
    depend on ``count``.  The substreams are seeded in bulk, _SEED_BLOCK
    points at a time (``_pcg64_states``), and checked against numpy's own
    seeding and lattice draw of point 0 once per call.  A torus point's
    lattice pair is computed from its seeded state (``_lattice_pair``);
    shift uniforms are drawn through one reused Generator and become
    symbols through a bucket table (``_to_symbols``).

    Every study sizes the window by one rule: ``horizon`` = how far the
    study walks from the sample point, either way, + the spec's
    ``symbol_depth``, the symbols one step reads.  An exponent walk of n
    steps takes n + symbol_depth; a direction extraction at depth d, which
    keeps two steps of room to push the directions, takes
    d + 2 + symbol_depth.
    """
    if count > 2**32:
        raise ConfigError("at most 2**32 points per draw")
    if count > 0:
        _check_seeding(seed)
    if isinstance(sys, TorusSystem):
        # Draw on the dyadic lattice 2**-26 Z^2 / Z^2 instead of raw floats.
        # Integer-matrix steps keep lattice points on the lattice with every
        # product, sum, and mod-1 exactly representable in float64, so f and
        # f^-1 are exact mutual inverses along sampled orbits; raw uniforms
        # would pick up a rounding eps per step that hyperbolicity amplifies
        # by lambda^k across a backward/forward round trip.
        coords = np.empty((count, 2))
        for lo in range(0, count, _SEED_BLOCK):
            hi = min(lo + _SEED_BLOCK, count)
            ints = [_lattice_pair(*st) for st in _pcg64_states(seed, lo, hi)]
            np.divide(ints, _LATTICE_DENOM, out=coords[lo:hi])
        coords.setflags(write=False)
        return TorusDraw(coords)
    if horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    length = 2 * horizon + 1
    windows = np.empty((count, length), dtype=_WINDOW_DTYPE)
    measure = sys.measure
    if isinstance(measure, BernoulliMeasure):
        cut = _cut_points(np.asarray(measure.weights, dtype=float))
        table = _bucket_table(cut)
    else:
        cut_rows = _cut_points(np.asarray(measure.matrix, dtype=float))
        cut_pi = _cut_points(np.asarray(measure.stationary, dtype=float))
    chunks = _chunks(count, length)
    # one buffer for every chunk's uniforms, so no two chunks coexist
    buffer = np.empty((chunks[0][1] if chunks else 0, length), dtype=float)
    for lo, hi in chunks:
        uniforms = buffer[: hi - lo]
        for row, rng in zip(uniforms, _substreams(seed, lo, hi)):
            rng.random(out=row)
        out = windows[lo:hi]
        if isinstance(measure, BernoulliMeasure):
            _to_symbols(cut, table, uniforms, out)
            continue
        state = (cut_pi[None, :] <= uniforms[:, :1]).sum(axis=1)
        out[:, 0] = state
        for t in range(1, length):
            state = (cut_rows[state] <= uniforms[:, t : t + 1]).sum(axis=1)
            out[:, t] = state
    windows.setflags(write=False)
    return ShiftDraw(windows)
