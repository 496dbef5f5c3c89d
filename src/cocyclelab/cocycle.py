"""GL(2, R)-valued cocycle specifications and their orbit products.

A cocycle spec is a serializable description of a matrix map A(x).  Over
a shift a spec is its symbol table (``symbol_table``: one matrix per word of
forward symbols, as four entry arrays); over a torus it is its batched hook
``values_at_coords``, which returns four entry arrays (its parts share
one ``TrigModes``).  The iteration kernels read specs through those two
only.  ``proven_regular`` proves, from bounds on a torus spec's singular
values over the whole torus, that its values pass the regularity rule, so
its walks skip the per-step test.  The plain orbit product ``product`` is
kept as a cross-check at moderate n; the renormalized products are
``engine``'s scans.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from math import ceil, exp, inf
from typing import Union

import numpy as np

from . import engine, mat2
from .base import (
    BaseSystem,
    BasePoint,
    ShiftSystem,
    TorusSystem,
    sample_points,
    torus_distances,
    wrap_unit,
)
from .errors import ConfigError, SingularValueError

_TWO_PI = 2.0 * np.pi
# a pass over many points evaluates a StackedCocycle on column blocks of
# about this many entries (members x points), so its temporaries stay small
STACK_BLOCK = 2**12


def _require_finite(values, what: str) -> None:
    """Reject NaN and infinite numbers where a spec is built: the scans
    would carry them to NaN results instead of an error."""
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} must be finite")


def _require_regular(m: np.ndarray, what: str) -> None:
    """Reject a matrix, or a table of them, that fails ``mat2.regular``;
    the message opens with ``what`` and names a table's first bad entry."""
    ok = mat2.regular(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])
    if not np.all(ok):
        what = f"{what} entry {int(np.argmin(ok))}" if m.ndim == 3 else what
        raise SingularValueError(f"{what} is singular to working precision or too large")


# ---------------------------------------------------------------------------
# scalar expressions for pointwise specs


class TrigModes(dict):
    """Torus coordinates u, v and the trig modes sin(2 pi u) .. cos(2 pi v)
    under their ``TrigExpr`` names, each formed once, on its first read."""

    def __init__(self, coords):
        super().__init__(u=coords[:, 0], v=coords[:, 1])

    def __missing__(self, mode):
        fn, x = mode.split("_")
        self[mode] = value = getattr(np, fn)(_TWO_PI * self[x])
        return value


@dataclass(frozen=True)
class TrigExpr:
    """Scalar field on the torus: const + linear part + first trig modes.

    The linear part is only admissible inside rotation angles, where a full
    turn is the identity; validation of that restriction happens in the
    factor constructors.  Zero terms are not formed: a zero linear term is
    +0.0 (torus coordinates are finite and not -0.0), so the bits are those
    of adding const, both linear terms and the nonzero trig terms.
    """

    const: float = 0.0
    lin_u: float = 0.0
    lin_v: float = 0.0
    sin_u: float = 0.0
    cos_u: float = 0.0
    sin_v: float = 0.0
    cos_v: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(astuple(self), "TrigExpr coefficients")

    def __call__(self, modes: TrigModes):
        out = self.const
        for coef, x in ((self.lin_u, "u"), (self.lin_v, "v")):
            out = out + (coef * modes[x] if coef else 0.0)
        for mode in ("sin_u", "cos_u", "sin_v", "cos_v"):
            if getattr(self, mode):
                out = out + getattr(self, mode) * modes[mode]
        return out if np.ndim(out) else np.full(modes["u"].shape, out)

    @property
    def is_constant(self) -> bool:
        return not any(
            (self.lin_u, self.lin_v, self.sin_u, self.cos_u, self.sin_v, self.cos_v)
        )

    @property
    def has_linear(self) -> bool:
        return bool(self.lin_u or self.lin_v)


def _require_trig_only(expr: TrigExpr, where: str) -> None:
    if expr.has_linear:
        raise ConfigError(
            f"{where} must be continuous on the torus: no bare linear terms"
        )


def _require_winding(expr: TrigExpr, where: str) -> None:
    for coef in (expr.lin_u, expr.lin_v):
        if coef and abs(coef / _TWO_PI - round(coef / _TWO_PI)) > 1e-9:
            raise ConfigError(
                f"{where} linear coefficient must be a multiple of 2*pi"
            )


# ---------------------------------------------------------------------------
# factors for pointwise specs


@dataclass(frozen=True)
class RotationFactor:
    angle: TrigExpr

    def __post_init__(self) -> None:
        _require_winding(self.angle, "rotation angle")

    def values(self, modes):
        th = self.angle(modes)
        ct, st = np.cos(th), np.sin(th)
        return ct, -st, st, ct


@dataclass(frozen=True)
class DiagonalFactor:
    """diag(exp(log_d1), exp(log_d2)); the exponentials keep it invertible."""

    log_d1: TrigExpr
    log_d2: TrigExpr

    def __post_init__(self) -> None:
        _require_trig_only(self.log_d1, "diagonal entry")
        _require_trig_only(self.log_d2, "diagonal entry")

    def values(self, modes):
        d1 = np.exp(self.log_d1(modes))
        d2 = np.exp(self.log_d2(modes))
        zero = np.zeros_like(np.asarray(d1, dtype=float))
        return d1, zero, zero, d2


@dataclass(frozen=True, eq=False)
class ConstantFactor:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ConfigError("constant factor must be 2x2")
        _require_finite(m, "ConstantFactor matrix")
        _require_regular(m, "matrix")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def values(self, modes):
        m = self.matrix
        return m[0, 0], m[0, 1], m[1, 0], m[1, 1]


PointwiseFactor = Union[RotationFactor, DiagonalFactor, ConstantFactor]


def _factor_is_constant(f: PointwiseFactor) -> bool:
    if isinstance(f, ConstantFactor):
        return True
    if isinstance(f, RotationFactor):
        return f.angle.is_constant
    return f.log_d1.is_constant and f.log_d2.is_constant


# ---------------------------------------------------------------------------
# cocycle specs


@dataclass(frozen=True, eq=False)
class ConstantCocycle:
    """The same matrix at every base point; valid over any base.

    Cocycles must be invertible; ``invertible=False`` admits singular
    matrices, which perturbation directions need.
    """

    matrix: np.ndarray
    r: float = 1.0
    invertible: bool = True

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ConfigError("cocycle matrix must be 2x2")
        _require_finite(m, "ConstantCocycle matrix")
        if self.invertible:
            _require_regular(m, "matrix")
        if not 0.0 < self.r <= 1.0:
            raise ConfigError("Holder exponent r must lie in (0, 1]")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    symbol_depth = 0
    is_constant = True

    def constant_value(self) -> np.ndarray:
        return self.matrix

    def values_at_coords(self, coords, modes=None):
        m = self.matrix
        ones = np.ones(coords.shape[0])
        return m[0, 0] * ones, m[0, 1] * ones, m[1, 0] * ones, m[1, 1] * ones


@dataclass(frozen=True, eq=False)
class LocallyConstantCocycle:
    """Shift matrix map reading the forward symbols x_0 .. x_{depth-1}.

    ``table`` lists one matrix per word, ordered lexicographically with x_0
    the most significant symbol; for depth 1 that is simply one matrix per
    symbol.  Cocycles must be invertible; ``invertible=False`` admits
    singular entries, which perturbation directions need.
    """

    table: np.ndarray
    r: float = 1.0
    depth: int = 1
    alphabet_size: int | None = None
    invertible: bool = True

    def __post_init__(self) -> None:
        tab = np.asarray(self.table, dtype=float)
        if tab.ndim != 3 or tab.shape[1:] != (2, 2):
            raise ConfigError("table must be a sequence of 2x2 matrices")
        _require_finite(tab, "LocallyConstantCocycle table")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        a = self.alphabet_size
        if a is None:
            if self.depth != 1:
                raise ConfigError("alphabet_size is required when depth > 1")
            a = tab.shape[0]
        # a**64 outnumbers any table, so a huge depth fails without a**depth
        if a ** min(self.depth, 64) != tab.shape[0]:
            raise ConfigError(
                f"table length {tab.shape[0]} != alphabet^depth = {a}^{self.depth}"
            )
        if not 0.0 < self.r <= 1.0:
            raise ConfigError("Holder exponent r must lie in (0, 1]")
        if self.invertible:
            _require_regular(tab, "table")
        tab = tab.copy()
        tab.setflags(write=False)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "alphabet_size", int(a))

    @property
    def symbol_depth(self) -> int:
        return self.depth

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.table == self.table[0]))

    def constant_value(self) -> np.ndarray:
        return self.table[0]

    def values_at_coords(self, coords, modes=None):
        raise ConfigError("locally constant cocycles live over shift bases")


@dataclass(frozen=True, eq=False)
class PointwiseCocycle:
    """Torus cocycle given by an ordered product of closed-form factors."""

    factors: tuple[PointwiseFactor, ...]
    r: float = 1.0

    def __post_init__(self) -> None:
        if not self.factors:
            raise ConfigError("pointwise cocycle needs at least one factor")
        if not 0.0 < self.r <= 1.0:
            raise ConfigError("Holder exponent r must lie in (0, 1]")
        object.__setattr__(self, "factors", tuple(self.factors))

    symbol_depth = 0

    @property
    def is_constant(self) -> bool:
        return all(_factor_is_constant(f) for f in self.factors)

    def constant_value(self) -> np.ndarray:
        a, b, c, d = self.values_at_coords(np.zeros((1, 2)))
        return np.array([[a[0], b[0]], [c[0], d[0]]])

    def values_at_coords(self, coords, modes=None):
        modes = TrigModes(coords) if modes is None else modes
        a, b, c, d = self.factors[0].values(modes)
        ones = np.ones(len(coords))
        a, b, c, d = a * ones, b * ones, c * ones, d * ones
        for f in self.factors[1:]:
            fa, fb, fc, fd = f.values(modes)
            a, b, c, d = mat2.matmul_batch(a, b, c, d, fa, fb, fc, fd)
        return a, b, c, d


# ---------------------------------------------------------------------------
# torus direction fields (constant and table directions are the classes
# above with invertible=False)


@dataclass(frozen=True)
class PointwiseEntriesField:
    """Matrix field on the torus with one trig expression per entry."""

    e00: TrigExpr
    e01: TrigExpr
    e10: TrigExpr
    e11: TrigExpr

    def __post_init__(self) -> None:
        for name in ("e00", "e01", "e10", "e11"):
            _require_trig_only(getattr(self, name), "field entry")

    symbol_depth = 0

    @property
    def is_constant(self) -> bool:
        return all(
            getattr(self, n).is_constant for n in ("e00", "e01", "e10", "e11")
        )

    def constant_value(self) -> np.ndarray:
        a, b, c, d = self.values_at_coords(np.zeros((1, 2)))
        return np.array([[a[0], b[0]], [c[0], d[0]]])

    def values_at_coords(self, coords, modes=None):
        modes = TrigModes(coords) if modes is None else modes
        return self.e00(modes), self.e01(modes), self.e10(modes), self.e11(modes)

    def terms(self, modes: TrigModes):
        """The entries as ``_compose`` takes them: one whose coefficients
        are all zero as the scalar 0.0, its value everywhere, so no zero
        array, no product of it with t and no scan of one for zeros is
        formed per step."""
        return tuple(
            0.0 if e.is_constant and not e.const else e(modes)
            for e in (self.e00, self.e01, self.e10, self.e11)
        )


def _direction_values(direction, coords, modes):
    """A direction's entries as ``_compose`` takes them: a
    ``PointwiseEntriesField``'s terms, other fields' values."""
    if isinstance(direction, PointwiseEntriesField):
        return direction.terms(modes)
    return direction.values_at_coords(coords, modes)


MatrixField = Union[ConstantCocycle, LocallyConstantCocycle, PointwiseEntriesField]


@dataclass(frozen=True, eq=False)
class PerturbedCocycle:
    """base composed with a scaled direction field.

    rule 'multiplicative_exp' gives A(x) @ expm(t * B(x)), which stays
    invertible for free; rule 'additive' gives A(x) + t * B(x) and relies on
    the construction-time invertibility checks in the perturbation driver.
    """

    base: "CocycleSpec"
    direction: MatrixField
    t: float
    rule: str
    r: float = field(init=False)

    def __post_init__(self) -> None:
        if self.rule not in ("multiplicative_exp", "additive"):
            raise ConfigError("rule must be 'multiplicative_exp' or 'additive'")
        _require_finite(self.t, "PerturbedCocycle t")
        object.__setattr__(self, "r", self.base.r)

    @property
    def symbol_depth(self) -> int:
        return max(self.base.symbol_depth, self.direction.symbol_depth)

    @property
    def is_constant(self) -> bool:
        return self.base.is_constant and self.direction.is_constant

    def constant_value(self) -> np.ndarray:
        # from the parts' own constants: a symbol table has no values at
        # torus coordinates
        a, b, c, d = _compose(
            self.rule,
            self.t,
            self.base.constant_value().reshape(4, 1),
            self.direction.constant_value().reshape(4, 1),
        )
        return np.array([[a[0], b[0]], [c[0], d[0]]])

    def values_at_coords(self, coords, modes=None):
        modes = TrigModes(coords) if modes is None else modes
        return _compose(
            self.rule,
            self.t,
            self.base.values_at_coords(coords, modes),
            _direction_values(self.direction, coords, modes),
        )


def _compose(rule: str, t, base_vals, dir_vals, out=(None,) * 4):
    """Entries of A composed with t B, from the entries of A and B; with a
    column of sizes t of shape (T, 1) and (S,) entries this gives (T, S)
    entries, row k bitwise the scalar result at t[k].  An entry of B may be
    a scalar, which broadcasts.  The entries are written into ``out``, four
    arrays of their shape, when it is given."""
    ba, bb, bc, bd = base_vals
    fa, fb, fc, fd = dir_vals
    if rule == "additive":
        terms = ((ba, t * fa), (bb, t * fb), (bc, t * fc), (bd, t * fd))
        return tuple(np.add(x, y, out=o) for (x, y), o in zip(terms, out))
    ea, eb, ec, ed = mat2.expm_batch(t * fa, t * fb, t * fc, t * fd)
    # A expm(t B) with matmul_batch's products and sums, entry by entry
    rows = ((ba, bb, ea, ec), (ba, bb, eb, ed), (bc, bd, ea, ec), (bc, bd, eb, ed))
    return tuple(np.add(x * p, y * q, out=o) for (x, y, p, q), o in zip(rows, out))


@dataclass(frozen=True, eq=False)
class StackedCocycle:
    """Several cocycles walked together: their values come as four (M, S)
    entry arrays whose row m is bitwise the m-th member's own (S,) values,
    so one orbit walk serves every member.

    The members are either a base spec (optionally first) followed by
    perturbations of it along one direction and rule, whose base and
    direction hooks run once per step over a torus, only the t-dependent
    composition being formed per member; or any specs with a symbol table
    (tables, constants and perturbations of them), read over a shift only,
    through ``symbol_table``.
    """

    members: tuple

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ConfigError("a stacked cocycle needs at least one member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "r", members[0].r)
        object.__setattr__(
            self, "symbol_depth", max(m.symbol_depth for m in members)
        )
        first = members[0]
        base = first.base if isinstance(first, PerturbedCocycle) else first
        with_base = first is base
        perturbed = members[1:] if with_base else members
        head = perturbed[0] if perturbed else None
        if not all(
            isinstance(m, PerturbedCocycle)
            and m.base is base
            and m.direction is head.direction
            and m.rule == head.rule
            for m in perturbed
        ):
            if not all(_has_table(m) for m in members):
                raise ConfigError(
                    "stacked members must be symbol tables or perturbations "
                    "of one base along one direction"
                )
            # a stack of tables has no values at torus coordinates
            base, head, perturbed = None, None, ()
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_head", head)
        object.__setattr__(self, "_with_base", with_base)
        object.__setattr__(
            self, "_ts", np.array([m.t for m in perturbed], dtype=float)[:, None]
        )

    @property
    def rows(self) -> int:
        return len(self.members)

    def values_at_coords(self, coords, modes=None):
        """Rows from one call of the base's hook and one of the
        direction's, which share one ``TrigModes``; only the composition
        is formed per member."""
        if self._base is None:
            raise ConfigError("stacked symbol tables live over shift bases")
        modes = TrigModes(coords) if modes is None else modes
        base_vals = self._base.values_at_coords(coords, modes)
        if self._head is None:
            return tuple(np.asarray(v)[None] for v in base_vals)
        direction = _direction_values(self._head.direction, coords, modes)
        if not self._with_base:
            return _compose(self._head.rule, self._ts, base_vals, direction)
        # the base row and the composed rows fill one (M, S) block per entry
        out = tuple(np.empty((self.rows, len(coords))) for _ in range(4))
        for block, b in zip(out, base_vals):
            block[0] = b
        _compose(
            self._head.rule, self._ts, base_vals, direction, tuple(x[1:] for x in out)
        )
        return out


CocycleSpec = Union[
    ConstantCocycle, LocallyConstantCocycle, PointwiseCocycle, PerturbedCocycle
]


def _has_table(spec) -> bool:
    """Whether ``_word_matrices`` reads the spec: a table, a constant, or
    a perturbation of them."""
    if isinstance(spec, PerturbedCocycle):
        return _has_table(spec.base) and _has_table(spec.direction)
    return isinstance(spec, LocallyConstantCocycle) or spec.is_constant


# ---------------------------------------------------------------------------
# regularity proven from bounds over the torus

# a constant's computed singular values are widened by this share of sigma1
_ROUNDING = 2.0**-40


def proven_regular(spec) -> bool:
    """Whether every value of the torus spec passes ``mat2.regular``, as
    ``mat2.certify_regular`` proves it from ``singular_bounds``; a stack
    when every member is.  A spec it cannot prove is walked with the rule
    at every step."""
    if isinstance(spec, StackedCocycle):
        return all(map(proven_regular, spec.members))
    return mat2.certify_regular(*singular_bounds(spec))


def singular_bounds(spec) -> tuple[float, float]:
    """(an upper bound on sigma1, a lower bound on sigma2) of the spec's
    values over the torus, built from its pieces: a rotation (1, 1); a
    diagonal, exp of each log entry's const -+ the sum of its |coef|; a
    constant, its singular values widened by ``_ROUNDING`` sigma1; a
    pointwise product, the products of its factors' bounds; A expm(t B),
    sigma1 e^{|t| |B|} and sigma2 e^{-|t| |B|}; A + t B, sigma1 + |t| |B|
    and, by Weyl's inequality, sigma2 - |t| |B|; (inf, 0) for any other
    spec.  A lower bound below 0 reads 0.

    The computed values stray from the exact ones by far less than the
    2**-30 sigma1 that ``certify_regular`` allows: a rotation's entries
    keep c^2 + s^2 within ulps of 1, an exp of x rounds by about |x| < 710
    ulps, a product by a few ulps of the product of its factors' bounds,
    and within the certified ratio |t B| is at most 10 ln 2, where
    ``mat2.expm_batch`` rounds by a few hundred ulps.

    A stack's bounds are the largest sigma1 and the smallest sigma2 bound
    of its members."""
    if isinstance(spec, StackedCocycle):
        his, los = zip(*map(singular_bounds, spec.members))
        # NaN, no bound, if a member's is
        return float(np.max(his)), float(np.min(los))
    if isinstance(spec, PointwiseCocycle):
        hi = lo = 1.0
        for f in spec.factors:
            f_hi, f_lo = _factor_bounds(f)
            hi, lo = hi * f_hi, lo * f_lo
        return hi, lo
    if isinstance(spec, ConstantCocycle):
        return _matrix_bounds(spec.matrix)
    if not isinstance(spec, PerturbedCocycle):
        return inf, 0.0
    hi, lo = singular_bounds(spec.base)
    g = abs(spec.t) * _norm_bound(spec.direction)
    if not g < inf:  # NaN too: t = 0 times a field with no bound
        return inf, 0.0
    if spec.rule == "additive":
        return hi + g, max(lo - g, 0.0)
    return hi * _exp(g), lo * _exp(-g)


def _exp(x: float) -> float:
    return exp(x) if x < 709.0 else inf


def _trig_range(e: TrigExpr) -> tuple[float, float]:
    """Bounds of a trig-only expression over the torus."""
    spread = abs(e.sin_u) + abs(e.cos_u) + abs(e.sin_v) + abs(e.cos_v)
    return e.const - spread, e.const + spread


def _matrix_bounds(m) -> tuple[float, float]:
    # a matrix too large for the norm's squares gets inf or NaN: no proof
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = mat2.singular_values(m)
    return s1 + _ROUNDING * s1, max(s2 - _ROUNDING * s1, 0.0)


def _factor_bounds(f: PointwiseFactor) -> tuple[float, float]:
    if isinstance(f, RotationFactor):
        return 1.0, 1.0
    if isinstance(f, DiagonalFactor):
        (lo1, hi1), (lo2, hi2) = _trig_range(f.log_d1), _trig_range(f.log_d2)
        return _exp(max(hi1, hi2)), _exp(min(lo1, lo2))
    return _matrix_bounds(f.matrix)


def _norm_bound(direction) -> float:
    """An upper bound on |B(x)| over the torus, widened as a constant's
    sigma1 is: a constant's own norm, or the norm of the nonnegative matrix
    M of bounds on the entries, as |B(x) v| <= M |v| entrywise; inf for a
    field of another kind."""
    if isinstance(direction, PointwiseEntriesField):
        ranges = map(_trig_range, (direction.e00, direction.e01, direction.e10, direction.e11))
        return _matrix_bounds(np.reshape([max(-lo, hi) for lo, hi in ranges], (2, 2)))[0]
    if isinstance(direction, ConstantCocycle):
        return _matrix_bounds(direction.matrix)[0]
    return inf


# ---------------------------------------------------------------------------
# products


def product(a_spec: CocycleSpec, sys: BaseSystem, x: BasePoint, n: int) -> np.ndarray:
    """Plain (unrenormalized) orbit product, kept as a cross-check for
    moderate n: A(f^{n-1}x) ... A(x) for n > 0, identity for n = 0, and the
    inverse of the product along the backward orbit for n < 0.  The values
    are the scans' own (``engine._orbit_values``); raises
    SingularValueError where one fails ``mat2.regular``."""
    n = int(n)
    out = np.eye(2)
    steps = engine._orbit_values(a_spec, sys, engine.batch_of(sys, [x]), abs(n), n < 0)
    for va, vb, vc, vd, log_det in steps:
        if np.isnan(log_det[0]):
            raise SingularValueError("cocycle value is singular along the orbit")
        m = np.array([[va[0], vb[0]], [vc[0], vd[0]]])
        # Multiply per-step inverses instead of inverting the assembled
        # window product: each step is well conditioned, so the product
        # keeps an O(n eps) entrywise error, while any inverse of the full
        # window loses its small singular value at O(kappa n eps).
        out = (mat2.inverse(m) if n < 0 else m) @ out
    return out


# ---------------------------------------------------------------------------
# Holder norms


@dataclass(frozen=True)
class HolderReport:
    sup_norm: float
    holder_constant: float
    r: float
    exact: bool

    @property
    def norm(self) -> float:
        return self.sup_norm + self.holder_constant


def holder_distances(
    specs,
    b_spec: CocycleSpec,
    sys: BaseSystem,
    pair_samples: int = 2048,
    seed: int = 0,
) -> list[HolderReport]:
    """sup-norm plus Holder-r quotient of x -> A(x) - B(x) for every A in
    ``specs``, each bitwise as if computed alone; a Holder norm is the
    distance to ``ConstantCocycle(np.zeros((2, 2)), invertible=False)``.

    Exact by finite enumeration over a shift, from the symbol tables of A
    and B (``symbol_table``).  Over a torus, a flagged Monte Carlo lower
    bound, which draws its pairs and near-point rings once and evaluates B
    there once; the perturbations of one base along one direction and rule
    are evaluated as one ``StackedCocycle`` in one pass, any other spec as
    a stack of its own.
    """
    if isinstance(sys, ShiftSystem):
        return [_table_distance(a_spec, b_spec, sys) for a_spec in specs]
    if pair_samples < 1:
        raise ConfigError("pair_samples must be >= 1")
    out: list = [None] * len(specs)
    stacks: dict = {}
    for i, a_spec in enumerate(specs):
        key = i
        if isinstance(a_spec, PerturbedCocycle):
            key = (id(a_spec.base), id(a_spec.direction), a_spec.rule)
        stacks.setdefault(key, []).append(i)
    if not stacks:
        return out
    sample = _HolderSample.draw(sys, pair_samples, seed)
    b_vals = b_spec.values_at_coords(sample.coords)
    for rows in stacks.values():
        stack = StackedCocycle(tuple(specs[i] for i in rows))

        def diff(sl):
            a_at = stack.values_at_coords(sample.coords[sl])
            # the values of PerturbedCocycle(a_spec, b_spec, t=-1,
            # "additive"): A + (-1) * B is bitwise A - B
            return _compose("additive", -1.0, a_at, tuple(v[sl] for v in b_vals))

        for i, rep in zip(rows, sample.reports(diff, stack.rows, stack.r)):
            out[i] = rep
    return out


def _table_distance(a_spec, b_spec, sys: ShiftSystem) -> HolderReport:
    """The exact Holder distance of two shift specs, by finite enumeration
    over the words of their symbol tables."""
    try:
        ta, da = _word_matrices(a_spec, sys)
        tb, db = _word_matrices(b_spec, sys)
    except ConfigError as err:
        raise ConfigError(f"{err}, so it has no Holder norm") from err
    a, depth = sys.alphabet_size, max(da, db)
    diff = _expand_table(ta, a, da, depth) - _expand_table(tb, a, db, depth)
    sup, quot = _table_holder(diff, a, depth, sys.lambda0, a_spec.r)
    return HolderReport(sup, quot, a_spec.r, exact=True)


def symbol_table(spec, sys: BaseSystem):
    """A shift spec as the scans read it: (entries, alphabet size, depth),
    the four entry arrays indexed by the word of the forward symbols
    x_0 .. x_{depth-1}, x_0 most significant, with depth >= 1.  The entries
    are (words,) arrays, or C-ordered (M, words) for a ``StackedCocycle``,
    whose members are expanded to its deepest member's words.

    A table over the shift's alphabet is itself, a constant the matrix
    repeated per symbol, and a perturbation the composition of its parts'
    tables, word by word.  Raises ConfigError off a shift, for a table over
    another alphabet, and for a spec with no table: a pointwise one.
    """
    if not isinstance(sys, ShiftSystem):
        raise ConfigError("symbol tables live over shift bases")
    if isinstance(spec, StackedCocycle):
        a = sys.alphabet_size
        tables = [_word_matrices(m, sys) for m in spec.members]
        depth = max(d for _, d in tables)
        tab = np.stack([_expand_table(t, a, d, depth) for t, d in tables])
    else:
        tab, depth = _word_matrices(spec, sys)
    entries = tuple(
        np.ascontiguousarray(tab[..., i, j])
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    return entries, sys.alphabet_size, depth


def _word_matrices(spec, sys: ShiftSystem):
    """(table, depth): the spec's matrix at every word of ``depth`` >= 1
    forward symbols, as one (words, 2, 2) array (see ``symbol_table``)."""
    a = sys.alphabet_size
    if isinstance(spec, LocallyConstantCocycle):
        if spec.alphabet_size != a:
            raise ConfigError(
                f"a table over {spec.alphabet_size} symbols cannot be read "
                f"over a shift on {a} symbols"
            )
        return spec.table, spec.depth
    if isinstance(spec, PerturbedCocycle):
        btab, bdepth = _word_matrices(spec.base, sys)
        ftab, fdepth = _word_matrices(spec.direction, sys)
        depth = max(bdepth, fdepth)
        btab = _expand_table(btab, a, bdepth, depth)
        ftab = _expand_table(ftab, a, fdepth, depth)
        if spec.rule == "additive":
            return btab + spec.t * ftab, depth
        out = np.empty_like(btab)
        for i in range(btab.shape[0]):
            out[i] = btab[i] @ mat2.expm(spec.t * ftab[i])
        return out, depth
    if spec.is_constant:
        # a constant of any kind is its matrix at every symbol
        return spec.constant_value()[None, :, :].repeat(a, axis=0), 1
    raise ConfigError("a pointwise spec has no symbol table: it lives over torus bases")


def specialize(spec: CocycleSpec, sys: BaseSystem) -> CocycleSpec:
    """Replace a perturbed spec over a shift by its exact locally constant
    equivalent, its symbol table; other specs pass through unchanged.
    Raises ConfigError where the parts have no symbol table, and
    SingularValueError if the table has a singular entry, or a non-finite
    one from an exponential that overflowed."""
    if isinstance(spec, PerturbedCocycle) and isinstance(sys, ShiftSystem):
        tab, depth = _word_matrices(spec, sys)
        if not np.all(np.isfinite(tab)):
            raise SingularValueError("specialized table is not finite")
        return LocallyConstantCocycle(
            table=tab, r=spec.r, depth=depth, alphabet_size=sys.alphabet_size
        )
    return spec


def _expand_table(tab: np.ndarray, a: int, depth: int, target: int) -> np.ndarray:
    """Re-express a depth-``depth`` table at a deeper word length."""
    if depth == target:
        return tab
    reps = a ** (target - depth)
    return np.repeat(tab, reps, axis=0)


def _table_holder(tab, a, depth, lambda0, r):
    sup = float(
        np.max(mat2.opnorm_batch(tab[:, 0, 0], tab[:, 0, 1], tab[:, 1, 0], tab[:, 1, 1]))
    )
    n_words = tab.shape[0]
    if n_words > 4096:
        raise ConfigError("table too large for exact Holder enumeration")
    # Words are lexicographic with x_0 most significant; two words first
    # differing at forward position k can be completed to points at distance
    # exactly lambda0^k, so the quotient enumerates word pairs by k.  Words
    # i < j first differ at k = the number of leading digits they share,
    # which is the number of prefix lengths m in 1..depth-1 where
    # i // a^(depth-m) == j // a^(depth-m).
    scale = np.array([lambda0 ** (k * r) for k in range(depth)])
    entries = tuple(tab[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    idx = np.arange(n_words)
    quot = 0.0
    rows = max(1, 2**18 // n_words)
    for lo in range(0, n_words - 1, rows):
        i, j = np.nonzero(idx[lo : lo + rows, None] < idx)
        i += lo
        k = np.zeros(i.shape, dtype=np.int64)
        for m in range(1, depth):
            unit = a ** (depth - m)
            k += i // unit == j // unit
        delta = tuple(e[i] - e[j] for e in entries)
        ratios = mat2.opnorm_batch(*delta) / scale[k]
        quot = float(np.fmax.reduce(ratios, initial=quot))
    return sup, quot


@dataclass(frozen=True, eq=False)
class _HolderSample:
    """The torus points a sampled Holder quotient reads, drawn once:
    ``pairs`` points x, as many independent points y, then six rings of
    points near the x at log-spaced scales down to 1e-6, all as rows of
    ``coords``; ``dists`` holds d(x, y) followed by d(x, ring point) for
    each ring."""

    coords: np.ndarray
    dists: np.ndarray
    pairs: int

    @classmethod
    def draw(cls, sys: TorusSystem, pairs: int, seed: int) -> "_HolderSample":
        xy = sample_points(sys, 2 * pairs, 0, seed).coords
        xs = xy[:pairs]
        parts, dists = [xy], [torus_distances(xs, xy[pairs:])]
        # Nearby pairs probe the local quotient, which dominates for smooth
        # maps.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(999,)))
        for scale in 10.0 ** np.arange(-1, -7, -1):
            angles = rng.random(pairs) * _TWO_PI
            step = scale * np.column_stack([np.cos(angles), np.sin(angles)])
            near = wrap_unit(xs + step)
            parts.append(near)
            dists.append(torus_distances(xs, near))
        return cls(np.concatenate(parts), np.concatenate(dists), pairs)

    def reports(self, values, rows: int, r: float) -> list[HolderReport]:
        """sup-norm and Holder-r quotient of ``rows`` maps at once;
        ``values(sl)`` gives their four (rows, n) entry arrays at
        ``coords[sl]``, asked for in column blocks of about
        STACK_BLOCK entries.  Every ring is reduced to per-row maxima
        first and the rings are then combined in order with Python's max,
        as for one map alone, so each report is bitwise the one its map
        gets by itself, a NaN ring included."""
        p = self.pairs
        width = max(1, STACK_BLOCK // rows)
        # per row: the largest opnorm at x and at y, and each ring's largest
        # quotient (None while no pair of the ring is at positive distance)
        top_x = top_y = None
        worst = [None] * 7
        for lo in range(0, p, width):
            hi = min(lo + width, p)
            at_x = values(slice(lo, hi))
            top_x = _row_max(top_x, mat2.opnorm_batch(*at_x))
            # ring 0 pairs x with y; rings 1-6 with the near points
            for ring in range(7):
                other = values(slice((ring + 1) * p + lo, (ring + 1) * p + hi))
                if ring == 0:
                    top_y = _row_max(top_y, mat2.opnorm_batch(*other))
                dists = self.dists[ring * p + lo : ring * p + hi]
                ok = dists > 0
                if ok.any():
                    norms = mat2.opnorm_batch(*(x - v for x, v in zip(at_x, other)))
                    worst[ring] = _row_max(worst[ring], norms[:, ok] / dists[ok] ** r)
        out = []
        for m in range(rows):
            quot = 0.0
            for ring, ring_worst in enumerate(worst):
                if ring_worst is not None:
                    w = float(ring_worst[m])
                    quot = w if ring == 0 else max(quot, w)
            out.append(HolderReport(float(max(top_x[m], top_y[m])), quot, r, exact=False))
        return out


def _row_max(acc, block):
    """Running per-row maximum; NaN propagates, as in one np.max."""
    top = np.max(block, axis=1)
    return top if acc is None else np.maximum(acc, top)


# ---------------------------------------------------------------------------
# fiber bunching


@dataclass(frozen=True, eq=False)
class BunchingReport:
    ns: np.ndarray
    b_values: np.ndarray
    theta_hat: float
    verdict: str
    exact: bool
    kappa_lambda_r: float | None
    samples: int


def bunching_check(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    n_max: int = 40,
    x_samples: int = 64,
    seed: int = 0,
    margin: float = 0.05,
) -> BunchingReport:
    """Sampled fiber-bunching diagnostic.

    b_n is the sampled supremum of ||A^n(x)|| * ||A^n(x)^{-1}|| * lambda^{nr};
    the decay rate estimate comes from a least-squares fit of log b_n on the
    tail n in [n_max/2, n_max].  Every spec is sampled alike; a constant
    one also reports its one-step bound kappa * lambda^r.
    """
    if n_max < 4:
        raise ConfigError("n_max must be at least 4")
    lam = sys.contraction
    r = a_spec.r
    # a constant's exact one-step bound, which the verdict may fall back on
    exact = bool(a_spec.is_constant)
    kappa_lambda_r = None
    if exact:
        s1, s2 = mat2.singular_values(a_spec.constant_value())
        kappa_lambda_r = (s1 / s2) * lam ** r
    points = sample_points(sys, x_samples, n_max + a_spec.symbol_depth, seed)
    batch = engine.batch_of(sys, points)
    ls_path, ldet_path = engine.forward_record(a_spec, sys, batch, n_max)
    ns = np.arange(1, n_max + 1)
    log_b = np.max(2.0 * ls_path - ldet_path, axis=1) + ns * r * np.log(lam)
    tail = ns >= ceil(n_max / 2)
    slope, _ = np.polyfit(ns[tail], log_b[tail], 1)
    theta_hat = float(np.exp(slope))
    with np.errstate(over="ignore"):
        b_values = np.exp(log_b)  # inf past the float range
    if theta_hat <= 1.0 - margin:
        verdict = "bunched"
    elif theta_hat >= 1.0 + margin:
        verdict = "not_bunched"
    elif exact and kappa_lambda_r < 1.0 - margin:
        verdict = "bunched"
    else:
        verdict = "inconclusive"
    return BunchingReport(
        ns=ns,
        b_values=b_values,
        theta_hat=theta_hat,
        verdict=verdict,
        exact=exact,
        kappa_lambda_r=kappa_lambda_r,
        samples=x_samples,
    )

