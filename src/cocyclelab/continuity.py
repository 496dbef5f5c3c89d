"""Continuity of the Oseledets splitting under cocycle perturbations.

For a family A_k = A perturbed at size t_k, the harness couples everything
on one fixed draw of base points: directions for A and A_k are extracted at
the same window depth on the same points, exponents for every member use
the same windows, and the good-set fraction counts points whose stable and
unstable directions both moved less than epsilon.  Coupling removes the
base-sampling noise from all comparisons, which is what makes the small-t
rows informative at realistic sample counts.

The whole family is walked together, the values of all live members
absorbed as stacked (M, S) arrays (see ``StackedCocycle``): every orbit is
walked backward once, for the unstable directions, and forward once, for
the stable directions and the exponents (``engine.forward_walk``).  The
up-front grid check evaluates every member that ``proven_regular`` cannot
prove in one pass, and the sampled Holder distances every member in one
pass.  Each row is then reduced from its own slice, bitwise as if its
member had been run alone.

Rows whose perturbed member loses its singular value gap, fails the
up-front check of ``perturbations``, or meets a step that fails
``mat2.regular`` in its direction or exponent windows, are censored: the
row stays in the table with NaN statistics rather than disappearing, so
the schedule remains visible in the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, oseledets, spectrum
from .base import BaseSystem, ShiftSystem, sample_points
from .cocycle import (
    STACK_BLOCK,
    CocycleSpec,
    MatrixField,
    PerturbedCocycle,
    StackedCocycle,
    holder_distances,
    proven_regular,
    specialize,
)
from .errors import ConfigError, NoGap, SingularValueError
from .mat2 import regular
from .oseledets import unstable_directions

_WILSON_Z = 1.959963984540054  # two-sided 95%
# torus perturbations are checked on this many points per side of a grid
_GRID_SIDE = 128


@dataclass(frozen=True, eq=False)
class PerturbationFamily:
    """A base cocycle, a direction field, a composition rule, and the
    perturbation sizes to visit (largest first by convention)."""

    base: CocycleSpec
    direction: MatrixField
    rule: str = "multiplicative_exp"
    ts: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in ("multiplicative_exp", "additive"):
            raise ConfigError("rule must be 'multiplicative_exp' or 'additive'")
        if not self.ts:
            raise ConfigError("perturbation family needs at least one size")
        if any(t <= 0.0 for t in self.ts):
            raise ConfigError("perturbation sizes must be positive")
        object.__setattr__(self, "ts", tuple(float(t) for t in self.ts))

    @classmethod
    def dyadic(
        cls,
        base: CocycleSpec,
        direction: MatrixField,
        rule: str = "multiplicative_exp",
        count: int = 12,
    ) -> "PerturbationFamily":
        """Sizes t_k = 2^{-k} for k = 1 .. count."""
        return cls(
            base=base,
            direction=direction,
            rule=rule,
            ts=tuple(2.0 ** -k for k in range(1, count + 1)),
        )


def perturbations(
    base: CocycleSpec,
    direction: MatrixField,
    ts,
    rule: str,
    sys: BaseSystem,
) -> list[CocycleSpec | None]:
    """The perturbed cocycle at each size in ``ts``, specialized to an
    exact symbol table over shift bases when both pieces reduce to tables;
    None where the perturbation is censored.

    Each is checked up front: exactly on tables, and over a torus on a
    fixed coordinate grid, where a value that fails ``mat2.regular`` (not
    finite, singular to working precision, or too large for its squared
    Frobenius norm) or a det that takes both signs censors it: an additive
    member can be singular, an exponential can overflow or lose its
    determinant.  The torus is connected, so a continuous det of
    both signs vanishes on a curve, however far from 0 it stays on the
    grid.  A member that ``proven_regular`` proves passes without the grid:
    its values pass the rule everywhere and its det, never 0, keeps one
    sign.  The others walk the grid once, as one ``StackedCocycle`` whose
    rows are bitwise each member's own, so a size gets the same verdict
    alone as in its family.
    """
    specs = [
        PerturbedCocycle(base=base, direction=direction, t=t, rule=rule) for t in ts
    ]
    if isinstance(sys, ShiftSystem):
        out = []
        # an overflowing exponential leaves a non-finite table, censored here
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for spec in specs:
                try:
                    out.append(specialize(spec, sys))
                except SingularValueError:
                    out.append(None)
        return out
    checked = [i for i, spec in enumerate(specs) if not proven_regular(spec)]
    if not checked:
        return specs
    side = np.arange(_GRID_SIDE) / _GRID_SIDE
    uu, vv = np.meshgrid(side, side)
    coords = np.column_stack([uu.ravel(), vv.ravel()])
    stack = StackedCocycle(tuple(specs[i] for i in checked))
    keep = np.ones(stack.rows, dtype=bool)
    width = max(1, STACK_BLOCK // stack.rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # every grid det must share the sign of the first
        a, b, c, d = stack.values_at_coords(coords[:1])
        sign = np.sign(a * d - b * c)
        for lo in range(0, coords.shape[0], width):
            a, b, c, d = stack.values_at_coords(coords[lo : lo + width])
            # below the rule the computed det is rounding noise that can
            # land on 0 along an orbit
            det = a * d - b * c
            ok = regular(a, b, c, d, det) & (np.sign(det) == sign)
            keep &= ok.all(axis=1)
    for i, k in zip(checked, keep):
        if not k:
            specs[i] = None
    return specs


# ---------------------------------------------------------------------------
# good set


def wilson_interval(successes: int, n: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n < 1:
        raise ConfigError("interval needs n >= 1")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # the endpoint is exactly 0 or 1 when every trial agrees; the float
    # route can land one ulp inside it
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def _good_set_stats(du, ds, epsilon: float):
    """One member against the base on the shared draw, from its unstable
    and stable displacements: the row's good-set fraction with its Wilson
    interval and the displacement means and maxima."""
    good = (du <= epsilon) & (ds <= epsilon)
    n = good.size
    hits = int(np.count_nonzero(good))
    lo, hi = wilson_interval(hits, n)
    return dict(
        g_hat=hits / n,
        ci_lo=lo,
        ci_hi=hi,
        mean_du=float(np.mean(du)),
        max_du=float(np.max(du)),
        mean_ds=float(np.mean(ds)),
        max_ds=float(np.max(ds)),
    )


def _displacements(x, y):
    """Per sample, |sin| of the angle between each row's unit directions
    (x, y) and row 0's, the base's, as (M, S) arrays; formed in place, so
    at most one temporary of that size is held beside them."""
    out = x[0] * y
    out -= y[0] * x
    return np.abs(out, out=out)


def _walk(specs: dict, sys, points, epsilon, depth, n, threads):
    """(good, exponents, last_du): the good-set statistics of every
    perturbed member (keys other than 0) with a gap, against the base (key
    0); the (plus, minus) exponents of the base and of those members; and
    the unstable displacements of the last of them (None if there is
    none).

    The members are walked as one StackedCocycle: its unstable directions
    over the backward window, then its stable directions and exponents
    from one forward walk per block (``_forward``); each side's directions
    are kept only as their displacements from the base's.  Raises
    SingularValueError if a step in the base's direction windows fails
    ``mat2.regular``, then NoGap if the base has no gap, and then
    SingularValueError if a step in its exponent window fails; a member
    without a gap, or with such a step in any of its windows, is censored,
    and the other rows are bitwise their values without it."""
    stack = StackedCocycle(tuple(specs.values()))
    ux, uy, ok_u = unstable_directions(stack, sys, points, depth, threads)
    _require_base_directions(ux)
    du = _displacements(ux, uy)
    # each side's directions are dropped as soon as their displacements are
    # formed, which keeps them out of the run's peak memory
    del ux, uy
    ds, ok_s, plus, rate, clean = _forward(stack, sys, points, depth, n, threads)
    # a base direction of NaN leaves its row of displacements NaN
    _require_base_directions(ds)
    # a member's NaN directions fail the gap test, which censors its row
    gap = (ok_u & ok_s).all(axis=1)
    if not gap[0]:
        raise NoGap("conformal window product during direction extraction")
    clean = clean.all(axis=1)
    if not clean[0]:
        raise SingularValueError("cocycle value is singular along the orbit")
    live = gap & clean
    good, last_du = {}, None
    for row, k in enumerate(specs):
        if row and live[row]:
            good[k] = _good_set_stats(du[row], ds[row], epsilon)
            last_du = du[row].copy()
    del du, ds
    # a censored row's exponents are noise, and warn nothing
    with np.errstate(invalid="ignore"):
        ft = spectrum._finite_time(stack, plus, rate, n)
    exps = {k: (ft.plus[row], ft.minus[row]) for row, k in enumerate(specs) if live[row]}
    return good, exps, last_du


def _require_base_directions(rows) -> None:
    """Raise SingularValueError where the base's row is NaN: a stack's walk
    leaves the directions of a member-sample whose window holds a step
    that fails ``mat2.regular`` NaN."""
    if np.isnan(rows[0]).any():
        raise SingularValueError("cocycle value is singular along the orbit")


def _forward(stack, sys, points, depth, n, threads):
    """(ds, ok, plus, rate, clean) of every row of ``stack``: the
    displacement of its stable directions at ``depth``, as
    ``stable_directions`` gives them, from row 0's, and its top exponents
    and log-det rates over [0, n), as ``finite_time_exponents`` forms
    them, from one ``engine.forward_walk`` per block; ``clean`` is False
    where a sample's exponent window holds a step that fails
    ``mat2.regular``.  The stable directions themselves live one block at
    a time."""
    if n < 1:
        raise ConfigError("window length n must be >= 1")
    head = engine.scan_head(stack, sys, len(points), depth, backward=False)
    words = engine.word_tables(stack, sys, n)

    def job(start: int, stop: int):
        batch = engine.batch_of(sys, points[start:stop])
        st, log_scale, logdet, clean = engine.forward_walk(
            stack, sys, batch, depth, n, head, words
        )
        sx, sy, ok = oseledets._read(st, "stable")
        return _displacements(sx, sy), ok, log_scale / n, logdet / n, clean

    return engine.block_map(job, len(points), threads, rows=stack.rows)


# ---------------------------------------------------------------------------
# the experiment


@dataclass(frozen=True)
class ContinuityRow:
    k: int
    t: float
    holder_dist: float
    g_hat: float
    ci_lo: float
    ci_hi: float
    lambda_plus: float
    lambda_minus: float
    mean_du: float
    max_du: float
    mean_ds: float
    max_ds: float
    censored: bool


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    rows: tuple[ContinuityRow, ...]
    base_lambda_plus: float
    base_lambda_minus: float
    epsilon: float
    depth: int
    samples: int
    n_window: int
    seed: int
    # unstable direction displacements of the last uncensored row, or None
    last_unstable_distances: np.ndarray | None


def continuity_experiment(
    family: PerturbationFamily,
    sys: BaseSystem,
    epsilon: float = 0.1,
    samples: int = 10000,
    depth: int = 40,
    n_window: int = 400,
    seed: int = 0,
    threads: int = 1,
) -> ContinuityReport:
    """Run the whole perturbation schedule on one coupled sample draw.

    Every row reports the Holder distance to the base, the good-set
    fraction with its interval, the perturbed exponents, and the direction
    displacement statistics; rows that lose the singular value gap or fail
    the up-front check of ``perturbations`` are censored to NaN but keep
    their place in the schedule.
    """
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")
    symbol_depth = max(family.base.symbol_depth, family.direction.symbol_depth)
    points = sample_points(
        sys, samples, max(depth, n_window) + 2 + symbol_depth, seed
    )
    # schedule index k -> perturbed spec, for every regular perturbation
    live = {
        k: spec
        for k, spec in enumerate(
            perturbations(
                family.base, family.direction, family.ts, family.rule, sys
            ),
            start=1,
        )
        if spec is not None
    }
    specs = {0: family.base, **live}
    good, exps, last_du = _walk(specs, sys, points, epsilon, depth, n_window, threads)
    holder = dict(
        zip(live, holder_distances(tuple(live.values()), family.base, sys, seed=seed))
    )
    rows: list[ContinuityRow] = []
    for k, t in enumerate(family.ts, start=1):
        if k not in live:
            rows.append(_censored_row(k, t, np.nan))
            continue
        hd = holder[k].norm
        if k not in good:
            rows.append(_censored_row(k, t, hd))
            continue
        plus, minus = exps[k]
        rows.append(
            ContinuityRow(
                k=k, t=t, holder_dist=hd,
                lambda_plus=float(np.mean(plus)),
                lambda_minus=float(np.mean(minus)),
                censored=False,
                **good[k],
            )
        )
    base_plus, base_minus = exps[0]
    return ContinuityReport(
        rows=tuple(rows),
        base_lambda_plus=float(np.mean(base_plus)),
        base_lambda_minus=float(np.mean(base_minus)),
        epsilon=epsilon,
        depth=depth,
        samples=samples,
        n_window=n_window,
        seed=seed,
        last_unstable_distances=last_du,
    )


def _censored_row(k: int, t: float, holder_dist: float) -> ContinuityRow:
    nan = np.nan
    return ContinuityRow(
        k=k, t=t, holder_dist=holder_dist,
        g_hat=nan, ci_lo=nan, ci_hi=nan,
        lambda_plus=nan, lambda_minus=nan,
        mean_du=nan, max_du=nan, mean_ds=nan, max_ds=nan,
        censored=True,
    )
