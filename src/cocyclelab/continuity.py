"""Continuity of the Oseledets splitting under cocycle perturbations.

For a family A_k = A perturbed at size t_k, the harness couples everything
on one fixed draw of base points: directions for A and A_k are extracted at
the same window depth on the same points, exponents for every member use
the same windows, and the good-set fraction counts points whose stable and
unstable directions both moved less than epsilon.  Coupling removes the
base-sampling noise from all comparisons, which is what makes the small-t
rows informative at realistic sample counts.

The whole family is walked together: each scan steps every orbit once and
absorbs the values of all live members as stacked (M, S) arrays (see
``StackedCocycle``), and the sampled Holder distances draw their pairs
once.  Each row is then reduced from its own slice, bitwise as if its
member had been run alone.

Rows whose perturbed member loses its singular value gap, or whose additive
perturbation is singular, are censored: the row stays in the table with NaN
statistics rather than disappearing, so the schedule remains visible in the
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseSystem, ShiftSystem, TorusSystem, sample_points
from .cocycle import (
    CocycleSpec,
    MatrixField,
    PerturbedCocycle,
    StackedCocycle,
    holder_distances,
    specialize,
)
from .errors import ConfigError, NoGap, SingularPerturbation, SingularValueError
from .mat2 import DET_FLOOR
from .oseledets import stable_directions, unstable_directions
from .spectrum import finite_time_exponents

_WILSON_Z = 1.959963984540054  # two-sided 95%


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


def perturb(
    base: CocycleSpec,
    direction: MatrixField,
    t: float,
    rule: str,
    sys: BaseSystem,
) -> CocycleSpec:
    """The perturbed cocycle at size t, specialized to an exact symbol table
    over shift bases when both pieces reduce to tables.

    Additive perturbations are checked for invertibility up front: exactly
    on tables, on a fixed coordinate grid for pointwise specs.
    """
    spec = PerturbedCocycle(base=base, direction=direction, t=t, rule=rule)
    if isinstance(sys, ShiftSystem):
        try:
            return specialize(spec, sys)
        except SingularValueError as err:
            raise SingularPerturbation(
                f"additive perturbation at t={t} produces a singular value"
            ) from err
    if rule == "additive" and isinstance(sys, TorusSystem):
        side = np.arange(128) / 128.0
        uu, vv = np.meshgrid(side, side)
        coords = np.column_stack([uu.ravel(), vv.ravel()])
        a, b, c, d = spec.values_at_coords(coords)
        if np.min(np.abs(a * d - b * c)) < DET_FLOOR:
            raise SingularPerturbation(
                f"additive perturbation at t={t} is singular on the grid"
            )
    return spec


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


def _good_set_stats(base_dirs, dirs, epsilon: float):
    """One member against the base on the shared draw: the row's good-set
    fraction with its Wilson interval and the displacement means and
    maxima, plus the unstable displacements themselves."""
    ux, uy, sx, sy = base_dirs
    px, py, qx, qy = dirs
    du = np.abs(ux * py - uy * px)
    ds = np.abs(sx * qy - sy * qx)
    good = (du <= epsilon) & (ds <= epsilon)
    n = good.size
    hits = int(np.count_nonzero(good))
    lo, hi = wilson_interval(hits, n)
    stats = dict(
        g_hat=hits / n,
        ci_lo=lo,
        ci_hi=hi,
        mean_du=float(np.mean(du)),
        max_du=float(np.max(du)),
        mean_ds=float(np.mean(ds)),
        max_ds=float(np.max(ds)),
    )
    return stats, du


def _directions(a_spec, sys, points, depth, threads):
    """(ux, uy, sx, sy, ok): both finite-depth directions and where both
    had a gap."""
    ux, uy, ok_u = unstable_directions(a_spec, sys, points, depth, threads)
    sx, sy, ok_s = stable_directions(a_spec, sys, points, depth, threads)
    return ux, uy, sx, sy, ok_u & ok_s


def _good_sets(specs: dict, sys, points, epsilon, depth, threads):
    """Good-set statistics of every perturbed member (keys other than 0)
    that has a gap, against the base (key 0), and the unstable
    displacements of the last of them (None if there is none); raises
    NoGap if the base has no gap.  The stacked direction arrays are
    dropped on return."""
    (*base_dirs, base_ok), *rest = _each_member(
        _directions, list(specs.values()), sys, points, depth, threads
    )
    if not base_ok.all():
        raise NoGap("conformal window product during direction extraction")
    stats, last_du = {}, None
    for k, (*dirs, ok) in zip(list(specs)[1:], rest):
        if ok.all():
            stats[k], last_du = _good_set_stats(base_dirs, dirs, epsilon)
    return stats, last_du


def _exponents(a_spec, sys, points, n, threads):
    ft = finite_time_exponents(a_spec, sys, points, n, threads)
    return ft.plus, ft.minus


def _each_member(fn, specs, *args) -> list[tuple[np.ndarray, ...]]:
    """fn(spec, *args) for every spec, as a tuple of per-sample arrays.

    The specs that need an orbit walk go through one call on their
    StackedCocycle and each reads its own row back; constant specs take
    fn's closed-form path on their own.
    """
    walked = [i for i, spec in enumerate(specs) if not spec.is_constant]
    out: list = [None] * len(specs)
    if walked:
        stacked = fn(StackedCocycle(tuple(specs[i] for i in walked)), *args)
        for row, i in enumerate(walked):
            out[i] = tuple(x[row] for x in stacked)
    for i, spec in enumerate(specs):
        if out[i] is None:
            out[i] = fn(spec, *args)
    return out


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
    displacement statistics; rows that lose the singular value gap or hit a
    singular additive perturbation are censored to NaN but keep their place
    in the schedule.
    """
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be positive")
    symbol_depth = max(family.base.symbol_depth, family.direction.symbol_depth)
    points = sample_points(
        sys, samples, max(depth, n_window) + 2 + symbol_depth, seed
    )
    # schedule index k -> perturbed spec, for every regular perturbation
    live = {}
    for k, t in enumerate(family.ts, start=1):
        try:
            live[k] = perturb(family.base, family.direction, t, family.rule, sys)
        except SingularPerturbation:
            pass
    specs = {0: family.base, **live}
    good, last_du = _good_sets(specs, sys, points, epsilon, depth, threads)
    walked = [0, *good]
    exps = dict(
        zip(
            walked,
            _each_member(
                _exponents, [specs[k] for k in walked], sys, points, n_window,
                threads,
            ),
        )
    )
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
