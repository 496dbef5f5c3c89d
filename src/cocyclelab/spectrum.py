"""Lyapunov exponents from renormalized orbit products.

The top exponent comes from the forward product's log scale, scanned by
``engine.exponent_scan`` for every spec, a constant one included.  The
singular values of a 2x2 product satisfy sigma1 * sigma2 = |det|, so the
bottom exponent is the determinant rate minus the top one.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from . import engine
from .base import BasePoint, BaseSystem, sample_points
from .cocycle import CocycleSpec
from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class FiniteTimeExponents:
    """Per-sample finite-time data at a fixed window length n."""

    plus: np.ndarray  # (S,) top exponent estimates
    minus: np.ndarray  # (S,) bottom exponent estimates
    logdet_rate: np.ndarray  # (S,) (1/n) log |det A^n(x)|
    n: int


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    lambda_plus: float
    lambda_minus: float
    se_plus: float
    se_minus: float
    per_sample: FiniteTimeExponents
    n: int
    samples: int

    @property
    def gap(self) -> float:
        return self.lambda_plus - self.lambda_minus

    @property
    def gap_sem(self) -> float:
        diffs = self.per_sample.plus - self.per_sample.minus
        return _sem(diffs)


@dataclass(frozen=True)
class GapReport:
    gap: float
    gap_sem: float
    gap_floor: float
    has_gap: bool


def _sem(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(values.size))


def _log_abs_det(m: np.ndarray) -> float:
    """log |det m| of the float entries, correctly rounded: the det is
    exact in rationals and its log taken at 40 digits.  (The float
    a*d - b*c of shift_bunched's diagonal rounds to 1 - 2**-53, 3e-17
    below the exact det.)"""
    (a, b), (c, d) = (map(Fraction, row) for row in np.asarray(m, dtype=float))
    det = abs(a * d - b * c)
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(det.numerator) / det.denominator).ln())


def finite_time_exponents(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    points: list[BasePoint],
    n: int,
    threads: int = 1,
) -> FiniteTimeExponents:
    """Finite-time exponents at each point over the forward window [0, n);
    a StackedCocycle gives (M, S) arrays, row m for its m-th member."""
    if n < 1:
        raise ConfigError("window length n must be >= 1")
    words = engine.word_tables(a_spec, sys, n)

    def job(start: int, stop: int):
        batch = engine.batch_of(sys, points[start:stop])
        log_scale, logdet = engine.exponent_scan(a_spec, sys, batch, n, words)
        return log_scale / n, logdet / n

    plus, rate = engine.block_map(
        job, len(points), threads, rows=getattr(a_spec, "rows", 1)
    )
    return _finite_time(a_spec, plus, rate, n)


def _finite_time(a_spec, plus: np.ndarray, rate: np.ndarray, n: int) -> FiniteTimeExponents:
    """The exponents from the per-sample top exponents ``plus`` and log-det
    rates ``rate`` of an n-step exponent scan of ``a_spec``."""
    # a constant's log-det rate is its matrix's, exactly (shift_bunched's float
    # det rounds to 1 - 2**-53 per step); a stacked row too, as it runs alone
    members = getattr(a_spec, "members", (a_spec,))
    for row, spec in zip(rate.reshape(len(members), -1), members):
        if spec.is_constant:
            row[...] = _log_abs_det(spec.constant_value())
    minus = rate - plus
    # sigma1 >= sigma2 makes plus >= minus automatic; enforce against ties
    lo = np.minimum(plus, minus)
    hi = np.maximum(plus, minus)
    return FiniteTimeExponents(plus=hi, minus=lo, logdet_rate=rate, n=n)


def lyapunov_exponents(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    n: int = 1000,
    samples: int = 200,
    seed: int = 0,
    threads: int = 1,
    points: list[BasePoint] | None = None,
) -> SpectrumReport:
    """Both exponents with standard errors over sampled base points.

    Shift windows get half-width n + symbol depth, so the whole forward
    window is represented.  Passing ``points`` overrides sampling, which
    lets perturbation studies evaluate a family of cocycles on the same
    draw.
    """
    if points is None:
        points = sample_points(sys, samples, n + a_spec.symbol_depth, seed)
    else:
        samples = len(points)
    ft = finite_time_exponents(a_spec, sys, points, n, threads)
    return SpectrumReport(
        lambda_plus=float(np.mean(ft.plus)),
        lambda_minus=float(np.mean(ft.minus)),
        se_plus=_sem(ft.plus),
        se_minus=_sem(ft.minus),
        per_sample=ft,
        n=n,
        samples=samples,
    )


def spectral_gap(
    report: SpectrumReport, gap_floor: float = 1e-3, z: float = 3.0
) -> GapReport:
    """Decide whether the top exponent is isolated.

    has_gap requires the sampled gap to clear z standard errors of the
    per-sample gap plus an absolute floor, so conformal-like cocycles whose
    finite-time gap is pure noise do not pass.
    """
    gap = report.gap
    sem = report.gap_sem
    return GapReport(
        gap=gap,
        gap_sem=sem,
        gap_floor=gap_floor,
        has_gap=bool(gap > z * sem + gap_floor),
    )
