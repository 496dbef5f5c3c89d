"""Lyapunov exponents from renormalized orbit products.

The top exponent comes from the forward product's log scale; the bottom one
comes from an independently renormalized product of the step inverses, not
from the determinant identity, so the per-sample consistency residual
l_plus + l_minus - (1/n) log |det A^n| is a genuine cross-check between two
different arithmetic routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, mat2
from .base import BasePoint, BaseSystem, ShiftSystem, sample_points
from .cocycle import CocycleSpec, _constant_power
from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class FiniteTimeExponents:
    """Per-sample finite-time data at a fixed window length n."""

    plus: np.ndarray  # (S,) top exponent estimates
    minus: np.ndarray  # (S,) bottom exponent estimates
    logdet_rate: np.ndarray  # (S,) (1/n) log |det A^n(x)|
    n: int

    @property
    def det_residuals(self) -> np.ndarray:
        return self.plus + self.minus - self.logdet_rate


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
    count = len(points)
    if a_spec.is_constant:
        _, ls = _constant_power(a_spec.constant_value(), n)
        m = a_spec.constant_value()
        _, ls_inv = _constant_power(mat2.inverse(m), n)
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        plus = np.full(count, ls / n)
        minus = np.full(count, -ls_inv / n)
        rate = np.full(count, np.log(abs(det)))
        return FiniteTimeExponents(plus=plus, minus=minus, logdet_rate=rate, n=n)

    words = engine.word_tables(a_spec, sys, n)

    def job(start: int, stop: int):
        batch = engine.batch_of(sys, points[start:stop])
        st = engine.exponent_scan(a_spec, sys, batch, n, words)
        return st.log_scale / n, -st.inv_log_scale / n, st.logdet / n

    plus, minus, rate = engine.block_map(
        job, count, threads, rows=getattr(a_spec, "rows", 1)
    )
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

    For a shift base the sampled windows get half-width n plus the symbol
    depth of the spec, so the whole forward window is represented.  Passing
    ``points`` overrides sampling, which lets perturbation studies evaluate
    a family of cocycles on the same draw.
    """
    if points is None:
        horizon = n + a_spec.symbol_depth if isinstance(sys, ShiftSystem) else 0
        points = sample_points(sys, samples, horizon, seed)
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
