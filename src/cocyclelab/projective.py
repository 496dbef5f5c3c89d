"""Empirical measures on the projective bundle and their diagnostics.

The unstable (stable) graph measure is the empirical distribution of pairs
(x_i, E^u(x_i)) over sampled base points.  Two diagnostics probe it:

* an invariance defect, testing the pushforward under (x, v) ->
  (f x, A(x) v) against a bank of product test functions, with the
  reference side evaluated at the same pushed base points so base-sampling
  noise cancels and only the fiber mismatch is measured;
* the integral of phi(x, v) = log ||A(x) v||, which for the unstable graph
  measure estimates the top exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, mat2
from .base import (
    BaseSystem,
    ShiftDraw,
    ShiftSystem,
    TorusDraw,
    sample_points,
)
from .cocycle import CocycleSpec
from .errors import NoGap
from .oseledets import extractor, stable_directions, unstable_directions
from .spectrum import _sem


@dataclass(frozen=True, eq=False)
class EmpiricalProjectiveMeasure:
    """Uniform atoms (x_i, v_i) on the projective bundle; v components are
    unit vectors stored as parallel arrays."""

    points: ShiftDraw | TorusDraw
    vx: np.ndarray
    vy: np.ndarray
    kind: str
    depth: int

    @property
    def size(self) -> int:
        return len(self.points)


def build_invariant_measures(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    samples: int,
    depth: int,
    seed: int = 0,
    threads: int = 1,
) -> tuple[EmpiricalProjectiveMeasure, EmpiricalProjectiveMeasure]:
    """Sampled unstable and stable graph measures at the given window depth.

    Shift windows get half-width depth + 2 + symbol depth, so direction
    extraction and one forward push both stay inside the window.
    """
    pts = sample_points(sys, samples, depth + 2 + a_spec.symbol_depth, seed)
    ux, uy, ok_u = unstable_directions(a_spec, sys, pts, depth, threads)
    sx, sy, ok_s = stable_directions(a_spec, sys, pts, depth, threads)
    if not (ok_u.all() and ok_s.all()):
        raise NoGap("conformal window product while building graph measures")
    m_u = EmpiricalProjectiveMeasure(
        points=pts, vx=ux, vy=uy, kind="unstable", depth=depth
    )
    m_s = EmpiricalProjectiveMeasure(
        points=pts, vx=sx, vy=sy, kind="stable", depth=depth
    )
    return m_u, m_s


# ---------------------------------------------------------------------------
# evaluation helpers


def _push_directions(va, vb, vc, vd, vx, vy):
    """The normalized image of unit directions under per-sample matrices."""
    wx, wy = mat2.matvec_batch(va, vb, vc, vd, vx, vy)
    nrm = np.hypot(wx, wy)
    return wx / nrm, wy / nrm


def phi_values(
    a_spec: CocycleSpec, sys: BaseSystem, measure: EmpiricalProjectiveMeasure
) -> np.ndarray:
    """phi(x_i, v_i) = log ||A(x_i) v_i|| at each atom."""
    va, vb, vc, vd = engine.values(a_spec, sys, engine.batch_of(sys, measure.points))
    wx, wy = mat2.matvec_batch(va, vb, vc, vd, measure.vx, measure.vy)
    return np.log(np.hypot(wx, wy))


def integrate_phi(
    a_spec: CocycleSpec, sys: BaseSystem, measure: EmpiricalProjectiveMeasure
) -> tuple[float, float]:
    """Mean and standard error of phi over the measure's atoms."""
    vals = phi_values(a_spec, sys, measure)
    return float(np.mean(vals)), _sem(vals)


# ---------------------------------------------------------------------------
# test bank


def _base_functions(sys: BaseSystem):
    """Named scalar functions of the base point, vectorized over a list."""
    funcs: list[tuple[str, object]] = [("1", None)]
    if isinstance(sys, ShiftSystem):
        a = sys.alphabet_size
        for s in range(a):
            funcs.append((f"[x0={s}]", ("cyl1", s)))
        for s in range(a):
            for t in range(a):
                funcs.append((f"[x0={s},x1={t}]", ("cyl2", s, t)))
    else:
        for k1, k2 in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2)):
            funcs.append((f"cos2pi({k1}u+{k2}v)", ("cos", k1, k2)))
            funcs.append((f"sin2pi({k1}u+{k2}v)", ("sin", k1, k2)))
    return funcs


def _eval_base_function(tag, points: ShiftDraw | TorusDraw) -> np.ndarray:
    if tag is None:
        return np.ones(len(points))
    if tag[0] == "cyl1":
        return (points.symbols(0) == tag[1]).astype(float)
    if tag[0] == "cyl2":
        hit = (points.symbols(0) == tag[1]) & (points.symbols(1) == tag[2])
        return hit.astype(float)
    k1, k2 = tag[1], tag[2]
    phase = 2.0 * np.pi * (k1 * points.coords[:, 0] + k2 * points.coords[:, 1])
    return np.cos(phase) if tag[0] == "cos" else np.sin(phase)


_FIBER_FUNCTIONS = (
    ("1", lambda vx, vy: np.ones_like(vx)),
    ("cos2t", lambda vx, vy: vx * vx - vy * vy),
    ("sin2t", lambda vx, vy: 2.0 * vx * vy),
)


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    defect: float
    per_test: dict[str, float]
    samples: int

    @property
    def bank_size(self) -> int:
        return len(self.per_test)


def invariance_defect(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    measure: EmpiricalProjectiveMeasure,
    threads: int = 1,
) -> InvarianceReport:
    """Worst test-bank discrepancy between the pushed measure and the graph
    measure recomputed at the pushed base points.

    Both sides share the base points f(x_i), so the defect isolates how far
    the pushed fiber directions sit from the extracted field; for a constant
    cocycle with a gap it vanishes to rounding.
    """
    extract = extractor(measure.kind)
    pushed_pts = engine.pushed(sys, measure.points)
    va, vb, vc, vd = engine.values(a_spec, sys, engine.batch_of(sys, measure.points))
    wx, wy = _push_directions(va, vb, vc, vd, measure.vx, measure.vy)
    rx, ry, ok = extract(a_spec, sys, pushed_pts, measure.depth, threads)
    if not ok.all():
        raise NoGap("conformal window product while recomputing directions")
    per_test: dict[str, float] = {}
    for base_name, tag in _base_functions(sys):
        base_vals = _eval_base_function(tag, pushed_pts)
        for fiber_name, fiber in _FIBER_FUNCTIONS:
            lhs = float(np.mean(base_vals * fiber(wx, wy)))
            rhs = float(np.mean(base_vals * fiber(rx, ry)))
            per_test[f"{base_name}*{fiber_name}"] = abs(lhs - rhs)
    defect = max(per_test.values())
    return InvarianceReport(defect=defect, per_test=per_test, samples=measure.size)
