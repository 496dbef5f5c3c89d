"""Finite-depth Oseledets splitting for invertible 2x2 cocycles.

The unstable direction at x is the top left-singular direction of the
product over the backward window A^depth(f^{-depth} x); the stable direction
is the bottom right-singular direction of the forward product A^depth(x),
which in dimension two is exactly the rotation by 90 degrees of the top one.
Both are closed-form reads off the renormalized scans, and both come with a
conformality guard: when the window product has essentially equal singular
values the direction is meaningless and NoGap is raised (or reported, in the
batched variants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, mat2
from .base import BasePoint, BaseSystem, ShiftDraw, TorusDraw
from .cocycle import CocycleSpec, _constant_power
from .errors import ConfigError, NoGap, SingularValueError
from .mat2 import DET_FLOOR

_CONFORMAL_GAP = np.log1p(1e-6)


@dataclass(frozen=True)
class Direction:
    """A point of the projective line: a unit vector with the first nonzero
    component positive, so equal lines compare equal bitwise."""

    x: float
    y: float

    def __post_init__(self) -> None:
        nrm = float(np.hypot(self.x, self.y))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ConfigError("direction needs a nonzero finite vector")
        x, y = self.x / nrm, self.y / nrm
        lead = x if x != 0.0 else y
        if lead < 0.0:
            x, y = -x, -y
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def angle(self) -> float:
        """Representative angle in [0, pi)."""
        a = float(np.arctan2(self.y, self.x)) % np.pi
        return a

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y])


def projective_distance(d1: Direction, d2: Direction) -> float:
    """Sine of the angle between the two lines; a metric on the projective
    line taking values in [0, 1]."""
    return abs(d1.x * d2.y - d1.y * d2.x)


def _left_directions(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    return _normalize_pairs(*mat2.left_singular_components(a, b, c, d))


def _right_directions(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    return _normalize_pairs(*mat2.right_singular_components(a, b, c, d))


def _normalize_pairs(vx: np.ndarray, vy: np.ndarray):
    # conformal windows yield (0, 0) components; those rows are masked out
    # by the caller, so give them a harmless zero instead of 0/0
    nrm = np.hypot(vx, vy)
    safe = np.where(nrm > 0.0, nrm, 1.0)
    vx, vy = vx / safe, vy / safe
    lead = np.where(vx != 0.0, vx, vy)
    flip = np.sign(lead)
    return vx * flip, vy * flip


def _conformality_ok(st: engine.ScanState) -> np.ndarray:
    """True where the window product has a usable singular value gap.

    log kappa = 2 log sigma1 - log |det|, assembled from the scan's exact
    step-accumulated pieces.
    """
    s1 = mat2.opnorm_batch(st.a, st.b, st.c, st.d)
    log_kappa = 2.0 * (st.log_scale + np.log(s1)) - st.logdet
    return log_kappa >= _CONFORMAL_GAP


def _constant_window(a_spec: CocycleSpec, depth: int):
    """(entries, ok) for constant specs: the window product is the same
    matrix power everywhere, so no orbit access is needed; its normalized
    entries come as four (1,) arrays, the shape the extractors read."""
    m = a_spec.constant_value()
    normalized, ls = _constant_power(m, depth)
    ldet = depth * np.log(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    s1 = mat2.opnorm(normalized)
    log_kappa = 2.0 * (ls + np.log(s1)) - ldet
    return normalized.reshape(4, 1), bool(log_kappa >= _CONFORMAL_GAP)


def _replicate(vx: float, vy: float, ok: bool, count: int):
    return (
        np.full(count, vx),
        np.full(count, vy),
        np.full(count, ok, dtype=bool),
    )


def unstable_directions(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    points: list[BasePoint],
    depth: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-depth unstable directions at each point.

    Returns (vx, vy, ok) with unit direction components and a boolean mask;
    entries with ok False had a conformal window product and carry no
    meaningful direction.  A StackedCocycle gives (M, S) arrays, row m for
    its m-th member.
    """
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    if a_spec.is_constant:
        entries, ok = _constant_window(a_spec, depth)
        vx, vy = _left_directions(*entries)
        return _replicate(float(vx[0]), float(vy[0]), ok, len(points))

    def job(start: int, stop: int):
        batch = engine.batch_of(sys, points[start:stop])
        st = engine.backward_scan(a_spec, sys, batch, depth)
        vx, vy = _left_directions(st.a, st.b, st.c, st.d)
        return vx, vy, _conformality_ok(st)

    vx, vy, ok = engine.block_map(
        job, len(points), threads, rows=getattr(a_spec, "rows", 1)
    )
    return vx, vy, ok.astype(bool)


def stable_directions(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    points: list[BasePoint],
    depth: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-depth stable directions; same contract as unstable_directions."""
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    if a_spec.is_constant:
        entries, ok = _constant_window(a_spec, depth)
        rx, ry = _right_directions(*entries)
        vx, vy = _normalize_pairs(-ry, rx)
        return _replicate(float(vx[0]), float(vy[0]), ok, len(points))

    def job(start: int, stop: int):
        batch = engine.batch_of(sys, points[start:stop])
        st = engine.forward_scan(a_spec, sys, batch, depth)
        rx, ry = _right_directions(st.a, st.b, st.c, st.d)
        # rotate the top right-singular direction by 90 degrees: exact in 2d
        return _normalize_pairs(-ry, rx) + (_conformality_ok(st),)

    vx, vy, ok = engine.block_map(
        job, len(points), threads, rows=getattr(a_spec, "rows", 1)
    )
    return vx, vy, ok.astype(bool)


def unstable_direction(
    a_spec: CocycleSpec, sys: BaseSystem, x: BasePoint, depth: int
) -> Direction:
    vx, vy, ok = unstable_directions(a_spec, sys, [x], depth)
    if not ok[0]:
        raise NoGap(
            "window product is conformal to tolerance; no unstable direction"
        )
    return Direction(float(vx[0]), float(vy[0]))


def stable_direction(
    a_spec: CocycleSpec, sys: BaseSystem, x: BasePoint, depth: int
) -> Direction:
    vx, vy, ok = stable_directions(a_spec, sys, [x], depth)
    if not ok[0]:
        raise NoGap(
            "window product is conformal to tolerance; no stable direction"
        )
    return Direction(float(vx[0]), float(vy[0]))


def _lines(vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction's normalization over arrays, bit for bit: unit vectors with
    the first nonzero component positive; a zero or non-finite vector
    raises ConfigError, as Direction does."""
    nrm = np.hypot(vx, vy)
    if not np.all((nrm != 0.0) & np.isfinite(nrm)):
        raise ConfigError("direction needs a nonzero finite vector")
    return _normalize_pairs(vx, vy)


def equivariance_residuals(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    points: ShiftDraw | TorusDraw,
    depth: int,
    side: str = "unstable",
    threads: int = 1,
) -> np.ndarray:
    """Per-sample distance between the pushed direction at x and the
    extracted direction at f(x); small residuals certify that the
    finite-depth field transforms correctly under the cocycle.

    ``points`` is a ``sample_points`` draw; the draw is pushed by f, A(x)
    read and the lines normalized as arrays, giving bitwise what
    ``Direction`` and ``evaluate`` give point by point."""
    if side == "unstable":
        extract = unstable_directions
    elif side == "stable":
        extract = stable_directions
    else:
        raise ConfigError("side must be 'unstable' or 'stable'")
    if not isinstance(points, (ShiftDraw, TorusDraw)):
        raise ConfigError("equivariance residuals need a sample_points draw")
    shifted = engine.pushed(sys, points)
    vx, vy, ok = extract(a_spec, sys, points, depth, threads)
    wx, wy, ok2 = extract(a_spec, sys, shifted, depth, threads)
    if not (np.all(ok) and np.all(ok2)):
        raise NoGap("conformal window product while measuring equivariance")
    va, vb, vc, vd = engine.values(a_spec, sys, engine.batch_of(sys, points))
    if np.any(np.abs(va * vd - vb * vc) < DET_FLOOR):
        raise SingularValueError("cocycle value is singular at a sample point")
    dx, dy = _lines(vx, vy)
    px, py = _lines(va * dx + vb * dy, vc * dx + vd * dy)
    qx, qy = _lines(wx, wy)
    return np.abs(px * qy - py * qx)
