"""Finite-depth Oseledets splitting for invertible 2x2 cocycles.

The unstable direction at x is the top left-singular direction of the
product over the backward window A^depth(f^{-depth} x); the stable direction
is the bottom right-singular direction of the forward product A^depth(x),
which in dimension two is exactly the rotation by 90 degrees of the top one.

Both sides run through one body, ``_directions``, for every spec, a
constant one included: the side picks only the scan and the singular
vector read off its product.  The depth check, the scan head, the blocks
and the conformality guard are common to both: when the window product has
essentially equal singular values the direction is meaningless and the
sample's mask entry reports it.  ``extractor(side)`` is the one place that
maps a side's name to its extractor and rejects other names.
"""

from __future__ import annotations

import numpy as np

from . import engine, mat2
from .base import BasePoint, BaseSystem, ShiftDraw, TorusDraw
from .cocycle import CocycleSpec
from .errors import ConfigError, NoGap, SingularValueError

_CONFORMAL_GAP = np.log1p(1e-6)


def _normalize_pairs(vx: np.ndarray, vy: np.ndarray):
    # conformal windows yield (0, 0) components; those rows are masked out
    # by the caller, so give them a harmless zero instead of 0/0
    nrm = np.hypot(vx, vy)
    safe = np.where(nrm > 0.0, nrm, 1.0)
    vx, vy = vx / safe, vy / safe
    lead = np.where(vx != 0.0, vx, vy)
    flip = np.sign(lead)
    return vx * flip, vy * flip


def _read(st: engine.ScanState, side: str):
    """(vx, vy, ok) off a window product: the side's direction, and where
    the product has a usable singular value gap, log kappa = 2 log sigma1 -
    log |det| from the product's exact step-accumulated pieces."""
    entries = st.a, st.b, st.c, st.d
    if side == "unstable":
        vx, vy = _normalize_pairs(*mat2.left_singular_components(*entries))
    else:
        # the top right-singular direction turned by 90 degrees: exact in 2d
        rx, ry = _normalize_pairs(*mat2.right_singular_components(*entries))
        vx, vy = _normalize_pairs(-ry, rx)
    s1 = mat2.opnorm_batch(*entries)
    log_kappa = 2.0 * (st.log_scale + np.log(s1)) - st.logdet
    return vx, vy, log_kappa >= _CONFORMAL_GAP


def _directions(side, a_spec, sys, points, depth, threads):
    """The side's finite-depth directions at each point: the unstable side
    over the backward window, the stable side over the forward one."""
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    backward = side == "unstable"
    scan = engine.backward_scan if backward else engine.forward_scan
    # the shared first steps of every scan, walked once for the whole draw
    head = engine.scan_head(a_spec, sys, len(points), depth, backward)

    def job(start: int, stop: int):
        batch = engine.batch_of(sys, points[start:stop])
        return _read(scan(a_spec, sys, batch, depth, head), side)

    vx, vy, ok = engine.block_map(
        job, len(points), threads, rows=getattr(a_spec, "rows", 1)
    )
    return vx, vy, ok.astype(bool)


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
    return _directions("unstable", a_spec, sys, points, depth, threads)


def stable_directions(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    points: list[BasePoint],
    depth: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-depth stable directions; same contract as unstable_directions."""
    return _directions("stable", a_spec, sys, points, depth, threads)


def extractor(side: str):
    """The public extractor of one side of the splitting.  It is looked up
    by name at call time, so whatever the module's name is bound to then
    (a tracing wrapper, a test's stand-in) is what runs."""
    if side not in ("unstable", "stable"):
        raise ConfigError("side must be 'unstable' or 'stable'")
    return globals()[f"{side}_directions"]


def _lines(vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalization of lines: unit vectors with the first nonzero
    component positive; a zero or non-finite vector raises ConfigError."""
    nrm = np.hypot(vx, vy)
    if not np.all((nrm != 0.0) & np.isfinite(nrm)):
        raise ConfigError("direction needs a nonzero finite vector")
    return _normalize_pairs(vx, vy)


def equivariance_residuals(
    a_spec: CocycleSpec,
    sys: BaseSystem,
    points: ShiftDraw | TorusDraw,
    field: tuple[np.ndarray, np.ndarray, np.ndarray],
    depth: int,
    side: str = "unstable",
    threads: int = 1,
) -> np.ndarray:
    """Per-sample distance between the pushed direction at x and the
    extracted direction at f(x); small residuals certify that the
    finite-depth field transforms correctly under the cocycle.

    ``field`` is the side's (vx, vy, ok) at ``points``, as its extractor
    returns it at this depth; only the field at f(x) is extracted here.
    ``points`` is a ``sample_points`` draw; the draw is pushed by f, A(x)
    read and the lines normalized as arrays."""
    extract = extractor(side)
    if not isinstance(points, (ShiftDraw, TorusDraw)):
        raise ConfigError("equivariance residuals need a sample_points draw")
    vx, vy, ok = field
    wx, wy, ok2 = extract(a_spec, sys, engine.pushed(sys, points), depth, threads)
    if not (np.all(ok) and np.all(ok2)):
        raise NoGap("conformal window product while measuring equivariance")
    va, vb, vc, vd = engine.values(a_spec, sys, engine.batch_of(sys, points))
    if not np.all(mat2.regular(va, vb, vc, vd)):
        raise SingularValueError("cocycle value is singular at a sample point")
    dx, dy = _lines(vx, vy)
    px, py = _lines(va * dx + vb * dy, vc * dx + vd * dy)
    qx, qy = _lines(wx, wy)
    return np.abs(px * qy - py * qx)
