"""Closed-form numerical kernels for real 2x2 matrices.

Matrices are carried either as plain (2, 2) ndarrays or, in the batched
variants, as four entry arrays ``(a, b, c, d)`` for ``[[a, b], [c, d]]``
with an arbitrary leading sample shape.  Operator norms and singular
directions come from the eigensystem of ``M^T M`` in closed form; nothing
here iterates.

``regular`` is the lab's one invertibility rule: |det| >= eps |A|_F^2 with
|A|_F^2 nonzero and below 2**511, that is sigma2 / sigma1 >= eps up to a
factor of 2.  It is scale-free: A and 2**k A pass or fail it alike, for any
k that keeps the entries below about 2**255.  ``certify_regular`` proves
it from bounds on the singular values, so a caller whose values lie within
such bounds can skip it.
"""

from __future__ import annotations

import numpy as np

# Below this squared-frequency threshold the exponential uses its series
# branch; the error of the 2-term series is O(w^4) ~ 1e-24 there.
_EXPM_SERIES_CUT = 1e-12
# ``regular`` admits |det| down to this share of the squared Frobenius norm
_EPS = np.finfo(float).eps
# and a squared Frobenius norm s below this, so that s * s is finite: the
# squares of squares that opnorm_batch forms then stay finite too
_FROB2_MAX = 2.0**511
# ``certify_regular`` asks sigma2 / sigma1 >= 2**-20 of its bounds, 2**32
# times eps, and both bounds within 2**-100 .. 2**100
_CERT_RATIO = 2.0**-20
_CERT_RANGE = 2.0**100


def matmul_batch(a1, b1, c1, d1, a2, b2, c2, d2):
    """Entrywise product [[a1,b1],[c1,d1]] @ [[a2,b2],[c2,d2]]."""
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def matvec_batch(a, b, c, d, vx, vy):
    return a * vx + b * vy, c * vx + d * vy


def regular(a, b, c, d, det=None):
    """True where [[a, b], [c, d]] is invertible to working precision: the
    squared Frobenius norm s is nonzero and below 2**511 (entries below
    about 2**255, the range of ``opnorm_batch``) and |det| / s >= eps.  A
    caller that has already formed det = a d - b c may pass it.  A NaN or
    infinite entry, a zero matrix or an overflowing s gives a ratio of 0 or
    NaN and fails, without a warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if det is None:
            det = a * d - b * c
        s = a * a + b * b + c * c + d * d
        return (np.abs(det) / s >= _EPS) & (s < _FROB2_MAX)


def certify_regular(s1_max: float, s2_min: float) -> bool:
    """True when every matrix whose singular values satisfy sigma1 <=
    s1_max and sigma2 >= s2_min passes ``regular``, whatever the rounding
    of its entries and of the bounds: s2_min >= 2**-20 s1_max, and both lie
    within [2**-100, 2**100].  NaN bounds prove nothing.

    Error argument.  Let the computed value be A + E, with A within the
    bounds and |E|_F <= delta s1_max for some delta <= 2**-30 (the value's
    rounding and the bounds'; ``cocycle.singular_bounds`` argues it for the
    torus specs).  By Weyl's inequality its singular values are s1 <=
    (1 + delta) s1_max and s2 >= s2_min - delta s1_max, so s2 / s1 > 2**-21
    and, as |A|_F^2 = s1^2 + s2^2 and |det| = s1 s2, |det| / |A|_F^2 >=
    s2 / (2 s1) > 2**-22.  Its squared Frobenius norm lies within
    [2**-202, 2**202], far from the subnormals and from 2**511.  The
    computed det = a d - b c errs by at most eps |A|_F^2, as |a d| + |b c|
    <= |A|_F^2 / 2, and the computed norm by a few ulps, so the computed
    ratio exceeds 2**-23, 2**29 times eps."""
    return bool(
        1.0 / _CERT_RANGE <= s2_min
        and s1_max <= _CERT_RANGE
        and s2_min >= _CERT_RATIO * s1_max
    )


def top_eig_components(p, q, r):
    """Top eigenvalue and eigenvector of the symmetric [[p, q], [q, r]].

    Returns ``(mu1, vx, vy)`` with the eigenvector unnormalized.  The branch
    is chosen so the vector never cancels when the top eigenvalue is simple;
    for an exactly isotropic matrix the vector degenerates to (0, 0) and the
    caller decides what that means.
    """
    half_diff = 0.5 * (p - r)
    root = np.sqrt(half_diff * half_diff + q * q)
    mu1 = 0.5 * (p + r) + root
    use_first = p >= r
    vx = np.where(use_first, mu1 - r, q)
    vy = np.where(use_first, q, mu1 - p)
    return mu1, vx, vy


def opnorm_batch(a, b, c, d):
    """Spectral norm, i.e. the top singular value."""
    p = a * a + c * c
    q = a * b + c * d
    r = b * b + d * d
    half_diff = 0.5 * (p - r)
    root = np.sqrt(half_diff * half_diff + q * q)
    return np.sqrt(0.5 * (p + r) + root)


def right_singular_components(a, b, c, d):
    """Unnormalized top right-singular vector (top eigenvector of M^T M)."""
    p = a * a + c * c
    q = a * b + c * d
    r = b * b + d * d
    _, vx, vy = top_eig_components(p, q, r)
    return vx, vy


def left_singular_components(a, b, c, d):
    """Unnormalized top left-singular vector (top eigenvector of M M^T)."""
    p = a * a + b * b
    q = a * c + b * d
    r = c * c + d * d
    _, vx, vy = top_eig_components(p, q, r)
    return vx, vy


def opnorm(m: np.ndarray) -> float:
    return float(opnorm_batch(m[0, 0], m[0, 1], m[1, 0], m[1, 1]))


def singular_values(m: np.ndarray) -> tuple[float, float]:
    """Both singular values, largest first.

    The small one is recovered as |det| / s1, which is exact in the reals
    and avoids the cancellation that the eigenvalue difference suffers for
    ill-conditioned input.
    """
    s1 = opnorm(m)
    if s1 == 0.0:
        return 0.0, 0.0
    return s1, abs(float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])) / s1


def expm_batch(a, b, c, d):
    """exp(M) entrywise for batches of 2x2 matrices, in closed form.

    Splits M = s*I + N with N traceless; N^2 = w2 * I with w2 = -det(N),
    so exp(M) = e^s (cosh(w) I + sinhc(w) N) with w = sqrt(|w2|): the
    trig branch cos(w), sin(w)/w when w2 <= 0, the hyperbolic one when
    w2 > 0, and a short series where |w2| < ``_EXPM_SERIES_CUT``.

    Only the branches some entry needs are evaluated: cos and sin/w always,
    cosh and sinh/w only when some w2 > 0, the series only when some |w2|
    is below the cut (which also overwrites the 0/0 at w = 0).  A batch
    whose diagonal is zero throughout skips the terms that read it, unless
    some sinhc is not finite.  Each entry gets the same bits as evaluating
    every term and branch and selecting.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    diagonal = a.any() or d.any()
    s = 0.5 * (a + d) if diagonal else 0.0
    # on a traceless batch e^s is exactly 1, so skip the shift and the
    # scale; a = d = -0.0 then keeps na = -0.0 where a - s gives +0.0,
    # which no output bit sees (na enters as na^2 or added to a nonzero
    # cosh term), and without a diagonal neither is formed
    traced = np.any(s)
    na = a - s if traced else a
    nd = d - s if traced else d
    w2 = na * na + b * c if diagonal else b * c

    abs_w2 = np.abs(w2)
    w = np.sqrt(abs_w2)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosh_term = np.cos(w)
        sinhc_term = np.sin(w) / w
        hyperbolic = w2 > 0
        if hyperbolic.any():
            # zero off the branch, so cosh overflows only where it is kept
            wh = np.where(hyperbolic, w, 0.0)
            cosh_term = np.where(hyperbolic, np.cosh(wh), cosh_term)
            sinhc_term = np.where(hyperbolic, np.sinh(wh) / wh, sinhc_term)
    series = abs_w2 < _EXPM_SERIES_CUT
    if series.any():
        cosh_term = np.where(series, 1.0 + 0.5 * w2, cosh_term)
        sinhc_term = np.where(series, 1.0 + w2 / 6.0, sinhc_term)

    # cosh is never 0, so cosh + sinhc * (+-0) is cosh where sinhc is finite
    ea = ed = cosh_term
    if diagonal or not np.isfinite(sinhc_term).all():
        ea = cosh_term + sinhc_term * na
        ed = cosh_term + sinhc_term * nd
    eb = sinhc_term * b
    ec = sinhc_term * c
    if traced:
        scale = np.exp(s)
        ea, eb, ec, ed = scale * ea, scale * eb, scale * ec, scale * ed
    return ea, eb, ec, ed


def expm(m: np.ndarray) -> np.ndarray:
    ea, eb, ec, ed = expm_batch(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return np.array([[ea, eb], [ec, ed]], dtype=float)


def inverse(m: np.ndarray) -> np.ndarray:
    if not regular(m[0, 0], m[0, 1], m[1, 0], m[1, 1]):
        from .errors import SingularValueError

        raise SingularValueError("2x2 matrix is singular to working precision")
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return np.array(
        [[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float
    ) / det
