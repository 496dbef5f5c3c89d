"""Closed-form numerical kernels for real 2x2 matrices.

Matrices are carried either as plain (2, 2) ndarrays or, in the batched
variants, as four entry arrays ``(a, b, c, d)`` for ``[[a, b], [c, d]]``
with an arbitrary leading sample shape.  Operator norms and singular
directions come from the eigensystem of ``M^T M`` in closed form; nothing
here iterates.
"""

from __future__ import annotations

import numpy as np

# Below this squared-frequency threshold the exponential uses its series
# branch; the error of the 2-term series is O(w^4) ~ 1e-24 there.
_EXPM_SERIES_CUT = 1e-12
# A matrix with |det| below this floor counts as singular everywhere in the lab.
DET_FLOOR = 1e-12


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


def det_batch(a, b, c, d):
    return a * d - b * c


def adjugate_batch(a, b, c, d):
    # adj(M) shares the singular values of M and equals det(M) * inv(M).
    return d, -b, -c, a


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
    so exp(M) = e^s (cosh(w) I + sinhc(w) N), with the trig branch when
    w2 < 0 and a short series across the branch point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    s = 0.5 * (a + d)
    na = a - s
    nd = d - s
    w2 = na * na + b * c

    w_pos = np.sqrt(np.maximum(w2, 0.0))
    w_neg = np.sqrt(np.maximum(-w2, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        cosh_term = np.where(w2 > 0, np.cosh(w_pos), np.cos(w_neg))
        sinhc_term = np.where(
            w2 > 0,
            np.where(w_pos > 0, np.sinh(w_pos) / np.where(w_pos > 0, w_pos, 1.0), 1.0),
            np.where(w_neg > 0, np.sin(w_neg) / np.where(w_neg > 0, w_neg, 1.0), 1.0),
        )
    series = np.abs(w2) < _EXPM_SERIES_CUT
    cosh_term = np.where(series, 1.0 + 0.5 * w2, cosh_term)
    sinhc_term = np.where(series, 1.0 + w2 / 6.0, sinhc_term)

    scale = np.exp(s)
    ea = scale * (cosh_term + sinhc_term * na)
    eb = scale * (sinhc_term * b)
    ec = scale * (sinhc_term * c)
    ed = scale * (cosh_term + sinhc_term * nd)
    return ea, eb, ec, ed


def expm(m: np.ndarray) -> np.ndarray:
    ea, eb, ec, ed = expm_batch(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return np.array([[ea, eb], [ec, ed]], dtype=float)


def rotation(theta: float) -> np.ndarray:
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, -st], [st, ct]], dtype=float)


def inverse(m: np.ndarray) -> np.ndarray:
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if det == 0.0:
        from .errors import SingularValueError

        raise SingularValueError("2x2 matrix is exactly singular")
    return np.array(
        [[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=float
    ) / det
