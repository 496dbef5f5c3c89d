"""A torus cocycle cohomologous to a constant, against its closed forms.

A(x) = C(fx) B C(x)^-1 with B constant and C a smooth GL(2) field gives
A^n(x) = C(f^n x) B^n C(x)^-1, so the splitting is E^u(x) = C(x) e1 and
E^s(x) = C(x) e2, with e1, e2 the eigenvectors of B, and each sample's
finite-time exponents follow from one matrix product.  The closed forms
are formed with numpy alone (``@``, ``np.linalg.eig``, ``np.linalg.svd``),
so the check shares no arithmetic with the walks.  A continuous C keeps
the cocycle dominated: this checks the arithmetic, not the paper's
non-dominated regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab.base import sample_points, wrap_unit
from cocyclelab.oseledets import stable_directions, unstable_directions
from cocyclelab.spectrum import finite_time_exponents

B = np.array([[1.6, 0.7], [0.2, 0.75]])
SAMPLES, DEPTH, N = 500, 40, 400
TOL = 1e-12


def conjugacy(coords: np.ndarray) -> np.ndarray:
    """C(x) = R(phi(x)) shear(s(x)) at each row (u, v), as (S, 2, 2)."""
    tu, tv = 2.0 * np.pi * coords[:, 0], 2.0 * np.pi * coords[:, 1]
    phi = 0.4 * np.sin(tu) + 0.3 * np.cos(tv) + 0.1 * np.sin(tu + tv)
    s = 0.5 * np.cos(tu) - 0.2 * np.sin(tv)
    rot = np.stack([np.cos(phi), -np.sin(phi), np.sin(phi), np.cos(phi)], -1)
    shear = np.stack([np.ones_like(s), s, np.zeros_like(s), np.ones_like(s)], -1)
    return rot.reshape(-1, 2, 2) @ shear.reshape(-1, 2, 2)


class Cohomologous:
    """A torus spec double: the ``values_at_coords`` hook of C(fx) B C(x)^-1,
    fx from the integer matrix and ``wrap_unit``, as the engine steps."""

    symbol_depth = 0
    is_constant = False
    r = 1.0

    def __init__(self, sys):
        self.m = sys.int_matrix

    def values_at_coords(self, coords, modes=None):
        (a, b), (c, d) = self.m
        u, v = coords[:, 0], coords[:, 1]
        fx = np.column_stack([wrap_unit(a * u + b * v), wrap_unit(c * u + d * v)])
        values = conjugacy(fx) @ B @ np.linalg.inv(conjugacy(coords))
        return tuple(np.ascontiguousarray(values[:, i, j]) for i in (0, 1) for j in (0, 1))


def eigen():
    """(mu, P): B's eigenvalues by decreasing modulus, eigenvectors as the
    columns of P."""
    mu, vecs = np.linalg.eig(B)
    order = np.argsort(-np.abs(mu))
    return mu[order], vecs[:, order]


def sines(vx, vy, want):
    """|sin| of the angle between the lines (vx, vy) and the rows of want."""
    return np.abs(vx * want[:, 1] - vy * want[:, 0]) / np.hypot(*want.T)


@pytest.fixture
def draw(cat):
    return sample_points(cat, SAMPLES, 0, seed=16)


def test_b_has_a_real_gap():
    mu, _ = eigen()
    assert np.isrealobj(mu) and abs(mu[0]) > abs(mu[1]) > 0.0


@pytest.mark.parametrize("side", ["unstable", "stable"])
def test_directions_are_the_conjugated_eigenvectors(cat, draw, side):
    _, vecs = eigen()
    extract = unstable_directions if side == "unstable" else stable_directions
    vx, vy, ok = extract(Cohomologous(cat), cat, draw, DEPTH)
    assert ok.all()
    want = conjugacy(draw.coords) @ vecs[:, 0 if side == "unstable" else 1]
    assert sines(vx, vy, want).max() <= TOL


def test_finite_time_exponents_are_the_closed_form(cat, draw):
    mu, vecs = eigen()
    ft = finite_time_exponents(Cohomologous(cat), cat, draw, N)
    # f^n x with each sum reduced by % 1.0, which wrap_unit equals bitwise
    (a, b), (c, d) = cat.matrix
    u, v = draw.coords[:, 0], draw.coords[:, 1]
    for _ in range(N):
        u, v = (a * u + b * v) % 1.0, (c * u + d * v) % 1.0
    end = conjugacy(np.column_stack([u, v]))
    start = conjugacy(draw.coords)
    # B^n / mu1^n from the eigendecomposition: rank one to working
    # precision, so the det comes from the factors instead
    scaled = vecs @ np.diag((mu / mu[0]) ** N) @ np.linalg.inv(vecs)
    sigma1 = np.linalg.svd(end @ scaled @ np.linalg.inv(start), compute_uv=False)[:, 0]
    plus = np.log(abs(mu[0])) + np.log(sigma1) / N
    rate = (
        np.log(np.abs(np.linalg.det(end)))
        + N * np.log(abs(np.linalg.det(B)))
        - np.log(np.abs(np.linalg.det(start)))
    ) / N
    assert np.max(np.abs(ft.plus - plus)) <= TOL
    assert np.max(np.abs(ft.logdet_rate - rate)) <= TOL
    assert np.max(np.abs(ft.minus - (rate - plus))) <= TOL
