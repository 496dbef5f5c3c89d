"""Graph measures on the projective bundle and their diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab.base import sample_points
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
)
from cocyclelab.errors import ConfigError, NoGap
from cocyclelab.oseledets import equivariance_residuals, unstable_directions
from cocyclelab.projective import (
    build_invariant_measures,
    integrate_phi,
    invariance_defect,
    phi_values,
)
from cocyclelab.spectrum import lyapunov_exponents
from oracles import rotation, stepwise_attraction

DIAG2 = np.diag([2.0, 0.5])


def gapped_spec():
    d = np.diag([1.2, 1.0 / 1.2])
    return LocallyConstantCocycle(table=np.array([d, rotation(0.1) @ d]))


def torus_spec():
    rot = RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1))
    return PointwiseCocycle(factors=(rot, ConstantFactor(np.diag([1.5, 1.0 / 1.5]))))


class TestBuild:
    def test_constant_measures(self, shift2):
        m_u, m_s = build_invariant_measures(
            ConstantCocycle(matrix=DIAG2), shift2, samples=50, depth=40, seed=0
        )
        assert np.all(m_u.vx == 1.0) and np.all(m_u.vy == 0.0)
        assert np.all(m_s.vy == 1.0)
        assert m_u.kind == "unstable" and m_s.kind == "stable"
        assert m_u.size == 50

    def test_reproducible(self, shift2):
        a, _ = build_invariant_measures(gapped_spec(), shift2, 64, 30, seed=3)
        b, _ = build_invariant_measures(gapped_spec(), shift2, 64, 30, seed=3)
        assert np.array_equal(a.vx, b.vx)
        assert np.array_equal(a.vy, b.vy)

    def test_no_gap_raises(self, shift2):
        with pytest.raises(NoGap):
            build_invariant_measures(
                ConstantCocycle(matrix=rotation(0.4)), shift2, 10, 20
            )


class TestPhi:
    def test_constant_exact(self, shift2):
        spec = ConstantCocycle(matrix=DIAG2)
        m_u, m_s = build_invariant_measures(spec, shift2, 40, 30, seed=1)
        mean_u, sem_u = integrate_phi(spec, shift2, m_u)
        assert mean_u == pytest.approx(np.log(2.0), abs=1e-15)
        assert sem_u == 0.0
        mean_s, _ = integrate_phi(spec, shift2, m_s)
        assert mean_s == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_matches_top_exponent(self, shift2):
        spec = gapped_spec()
        m_u, _ = build_invariant_measures(spec, shift2, 2000, 30, seed=2)
        mean, sem = integrate_phi(spec, shift2, m_u)
        rep = lyapunov_exponents(spec, shift2, n=1000, samples=400, seed=3)
        combined = np.sqrt(sem**2 + rep.se_plus**2)
        assert abs(mean - rep.lambda_plus) <= 4.0 * combined + 1e-4

    def test_phi_values_shape(self, cat):
        spec = ConstantCocycle(matrix=DIAG2)
        m_u, _ = build_invariant_measures(spec, cat, 25, 30, seed=4)
        vals = phi_values(spec, cat, m_u)
        assert vals.shape == (25,)
        assert np.allclose(vals, np.log(2.0))


class TestInvarianceDefect:
    def test_constant_defect_vanishes(self, shift2, cat):
        spec = ConstantCocycle(matrix=DIAG2)
        for sys in (shift2, cat):
            m_u, m_s = build_invariant_measures(spec, sys, 60, 40, seed=5)
            rep = invariance_defect(spec, sys, m_u)
            assert rep.defect <= 1e-9
            rep_s = invariance_defect(spec, sys, m_s)
            assert rep_s.defect <= 1e-9

    def test_bank_sizes(self, shift2, cat):
        spec = ConstantCocycle(matrix=DIAG2)
        m_u, _ = build_invariant_measures(spec, shift2, 20, 20, seed=6)
        rep = invariance_defect(spec, shift2, m_u)
        assert len(rep.per_test) == 21  # (1 + 2 + 4) cylinders x 3 fiber modes
        assert rep.per_test["1*1"] == 0.0
        m_u, _ = build_invariant_measures(spec, cat, 20, 20, seed=6)
        rep = invariance_defect(spec, cat, m_u)
        assert len(rep.per_test) == 39  # (1 + 12 Fourier modes) x 3 fiber modes

    def test_gapped_family_small_defect(self, shift2):
        spec = gapped_spec()
        m_u, m_s = build_invariant_measures(spec, shift2, 500, 40, seed=7)
        assert invariance_defect(spec, shift2, m_u).defect < 1e-5
        assert invariance_defect(spec, shift2, m_s).defect < 1e-5

    def test_wrong_directions_detected(self, shift2):
        # feeding stable directions as an 'unstable' measure must show up
        spec = gapped_spec()
        _, m_s = build_invariant_measures(spec, shift2, 500, 40, seed=8)
        fake = type(m_s)(
            points=m_s.points, vx=m_s.vx, vy=m_s.vy, kind="unstable", depth=40
        )
        rep = invariance_defect(spec, shift2, fake)
        assert rep.defect > 0.01


class TestAttraction:
    """A grid of directions pushed along the orbits collapses onto the
    pushed extracted direction (``oracles.stepwise_attraction``)."""

    def test_forward_collapse(self, shift2):
        dist = stepwise_attraction(
            gapped_spec(), shift2, "unstable", samples=20, grid=8, n=60,
            depth=30, seed=9,
        )
        assert np.median(dist) < 1e-6
        assert dist.shape == (20, 8)

    def test_backward_collapse(self, shift2):
        dist = stepwise_attraction(
            gapped_spec(), shift2, "stable", samples=20, grid=8, n=60,
            depth=30, seed=10,
        )
        assert np.median(dist) < 1e-6

    def test_torus_pointwise(self, cat):
        cat_matrix = ConstantCocycle(matrix=np.array([[2.0, 1.0], [1.0, 1.0]]))
        for spec in (cat_matrix, torus_spec()):
            for side in ("unstable", "stable"):
                dist = stepwise_attraction(
                    spec, cat, side, samples=10, grid=6, n=40, depth=40, seed=0
                )
                assert np.median(dist) < 1e-8


class TestSideRule:
    def test_bad_side_raises_one_error(self, shift2):
        spec = gapped_spec()
        draw = sample_points(shift2, 4, 12, seed=1)
        field = unstable_directions(spec, shift2, draw, 10)
        m_u, _ = build_invariant_measures(spec, shift2, 4, 10, seed=1)
        bad = type(m_u)(points=m_u.points, vx=m_u.vx, vy=m_u.vy, kind="x", depth=10)
        calls = (
            lambda: equivariance_residuals(spec, shift2, draw, field, 10, side="x"),
            lambda: invariance_defect(spec, shift2, bad),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="^side must be 'unstable' or 'stable'$"):
                call()
