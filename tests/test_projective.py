"""Graph measures on the projective bundle and their diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import engine, mat2
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
from cocyclelab.oseledets import (
    equivariance_residuals,
    stable_directions,
    unstable_directions,
)
from cocyclelab.projective import (
    _push_directions,
    _push_grid,
    attraction_test,
    build_invariant_measures,
    integrate_phi,
    invariance_defect,
    phi_values,
)
from cocyclelab.spectrum import lyapunov_exponents

DIAG2 = np.diag([2.0, 0.5])


def gapped_spec():
    d = np.diag([1.2, 1.0 / 1.2])
    return LocallyConstantCocycle(table=np.array([d, mat2.rotation(0.1) @ d]))


def torus_spec():
    rot = RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1))
    return PointwiseCocycle(factors=(rot, ConstantFactor(np.diag([1.5, 1.0 / 1.5]))))


def stepwise_attraction(spec, sys, side, samples, grid, n, depth, seed):
    """The attraction distances with the orbit walked one step at a time:
    A read at the batch's position and the batch moved by one step, forward
    for the unstable side, backward with A inverted as adj(A)/det(A) for
    the stable side.  The reference for attraction_test's walk."""
    extract = unstable_directions if side == "unstable" else stable_directions
    pts = sample_points(sys, samples, depth + n + 2 + spec.symbol_depth, seed)
    rx, ry, ok = extract(spec, sys, pts, depth)
    assert ok.all()
    thetas = np.pi * (np.arange(grid) + 0.37) / grid
    gx = np.tile(np.cos(thetas), (samples, 1))
    gy = np.tile(np.sin(thetas), (samples, 1))
    batch = engine.batch_of(sys, pts)
    for k in range(n):
        if side == "unstable":
            va, vb, vc, vd = engine.values(spec, sys, batch)
            if k + 1 < n:
                engine.step(sys, batch, 1)
        else:
            engine.step(sys, batch, -1)
            va, vb, vc, vd = engine.values(spec, sys, batch)
            sdet = va * vd - vb * vc
            va, vb, vc, vd = mat2.adjugate_batch(va, vb, vc, vd)
            va, vb, vc, vd = va / sdet, vb / sdet, vc / sdet, vd / sdet
        gx, gy = _push_grid(va, vb, vc, vd, gx, gy)
        rx, ry = _push_directions(va, vb, vc, vd, rx, ry)
    return np.abs(gx * ry[:, None] - gy * rx[:, None])


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
                ConstantCocycle(matrix=mat2.rotation(0.4)), shift2, 10, 20
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
        assert rep.bank_size == 21  # (1 + 2 + 4) cylinders x 3 fiber modes
        assert rep.per_test["1*1"] == 0.0
        m_u, _ = build_invariant_measures(spec, cat, 20, 20, seed=6)
        rep = invariance_defect(spec, cat, m_u)
        assert rep.bank_size == 39  # (1 + 12 Fourier modes) x 3 fiber modes

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
    def test_forward_collapse(self, shift2):
        rep = attraction_test(
            gapped_spec(), shift2, side="unstable", samples=20, grid=8, n=60,
            depth=30, seed=9,
        )
        assert rep.median_final < 1e-6
        assert rep.distances.shape == (20, 8)

    def test_backward_collapse(self, shift2):
        rep = attraction_test(
            gapped_spec(), shift2, side="stable", samples=20, grid=8, n=60,
            depth=30, seed=10,
        )
        assert rep.median_final < 1e-6

    def test_torus_pointwise(self, cat):
        spec = ConstantCocycle(matrix=np.array([[2.0, 1.0], [1.0, 1.0]]))
        rep = attraction_test(spec, cat, side="unstable", samples=10, grid=6, n=40)
        assert rep.median_final < 1e-8

    def test_threads_bitwise(self, shift2):
        kw = dict(samples=1100, grid=4, n=20, depth=20, seed=11)
        a = attraction_test(gapped_spec(), shift2, side="unstable", threads=1, **kw)
        b = attraction_test(gapped_spec(), shift2, side="unstable", threads=8, **kw)
        assert np.array_equal(a.distances, b.distances)

    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_walk_matches_stepwise_bitwise(self, shift2, cat, side):
        kw = dict(samples=40, grid=6, n=25, depth=20, seed=12)
        for spec, sys in ((gapped_spec(), shift2), (torus_spec(), cat)):
            rep = attraction_test(spec, sys, side=side, **kw)
            ref = stepwise_attraction(spec, sys, side, **kw)
            assert np.max(ref) > 0.0
            assert np.array_equal(rep.distances, ref)


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
            lambda: attraction_test(spec, shift2, side="x", samples=4, grid=4, n=5),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="^side must be 'unstable' or 'stable'$"):
                call()
