"""Direction extraction: exact axes, equivariance, conformal guard."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import oseledets
from cocyclelab.base import TorusPoint, apply_f, sample_points
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
    evaluate,
)
from cocyclelab.errors import ConfigError, NoGap, SingularValueError
from cocyclelab.oseledets import (
    Direction,
    equivariance_residuals,
    projective_distance,
    stable_direction,
    stable_directions,
    unstable_direction,
    unstable_directions,
)
from oracles import rotation

DIAG2 = np.diag([2.0, 0.5])


class TestDirection:
    def test_normalization(self):
        d = Direction(-2.0, 0.0)
        assert (d.x, d.y) == (1.0, 0.0)
        assert d.angle == 0.0
        d = Direction(0.0, -3.0)
        assert d.y == 1.0
        assert d.angle == pytest.approx(np.pi / 2)

    def test_projective_distance_metric(self):
        rng = np.random.default_rng(1)
        ds = [Direction(*rng.standard_normal(2)) for _ in range(50)]
        for a in ds[:10]:
            assert projective_distance(a, a) == 0.0
            for b in ds[10:20]:
                assert projective_distance(a, b) == pytest.approx(
                    projective_distance(b, a)
                )
                for c in ds[20:25]:
                    lhs = projective_distance(a, b)
                    rhs = projective_distance(a, c) + projective_distance(c, b)
                    assert lhs <= rhs + 1e-12

    def test_perpendicular_lines(self):
        assert projective_distance(Direction(1, 0), Direction(0, 1)) == 1.0
        assert projective_distance(Direction(1, 1), Direction(1, -1)) == pytest.approx(1.0)


class TestConstantCocycles:
    def test_diagonal_axes_exact_shift(self, shift2):
        spec = ConstantCocycle(matrix=DIAG2)
        pts = sample_points(shift2, 3, 2, seed=0)  # tiny windows suffice
        eu = unstable_direction(spec, shift2, pts[0], depth=60)
        es = stable_direction(spec, shift2, pts[0], depth=60)
        assert (eu.x, eu.y) == (1.0, 0.0) and eu.angle == 0.0
        assert es.y == 1.0 and es.angle == np.pi / 2

    def test_diagonal_axes_exact_torus(self, cat):
        spec = ConstantCocycle(matrix=DIAG2)
        x = TorusPoint(0.37, 0.81)
        assert unstable_direction(spec, cat, x, depth=60).angle == 0.0
        assert stable_direction(spec, cat, x, depth=60).angle == np.pi / 2

    def test_cat_matrix_recovers_eigenvectors(self, cat):
        spec = ConstantCocycle(matrix=np.array([[2.0, 1.0], [1.0, 1.0]]))
        x = TorusPoint(0.2, 0.6)
        eu = unstable_direction(spec, cat, x, depth=50)
        es = stable_direction(spec, cat, x, depth=50)
        ref_u = Direction(*cat.unstable_vector)
        ref_s = Direction(*cat.stable_vector)
        assert projective_distance(eu, ref_u) < 1e-12
        assert projective_distance(es, ref_s) < 1e-12
        # the splitting is invariant: pushing E^u forward returns E^u
        pushed = Direction(*(spec.matrix @ eu.vector))
        assert projective_distance(pushed, eu) < 1e-12

    def test_conformal_raises(self, shift2):
        spec = ConstantCocycle(matrix=rotation(0.7))
        pts = sample_points(shift2, 1, 2, seed=1)
        with pytest.raises(NoGap):
            unstable_direction(spec, shift2, pts[0], depth=30)
        with pytest.raises(NoGap):
            stable_direction(spec, shift2, pts[0], depth=30)


class TestSampledCocycles:
    def spec(self):
        d = np.diag([1.2, 1.0 / 1.2])
        return LocallyConstantCocycle(table=np.array([d, rotation(0.1) @ d]))

    def test_equivariance_unstable(self, shift2):
        pts = sample_points(shift2, 200, 45, seed=2)
        field = unstable_directions(self.spec(), shift2, pts, 40)
        res = equivariance_residuals(self.spec(), shift2, pts, field, depth=40, side="unstable")
        assert np.quantile(res, 0.99) < 1e-4
        assert np.median(res) < 1e-6

    def test_equivariance_stable(self, shift2):
        pts = sample_points(shift2, 200, 45, seed=3)
        field = stable_directions(self.spec(), shift2, pts, 40)
        res = equivariance_residuals(self.spec(), shift2, pts, field, depth=40, side="stable")
        assert np.quantile(res, 0.99) < 1e-4

    def test_depth_improves_residuals(self, shift2):
        pts = sample_points(shift2, 100, 65, seed=4)
        field = unstable_directions(self.spec(), shift2, pts, 10)
        shallow = equivariance_residuals(self.spec(), shift2, pts, field, depth=10)
        field = unstable_directions(self.spec(), shift2, pts, 60)
        deep = equivariance_residuals(self.spec(), shift2, pts, field, depth=60)
        assert np.median(deep) < np.median(shallow)

    def test_splitting_angle_positive(self, shift2):
        pts = sample_points(shift2, 5, 45, seed=5)
        for x in pts:
            u = unstable_direction(self.spec(), shift2, x, depth=40)
            s = stable_direction(self.spec(), shift2, x, depth=40)
            assert projective_distance(u, s) > 0.5  # near-perpendicular here

    def test_batched_matches_single(self, shift2):
        pts = sample_points(shift2, 6, 45, seed=6)
        vx, vy, ok = unstable_directions(self.spec(), shift2, pts, depth=30)
        assert ok.all()
        for i, x in enumerate(pts):
            d = unstable_direction(self.spec(), shift2, x, depth=30)
            # the Direction constructor renormalizes once more, which may
            # move the last bit
            assert d.x == pytest.approx(vx[i], abs=1e-15)
            assert d.y == pytest.approx(vy[i], abs=1e-15)

    def test_threads_bitwise_equal(self, shift2):
        pts = sample_points(shift2, 2100, 35, seed=7)
        a = stable_directions(self.spec(), shift2, pts, depth=30, threads=1)
        b = stable_directions(self.spec(), shift2, pts, depth=30, threads=8)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


def per_point_residuals(spec, sys, draw, depth, side):
    """Equivariance residuals one point at a time, as Direction and
    evaluate define them: the reference for the batched route."""
    extract = unstable_directions if side == "unstable" else stable_directions
    points = list(draw)
    vx, vy, _ = extract(spec, sys, points, depth)
    wx, wy, _ = extract(spec, sys, [apply_f(sys, p, 1) for p in points], depth)
    out = []
    for i, p in enumerate(points):
        m = evaluate(spec, p, sys)
        d = Direction(float(vx[i]), float(vy[i]))
        pushed = Direction(m[0, 0] * d.x + m[0, 1] * d.y, m[1, 0] * d.x + m[1, 1] * d.y)
        out.append(projective_distance(pushed, Direction(float(wx[i]), float(wy[i]))))
    return np.array(out)


def torus_spec():
    rot = RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1))
    return PointwiseCocycle(factors=(rot, ConstantFactor(np.diag([1.5, 1.0 / 1.5]))))


class TestBatchedEquivariance:
    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_shift_matches_per_point_bitwise(self, shift2, side):
        spec = TestSampledCocycles().spec()
        draw = sample_points(shift2, 150, 33, seed=8)
        field = oseledets.extractor(side)(spec, shift2, draw, 30)
        res = equivariance_residuals(spec, shift2, draw, field, depth=30, side=side)
        assert np.array_equal(res, per_point_residuals(spec, shift2, draw, 30, side))

    @pytest.mark.parametrize("side", ["unstable", "stable"])
    def test_torus_matches_per_point_bitwise(self, cat, side):
        draw = sample_points(cat, 150, 0, seed=9)
        field = oseledets.extractor(side)(torus_spec(), cat, draw, 25)
        res = equivariance_residuals(torus_spec(), cat, draw, field, depth=25, side=side)
        ref = per_point_residuals(torus_spec(), cat, draw, 25, side)
        assert np.array_equal(res, ref)

    def test_needs_a_draw(self, shift2):
        draw = sample_points(shift2, 3, 12, seed=1)
        field = unstable_directions(TestSampledCocycles().spec(), shift2, draw, 10)
        with pytest.raises(ConfigError, match="draw"):
            equivariance_residuals(
                TestSampledCocycles().spec(), shift2, list(draw), field, 10
            )

    def test_singular_value(self, shift2):
        # rank one: the constant window still has a gap, A(x) has none
        spec = ConstantCocycle(matrix=np.diag([1.0, 0.0]), invertible=False)
        draw = sample_points(shift2, 4, 3, seed=1)
        with np.errstate(divide="ignore"):
            field = unstable_directions(spec, shift2, draw, 5)
            with pytest.raises(SingularValueError):
                equivariance_residuals(spec, shift2, draw, field, depth=5)

    def test_zero_line(self, monkeypatch, shift2):
        def zero_lines(spec, sys, points, depth, threads=1):
            n = len(points)
            return np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)

        monkeypatch.setattr(oseledets, "unstable_directions", zero_lines)
        draw = sample_points(shift2, 4, 12, seed=1)
        field = oseledets.unstable_directions(TestSampledCocycles().spec(), shift2, draw, 10)
        with pytest.raises(ConfigError, match="nonzero finite"):
            equivariance_residuals(TestSampledCocycles().spec(), shift2, draw, field, 10)
