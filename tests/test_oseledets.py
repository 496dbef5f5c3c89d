"""Direction extraction: exact axes, equivariance, conformal guard."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import engine, oseledets
from cocyclelab.base import ShiftDraw, ShiftSystem, sample_points
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
)
from cocyclelab.errors import ConfigError, NoGap, SingularValueError
from cocyclelab.oseledets import (
    _lines,
    equivariance_residuals,
    stable_directions,
    unstable_directions,
)
from oracles import (
    constant_power,
    coords_draw,
    oracle_entries,
    rotation,
    stable_vector,
    torus_step,
    unstable_vector,
)

DIAG2 = np.diag([2.0, 0.5])
# constants that no axis diagonalizes: a triangular one with a gap and a
# conformal one without
NON_DIAGONAL = [np.array([[3.0, 1.0], [0.0, 0.5]]), 2.0 * rotation(0.3)]


def line(x, y):
    """A line as a unit vector with its first nonzero component positive,
    written out for one vector."""
    nrm = np.hypot(x, y)
    x, y = x / nrm, y / nrm
    flip = np.sign(x if x != 0.0 else y)
    return x * flip, y * flip


def sine(p, q):
    """Sine of the angle between two lines: the projective distance."""
    return abs(p[0] * q[1] - p[1] * q[0])


def at_one_point(extract, spec, sys, x, depth):
    """The extractor's (vx, vy) on a one-point draw, which must have a gap."""
    vx, vy, ok = extract(spec, sys, x, depth)
    assert vx.shape == (1,) and ok[0]
    return vx[0], vy[0]


class TestDirection:
    def test_normalization(self):
        # the sign convention: the first nonzero component is positive
        x, y = _lines(np.array([-2.0, 0.0, 3.0]), np.array([0.0, -3.0, -4.0]))
        assert list(zip(x, y)) == [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)]

    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (np.nan, 1.0), (np.inf, 0.0)])
    def test_zero_or_nonfinite_vector_raises(self, x, y):
        with pytest.raises(ConfigError, match="nonzero finite"):
            _lines(np.array([1.0, x]), np.array([0.0, y]))


class TestConstantCocycles:
    def test_diagonal_axes_exact_shift(self, shift2):
        spec = ConstantCocycle(matrix=DIAG2)
        # a constant walks the scans, so its windows follow the horizon rule
        pts = sample_points(shift2, 3, 60 + 2, seed=0)
        assert at_one_point(unstable_directions, spec, shift2, pts[0:1], 60) == (1.0, 0.0)
        assert at_one_point(stable_directions, spec, shift2, pts[0:1], 60) == (0.0, 1.0)

    def test_diagonal_axes_exact_torus(self, cat):
        spec = ConstantCocycle(matrix=DIAG2)
        x = coords_draw((0.37, 0.81))
        assert at_one_point(unstable_directions, spec, cat, x, 60) == (1.0, 0.0)
        assert at_one_point(stable_directions, spec, cat, x, 60) == (0.0, 1.0)

    def test_cat_matrix_recovers_eigenvectors(self, cat):
        spec = ConstantCocycle(matrix=np.array([[2.0, 1.0], [1.0, 1.0]]))
        x = coords_draw((0.2, 0.6))
        eu = at_one_point(unstable_directions, spec, cat, x, 50)
        es = at_one_point(stable_directions, spec, cat, x, 50)
        assert sine(eu, line(*unstable_vector(cat))) < 1e-12
        assert sine(es, line(*stable_vector(cat))) < 1e-12
        # the splitting is invariant: pushing E^u forward returns E^u
        assert sine(line(*(spec.matrix @ eu)), eu) < 1e-12

    def test_conformal_raises(self, shift2):
        # a conformal window has no direction: the mask says so, and the
        # equivariance residuals, which need the field, raise NoGap
        spec = ConstantCocycle(matrix=rotation(0.7))
        pts = sample_points(shift2, 1, 30 + 2, seed=1)
        for side in ("unstable", "stable"):
            field = oseledets.extractor(side)(spec, shift2, pts, 30)
            assert not field[2].any()
            with pytest.raises(NoGap):
                equivariance_residuals(spec, shift2, pts, field, 30, side=side)


    @pytest.mark.parametrize("base", ["shift2", "cat"])
    @pytest.mark.parametrize("matrix", NON_DIAGONAL, ids=["triangular", "conformal"])
    def test_non_diagonal_is_the_direction_scans(self, base, matrix, request):
        # a constant's directions are the bits of its backward and forward
        # walks read by _read, on the same draw, and within 1e-12 of the
        # closed-form power's singular vectors (numpy's SVD)
        sys_ = request.getfixturevalue(base)
        spec = ConstantCocycle(matrix=matrix)
        depth = 30
        pts = sample_points(sys_, 40, depth + 2, seed=4)
        power, _ = constant_power(matrix, depth)
        u, sigma, vt = np.linalg.svd(power)
        gap = np.log(sigma[0] / sigma[1]) >= oseledets._CONFORMAL_GAP
        for side, backward, want in (("unstable", True, u[:, 0]), ("stable", False, vt[1])):
            got = oseledets.extractor(side)(spec, sys_, pts, depth)
            batch = engine.batch_of(sys_, pts)
            walk = engine._walk(spec, sys_, batch, depth, 0, backward)[0]
            for g, w in zip(got, oseledets._read(walk, side)):
                assert np.array_equal(g, w)
            vx, vy, ok = got
            assert np.all(ok == gap)
            if gap:
                assert np.max(np.abs(vx * want[1] - vy * want[0])) <= 1e-12


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
        ux, uy, ok_u = unstable_directions(self.spec(), shift2, pts, depth=40)
        sx, sy, ok_s = stable_directions(self.spec(), shift2, pts, depth=40)
        assert ok_u.all() and ok_s.all()
        for i in range(len(pts)):
            # near-perpendicular here
            assert sine((ux[i], uy[i]), (sx[i], sy[i])) > 0.5

    def test_threads_bitwise_equal(self, shift2):
        pts = sample_points(shift2, 2100, 35, seed=7)
        a = stable_directions(self.spec(), shift2, pts, depth=30, threads=1)
        b = stable_directions(self.spec(), shift2, pts, depth=30, threads=8)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


def per_point_residuals(spec, sys, draw, depth, side):
    """Equivariance residuals one point at a time: the draw moved by f
    without ``engine.pushed`` (the windows one offset on, or each torus
    point stepped by ``torus_step``), A(x) from the oracle's word lookup
    over a shift and from the spec's hook over a torus, each line
    normalized and pushed on its own; the reference for the batched
    route."""
    extract = unstable_directions if side == "unstable" else stable_directions
    if isinstance(sys, ShiftSystem):
        moved = ShiftDraw(draw.windows, draw.offset + 1)
        va, vb, vc, vd = oracle_entries(spec, draw)
    else:
        moved = coords_draw(*(torus_step(sys, u, v) for u, v in draw.coords))
        va, vb, vc, vd = spec.values_at_coords(draw.coords)
    vx, vy, _ = extract(spec, sys, draw, depth)
    wx, wy, _ = extract(spec, sys, moved, depth)
    out = []
    for i in range(len(draw)):
        dx, dy = line(vx[i], vy[i])
        pushed = line(va[i] * dx + vb[i] * dy, vc[i] * dx + vd[i] * dy)
        out.append(sine(pushed, line(wx[i], wy[i])))
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

    def test_needs_a_draw(self, shift2, cat):
        # the push by f refuses anything but a draw of the system's base,
        # with the exit of a config error
        draw = sample_points(shift2, 3, 12, seed=1)
        field = unstable_directions(TestSampledCocycles().spec(), shift2, draw, 10)
        spec = TestSampledCocycles().spec()
        points = [draw[i : i + 1] for i in range(3)]
        for other in (points, draw.windows, sample_points(cat, 3, 0, seed=1)):
            with pytest.raises(ConfigError, match="draw of the system's own base"):
                equivariance_residuals(spec, shift2, other, field, 10)

    def test_singular_value(self, shift2):
        # rank one: A(x) has no inverse, so the residuals of a field
        # extracted elsewhere raise, and so does the extraction, whose
        # window walks A as any spec's does
        spec = ConstantCocycle(matrix=np.diag([1.0, 0.0]), invertible=False)
        draw = sample_points(shift2, 4, 5 + 2, seed=1)
        field = unstable_directions(ConstantCocycle(matrix=DIAG2), shift2, draw, 5)
        with pytest.raises(SingularValueError):
            equivariance_residuals(spec, shift2, draw, field, depth=5)
        with pytest.raises(SingularValueError):
            unstable_directions(spec, shift2, draw, 5)

    def test_zero_line(self, monkeypatch, shift2):
        def zero_lines(spec, sys, points, depth, threads=1):
            n = len(points)
            return np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)

        monkeypatch.setattr(oseledets, "unstable_directions", zero_lines)
        draw = sample_points(shift2, 4, 12, seed=1)
        field = oseledets.unstable_directions(TestSampledCocycles().spec(), shift2, draw, 10)
        with pytest.raises(ConfigError, match="nonzero finite"):
            equivariance_residuals(TestSampledCocycles().spec(), shift2, draw, field, 10)
