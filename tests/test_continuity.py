"""Perturbation families, the good-set estimator, and the experiment loop."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import mat2
from cocyclelab.base import sample_points
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PerturbedCocycle,
    PointwiseCocycle,
    PointwiseEntriesField,
    RotationFactor,
    TrigExpr,
    evaluate,
)
from cocyclelab.continuity import (
    PerturbationFamily,
    continuity_experiment,
    good_set_measure,
    perturb,
    wilson_interval,
)
from cocyclelab.errors import ConfigError, SingularPerturbation

DIAG2 = np.diag([2.0, 0.5])
SPIN = np.array([[0.0, -1.0], [1.0, 0.0]])


def constant_direction(m):
    return ConstantCocycle(matrix=m, invertible=False)


def gapped_spec():
    d = np.diag([1.2, 1.0 / 1.2])
    return LocallyConstantCocycle(table=np.array([d, mat2.rotation(0.1) @ d]))


class TestFamily:
    def test_dyadic_schedule(self):
        fam = PerturbationFamily.dyadic(
            ConstantCocycle(matrix=DIAG2), constant_direction(SPIN), count=12
        )
        assert fam.ts[0] == 0.5
        assert fam.ts[11] == 2.0 ** -12
        assert len(fam.ts) == 12

    def test_validation(self):
        base = ConstantCocycle(matrix=DIAG2)
        field = constant_direction(SPIN)
        with pytest.raises(ConfigError):
            PerturbationFamily(base=base, direction=field, rule="subtract", ts=(0.5,))
        with pytest.raises(ConfigError):
            PerturbationFamily(base=base, direction=field, ts=())
        with pytest.raises(ConfigError):
            PerturbationFamily(base=base, direction=field, ts=(0.5, -0.1))


class TestPerturb:
    def test_shift_specializes_to_table(self, shift2):
        base = gapped_spec()
        field = LocallyConstantCocycle(
            table=np.array([SPIN, np.eye(2)]), invertible=False
        )
        t = 0.125
        spec = perturb(base, field, t, "multiplicative_exp", shift2)
        assert isinstance(spec, LocallyConstantCocycle)
        want0 = base.table[0] @ mat2.expm(t * SPIN)
        want1 = base.table[1] @ mat2.expm(t * np.eye(2))
        assert np.allclose(spec.table[0], want0, rtol=1e-15)
        assert np.allclose(spec.table[1], want1, rtol=1e-15)

    def test_shift_table_matches_perturbed_evaluate(self, shift2):
        base = gapped_spec()
        field = LocallyConstantCocycle(
            table=np.array([SPIN, -SPIN]), invertible=False
        )
        raw = PerturbedCocycle(base=base, direction=field, t=0.25, rule="additive")
        spec = perturb(base, field, 0.25, "additive", shift2)
        p = sample_points(shift2, 5, 8, seed=3)[4]
        assert np.allclose(evaluate(spec, p), evaluate(raw, p), rtol=1e-15)

    def test_additive_singularity_raises(self, shift2):
        base = ConstantCocycle(matrix=np.eye(2))
        field = constant_direction(-np.eye(2))
        with pytest.raises(SingularPerturbation):
            perturb(base, field, 1.0, "additive", shift2)

    def test_torus_additive_grid_check(self, cat):
        base = PointwiseCocycle(
            factors=(RotationFactor(angle=TrigExpr(lin_u=2.0 * np.pi)),)
        )
        # rotations have det 1; subtracting the identity at t=1 hits a
        # singular matrix wherever the angle passes 0
        field = PointwiseEntriesField(
            e00=TrigExpr(const=1.0), e01=TrigExpr(), e10=TrigExpr(),
            e11=TrigExpr(const=1.0),
        )
        with pytest.raises(SingularPerturbation):
            perturb(base, field, -1.0 + 1e-15, "additive", cat)
        spec = perturb(base, field, 0.25, "additive", cat)
        assert isinstance(spec, PerturbedCocycle)

    def test_torus_multiplicative_passes_through(self, cat):
        base = ConstantCocycle(matrix=DIAG2)
        spec = perturb(base, constant_direction(SPIN), 0.5, "multiplicative_exp", cat)
        assert isinstance(spec, PerturbedCocycle)


class TestWilson:
    def test_frozen_values(self):
        # computed separately with 40-digit decimal arithmetic
        lo, hi = wilson_interval(100, 100)
        assert lo == pytest.approx(0.9630065017930143, abs=1e-15)
        assert hi == 1.0
        lo, hi = wilson_interval(95, 100)
        assert lo == pytest.approx(0.8882495307680809, abs=1e-15)
        assert hi == pytest.approx(0.978456320845632, abs=1e-15)
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi == pytest.approx(0.07134759913335871, abs=1e-15)
        lo, hi = wilson_interval(7, 10)
        assert lo == pytest.approx(0.39677814746114537, abs=1e-15)
        assert hi == pytest.approx(0.8922087325936989, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            wilson_interval(0, 0)


class TestGoodSet:
    def test_identical_specs_all_good(self, shift2):
        spec = gapped_spec()
        pts = sample_points(shift2, 200, 64, seed=1)
        rep = good_set_measure(spec, spec, shift2, pts, epsilon=0.1, depth=40)
        assert rep.g_hat == 1.0
        assert rep.max_du == 0.0 and rep.max_ds == 0.0
        assert rep.ci_lo == pytest.approx(0.9811546736227335, abs=1e-12)
        assert rep.ci_hi == 1.0
        assert rep.samples == 200

    def test_far_specs_all_bad(self, shift2):
        spec = gapped_spec()
        # swapping the expanding and contracting axes moves both
        # directions by about a quarter turn everywhere
        rot = mat2.rotation(np.pi / 2.0)
        far = LocallyConstantCocycle(table=np.array([rot @ m for m in spec.table]))
        pts = sample_points(shift2, 100, 64, seed=2)
        rep = good_set_measure(spec, far, shift2, pts, epsilon=0.1, depth=40)
        assert rep.g_hat < 0.2
        assert rep.max_du > 0.5

    def test_epsilon_validation(self, shift2):
        spec = gapped_spec()
        pts = sample_points(shift2, 10, 64, seed=0)
        with pytest.raises(ConfigError):
            good_set_measure(spec, spec, shift2, pts, epsilon=0.0, depth=40)


class TestExperiment:
    def test_small_run_shape_and_trend(self, shift2):
        fam = PerturbationFamily.dyadic(
            gapped_spec(), constant_direction(SPIN), count=6
        )
        rep = continuity_experiment(
            fam, shift2, epsilon=0.1, samples=400, depth=30, n_window=100, seed=7
        )
        assert len(rep.rows) == 6
        assert [r.k for r in rep.rows] == [1, 2, 3, 4, 5, 6]
        assert [r.t for r in rep.rows] == [2.0 ** -k for k in range(1, 7)]
        assert not any(r.censored for r in rep.rows)
        hd = [r.holder_dist for r in rep.rows]
        assert all(hd[i] > hd[i + 1] for i in range(5))
        assert rep.rows[-1].g_hat >= 0.95
        assert rep.rows[-1].ci_lo <= rep.rows[-1].g_hat <= rep.rows[-1].ci_hi
        assert abs(rep.rows[-1].lambda_plus - rep.base_lambda_plus) < 0.02
        assert abs(rep.rows[-1].lambda_minus - rep.base_lambda_minus) < 0.02
        assert rep.rows[-1].mean_du <= rep.rows[0].mean_du

    def test_censored_row_kept_as_nan(self, shift2):
        # diag(2, 1/2) followed by a quarter turn squares to -identity, so
        # the k=1 member has conformal window products and no gap, while
        # the k=2 member (an eighth of a turn) is hyperbolic again
        fam = PerturbationFamily(
            base=ConstantCocycle(matrix=DIAG2),
            direction=constant_direction(np.pi * SPIN),
            rule="multiplicative_exp",
            ts=(0.5, 0.125),
        )
        rep = continuity_experiment(
            fam, shift2, epsilon=0.1, samples=60, depth=30, n_window=50, seed=0
        )
        assert len(rep.rows) == 2
        first, second = rep.rows
        assert first.censored
        assert np.isnan(first.g_hat) and np.isnan(first.lambda_plus)
        assert np.isfinite(first.holder_dist)
        assert not second.censored
        assert np.isfinite(second.g_hat)

    def test_singular_perturbation_row_censored(self, shift2):
        # t=1 zeroes the top left entry of the first table matrix, so that
        # member is singular; t=1/2 is hyperbolic and keeps its row
        fam = PerturbationFamily(
            base=gapped_spec(),
            direction=constant_direction(np.array([[-1.2, 0.0], [0.0, 0.0]])),
            rule="additive",
            ts=(1.0, 0.5),
        )
        rep = continuity_experiment(
            fam, shift2, epsilon=0.1, samples=60, depth=30, n_window=50, seed=0
        )
        first, second = rep.rows
        assert first.censored
        assert np.isnan(first.holder_dist) and np.isnan(first.g_hat)
        assert not second.censored
        assert np.isfinite(second.holder_dist) and np.isfinite(second.g_hat)
        assert np.mean(rep.last_unstable_distances) == second.mean_du

    def test_torus_singular_perturbation_row_censored(self, cat):
        # A(x) = R(0.15 sin 2 pi u) diag(3/2, 2/3) minus t diag(3/2, 0) is
        # singular at u = 0 for t = 1, a point of the invertibility grid
        base = PointwiseCocycle(
            factors=(
                RotationFactor(angle=TrigExpr(sin_u=0.15)),
                ConstantFactor(matrix=np.diag([1.5, 1.0 / 1.5])),
            )
        )
        fam = PerturbationFamily(
            base=base,
            direction=constant_direction(np.diag([-1.5, 0.0])),
            rule="additive",
            ts=(1.0, 0.25),
        )
        rep = continuity_experiment(
            fam, cat, epsilon=0.1, samples=60, depth=30, n_window=50, seed=0
        )
        first, second = rep.rows
        assert first.censored and np.isnan(first.holder_dist)
        assert not second.censored and np.isfinite(second.g_hat)

    def test_threads_bitwise_identical(self, shift2):
        fam = PerturbationFamily.dyadic(
            gapped_spec(), constant_direction(SPIN), count=3
        )
        kw = dict(epsilon=0.1, samples=1100, depth=20, n_window=40, seed=4)
        r1 = continuity_experiment(fam, shift2, threads=1, **kw)
        r8 = continuity_experiment(fam, shift2, threads=8, **kw)
        for a, b in zip(r1.rows, r8.rows):
            assert a == b
        assert r1.base_lambda_plus == r8.base_lambda_plus

    def test_reproducible(self, shift2):
        fam = PerturbationFamily.dyadic(
            gapped_spec(), constant_direction(SPIN), count=2
        )
        kw = dict(epsilon=0.1, samples=80, depth=20, n_window=40, seed=11)
        assert (
            continuity_experiment(fam, shift2, **kw).rows
            == continuity_experiment(fam, shift2, **kw).rows
        )

