"""Perturbation families, the good-set estimator, and the experiment loop."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import engine, mat2
from cocyclelab.base import sample_points
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    DiagonalFactor,
    LocallyConstantCocycle,
    PerturbedCocycle,
    PointwiseCocycle,
    PointwiseEntriesField,
    RotationFactor,
    TrigExpr,
    holder_distances,
)
from cocyclelab.continuity import (
    PerturbationFamily,
    continuity_experiment,
    perturbations,
    wilson_interval,
)
from cocyclelab.errors import ConfigError
from cocyclelab.oseledets import stable_directions, unstable_directions
from cocyclelab.spectrum import lyapunov_exponents
from oracles import oracle_entries, rotation

DIAG2 = np.diag([2.0, 0.5])
SPIN = np.array([[0.0, -1.0], [1.0, 0.0]])


def constant_direction(m):
    return ConstantCocycle(matrix=m, invertible=False)


def gapped_spec():
    d = np.diag([1.2, 1.0 / 1.2])
    return LocallyConstantCocycle(table=np.array([d, rotation(0.1) @ d]))


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
        (spec,) = perturbations(base, field, (t,), "multiplicative_exp", shift2)
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
        (spec,) = perturbations(base, field, (0.25,), "additive", shift2)
        p = sample_points(shift2, 5, 8, seed=3)[4:]
        got = engine.values(spec, shift2, engine.batch_of(shift2, p))
        assert np.allclose(got, oracle_entries(raw, p), rtol=1e-15)

    def test_additive_singularity_censored(self, shift2):
        base = ConstantCocycle(matrix=np.eye(2))
        field = constant_direction(-np.eye(2))
        assert perturbations(base, field, (1.0,), "additive", shift2) == [None]

    def test_torus_additive_grid_check(self, cat):
        base = PointwiseCocycle(
            factors=(RotationFactor(angle=TrigExpr(lin_u=2.0 * np.pi)),)
        )
        # rotations have det 1; subtracting the identity at t = -1 gives
        # the zero matrix where the angle passes 0, a grid point
        field = PointwiseEntriesField(
            e00=TrigExpr(const=1.0), e01=TrigExpr(), e10=TrigExpr(),
            e11=TrigExpr(const=1.0),
        )
        assert perturbations(base, field, (-1.0,), "additive", cat) == [None]
        # subtracting diag(1, 0) one ulp short of t = -1 leaves
        # sigma2 / sigma1 = 2**-53 there: singular to working precision,
        # though the det, 1 + t cos(angle), never vanishes
        corner = PointwiseEntriesField(
            e00=TrigExpr(const=1.0), e01=TrigExpr(), e10=TrigExpr(), e11=TrigExpr(),
        )
        assert perturbations(base, corner, (-1.0 + 2.0**-53,), "additive", cat) == [None]
        # the identity 1e-15 short of t = -1 leaves a scaled rotation at
        # every point, 1e-15 I at angle 0: conformal, so regular at any size
        for t in (-1.0 + 1e-15, 0.25):
            (spec,) = perturbations(base, field, (t,), "additive", cat)
            assert isinstance(spec, PerturbedCocycle)

    def test_torus_multiplicative_passes_through(self, cat):
        base = ConstantCocycle(matrix=DIAG2)
        (spec,) = perturbations(
            base, constant_direction(SPIN), (0.5,), "multiplicative_exp", cat
        )
        assert isinstance(spec, PerturbedCocycle)


def shipped_torus_base():
    return PointwiseCocycle(
        factors=(
            RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1)),
            ConstantFactor(matrix=np.diag([1.5, 1.0 / 1.5])),
        )
    )


def steep_direction():
    """The shipped torus direction with +-3000 on the diagonal: exp(t B)
    overflows for t >= 1/4 and carries ~e^{3000 t} entries whose
    determinant cancels to rounding noise for t >= 1/128."""
    return PointwiseEntriesField(
        e00=TrigExpr(const=3000.0), e01=TrigExpr(const=-1.0, sin_u=0.2),
        e10=TrigExpr(const=1.0, sin_u=-0.2), e11=TrigExpr(const=-3000.0),
    )


class TestTorusGridCheck:
    """Every torus perturbation is checked on the grid: a value that is not
    finite, below the determinant floor or singular to working precision
    censors its size."""

    TS = (0.5, 0.25, 2.0**-5, 2.0**-7, 2.0**-8, 2.0**-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_steep_exponential_censored(self, cat):
        got = perturbations(
            shipped_torus_base(), steep_direction(), self.TS, "multiplicative_exp", cat
        )
        assert [spec is None for spec in got] == [True] * 4 + [False] * 2

    def test_noise_determinant_is_seen(self, cat):
        # at t = 1/128 the computed |det| is mostly in the tens, though the
        # true det is 1: every value is singular to working precision
        # (|det| below eps times its squared norm), and an orbit point
        # rounds its det to 0
        spec = PerturbedCocycle(
            base=shipped_torus_base(), direction=steep_direction(), t=2.0**-7,
            rule="multiplicative_exp",
        )
        pts = sample_points(cat, 50, 0, seed=0)
        batch = engine.batch_of(cat, pts)
        low = np.inf
        for _ in range(4):
            engine.step(cat, batch, -1)
            a, b, c, d = spec.values_at_coords(batch.coords)
            low = min(low, float(np.min(np.abs(a * d - b * c))))
            assert not np.any(mat2.regular(a, b, c, d))
        assert low == 0.0

    def test_sign_changing_determinant_censored(self, cat):
        # det(A + t diag(0, -1.3533)) = 1 - 2.03 t cos(phi) for the shipped
        # base: at t = 1/2 it takes both signs on the grid without coming
        # near the regularity rule there, so it vanishes on a curve between
        # grid points
        field = PointwiseEntriesField(
            e00=TrigExpr(), e01=TrigExpr(), e10=TrigExpr(),
            e11=TrigExpr(const=-1.3533),
        )
        ts = (0.5, 0.25, 0.125)
        got = perturbations(shipped_torus_base(), field, ts, "additive", cat)
        assert [spec is None for spec in got] == [True, False, False]
        side = np.arange(128) / 128
        uu, vv = np.meshgrid(side, side)
        raw = PerturbedCocycle(
            base=shipped_torus_base(), direction=field, t=0.5, rule="additive"
        )
        a, b, c, d = raw.values_at_coords(np.column_stack([uu.ravel(), vv.ravel()]))
        det = a * d - b * c
        assert det.min() < 0.0 < det.max()
        ratio = np.abs(det) / (a * a + b * b + c * c + d * d)
        assert ratio.min() > 1e3 * np.finfo(float).eps
        assert np.all(mat2.regular(a, b, c, d))

    @pytest.mark.parametrize("rule", ["multiplicative_exp", "additive"])
    def test_family_verdicts_match_alone(self, cat, rule):
        base, field = shipped_torus_base(), steep_direction()
        together = perturbations(base, field, self.TS, rule, cat)
        for t, spec in zip(self.TS, together):
            (alone,) = perturbations(base, field, (t,), rule, cat)
            assert (alone is None) == (spec is None)


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
        # a zero direction perturbs nothing: every member is the base table
        fam = PerturbationFamily(
            base=gapped_spec(),
            direction=constant_direction(np.zeros((2, 2))),
            ts=(0.5, 0.25),
        )
        rep = continuity_experiment(
            fam, shift2, epsilon=0.1, samples=200, depth=40, n_window=40, seed=1
        )
        for row in rep.rows:
            assert row.g_hat == 1.0
            assert row.max_du == 0.0 and row.max_ds == 0.0
            assert row.ci_lo == pytest.approx(0.9811546736227335, abs=1e-12)
            assert row.ci_hi == 1.0
        assert rep.samples == 200

    def test_far_specs_all_bad(self, shift2):
        spec = gapped_spec()
        # at t = 1 the additive member is the table turned by a quarter
        # turn, which swaps the expanding and contracting axes and moves
        # both directions by about a quarter turn everywhere
        rot = rotation(np.pi / 2.0)
        direction = LocallyConstantCocycle(
            table=np.array([rot @ m - m for m in spec.table]), invertible=False
        )
        fam = PerturbationFamily(
            base=spec, direction=direction, rule="additive", ts=(1.0,)
        )
        rep = continuity_experiment(
            fam, shift2, epsilon=0.1, samples=100, depth=40, n_window=40, seed=2
        )
        assert rep.rows[0].g_hat < 0.2
        assert rep.rows[0].max_du > 0.5

    def test_epsilon_validation(self, shift2):
        fam = PerturbationFamily.dyadic(
            gapped_spec(), constant_direction(SPIN), count=1
        )
        for epsilon in (0.0, -0.1):
            with pytest.raises(ConfigError):
                continuity_experiment(
                    fam, shift2, epsilon=epsilon, samples=10, depth=20, n_window=20
                )


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_exponential_row_censored(self, shift2):
        # exp(diag(1500, -1500)) overflows to inf and 0, and inf * 0 puts
        # NaN in the specialized table: the t = 1/2 row is censored, not a
        # config error, while t = 2^-12 keeps its row
        fam = PerturbationFamily(
            base=gapped_spec(),
            direction=constant_direction(np.diag([3000.0, -3000.0])),
            rule="multiplicative_exp",
            ts=(0.5, 2.0**-12),
        )
        rep = continuity_experiment(
            fam, shift2, epsilon=0.1, samples=60, depth=30, n_window=50, seed=0
        )
        first, second = rep.rows
        assert first.censored
        assert np.isnan(first.holder_dist) and np.isnan(first.g_hat)
        assert not second.censored and np.isfinite(second.holder_dist)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_torus_steep_exponential_rows_censored(self, cat):
        fam = PerturbationFamily(
            base=shipped_torus_base(), direction=steep_direction(),
            ts=(0.5, 2.0**-7, 2.0**-10),
        )
        rep = continuity_experiment(
            fam, cat, epsilon=0.1, samples=50, depth=40, n_window=400, seed=0
        )
        first, second, third = rep.rows
        assert first.censored and np.isnan(first.holder_dist)
        assert second.censored and np.isnan(second.holder_dist)
        assert not third.censored and np.isfinite(third.g_hat)

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



# ---------------------------------------------------------------------------
# the family walk against one call per member


def per_member_rows(fam, sys, epsilon, samples, depth, n_window, seed):
    """Each row of the experiment from separate per-member calls on the
    same draw: None for a singular perturbation, the Holder distance alone
    for a row without a gap, else the row's reported numbers."""
    depth_syms = max(fam.base.symbol_depth, fam.direction.symbol_depth)
    points = sample_points(sys, samples, max(depth, n_window) + 2 + depth_syms, seed)
    ux, uy, _ = unstable_directions(fam.base, sys, points, depth)
    sx, sy, _ = stable_directions(fam.base, sys, points, depth)
    out = []
    for t in fam.ts:
        (spec,) = perturbations(fam.base, fam.direction, (t,), fam.rule, sys)
        if spec is None:
            out.append(None)
            continue
        hd = holder_distances((spec,), fam.base, sys, seed=seed)[0].norm
        px, py, ok_u = unstable_directions(spec, sys, points, depth)
        qx, qy, ok_s = stable_directions(spec, sys, points, depth)
        if not (ok_u.all() and ok_s.all()):
            out.append(hd)
            continue
        rep = lyapunov_exponents(spec, sys, n=n_window, points=points)
        du = np.abs(ux * py - uy * px)
        ds = np.abs(sx * qy - sy * qx)
        hits = int(np.count_nonzero((du <= epsilon) & (ds <= epsilon)))
        lo, hi = wilson_interval(hits, samples)
        out.append(
            dict(
                holder_dist=hd, g_hat=hits / samples, ci_lo=lo, ci_hi=hi,
                lambda_plus=rep.lambda_plus, lambda_minus=rep.lambda_minus,
                mean_du=float(np.mean(du)), max_du=float(np.max(du)),
                mean_ds=float(np.mean(ds)), max_ds=float(np.max(ds)),
            )
        )
    return out


def assert_rows_match(rep, want):
    assert len(rep.rows) == len(want)
    for row, w in zip(rep.rows, want):
        if w is None:
            assert row.censored and np.isnan(row.holder_dist)
        elif isinstance(w, float):
            assert row.censored and row.holder_dist == w
            assert np.isnan(row.g_hat) and np.isnan(row.lambda_plus)
        else:
            assert not row.censored
            for name, value in w.items():
                assert getattr(row, name) == value, name


def shift_family():
    # additive along B = (R(0.3) - A0, -A1 / 2): at t = 2 the second
    # matrix is exactly zero (a singular row), at t = 1 the first is the
    # rotation R(0.3), so points whose window repeats symbol 0 have
    # conformal products (a row without a gap)
    base = gapped_spec()
    a0, a1 = base.table
    direction = LocallyConstantCocycle(
        table=np.array([rotation(0.3) - a0, -0.5 * a1]), invertible=False
    )
    return PerturbationFamily(
        base=base, direction=direction, rule="additive",
        ts=(0.5, 2.0, 1.0, 0.25, 0.125),
    )


def depth2_direction_family():
    # a rotation generator whose size depends on the next two symbols
    direction = LocallyConstantCocycle(
        table=np.array([SPIN * w for w in (0.2, -0.1, 0.3, 0.05)]),
        depth=2, alphabet_size=2, invertible=False,
    )
    return PerturbationFamily(
        base=gapped_spec(), direction=direction, ts=(0.5, 0.25, 0.125)
    )


def log_diagonal_base():
    c = np.log(1.5)
    return PointwiseCocycle(
        factors=(
            DiagonalFactor(
                log_d1=TrigExpr(const=c, sin_u=0.1),
                log_d2=TrigExpr(const=-c, sin_u=-0.1),
            ),
        )
    )


def torus_gapless_family():
    # multiplicative: at t = 1/4, expm(t B) undoes the diagonal's log
    # entries exactly (the scalings by 4 are powers of two), so every
    # window product is conformal and that row has no gap
    c = np.log(1.5)
    direction = PointwiseEntriesField(
        e00=TrigExpr(const=-4.0 * c, sin_u=-0.4), e01=TrigExpr(),
        e10=TrigExpr(), e11=TrigExpr(const=4.0 * c, sin_u=0.4),
    )
    return PerturbationFamily(
        base=log_diagonal_base(), direction=direction, ts=(0.5, 0.25, 0.125)
    )


def torus_singular_family():
    # as in test_torus_singular_perturbation_row_censored: t = 1 is
    # singular at u = 0, a point of the invertibility grid
    return PerturbationFamily(
        base=shipped_torus_base(),
        direction=constant_direction(np.diag([-1.5, 0.0])),
        rule="additive",
        ts=(0.5, 1.0, 0.25),
    )


class TestFamilyWalk:
    """Every row of the family walk equals, bitwise, the per-member calls
    on the same draw, for any block width and thread count."""

    KW = dict(epsilon=0.1, samples=2500, depth=6, n_window=40, seed=3)

    @pytest.mark.parametrize("block", [1024, 4096])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_shift_table_family(self, shift2, monkeypatch, block, threads):
        monkeypatch.setattr(engine, "BLOCK", block)
        fam = shift_family()
        want = per_member_rows(fam, shift2, **self.KW)
        assert want[1] is None and isinstance(want[2], float)
        rep = continuity_experiment(fam, shift2, threads=threads, **self.KW)
        assert_rows_match(rep, want)
        assert rep.last_unstable_distances.size == self.KW["samples"]

    @pytest.mark.parametrize("block", [1024, 4096])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_depth_expanded_table_family(self, shift2, monkeypatch, block, threads):
        # a depth-1 base under depth-2 perturbations: the stack reads two
        # symbols per step, its words one symbol more than the base's own;
        # a 43-step window takes five 8-step words and a 3-step tail
        monkeypatch.setattr(engine, "BLOCK", block)
        fam = depth2_direction_family()
        kw = dict(self.KW, n_window=43)
        want = per_member_rows(fam, shift2, **kw)
        assert all(isinstance(w, dict) for w in want)
        rep = continuity_experiment(fam, shift2, threads=threads, **kw)
        assert_rows_match(rep, want)
        # the base row, read at depth 2 in the stack, is its lone call
        points = sample_points(shift2, kw["samples"], 43 + 2 + 2, kw["seed"])
        alone = lyapunov_exponents(fam.base, shift2, n=43, points=points)
        assert rep.base_lambda_plus == alone.lambda_plus
        assert rep.base_lambda_minus == alone.lambda_minus

    @pytest.mark.parametrize("block", [1024, 4096])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_torus_family_without_gap_row(self, cat, monkeypatch, block, threads):
        monkeypatch.setattr(engine, "BLOCK", block)
        fam = torus_gapless_family()
        want = per_member_rows(fam, cat, **self.KW)
        assert isinstance(want[1], float) and isinstance(want[2], dict)
        rep = continuity_experiment(fam, cat, threads=threads, **self.KW)
        assert_rows_match(rep, want)

    @pytest.mark.parametrize("block", [1024, 4096])
    def test_torus_family_with_singular_row(self, cat, monkeypatch, block):
        monkeypatch.setattr(engine, "BLOCK", block)
        fam = torus_singular_family()
        want = per_member_rows(fam, cat, **self.KW)
        assert want[1] is None and isinstance(want[2], dict)
        rep = continuity_experiment(fam, cat, **self.KW)
        assert_rows_match(rep, want)

    @pytest.mark.parametrize("base", ["shift2", "cat"])
    def test_constant_family(self, base, request):
        # a constant base along a constant direction: every member is
        # constant, and one stack walks them all, the base included
        sys_ = request.getfixturevalue(base)
        fam = PerturbationFamily(
            base=ConstantCocycle(matrix=np.array([[3.0, 1.0], [0.0, 0.5]])),
            direction=constant_direction(SPIN), ts=(0.5, 0.25, 0.125),
        )
        want = per_member_rows(fam, sys_, **self.KW)
        assert all(isinstance(w, dict) for w in want)
        rep = continuity_experiment(fam, sys_, **self.KW)
        assert_rows_match(rep, want)
        n = self.KW["n_window"]
        points = sample_points(sys_, self.KW["samples"], n + 2, self.KW["seed"])
        alone = lyapunov_exponents(fam.base, sys_, n=n, points=points)
        assert rep.base_lambda_plus == alone.lambda_plus
        assert rep.base_lambda_minus == alone.lambda_minus

    def test_base_exponents_match_a_lone_call(self, cat):
        fam = torus_gapless_family()
        rep = continuity_experiment(fam, cat, **self.KW)
        points = sample_points(cat, self.KW["samples"], 0, self.KW["seed"])
        alone = lyapunov_exponents(
            fam.base, cat, n=self.KW["n_window"], points=points
        )
        assert rep.base_lambda_plus == alone.lambda_plus
        assert rep.base_lambda_minus == alone.lambda_minus
