"""Cocycle specs: evaluation, products, Holder norms, bunching."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import cocycle, engine, mat2
from cocyclelab.base import (
    BernoulliMeasure,
    ShiftPoint,
    ShiftSystem,
    TorusPoint,
    apply_f,
    sample_points,
)
from cocyclelab.cocycle import (
    BunchingReport,
    ConstantCocycle,
    ConstantFactor,
    DiagonalFactor,
    LocallyConstantCocycle,
    PerturbedCocycle,
    PointwiseCocycle,
    PointwiseEntriesField,
    RotationFactor,
    StackedCocycle,
    TrigExpr,
    _HolderSample,
    _table_holder,
    bunching_check,
    holder_distances,
    product,
    specialize,
)
from cocyclelab.config import build_cocycle, load_config
from cocyclelab.errors import ConfigError, HorizonExceeded, SingularValueError
from cocyclelab.oseledets import stable_directions, unstable_directions
from cocyclelab.spectrum import finite_time_exponents, lyapunov_exponents
from oracles import (
    base_distance,
    constant_power,
    oracle_entries,
    rotation,
    word_matrix,
)

DIAG2 = np.diag([2.0, 0.5])
# a Holder norm is the Holder distance to the zero map
ZERO = ConstantCocycle(matrix=np.zeros((2, 2)), invertible=False)


def holder_norm_of(spec, sys, **kw):
    return holder_distances((spec,), ZERO, sys, **kw)[0]


def holder_distance_of(a, b, sys, **kw):
    return holder_distances((a,), b, sys, **kw)[0]


def two_table(m0, m1, r=1.0):
    return LocallyConstantCocycle(table=np.array([m0, m1]), r=r)


def rel_err(got, ref):
    return mat2.opnorm(got - ref) / mat2.opnorm(ref)


class TestSpecs:
    def test_constant_validation(self):
        with pytest.raises(SingularValueError):
            ConstantCocycle(matrix=np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(ConfigError):
            ConstantCocycle(matrix=DIAG2, r=0.0)
        with pytest.raises(ConfigError):
            ConstantCocycle(matrix=np.eye(3))

    def test_locally_constant_validation(self):
        with pytest.raises(SingularValueError):
            two_table(DIAG2, np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            LocallyConstantCocycle(table=np.array([DIAG2] * 3), depth=2)
        with pytest.raises(ConfigError):
            LocallyConstantCocycle(table=np.array([DIAG2] * 3), depth=2, alphabet_size=2)
        spec = LocallyConstantCocycle(table=np.array([DIAG2] * 4), depth=2, alphabet_size=2)
        assert spec.symbol_depth == 2
        assert spec.is_constant

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda x: TrigExpr(sin_u=x), "TrigExpr"),
            (lambda x: TrigExpr(const=x), "TrigExpr"),
            (lambda x: ConstantFactor(np.array([[x, 0.0], [0.0, 1.0]])), "ConstantFactor"),
            (lambda x: ConstantCocycle([[x, 0.0], [0.0, 1.0]]), "ConstantCocycle"),
            (
                lambda x: ConstantCocycle([[0.0, x], [0.0, 0.0]], invertible=False),
                "ConstantCocycle",
            ),
            (
                lambda x: LocallyConstantCocycle(table=[np.diag([x, 1.0]), np.eye(2)]),
                "LocallyConstantCocycle",
            ),
            (
                lambda x: LocallyConstantCocycle(
                    table=[np.zeros((2, 2)), [[0.0, x], [0.0, 0.0]]], invertible=False
                ),
                "LocallyConstantCocycle",
            ),
            (
                lambda x: PerturbedCocycle(
                    ConstantCocycle(DIAG2), ConstantCocycle(DIAG2), t=x, rule="additive"
                ),
                "PerturbedCocycle",
            ),
        ],
    )
    def test_non_finite_numbers_rejected(self, build, name, bad):
        # a NaN entry would pass every |det| check and the scans would
        # report nan exponents instead of failing
        with pytest.raises(ConfigError, match=name):
            build(bad)

    def test_invertible_flag(self, shift2):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularValueError):
            ConstantCocycle(matrix=singular)
        direction = ConstantCocycle(matrix=singular, invertible=False)
        assert np.array_equal(direction.constant_value(), singular)
        table = np.array([DIAG2, singular])
        with pytest.raises(SingularValueError):
            LocallyConstantCocycle(table=table)
        direction = LocallyConstantCocycle(table=table, invertible=False)
        (a, b, c, d), _, _ = cocycle.symbol_table(direction, shift2)
        assert a.tolist() == [2.0, 1.0] and d.tolist() == [0.5, 4.0]
        assert np.array_equal(word_matrix(direction, [1]), singular)

    def test_difference_spec_is_bitwise_subtraction(self, shift2):
        # holder_distances samples A - B through A + (-1) * B
        rng = np.random.default_rng(3)
        shift_pairs = [
            LocallyConstantCocycle(
                table=rng.standard_normal((4, 2, 2)), depth=2, alphabet_size=2,
                invertible=False,
            )
            for _ in range(2)
        ]
        torus_pairs = [
            PointwiseCocycle(factors=(RotationFactor(angle=TrigExpr(sin_u=0.3)),)),
            PointwiseCocycle(
                factors=(
                    DiagonalFactor(log_d1=TrigExpr(cos_v=0.2), log_d2=TrigExpr()),
                )
            ),
        ]
        coords = rng.random((64, 2))
        for (a, b), values in (
            (shift_pairs, lambda spec: cocycle.symbol_table(spec, shift2)[0]),
            (torus_pairs, lambda spec: spec.values_at_coords(coords)),
        ):
            diff = PerturbedCocycle(base=a, direction=b, t=-1.0, rule="additive")
            got = values(diff)
            want = [x - y for x, y in zip(values(a), values(b))]
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        # and so is the oracle's value at each word
        a, b = shift_pairs
        diff = PerturbedCocycle(base=a, direction=b, t=-1.0, rule="additive")
        for word in ([x0, x1] for x0 in range(2) for x1 in range(2)):
            want = word_matrix(a, word) - word_matrix(b, word)
            assert word_matrix(diff, word).tobytes() == want.tobytes()

    def test_rotation_factor_winding(self):
        RotationFactor(angle=TrigExpr(lin_u=2.0 * np.pi))  # full turn, fine
        with pytest.raises(ConfigError):
            RotationFactor(angle=TrigExpr(lin_u=1.0))
        with pytest.raises(ConfigError):
            DiagonalFactor(log_d1=TrigExpr(lin_u=2.0 * np.pi), log_d2=TrigExpr())

    def test_pointwise_constantness(self):
        spin = PointwiseCocycle(factors=(RotationFactor(angle=TrigExpr(const=0.3)),))
        assert spin.is_constant
        wavy = PointwiseCocycle(
            factors=(RotationFactor(angle=TrigExpr(sin_u=0.2)),)
        )
        assert not wavy.is_constant


def shift_value(spec, x, sys):
    """A(x) at one shift point as the scans read it (``engine.values``),
    checked bitwise against the oracle's word lookup."""
    got = engine.values(spec, sys, engine.batch_of(sys, [x]))
    want = oracle_entries(spec, [x])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    return np.array(want).reshape(2, 2)


def torus_value(spec, x):
    """A(x) at one torus point from the spec's hook."""
    return np.array(spec.values_at_coords(np.array([[x.u, x.v]]))).reshape(2, 2)


class TestEvaluate:
    def test_locally_constant_reads_first_symbol(self, shift2):
        spec = two_table(DIAG2, rotation(0.5))
        x = ShiftPoint(window=np.array([1, 0, 1], dtype=np.int16))
        assert np.array_equal(shift_value(spec, x, shift2), DIAG2)
        y = apply_f(shift2, x, 1)
        assert np.allclose(shift_value(spec, y, shift2), rotation(0.5))

    @pytest.mark.filterwarnings("error")
    def test_regularity_rule(self, shift2):
        # the value read fails the rule whatever its size: a rank-one entry
        # and a noise determinant raise, a tiny but regular one passes
        x = ShiftPoint(window=np.array([0, 1, 0], dtype=np.int16))
        for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-17])):
            spec = LocallyConstantCocycle(table=np.array([DIAG2, bad]), invertible=False)
            with pytest.raises(SingularValueError):
                product(spec, shift2, x, 1)
            assert np.array_equal(product(spec, shift2, apply_f(shift2, x, -1), 1), DIAG2)
        tiny = np.ldexp(DIAG2, -60)
        assert np.array_equal(product(two_table(DIAG2, tiny), shift2, x, 1), tiny)

    def test_depth_two_word_order(self, shift2):
        mats = [np.diag([float(k + 1), 1.0]) for k in range(4)]
        spec = LocallyConstantCocycle(table=np.array(mats), depth=2, alphabet_size=2)
        # word (x_0, x_1) = (1, 0) is index 2 in lexicographic order
        x = ShiftPoint(window=np.array([0, 0, 1, 0, 0], dtype=np.int16))
        assert shift_value(spec, x, shift2)[0, 0] == 3.0

    @pytest.mark.parametrize("depth", [2, 65, 2**63])
    def test_table_length_must_match_the_depth(self, depth):
        # a huge depth is refused without raising the alphabet to it
        mats = np.array([np.diag([float(k + 1), 1.0]) for k in range(4)])
        with pytest.raises(ConfigError, match="table length"):
            LocallyConstantCocycle(table=mats[:2], depth=depth, alphabet_size=2)

    def test_pointwise_factors_in_order(self, cat):
        spec = PointwiseCocycle(
            factors=(
                RotationFactor(angle=TrigExpr(sin_u=0.4)),
                DiagonalFactor(log_d1=TrigExpr(cos_v=0.3), log_d2=TrigExpr()),
            )
        )
        x = TorusPoint(0.2, 0.7)
        th = 0.4 * np.sin(2 * np.pi * 0.2)
        d1 = np.exp(0.3 * np.cos(2 * np.pi * 0.7))
        ref = rotation(th) @ np.diag([d1, 1.0])
        assert np.allclose(torus_value(spec, x), ref, rtol=1e-14)

    def test_perturbed_multiplicative(self, cat):
        base = ConstantCocycle(matrix=DIAG2)
        fld = ConstantCocycle(
            matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), invertible=False
        )
        pert = PerturbedCocycle(base=base, direction=fld, t=0.25, rule="multiplicative_exp")
        x = TorusPoint(0.1, 0.2)
        ref = DIAG2 @ mat2.expm(0.25 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(torus_value(pert, x), ref, rtol=1e-14)
        assert pert.r == base.r

    def test_perturbed_additive(self, shift2):
        base = two_table(DIAG2, rotation(0.3))
        fld = LocallyConstantCocycle(
            table=np.array([np.eye(2), np.zeros((2, 2))]),
            invertible=False,
        )
        pert = PerturbedCocycle(base=base, direction=fld, t=0.1, rule="additive")
        x = ShiftPoint(window=np.array([1, 0, 1], dtype=np.int16))
        assert np.allclose(shift_value(pert, x, shift2), DIAG2 + 0.1 * np.eye(2))

    def test_wrong_base_kind(self, cat, shift2):
        lc = two_table(DIAG2, rotation(0.3))
        with pytest.raises(ConfigError):
            engine.values(lc, cat, engine.batch_of(cat, [TorusPoint(0.1, 0.1)]))
        pw = PointwiseCocycle(factors=(RotationFactor(angle=TrigExpr(sin_u=1.0)),))
        x = ShiftPoint(window=np.array([0, 1, 0], dtype=np.int16))
        with pytest.raises(ConfigError):
            engine.values(pw, shift2, engine.batch_of(shift2, [x]))


class TestProducts:
    def test_cocycle_identity_shift(self, shift2):
        spec = two_table(
            np.array([[1.2, 0.0], [0.0, 1 / 1.2]]),
            rotation(0.1) @ np.array([[1.2, 0.0], [0.0, 1 / 1.2]]),
        )
        pts = sample_points(shift2, 10, 45, seed=3)
        rng = np.random.default_rng(4)
        for x in pts:
            m, n = rng.integers(-20, 21, size=2)
            lhs = product(spec, shift2, x, int(m + n))
            rhs = product(spec, shift2, apply_f(shift2, x, int(n)), int(m)) @ product(
                spec, shift2, x, int(n)
            )
            assert rel_err(lhs, rhs) < 1e-9

    def test_cocycle_identity_torus(self, cat):
        spec = PointwiseCocycle(
            factors=(
                RotationFactor(angle=TrigExpr(sin_u=0.3, cos_v=0.2)),
                DiagonalFactor(log_d1=TrigExpr(const=0.2), log_d2=TrigExpr(const=-0.2)),
            )
        )
        pts = sample_points(cat, 10, 0, seed=5)
        rng = np.random.default_rng(6)
        for x in pts:
            m, n = rng.integers(-15, 16, size=2)
            lhs = product(spec, cat, x, int(m + n))
            rhs = product(spec, cat, apply_f(cat, x, int(n)), int(m)) @ product(
                spec, cat, x, int(n)
            )
            assert rel_err(lhs, rhs) < 1e-9

    def test_renormalized_matches_plain(self, shift2):
        # the renormalized scans against the plain product: forward_scan's
        # unit-norm product and log scale, the exponent scan's log norm, and
        # log sigma1 - log |det| = log |A^-n| against the product of step
        # inverses
        spec = two_table(DIAG2, rotation(0.7) @ DIAG2)
        pts = sample_points(shift2, 5, 40, seed=7)
        # long mixed-rotation products are badly conditioned, so the
        # entrywise agreement between differently grouped float products
        # degrades like cond * eps; the log scale stays tight throughout.
        for n, tol in ((1, 1e-12), (7, 1e-11), (12, 1e-9), (25, 1e-4)):
            fwd = engine.forward_scan(spec, shift2, engine.batch_of(shift2, pts), n)
            ls, logdet = engine.exponent_scan(
                spec, shift2, engine.batch_of(shift2, pts), n
            )
            for i, x in enumerate(pts):
                plain = product(spec, shift2, x, n)
                inverse = product(spec, shift2, apply_f(shift2, x, n), -n)
                unit = np.array([[fwd.a[i], fwd.b[i]], [fwd.c[i], fwd.d[i]]])
                assert abs(mat2.opnorm(unit) - 1.0) < 1e-12
                assert rel_err(np.exp(fwd.log_scale[i]) * unit, plain) < tol
                for got in (fwd.log_scale[i], ls[i]):
                    assert got == pytest.approx(np.log(mat2.opnorm(plain)), abs=tol)
                assert ls[i] - logdet[i] == pytest.approx(
                    np.log(mat2.opnorm(inverse)), abs=tol
                )

    def test_negative_determinant_steps(self, shift2):
        flip = np.array([[0.0, 2.0], [0.5, 0.0]])  # det = -1
        spec = two_table(flip, DIAG2)
        pts = sample_points(shift2, 4, 40, seed=8)
        for n in (9, 16):
            fwd = engine.forward_scan(spec, shift2, engine.batch_of(shift2, pts), n)
            ls, logdet = engine.exponent_scan(
                spec, shift2, engine.batch_of(shift2, pts), n
            )
            for i, x in enumerate(pts):
                plain = product(spec, shift2, x, n)
                inverse = product(spec, shift2, apply_f(shift2, x, n), -n)
                unit = np.array([[fwd.a[i], fwd.b[i]], [fwd.c[i], fwd.d[i]]])
                assert rel_err(np.exp(fwd.log_scale[i]) * unit, plain) < 1e-9
                assert ls[i] == pytest.approx(np.log(mat2.opnorm(plain)), abs=1e-12)
                assert ls[i] - logdet[i] == pytest.approx(
                    np.log(mat2.opnorm(inverse)), abs=1e-12
                )
                # every step has |det| = 1
                assert logdet[i] == 0.0

    def test_identity_cocycle_long_product(self, shift2):
        # the identity's power is itself at any n; the scans walk 10**4
        # steps on windows the horizon rule sizes, and log 1 = 0 exactly
        spec = ConstantCocycle(matrix=np.eye(2))
        n = 10**4
        assert constant_power(np.eye(2), n)[1] == 0.0
        ft = finite_time_exponents(spec, shift2, sample_points(shift2, 2, n, seed=0), n)
        for rate in (ft.plus, ft.minus, ft.logdet_rate):
            assert np.all(rate == 0.0)

    def test_constant_walks_the_scans(self, shift2):
        # a constant is walked like any spec: a window of half-width 1
        # cannot host a 100-step walk, and one the horizon rule sizes gives
        # the closed form's exponents and the exact axes
        spec = ConstantCocycle(matrix=DIAG2)
        x = ShiftPoint(window=np.array([0, 1, 0], dtype=np.int16))
        with pytest.raises(HorizonExceeded):
            finite_time_exponents(spec, shift2, [x], 100)
        n = 100
        pts = sample_points(shift2, 1, n + 2, seed=0)
        ft = finite_time_exponents(spec, shift2, pts, n)
        assert ft.plus[0] == pytest.approx(constant_power(DIAG2, n)[1] / n, rel=1e-14)
        assert ft.plus[0] == pytest.approx(np.log(2.0), rel=1e-14)
        assert ft.minus[0] == pytest.approx(-np.log(2.0), rel=1e-12)
        # the normalized power diag(1, 0.25**100) has the axes for its
        # singular directions
        ux, uy, ok_u = unstable_directions(spec, shift2, pts, n)
        sx, sy, ok_s = stable_directions(spec, shift2, pts, n)
        assert ok_u[0] and ok_s[0]
        assert (ux[0], uy[0], sx[0], sy[0]) == (1.0, 0.0, 0.0, 1.0)

    def test_renormalized_scale_shift(self, shift2):
        # scaling the generator by c shifts log_scale by n log c and leaves
        # the normalized part unchanged; exact for dyadic c.
        base = two_table(DIAG2, rotation(0.4) @ DIAG2)
        pts = sample_points(shift2, 1, 30, seed=9)

        def scans(spec):
            fwd = engine.forward_scan(spec, shift2, engine.batch_of(shift2, pts), 20)
            ls, logdet = engine.exponent_scan(
                spec, shift2, engine.batch_of(shift2, pts), 20
            )
            unit = np.array([fwd.a, fwd.b, fwd.c, fwd.d])
            return unit, fwd.log_scale, ls, ls - logdet

        n0, *logs0 = scans(base)
        for c, exact in ((2.0, True), (0.5, True), (3.0, False)):
            n1, *logs1 = scans(two_table(c * DIAG2, c * (rotation(0.4) @ DIAG2)))
            if exact:
                assert np.array_equal(n0, n1)
            else:
                assert np.allclose(n0, n1, atol=1e-12)
            rel = 1e-14 if exact else 1e-12
            for l0, l1, sign in zip(logs0, logs1, (1, 1, -1)):
                assert l1[0] == pytest.approx(l0[0] + sign * 20 * np.log(c), rel=rel)


class TestHolderNorm:
    def test_constant(self, shift2):
        rep = holder_norm_of(ConstantCocycle(matrix=DIAG2), shift2)
        assert rep.exact
        assert rep.sup_norm == 2.0
        assert rep.holder_constant == 0.0

    def test_locally_constant_depth_one(self, shift2):
        m0 = DIAG2
        m1 = rotation(0.2)
        rep = holder_norm_of(two_table(m0, m1), shift2)
        assert rep.exact
        assert rep.sup_norm == pytest.approx(2.0)
        assert rep.holder_constant == pytest.approx(mat2.opnorm(m0 - m1))

    def test_locally_constant_depth_two(self, shift2):
        mats = np.array([np.eye(2), np.eye(2), np.eye(2), 2.0 * np.eye(2)])
        spec = LocallyConstantCocycle(table=mats, depth=2, alphabet_size=2, r=1.0)
        rep = holder_norm_of(spec, shift2)
        # words 10 and 11 differ first at forward position 1: quotient
        # ||I - 2I|| / lambda0^1 = 2; words 0*, 1* differ at position 0.
        assert rep.holder_constant == pytest.approx(2.0)

    def test_pointwise_monte_carlo(self, cat):
        eps = 0.2
        spec = PointwiseCocycle(
            factors=(RotationFactor(angle=TrigExpr(sin_u=eps)),)
        )
        rep = holder_norm_of(spec, cat, pair_samples=512, seed=2)
        assert not rep.exact
        assert rep.sup_norm == pytest.approx(1.0, rel=1e-9)
        lipschitz = 2.0 * np.pi * eps
        assert rep.holder_constant <= lipschitz * (1.0 + 1e-6)
        assert rep.holder_constant >= 0.9 * lipschitz

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_no_sampled_pairs_is_refused(self, cat, pairs):
        spec = ConstantCocycle(np.eye(2))
        with pytest.raises(ConfigError, match="pair_samples"):
            holder_distances([spec], ZERO, cat, pair_samples=pairs)

    def test_distance_exact_tables(self, shift2):
        a = two_table(DIAG2, rotation(0.3))
        b = two_table(DIAG2, rotation(0.3))
        rep = holder_distance_of(a, b, shift2)
        assert rep.exact and rep.norm == 0.0
        fld = LocallyConstantCocycle(
            table=np.array([np.eye(2), -np.eye(2)]), invertible=False
        )
        pert = PerturbedCocycle(base=a, direction=fld, t=0.01, rule="additive")
        rep = holder_distance_of(pert, a, shift2)
        assert rep.exact
        assert rep.sup_norm == pytest.approx(0.01)
        assert rep.holder_constant == pytest.approx(0.02)

    def test_distance_constant_vs_table(self, shift2):
        a = two_table(DIAG2, DIAG2)
        b = ConstantCocycle(matrix=DIAG2)
        rep = holder_distance_of(a, b, shift2)
        assert rep.exact and rep.norm == 0.0


def loop_table_holder(tab, a, depth, lambda0, r):
    """The quotient by the word-pair loop, one 2x2 norm per pair."""
    words = np.array(np.unravel_index(np.arange(tab.shape[0]), (a,) * depth)).T
    quot = 0.0
    for i in range(tab.shape[0]):
        for j in range(i + 1, tab.shape[0]):
            k = int(np.nonzero(words[i] != words[j])[0][0])
            quot = max(quot, mat2.opnorm(tab[i] - tab[j]) / lambda0 ** (k * r))
    return quot


def per_point_sampled_holder(spec, sys, r, pair_samples, seed):
    """The sampled sup-norm and quotient, one TorusPoint and one
    base_distance per pair."""
    pts = sample_points(sys, 2 * pair_samples, 0, seed)
    xs = [pts[i] for i in range(pair_samples)]
    ys = [pts[i] for i in range(pair_samples, 2 * pair_samples)]

    def values(points):
        return spec.values_at_coords(np.array([[p.u, p.v] for p in points]))

    vx, vy = values(xs), values(ys)
    sup = float(max(np.max(mat2.opnorm_batch(*vx)), np.max(mat2.opnorm_batch(*vy))))
    dists = np.array([base_distance(sys, x, y) for x, y in zip(xs, ys)])
    norms = mat2.opnorm_batch(*(x - y for x, y in zip(vx, vy)))
    ok = dists > 0
    quot = float(np.max(norms[ok] / dists[ok] ** r))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(999,)))
    for scale in 10.0 ** np.arange(-1, -7, -1):
        angles = rng.random(len(xs)) * 2.0 * np.pi
        near = [
            TorusPoint(p.u + scale * np.cos(t), p.v + scale * np.sin(t))
            for p, t in zip(xs, angles)
        ]
        vn = values(near)
        nd = np.array([base_distance(sys, p, q) for p, q in zip(xs, near)])
        nn = mat2.opnorm_batch(*(x - y for x, y in zip(vx, vn)))
        ok = nd > 0
        quot = max(quot, float(np.max(nn[ok] / nd[ok] ** r)))
    return sup, quot


def torus_base():
    return PointwiseCocycle(
        factors=(
            RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1)),
            ConstantFactor(matrix=np.diag([1.5, 1.0 / 1.5])),
        ),
        r=0.8,
    )


def torus_direction():
    return PointwiseEntriesField(
        e00=TrigExpr(), e01=TrigExpr(const=-1.0, sin_u=0.2),
        e10=TrigExpr(const=1.0, sin_u=-0.2), e11=TrigExpr(cos_v=0.3),
    )


class TestHolderRoutes:
    """The vectorized Holder routes against per-pair and per-point ones."""

    def test_table_quotient_matches_pair_loop(self):
        rng = np.random.default_rng(4)
        tab = rng.normal(size=(27, 2, 2))
        for lambda0, r in ((0.5, 1.0), (0.37, 0.6)):
            _, quot = _table_holder(tab, 3, 3, lambda0, r)
            assert quot == loop_table_holder(tab, 3, 3, lambda0, r)

    def test_table_quotient_on_shipped_table(self):
        cfg = load_config("configs/shift_gapped.yaml")
        spec = build_cocycle(cfg)
        lambda0 = cfg.data["base"]["lambda0"]
        _, quot = _table_holder(spec.table, 2, 1, lambda0, spec.r)
        assert quot == loop_table_holder(spec.table, 2, 1, lambda0, spec.r)
        assert quot > 0.0

    def test_sampled_norm_matches_per_point_route(self, cat):
        spec = torus_base()
        # A - 0 is bitwise A, so the norm is the per-point route's
        rep = holder_norm_of(spec, cat, pair_samples=300, seed=5)
        sup, quot = per_point_sampled_holder(spec, cat, spec.r, 300, 5)
        assert (rep.sup_norm, rep.holder_constant) == (sup, quot)

    @pytest.mark.parametrize("rule", ["multiplicative_exp", "additive"])
    def test_sampled_distances_match_per_point_route(self, cat, rule):
        base, field = torus_base(), torus_direction()
        specs = [
            PerturbedCocycle(base=base, direction=field, t=t, rule=rule)
            for t in (0.5, 0.125)
        ] + [ConstantCocycle(matrix=DIAG2)]
        reps = holder_distances(specs, base, cat, pair_samples=300, seed=6)
        for spec, rep in zip(specs, reps):
            diff = PerturbedCocycle(base=spec, direction=base, t=-1.0, rule="additive")
            sup, quot = per_point_sampled_holder(diff, cat, spec.r, 300, 6)
            assert (rep.sup_norm, rep.holder_constant) == (sup, quot)
            alone = holder_distance_of(spec, base, cat, pair_samples=300, seed=6)
            assert alone == rep

    def test_shift_spec_without_table_rejected(self, shift2):
        # a table over another alphabet has no exact norm on this shift,
        # and there is no sampled route over a shift base to fall back on
        spec = LocallyConstantCocycle(table=np.array([DIAG2, DIAG2, np.eye(2)]))
        with pytest.raises(ConfigError, match="no Holder norm"):
            holder_norm_of(spec, shift2)
        with pytest.raises(ConfigError, match="no Holder norm"):
            holder_distance_of(spec, spec, shift2)
        with pytest.raises(ConfigError, match="no Holder norm"):
            holder_distances((spec,), two_table(DIAG2, DIAG2), shift2)


class NanAt:
    """A torus spec equal to ``inner`` except for NaN entries at points
    whose u coordinate is one of ``us``."""

    symbol_depth = 0
    is_constant = False

    def __init__(self, inner, us):
        self.inner, self.us, self.r = inner, us, inner.r

    def values_at_coords(self, coords):
        hit = np.isin(coords[:, 0], self.us)
        return tuple(np.where(hit, np.nan, v) for v in self.inner.values_at_coords(coords))


def same_float(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


class TestStackedHolder:
    """The sampled Holder pass evaluates each stack of perturbations once,
    in column blocks; every row is bitwise its spec's report alone."""

    @pytest.mark.parametrize("block", [1, 4 * 7, 4 * 299, None])
    def test_rows_match_alone_at_block_edges(self, monkeypatch, cat, block):
        # widths of 1, 7 and 299 points end blocks inside every ring
        base, field = torus_base(), torus_direction()
        specs = [
            PerturbedCocycle(base=base, direction=field, t=t, rule="multiplicative_exp")
            for t in (0.5, 0.25, 2.0**-6, 2.0**-12)
        ]
        specs.insert(2, ConstantCocycle(matrix=DIAG2))  # a stack of its own
        alone = [holder_distance_of(s, base, cat, pair_samples=300, seed=6) for s in specs]
        if block is not None:
            monkeypatch.setattr(cocycle, "STACK_BLOCK", block)
        assert holder_distances(specs, base, cat, pair_samples=300, seed=6) == alone

    def test_table_over_torus_rejected(self, cat):
        # a stack of symbol tables has no values at torus coordinates
        with pytest.raises(ConfigError, match="shift bases"):
            holder_distances((two_table(DIAG2, DIAG2),), torus_base(), cat)

    @pytest.mark.parametrize("ring", [-1, 0, 3, 6], ids=["x", "y", "ring3", "ring6"])
    @pytest.mark.parametrize("block", [2 * 7, None])
    def test_nan_ring_matches_per_point_route(self, monkeypatch, cat, ring, block):
        if block is not None:
            monkeypatch.setattr(cocycle, "STACK_BLOCK", block)
        sample = _HolderSample.draw(cat, 300, 6)
        us = sample.coords[(ring + 1) * 300 : (ring + 2) * 300 : 37, 0]
        base = NanAt(torus_base(), us)
        specs = [base] + [
            PerturbedCocycle(base=base, direction=torus_direction(), t=t, rule="additive")
            for t in (0.5, 2.0**-8)
        ]
        reps = holder_distances(specs, torus_base(), cat, pair_samples=300, seed=6)
        for spec, rep in zip(specs, reps):
            diff = PerturbedCocycle(
                base=spec, direction=torus_base(), t=-1.0, rule="additive"
            )
            sup, quot = per_point_sampled_holder(diff, cat, spec.r, 300, 6)
            assert same_float(rep.sup_norm, sup)
            assert same_float(rep.holder_constant, quot)
            # Python's max keeps a NaN it starts from and drops a later one
            assert np.isnan(rep.sup_norm) == (ring == -1)
            assert np.isnan(rep.holder_constant) == (ring <= 0)


class TestStacked:
    """Row m of a stack's values is bitwise member m's own values."""

    def test_table_rows(self, shift2):
        base = two_table(DIAG2, rotation(0.3) @ DIAG2)
        deep = LocallyConstantCocycle(
            table=np.array([rotation(0.1 * k) @ DIAG2 for k in range(4)]),
            depth=2, alphabet_size=2,
        )
        stacked = StackedCocycle((base, deep, base))
        assert stacked.symbol_depth == 2 and stacked.rows == 3
        draw = sample_points(shift2, 50, 3, seed=1)
        rows = engine.values(stacked, shift2, engine.batch_of(shift2, draw))
        for m, member in enumerate((base, deep, base)):
            for got, want in zip(rows, oracle_entries(member, list(draw))):
                assert np.array_equal(got[m], want)

    @pytest.mark.parametrize("rule", ["multiplicative_exp", "additive"])
    @pytest.mark.parametrize("with_base", [True, False])
    def test_perturbation_rows(self, cat, rule, with_base):
        base, field = torus_base(), torus_direction()
        members = [
            PerturbedCocycle(base=base, direction=field, t=t, rule=rule)
            for t in (0.5, 0.25, 2.0 ** -10)
        ]
        if with_base:
            members = [base, *members]
        coords = sample_points(cat, 300, 0, seed=2).coords
        rows = StackedCocycle(tuple(members)).values_at_coords(coords)
        for m, member in enumerate(members):
            for got, want in zip(rows, member.values_at_coords(coords)):
                assert np.array_equal(got[m], want)

    def test_constants_beside_tables(self, shift2, cat):
        # a constant and a constant perturbation stack with tables over a
        # shift, each row its member's own; over a torus the stack has no
        # values, as its tables have none
        table = two_table(DIAG2, rotation(0.3) @ DIAG2)
        constant = ConstantCocycle(matrix=rotation(0.2) @ DIAG2)
        spin = ConstantCocycle(matrix=np.array([[0.0, -1.0], [1.0, 0.0]]), invertible=False)
        perturbed = PerturbedCocycle(constant, spin, t=0.25, rule="additive")
        members = (constant, table, perturbed)
        stacked = StackedCocycle(members)
        draw = sample_points(shift2, 50, 3, seed=1)
        rows = engine.values(stacked, shift2, engine.batch_of(shift2, draw))
        for m, member in enumerate(members):
            for got, want in zip(rows, oracle_entries(member, list(draw))):
                assert np.array_equal(got[m], want)
        with pytest.raises(ConfigError, match="shift bases"):
            stacked.values_at_coords(sample_points(cat, 5, 0, seed=1).coords)

    def test_mixed_members_rejected(self):
        base, field = torus_base(), torus_direction()
        other = PerturbedCocycle(base=torus_base(), direction=field, t=0.5, rule="additive")
        mine = PerturbedCocycle(base=base, direction=field, t=0.5, rule="additive")
        with pytest.raises(ConfigError):
            StackedCocycle((base, mine, other))
        with pytest.raises(ConfigError):
            StackedCocycle(())


def mixed_depth(rule: str, deep_base: bool) -> PerturbedCocycle:
    """A perturbation over the 2-shift whose base and direction tables have
    depths 2 and 1 (deep_base) or 1 and 2."""
    gapped = load_config("configs/shift_gapped.yaml")
    shallow_table = build_cocycle(gapped)
    deep_table = LocallyConstantCocycle(
        table=np.array([rotation(0.1 * k) @ DIAG2 for k in range(4)]),
        depth=2, alphabet_size=2,
    )
    shallow_field = LocallyConstantCocycle(
        table=np.array([[[0.0, -0.2], [0.2, 0.0]], [[0.1, 0.0], [0.0, -0.1]]]),
        invertible=False,
    )
    deep_field = LocallyConstantCocycle(
        table=np.array(
            [[[0.0, -0.2 * k], [0.2, 0.05 * k]] for k in range(4)]
        ),
        depth=2, alphabet_size=2, invertible=False,
    )
    if deep_base:
        return PerturbedCocycle(deep_table, shallow_field, t=0.25, rule=rule)
    return PerturbedCocycle(shallow_table, deep_field, t=0.25, rule=rule)


class TestMixedDepth:
    """A table inside a perturbation reads only the leading symbols of the
    block its deeper partner needs."""

    WORDS = [[a, b] for a in range(2) for b in range(2)]

    @pytest.mark.parametrize("rule", ["additive", "multiplicative_exp"])
    @pytest.mark.parametrize("deep_base", [True, False])
    def test_hook_matches_specialized_table(self, shift2, rule, deep_base):
        spec = mixed_depth(rule, deep_base)
        table = specialize(spec, shift2)
        assert isinstance(table, LocallyConstantCocycle) and table.depth == 2
        entries, _, depth = cocycle.symbol_table(spec, shift2)
        assert depth == 2
        for number, word in enumerate(self.WORDS):
            want = word_matrix(spec, word)
            assert np.array_equal(table.table[number], want)
            assert np.array_equal([e[number] for e in entries], want.ravel())

    @pytest.mark.parametrize("deep_base", [True, False])
    def test_point_evaluation_and_products(self, shift2, deep_base):
        spec = mixed_depth("multiplicative_exp", deep_base)
        table = specialize(spec, shift2)
        x = sample_points(shift2, 1, 12, seed=4)[0]
        assert rel_err(shift_value(spec, x, shift2), shift_value(table, x, shift2)) < 1e-14
        assert rel_err(product(spec, shift2, x, 8), product(table, shift2, x, 8)) < 1e-13
        assert rel_err(product(spec, shift2, x, -8), product(table, shift2, x, -8)) < 1e-13

    @pytest.mark.parametrize("deep_base", [True, False])
    def test_exponents_run(self, shift2, deep_base):
        spec = mixed_depth("multiplicative_exp", deep_base)
        rep = lyapunov_exponents(spec, shift2, n=60, samples=40, seed=2)
        ref = lyapunov_exponents(specialize(spec, shift2), shift2, n=60, samples=40, seed=2)
        assert abs(rep.lambda_plus - ref.lambda_plus) < 1e-12
        assert abs(rep.lambda_minus - ref.lambda_minus) < 1e-12

    @pytest.mark.parametrize("deep_base", [True, False])
    def test_stacked_perturbation_rows(self, shift2, deep_base):
        head = mixed_depth("additive", deep_base)
        members = [head.base] + [
            PerturbedCocycle(head.base, head.direction, t=t, rule="additive")
            for t in (0.5, 0.25)
        ]
        stacked = StackedCocycle(tuple(members))
        assert stacked.symbol_depth == 2
        draw = sample_points(shift2, 30, 3, seed=1)
        rows = engine.values(stacked, shift2, engine.batch_of(shift2, draw))
        for m, member in enumerate(members):
            for got, want in zip(rows, oracle_entries(member, list(draw))):
                assert np.array_equal(got[m], want)


class TestConstantPerturbationOverShift:
    """A perturbation of constant parts is constant even when one part is a
    symbol table; every study reads its value as it reads the specialized
    table's."""

    B = np.array([[0.0, -1.0], [1.0, 0.3]])

    def perturbation(self, rule, table_side):
        if table_side == "base":
            base = two_table(DIAG2, DIAG2)
            field = ConstantCocycle(matrix=self.B, invertible=False)
        else:
            base = ConstantCocycle(matrix=DIAG2)
            field = LocallyConstantCocycle(table=np.array([self.B] * 2), invertible=False)
        return PerturbedCocycle(base, field, t=0.1, rule=rule)

    @pytest.mark.parametrize("table_side", ["base", "direction"])
    @pytest.mark.parametrize("rule", ["additive", "multiplicative_exp"])
    def test_studies_match_specialized(self, shift2, rule, table_side):
        spec = self.perturbation(rule, table_side)
        table = specialize(spec, shift2)
        assert spec.is_constant and table.is_constant
        # the table multiplies with numpy @, the composition with matmul_batch
        tol = 1e-12
        assert np.max(np.abs(spec.constant_value() - table.constant_value())) <= tol
        got = lyapunov_exponents(spec, shift2, n=50, samples=20, seed=1)
        want = lyapunov_exponents(table, shift2, n=50, samples=20, seed=1)
        assert abs(got.lambda_plus - want.lambda_plus) <= tol
        assert abs(got.lambda_minus - want.lambda_minus) <= tol
        got, want = bunching_check(spec, shift2), bunching_check(table, shift2)
        assert got.exact and want.exact and got.verdict == want.verdict
        assert abs(got.kappa_lambda_r - want.kappa_lambda_r) <= tol
        assert abs(got.theta_hat - want.theta_hat) <= tol
        points = sample_points(shift2, 5, 30, seed=1)
        got = unstable_directions(spec, shift2, points, 20)
        want = unstable_directions(table, shift2, points, 20)
        assert np.array_equal(got[2], want[2]) and got[2].all()
        assert np.max(np.abs(got[0] - want[0])) <= tol
        assert np.max(np.abs(got[1] - want[1])) <= tol


class TestBunching:
    def test_constant_bunched(self, shift2):
        q = 2.0 ** 0.25
        spec = ConstantCocycle(matrix=np.diag([q, 1.0 / q]), r=1.0)
        rep = bunching_check(spec, shift2, n_max=40)
        assert isinstance(rep, BunchingReport)
        assert rep.exact
        assert rep.verdict == "bunched"
        assert rep.kappa_lambda_r == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)
        assert rep.theta_hat == pytest.approx(np.sqrt(2.0) / 2.0, abs=0.02)

    def test_constant_not_bunched(self, shift2):
        spec = ConstantCocycle(matrix=DIAG2, r=1.0)
        rep = bunching_check(spec, shift2, n_max=40)
        assert rep.exact
        assert rep.verdict == "not_bunched"
        assert rep.kappa_lambda_r == pytest.approx(2.0, abs=1e-12)
        assert rep.theta_hat == pytest.approx(2.0, abs=0.02)

    def test_sampled_verdict(self, shift2):
        d = np.diag([1.2, 1.0 / 1.2])
        spec = two_table(d, rotation(0.1) @ d)
        rep = bunching_check(spec, shift2, n_max=40, x_samples=32, seed=1)
        assert not rep.exact
        assert rep.verdict == "bunched"
        assert rep.theta_hat < 0.95

    @pytest.mark.parametrize("base", ["shift2", "cat"])
    def test_constant_report_is_closed_form(self, base, request):
        # a constant spec is sampled like any spec; its values, and so its
        # report, do not depend on which points are drawn
        sys_ = request.getfixturevalue(base)
        q = 2.0 ** 0.25
        specs = [ConstantCocycle(matrix=np.diag([q, 1.0 / q]), r=0.7)]
        if base == "shift2":
            # a constant table reading 3 symbols per step needs a window of
            # n_max + 2 symbols, which the draw's window rule gives it
            specs.append(
                LocallyConstantCocycle(
                    table=np.array([np.diag([q, 1.0 / q])] * 8),
                    r=0.7, depth=3, alphabet_size=2,
                )
            )
        if base == "cat":
            specs.append(
                PointwiseCocycle(
                    factors=(
                        DiagonalFactor(
                            log_d1=TrigExpr(const=np.log(q)),
                            log_d2=TrigExpr(const=-np.log(q)),
                        ),
                    ),
                    r=0.7,
                )
            )
        for spec in specs:
            rep = bunching_check(spec, sys_, n_max=40, seed=3)
            assert rep.exact and rep.samples == 64
            # ||A^n|| ||A^-n|| = kappa^n for a normal A, so b_n = (kappa lambda^r)^n
            want = rep.kappa_lambda_r ** rep.ns
            assert np.allclose(rep.b_values, want, rtol=0.0, atol=1e-14)
            other = bunching_check(spec, sys_, n_max=40, seed=4)
            assert np.array_equal(rep.b_values, other.b_values)
            assert other.theta_hat == rep.theta_hat

    def test_torus_constant(self, cat):
        spec = ConstantCocycle(matrix=np.diag([1.1, 1.0 / 1.1]), r=1.0)
        rep = bunching_check(spec, cat, n_max=40)
        # kappa lambda^r = 1.21 * 0.382 < 1
        assert rep.verdict == "bunched"
