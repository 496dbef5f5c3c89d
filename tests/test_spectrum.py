"""Exponent estimates: exact constants, cross-route consistency, gap calls."""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cocyclelab import engine, mat2
from cocyclelab.base import BernoulliMeasure, ShiftSystem, apply_f, sample_points
from cocyclelab.config import build_cocycle, build_system, load_config
from cocyclelab.cocycle import ConstantCocycle, LocallyConstantCocycle, product
from cocyclelab.spectrum import (
    _log_abs_det,
    finite_time_exponents,
    lyapunov_exponents,
    spectral_gap,
)
from oracles import constant_power, rotation

DIAG2 = np.diag([2.0, 0.5])


class TestConstant:
    def test_diagonal_exponents_shift(self, shift2):
        spec = ConstantCocycle(matrix=DIAG2)
        rep = lyapunov_exponents(spec, shift2, n=10**4, samples=10, seed=0)
        assert rep.lambda_plus == pytest.approx(np.log(2.0), abs=1e-12)
        assert rep.lambda_minus == pytest.approx(-np.log(2.0), abs=1e-12)
        assert rep.se_plus == 0.0
        # det = 1 exactly, so the determinant rule mirrors the top exponent
        assert np.all(rep.per_sample.logdet_rate == 0.0)
        assert np.array_equal(rep.per_sample.minus, -rep.per_sample.plus)

    def test_diagonal_exponents_torus(self, cat):
        spec = ConstantCocycle(matrix=DIAG2)
        rep = lyapunov_exponents(spec, cat, n=10**4, samples=10, seed=0)
        assert rep.lambda_plus == pytest.approx(np.log(2.0), abs=1e-12)
        assert rep.lambda_minus == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_base_matrix_as_cocycle(self, cat):
        # the automorphism matrix itself: symmetric, so ||M^n|| is exactly
        # the n-th power of its top eigenvalue, and the scanned exponents
        # meet both it and the closed-form power at the same n
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        n = 10**4
        rep = lyapunov_exponents(ConstantCocycle(matrix=m), cat, n=n, samples=2, seed=1)
        lam_u = (3.0 + np.sqrt(5.0)) / 2.0
        assert rep.lambda_plus == pytest.approx(np.log(lam_u), abs=1e-5)
        assert rep.lambda_minus == pytest.approx(-np.log(lam_u), abs=1e-5)
        assert rep.lambda_plus == pytest.approx(constant_power(m, n)[1] / n, abs=1e-14)

    @pytest.mark.parametrize(
        "matrix, plus, minus",
        [
            ([[3.0, 1.0], [0.0, 0.5]], np.log(3.0), np.log(0.5)),
            ((2.0 * rotation(0.3)).tolist(), np.log(2.0), np.log(2.0)),
        ],
    )
    def test_non_unit_det_closed_form(self, shift2, matrix, plus, minus):
        # the bottom exponent is the determinant rate minus the top one;
        # the closed-form power at the same n gives the top one, and the
        # limits are met at O(1/n)
        n = 10**4
        top = constant_power(matrix, n)[1] / n
        spec = ConstantCocycle(matrix=np.array(matrix))
        ft = finite_time_exponents(spec, shift2, sample_points(shift2, 2, n, 0), n)
        assert ft.plus[0] == pytest.approx(top, abs=1e-14)
        assert ft.minus[0] == pytest.approx(plus + minus - top, abs=1e-14)
        assert ft.plus[0] == pytest.approx(plus, abs=10.0 / n)
        assert ft.minus[0] == pytest.approx(minus, abs=10.0 / n)
        assert ft.logdet_rate[0] == pytest.approx(plus + minus, abs=1e-14)
        # a conformal power ties the exponents up to rounding, never
        # reversing them
        assert ft.plus[0] >= ft.minus[0]

    @pytest.mark.parametrize("base", ["shift2", "cat"])
    @pytest.mark.parametrize(
        "matrix",
        [np.array([[3.0, 1.0], [0.0, 0.5]]), 2.0 * rotation(0.3)],
        ids=["triangular", "conformal"],
    )
    def test_non_diagonal_is_the_exponent_scan(self, base, matrix, request):
        # a constant's top exponent is the bits of engine.exponent_scan on
        # the same draw, where the tie rule leaves it on top, and within
        # 1e-14 of the closed-form power's; its log-det rate is exact
        sys_ = request.getfixturevalue(base)
        n = 500
        pts = sample_points(sys_, 30, n, seed=2)
        spec = ConstantCocycle(matrix=matrix)
        ft = finite_time_exponents(spec, sys_, pts, n)
        log_scale, _ = engine.exponent_scan(spec, sys_, engine.batch_of(sys_, pts), n)
        top = log_scale / n
        assert np.all(ft.logdet_rate == _log_abs_det(matrix))
        assert np.array_equal(ft.plus, np.maximum(top, ft.logdet_rate - top))
        assert np.max(np.abs(top - constant_power(matrix, n)[1] / n)) <= 1e-14

    def test_gap_detected(self, shift2):
        rep = lyapunov_exponents(ConstantCocycle(matrix=DIAG2), shift2, n=1000, samples=5)
        g = spectral_gap(rep)
        assert g.has_gap
        assert g.gap == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


class TestSampled:
    def test_det_route_consistency(self, shift2):
        # the word-blocked radix scan against the unit-norm walk, whose
        # log scale and log |det| are summed step by step
        spec = LocallyConstantCocycle(
            table=np.array([np.diag([2.0, 0.6]), rotation(0.3) @ np.diag([1.0, 0.5])])
        )
        pts = sample_points(shift2, 50, 410, seed=2)
        n = 400
        ft = finite_time_exponents(spec, shift2, pts, n)
        walk = engine.forward_scan(spec, shift2, engine.batch_of(shift2, pts), n)
        assert np.max(np.abs(ft.plus - walk.log_scale / n)) < 1e-9
        assert np.max(np.abs(ft.minus - (walk.logdet - walk.log_scale) / n)) < 1e-9
        assert np.max(np.abs(ft.logdet_rate - walk.logdet / n)) < 1e-9
        assert np.all(ft.plus >= ft.minus)

    def test_logdet_rate_matches_measure_mean(self):
        sys = ShiftSystem(alphabet_size=2, measure=BernoulliMeasure(weights=(0.3, 0.7)))
        spec = LocallyConstantCocycle(
            table=np.array([np.diag([2.0, 0.6]), np.diag([1.0, 0.5])])
        )
        pts = sample_points(sys, 100, 310, seed=3)
        ft = finite_time_exponents(spec, sys, pts, 300)
        expected = 0.3 * np.log(1.2) + 0.7 * np.log(0.5)
        sem = np.std(ft.logdet_rate, ddof=1) / 10.0
        assert np.mean(ft.logdet_rate) == pytest.approx(expected, abs=5 * sem + 1e-12)

    def test_positive_top_exponent(self, shift2):
        d = np.diag([1.2, 1.0 / 1.2])
        spec = LocallyConstantCocycle(table=np.array([d, rotation(0.1) @ d]))
        rep = lyapunov_exponents(spec, shift2, n=600, samples=60, seed=4)
        assert 0.05 < rep.lambda_plus <= np.log(1.2) + 1e-9
        assert rep.lambda_minus == pytest.approx(-rep.lambda_plus, abs=1e-9)
        assert spectral_gap(rep).has_gap

    def test_no_gap_for_commuting_walk(self, shift2):
        # diag(2, 1/2) and diag(1/2, 2) with fair weights: the log of the
        # top singular value is |random walk|, so both exponents vanish and
        # the finite-sample gap is pure noise.
        spec = LocallyConstantCocycle(
            table=np.array([DIAG2, np.diag([0.5, 2.0])])
        )
        rep = lyapunov_exponents(spec, shift2, n=10000, samples=4, seed=5)
        g = spectral_gap(rep)
        assert not g.has_gap
        assert abs(rep.lambda_plus) < 0.05

    def test_thread_count_invariance(self, shift2):
        d = np.diag([1.3, 0.7])
        spec = LocallyConstantCocycle(table=np.array([d, rotation(0.2) @ d]))
        pts = sample_points(shift2, 2100, 60, seed=6)
        one = finite_time_exponents(spec, shift2, pts, 50, threads=1)
        many = finite_time_exponents(spec, shift2, pts, 50, threads=8)
        assert np.array_equal(one.plus, many.plus)
        assert np.array_equal(one.minus, many.minus)
        assert np.array_equal(one.logdet_rate, many.logdet_rate)

    def test_reports_reproducible(self, shift2):
        d = np.diag([1.3, 0.7])
        spec = LocallyConstantCocycle(table=np.array([d, rotation(0.2) @ d]))
        a = lyapunov_exponents(spec, shift2, n=100, samples=30, seed=7)
        b = lyapunov_exponents(spec, shift2, n=100, samples=30, seed=7)
        assert np.array_equal(a.per_sample.plus, b.per_sample.plus)
        assert a.lambda_plus == b.lambda_plus


class TestExponentScan:
    def test_diagonal_closed_form_past_overflow(self, shift2):
        # 1e3 ** 1000 overflows a double long before n = 2000, so only the
        # renormalized scan can produce these numbers
        big, small = np.diag([1e3, 1e-3]), np.diag([2.0, 0.5])
        spec = LocallyConstantCocycle(table=np.array([big, small]))
        n = 2000
        pts = sample_points(shift2, 40, n + 1, seed=12)
        ft = finite_time_exponents(spec, shift2, pts, n)
        log_scale, logdet = engine.exponent_scan(
            spec, shift2, engine.batch_of(shift2, pts), n
        )
        for i, x in enumerate(pts):
            k = int(np.count_nonzero(x.window[x.horizon : x.horizon + n] == 0))
            plus = (k * np.log(1e3) + (n - k) * np.log(2.0)) / n
            minus = (k * np.log(1e-3) + (n - k) * np.log(0.5)) / n
            assert ft.plus[i] == pytest.approx(plus, abs=1e-13)
            assert ft.minus[i] == pytest.approx(minus, abs=1e-13)
        # the bottom exponent is the determinant rate minus the top one
        assert np.array_equal(ft.minus, logdet / n - log_scale / n)

    def test_minus_mirrors_plus_on_shipped_table(self):
        # every step det of the shipped table is exactly 1, so log |det|
        # sums to 0 and the bottom exponent is the top one negated, bitwise
        sys_, spec = _shipped_gapped()
        dets = [m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in spec.table]
        assert dets == [1.0] * len(spec.table)
        pts = sample_points(sys_, 300, 401, seed=13)
        ft = finite_time_exponents(spec, sys_, pts, 400)
        assert np.all(ft.logdet_rate == 0.0)
        assert np.array_equal(ft.minus, -ft.plus)

    @pytest.mark.parametrize("table", ["non-unit", "flip"])
    def test_minus_matches_plain_inverse_product(self, shift2, table):
        # log |A^-n| = log sigma1 - log |det| of A^n, against the step
        # inverses multiplied out plainly; steps with |det| != 1 and with
        # det < 0 on the word path and on its tail
        if table == "non-unit":
            steps = [np.diag([3.0, 1.0]), rotation(0.7) @ np.diag([1.0, 0.5])]
        else:
            steps = [np.array([[0.0, 2.0], [0.5, 0.0]]), DIAG2]
        spec = LocallyConstantCocycle(table=np.array(steps))
        for n in (5, 8, 19):
            pts = sample_points(shift2, 8, n + 1, seed=n)
            ft = finite_time_exponents(spec, shift2, pts, n)
            for i, x in enumerate(pts):
                inverse = product(spec, shift2, apply_f(shift2, x, n), -n)
                assert n * ft.minus[i] == pytest.approx(
                    -np.log(mat2.opnorm(inverse)), abs=1e-12
                )


def _exact_exponents(spec, x, n):
    """(lambda_plus, lambda_minus) of the window product at x, from the
    step matrices multiplied exactly in rationals: sigma1 from the exact
    product, sigma2 = |det| / sigma1, logs taken at 60 digits."""
    depth, a = spec.depth, spec.alphabet_size
    prod = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for j in range(n):
        word = sum(x.symbol(j + i) * a ** (depth - 1 - i) for i in range(depth))
        m = [[Fraction(float(v)) for v in row] for row in spec.table[word]]
        prod = [
            [sum(m[r][t] * prod[t][c] for t in range(2)) for c in range(2)]
            for r in range(2)
        ]
    (pa, pb), (pc, pd) = prod
    p, q, r = pa * pa + pc * pc, pa * pb + pc * pd, pb * pb + pd * pd
    half, rad = (p + r) / 2, ((p - r) / 2) ** 2 + q * q
    det = abs(pa * pd - pb * pc)
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        log_s1 = (dec(half) + dec(rad).sqrt()).ln() / 2
        log_s2 = dec(det).ln() - log_s1
        return float(log_s1 / n), float(log_s2 / n)


def _shipped_gapped():
    root = Path(__file__).resolve().parent.parent
    cfg = load_config(str(root / "configs" / "shift_gapped.yaml"))
    return build_system(cfg), build_cocycle(cfg)


def _random_depth2_alphabet3():
    rng = np.random.default_rng(2024)
    tab = rng.normal(size=(9, 2, 2)) + 1.5 * np.eye(2)
    sys_ = ShiftSystem(
        alphabet_size=3, measure=BernoulliMeasure(weights=(0.2, 0.3, 0.5))
    )
    return sys_, LocallyConstantCocycle(table=tab, depth=2, alphabet_size=3)


class TestExactOracle:
    """finite_time_exponents against products taken exactly in rationals,
    which share no arithmetic with the scan: a walk of the tail word
    alone, one word short, an exact word, one word plus a step, and
    several words plus a remainder."""

    @pytest.mark.parametrize("setting", ["shipped", "random"])
    def test_exponents_match_exact_products(self, setting):
        make = _shipped_gapped if setting == "shipped" else _random_depth2_alphabet3
        sys_, spec = make()
        k = engine._word_length(sys_.alphabet_size)
        for n in (1, k - 1, k, k + 1, 30):
            pts = sample_points(sys_, 5, n + spec.depth, seed=n)
            ft = finite_time_exponents(spec, sys_, pts, n)
            for i, x in enumerate(pts):
                plus, minus = _exact_exponents(spec, x, n)
                assert abs(ft.plus[i] - plus) < 1e-13
                assert abs(ft.minus[i] - minus) < 1e-13
