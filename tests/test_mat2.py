"""Closed-form 2x2 kernels against numpy.linalg and series oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cocyclelab import mat2
from cocyclelab.errors import SingularValueError
from oracles import adjugate_batch, expm_all_terms, rotation, same_values


def random_entries(count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return tuple(scale * rng.standard_normal(count) for _ in range(4))


def as_matrices(a, b, c, d):
    return np.stack(
        [np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2
    )


def taylor_expm(m, terms=80):
    out = np.eye(2)
    term = np.eye(2)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def two_branch_expm(a, b, c, d):
    """The exponential with every branch evaluated and then selected: the
    bitwise oracle for ``expm_batch``, which evaluates only the branches
    its entries need."""
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
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
    series = np.abs(w2) < mat2._EXPM_SERIES_CUT
    cosh_term = np.where(series, 1.0 + 0.5 * w2, cosh_term)
    sinhc_term = np.where(series, 1.0 + w2 / 6.0, sinhc_term)
    scale = np.exp(s)
    return (
        scale * (cosh_term + sinhc_term * na),
        scale * (sinhc_term * b),
        scale * (sinhc_term * c),
        scale * (cosh_term + sinhc_term * nd),
    )


def with_w2(w2):
    """Entries (0, 1, w2, 0): a traceless matrix whose w2 is exactly w2."""
    w2 = np.asarray(w2, dtype=float)
    return np.zeros_like(w2), np.ones_like(w2), w2, np.zeros_like(w2)


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestSingularValues:
    def test_matches_numpy_svd(self):
        a, b, c, d = random_entries(500, seed=1)
        s1 = mat2.opnorm_batch(a, b, c, d)
        mats = as_matrices(a, b, c, d)
        ref = np.linalg.svd(mats, compute_uv=False)
        assert np.allclose(s1, ref[:, 0], rtol=1e-12, atol=1e-13)

    def test_second_singular_value_small_det(self):
        # sigma2 through |det|/sigma1 keeps full relative accuracy even when
        # the matrix is nearly singular and the naive subtraction would not.
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        s1, s2 = mat2.singular_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert s1 == pytest.approx(ref[0], rel=1e-12)
        assert s2 == pytest.approx(ref[1], rel=1e-6)
        assert s1 * s2 == pytest.approx(abs(np.linalg.det(m)), rel=1e-12)

    def test_diagonal_exact(self):
        s1, s2 = mat2.singular_values(np.diag([2.0, 0.5]))
        assert s1 == 2.0
        assert s2 == 0.5

    def test_huge_scale(self):
        a, b, c, d = random_entries(100, seed=2, scale=1e8)
        s1 = mat2.opnorm_batch(a, b, c, d)
        ref = np.linalg.svd(as_matrices(a, b, c, d), compute_uv=False)
        assert np.allclose(s1, ref[:, 0], rtol=1e-12)


class TestEigenvectors:
    def test_right_singular_direction(self):
        a, b, c, d = random_entries(300, seed=3)
        vx, vy = mat2.right_singular_components(a, b, c, d)
        mats = as_matrices(a, b, c, d)
        _, _, vh = np.linalg.svd(mats)
        ref = vh[:, 0, :]  # top right-singular vectors
        ours = np.stack([vx, vy], axis=-1)
        ours = ours / np.linalg.norm(ours, axis=-1, keepdims=True)
        dots = np.abs(np.sum(ours * ref, axis=-1))
        assert np.allclose(dots, 1.0, atol=1e-10)

    def test_left_singular_direction(self):
        a, b, c, d = random_entries(300, seed=4)
        vx, vy = mat2.left_singular_components(a, b, c, d)
        mats = as_matrices(a, b, c, d)
        u, _, _ = np.linalg.svd(mats)
        ref = u[:, :, 0]
        ours = np.stack([vx, vy], axis=-1)
        ours = ours / np.linalg.norm(ours, axis=-1, keepdims=True)
        dots = np.abs(np.sum(ours * ref, axis=-1))
        assert np.allclose(dots, 1.0, atol=1e-10)

    def test_diagonal_axes_exact(self):
        # diag(2, 1/2): top right-singular direction is exactly e1.
        vx, vy = mat2.right_singular_components(
            np.array([2.0]), np.array([0.0]), np.array([0.0]), np.array([0.5])
        )
        assert vy[0] == 0.0 and vx[0] > 0.0
        vx, vy = mat2.right_singular_components(
            np.array([0.5]), np.array([0.0]), np.array([0.0]), np.array([2.0])
        )
        assert vx[0] == 0.0 and vy[0] > 0.0


class TestExpm:
    def test_matches_taylor(self):
        a, b, c, d = random_entries(200, seed=5)
        ea, eb, ec, ed = mat2.expm_batch(a, b, c, d)
        for i in range(200):
            ref = taylor_expm(np.array([[a[i], b[i]], [c[i], d[i]]]))
            got = np.array([[ea[i], eb[i]], [ec[i], ed[i]]])
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-13)

    def test_nilpotent(self):
        got = mat2.expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(got, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rotation_generator(self):
        th = 0.7
        got = mat2.expm(np.array([[0.0, -th], [th, 0.0]]))
        assert np.allclose(got, rotation(th), atol=1e-15)

    def test_near_degenerate_series_branch(self):
        # w2 ~ 1e-13 sits below the series cut; compare with the oracle.
        m = np.array([[1e-7, 1.0], [1e-13, -1e-7]])
        got = mat2.expm(m)
        assert np.allclose(got, taylor_expm(m), rtol=1e-12, atol=1e-15)

    def test_scaling(self):
        m = np.array([[0.3, -0.2], [0.5, 0.1]])
        one = mat2.expm(m)
        half = mat2.expm(m / 2)
        assert np.allclose(half @ half, one, rtol=1e-13, atol=1e-14)


class TestExpmBranches:
    """expm_batch evaluates only the branches its entries need; every
    output bit matches the formula that evaluates them all."""

    CUT = mat2._EXPM_SERIES_CUT

    @pytest.mark.parametrize(
        "w2",
        [
            pytest.param([0.25, 4.0, 700.0**2], id="hyperbolic"),
            pytest.param([-0.25, -4.0, -1e6], id="trig"),
            pytest.param([0.0, 0.0], id="zero"),
            pytest.param(
                [np.nextafter(CUT, 0.0), CUT, np.nextafter(CUT, 1.0), 1e-13, 1e-11],
                id="cut-positive",
            ),
            pytest.param(
                [-np.nextafter(CUT, 0.0), -CUT, -np.nextafter(CUT, 1.0), -1e-13, -1e-11],
                id="cut-negative",
            ),
            pytest.param([np.inf, -np.inf, 1.0, -1.0], id="infinite"),
            pytest.param([5e-324, -5e-324, 1e-300, -1e-300], id="tiny"),
        ],
    )
    def test_w2_classes_match_oracle(self, w2):
        got = mat2.expm_batch(*with_w2(w2))
        ref = two_branch_expm(*with_w2(w2))
        assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.parametrize("scale", [1e-7, 1e-3, 1.0, 30.0])
    def test_mixed_branches_match_oracle(self, scale):
        a, b, c, d = random_entries(2000, seed=11, scale=scale)
        b[::7] = 0.0  # w2 = na^2 >= 0
        c[::5] = 0.0
        a[::9] = d[::9]  # na = 0, so w2 = 0 where b or c is also zero
        w2 = (0.5 * (a - d)) ** 2 + b * c
        assert (w2 > 0).any() and (w2 < 0).any()
        got = mat2.expm_batch(a, b, c, d)
        ref = two_branch_expm(a, b, c, d)
        assert all(same_bits(g, r) for g, r in zip(got, ref))

    def test_zero_d_scalars(self):
        for entries in [(0.0, 1.0, -2.0, 0.0), (0.3, 1.0, 2.0, -0.1), (1.0, 0.0, 0.0, 1.0),
                        (0.0, 1.0, 1e-13, 0.0)]:
            got = mat2.expm_batch(*entries)
            ref = two_branch_expm(*entries)
            assert all(np.ndim(g) == 0 for g in got)
            assert all(same_bits(g, r) for g, r in zip(got, ref))
            m = np.array(entries).reshape(2, 2)
            assert same_bits(mat2.expm(m), np.array(ref).reshape(2, 2))

    @pytest.mark.parametrize("shift", [0.0, 0.4], ids=["traceless", "trace"])
    def test_size_column_broadcast(self, shift):
        # the (T, 1) sizes times (S,) direction entries of a stacked spec
        t = (2.0 ** -np.arange(1, 11))[:, None]
        a, b, c, d = random_entries(512, seed=3)
        b, c = np.abs(b) + 0.1, -np.abs(c) - 0.1
        a = 0.1 * a + shift
        d = -0.1 * a + shift
        args = (t * a, t * b, t * c, t * d)
        got = mat2.expm_batch(*args)
        ref = two_branch_expm(*args)
        assert got[0].shape == (10, 512)
        assert all(same_bits(g, r) for g, r in zip(got, ref))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cosh_overflows_only_on_its_branch(self):
        # w = 1000 on the trig branch overflows cosh, which it never reads
        mat2.expm_batch(*with_w2([-1e6]))
        mat2.expm_batch(*with_w2([-1e6, 4.0]))


# (b, c) pairs over every w2 class of a traceless matrix with na = 0:
# trig, hyperbolic, zero, both sides of the series cut, infinite and NaN
OFF_DIAGONALS = [
    (1.0, -2.0), (1.0, 2.0), (0.0, 0.0), (0.0, -0.0), (1.0, 1e-13), (1.0, -1e-13),
    (-3.0, 700.0), (np.inf, 1.0), (np.inf, -1.0), (-np.inf, 2.0), (np.inf, 0.0),
    (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
]


def entries_with_diagonal(diagonals):
    """Every (a, d) of ``diagonals`` with every off-diagonal pair."""
    rows = [(a, b, c, d) for a, d in diagonals for b, c in OFF_DIAGONALS]
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


def w2_of(a, b, c, d):
    with np.errstate(invalid="ignore", over="ignore"):
        na = a - 0.5 * (a + d)
        return na * na + b * c


class TestExpmTraceless:
    """A batch whose every s = (a + d) / 2 is +-0 skips the shift and the
    e^s scale, which is exactly 1; every output bit is kept."""

    TRACELESS = [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (0.3, -0.3), (-0.3, 0.3)]
    TRACED = [(0.4, 0.4), (0.7, -0.1), (-0.0, 1e-300), (800.0, 800.0), (np.inf, 0.0)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_skip_matches_the_scaled_path(self):
        a, b, c, d = entries_with_diagonal(self.TRACELESS)
        assert not (0.5 * (a + d)).any()
        got = mat2.expm_batch(a, b, c, d)
        # one traced entry more sends the whole batch through the scale
        scaled = mat2.expm_batch(*(np.append(x, v) for x, v in zip((a, b, c, d), (1, 0, 0, 1))))
        assert all(same_bits(g, s[:-1]) for g, s in zip(got, scaled))
        for i, row in enumerate(zip(a, b, c, d)):  # 0-d input skips alone
            one = mat2.expm_batch(*row)
            assert all(np.ndim(x) == 0 and same_bits(x, g[i]) for x, g in zip(one, got))

    @pytest.mark.parametrize("kind", ["traceless", "traced"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_oracle(self, kind):
        # the oracle selects 1.0 for sinhc where w2 is NaN (see
        # TestExpmBranches), so only the entries with a w2 are compared
        a, b, c, d = entries_with_diagonal(
            self.TRACELESS if kind == "traceless" else self.TRACED
        )
        keep = ~np.isnan(w2_of(a, b, c, d))
        assert keep.sum() >= 40
        a, b, c, d = (x[keep] for x in (a, b, c, d))
        got = mat2.expm_batch(a, b, c, d)
        ref = two_branch_expm(a, b, c, d)
        assert all(same_bits(g, r) for g, r in zip(got, ref))


class TestExpmZeroDiagonal:
    """A batch whose diagonal is zero throughout skips the terms that read
    it; every entry matches the formula that forms them all, sign bits and
    NaNs included, and the full formula is taken where sinhc is not
    finite."""

    ZERO_DIAGONALS = [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)]
    # w = 800 and 1000 overflow cosh and sinh: exp(M) has inf off the
    # diagonal and inf * 0 = NaN on it
    OVERFLOW = [(800.0, 800.0), (1000.0, 1000.0), (-800.0, -800.0)]
    FINITE = [bc for bc in OFF_DIAGONALS if np.all(np.isfinite(bc))] + [(700.0, 700.0)]

    @staticmethod
    def batch(diagonals, off_diagonals):
        rows = [(a, b, c, d) for a, d in diagonals for b, c in off_diagonals]
        return tuple(np.array(col, dtype=float) for col in zip(*rows))

    @pytest.mark.parametrize("kind", ["finite", "overflow", "non-finite"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_all_terms(self, kind):
        offs = {
            "finite": self.FINITE,
            "overflow": self.FINITE + self.OVERFLOW,
            "non-finite": OFF_DIAGONALS,
        }[kind]
        a, b, c, d = self.batch(self.ZERO_DIAGONALS, offs)
        assert not (a.any() or d.any())
        got = mat2.expm_batch(a, b, c, d)
        ref = expm_all_terms(a, b, c, d)
        assert all(same_values(g, r) for g, r in zip(got, ref))
        if kind != "finite":
            assert np.isnan(ref[0]).any()
        for i, row in enumerate(zip(a, b, c, d)):  # 0-d input alone
            one = mat2.expm_batch(*row)
            assert all(np.ndim(x) == 0 and same_values(x, g[i]) for x, g in zip(one, got))

    def test_series_entries(self):
        # |w2| = |b c| below the cut, on both sides of zero
        b = np.array([1.0, 1.0, 1e-7, -1e-7, 0.0, 3e-7])
        c = np.array([1e-13, -1e-13, 1e-7, 1e-7, 0.0, -3e-7])
        zero = np.zeros_like(b)
        for a, d in self.ZERO_DIAGONALS:
            entries = (np.copysign(zero, a), b, c, np.copysign(zero, d))
            got = mat2.expm_batch(*entries)
            assert all(same_values(g, r) for g, r in zip(got, expm_all_terms(*entries)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_size_column(self):
        # the (T, 1) sizes of a stack times a zero-diagonal direction; t < 0
        # makes the diagonal -0.0
        t = np.array([0.5, 0.25, -0.25, 2.0**-10])[:, None]
        _, b, c, _ = self.batch([(0.0, 0.0)], self.FINITE + self.OVERFLOW)
        args = (t * np.zeros_like(b), t * b, t * c, t * np.zeros_like(b))
        got = mat2.expm_batch(*args)
        assert got[0].shape == (4, b.size)
        assert all(same_values(g, r) for g, r in zip(got, expm_all_terms(*args)))


class TestInverseAdjugate:
    def test_inverse_exact_on_integers(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        inv = mat2.inverse(m)
        assert np.array_equal(inv, np.array([[1.0, -1.0], [-1.0, 2.0]]))
        assert np.array_equal(m @ inv, np.eye(2))

    def test_inverse_singular_raises(self):
        with pytest.raises(SingularValueError):
            mat2.inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_adjugate_identity(self):
        a, b, c, d = random_entries(100, seed=6)
        aa, ab, ac, ad = adjugate_batch(a, b, c, d)
        det = a * d - b * c
        pa, pb, pc, pd = mat2.matmul_batch(a, b, c, d, aa, ab, ac, ad)
        assert np.allclose(pa, det) and np.allclose(pd, det)
        assert np.allclose(pb, 0.0, atol=1e-12) and np.allclose(pc, 0.0, atol=1e-12)

    def test_adjugate_norm_equals_opnorm(self):
        # For 2x2 the adjugate shares both singular values with the matrix.
        a, b, c, d = random_entries(100, seed=7)
        na = mat2.opnorm_batch(*adjugate_batch(a, b, c, d))
        nm = mat2.opnorm_batch(a, b, c, d)
        assert np.allclose(na, nm, rtol=1e-12)


EPS = np.finfo(float).eps


class TestRegular:
    """The one invertibility rule: |det| >= eps |A|_F^2 with a finite,
    nonzero squared Frobenius norm."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m, ok",
        [
            # diag(1, delta): |A|_F^2 rounds to 1, so |det| / |A|_F^2 = delta
            (np.diag([1.0, 1.01 * EPS]), True),
            (np.diag([1.0, 0.99 * EPS]), False),
            (np.ldexp(np.eye(2), 254), True),
            (np.ldexp(np.eye(2), -500), True),
            (np.zeros((2, 2)), False),
            (np.diag([np.nan, 1.0]), False),
            (np.diag([np.inf, 1.0]), False),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), False),
            # |A|_F^2 of 2**511 and up: past the range where opnorm_batch's
            # squares of squares stay finite
            (np.ldexp(np.eye(2), 255), False),
            (np.ldexp(np.eye(2), 500), False),
            # finite entries whose squared norm overflows
            (np.ldexp(np.eye(2), 512), False),
            (np.array([[1.0, 2.0], [2.0, 4.0]]), False),
        ],
        ids=[
            "eps*1.01", "eps*0.99", "2**254 I", "2**-500 I", "zero", "nan", "inf",
            "inf-off-diagonal", "2**255 I", "2**500 I", "norm-overflows",
            "rank-one",
        ],
    )
    def test_boundary(self, m, ok):
        got = mat2.regular(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        assert got == ok
        # the batched form gives the same verdict, row by row
        batch = mat2.regular(*(np.array([x, 1.0]) for x in m.ravel()))
        assert batch.tolist() == [ok, False]
        # a passing matrix has a finite norm
        if ok:
            assert np.isfinite(mat2.opnorm(m))

    @pytest.mark.filterwarnings("error")
    def test_det_passed_in_is_the_det(self):
        a, b, c, d = random_entries(2000, seed=13)
        d = b * c / a + np.geomspace(1e-18, 1e-13, a.size) * np.abs(a)
        ref = mat2.regular(a, b, c, d)
        assert np.array_equal(mat2.regular(a, b, c, d, a * d - b * c), ref)

    @pytest.mark.parametrize("k", [-200, -30, 0, 30, 200])
    def test_scale_free(self, k):
        a, b, c, d = random_entries(2000, seed=12)
        # a spread of ratios on both sides of eps
        d = b * c / a + np.geomspace(1e-18, 1e-13, a.size) * np.abs(a)
        ref = mat2.regular(a, b, c, d)
        assert 0 < ref.sum() < ref.size
        scaled = mat2.regular(*(np.ldexp(x, k) for x in (a, b, c, d)))
        assert np.array_equal(scaled, ref)

    def test_inverse_rejects_noise_determinant(self):
        with pytest.raises(SingularValueError):
            mat2.inverse(np.diag([1.0, 0.5 * EPS]))
        # scale alone is no reason to refuse
        assert mat2.inverse(np.ldexp(np.eye(2), -60))[0, 0] == 2.0**60


class TestRotation:
    def test_orthogonal(self):
        r = rotation(1.234)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_turn(self):
        r = rotation(math.pi / 2)
        assert np.allclose(r, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15)


class TestMatmulMatvec:
    def test_matmul_matches_numpy(self):
        x = random_entries(50, seed=8)
        y = random_entries(50, seed=9)
        got = as_matrices(*mat2.matmul_batch(*x, *y))
        ref = as_matrices(*x) @ as_matrices(*y)
        assert np.allclose(got, ref, rtol=1e-15)

    def test_matvec_matches_numpy(self):
        a, b, c, d = random_entries(50, seed=10)
        rng = np.random.default_rng(11)
        vx, vy = rng.standard_normal(50), rng.standard_normal(50)
        gx, gy = mat2.matvec_batch(a, b, c, d, vx, vy)
        ref = np.einsum(
            "nij,nj->ni", as_matrices(a, b, c, d), np.stack([vx, vy], axis=-1)
        )
        assert np.allclose(np.stack([gx, gy], axis=-1), ref, rtol=1e-14)
