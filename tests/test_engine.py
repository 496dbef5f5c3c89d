"""Batched iteration kernels against the per-point reference path."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import engine, mat2
from cocyclelab.base import (
    ShiftPoint,
    TorusPoint,
    apply_f,
    sample_points,
)
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
    product,
)
from cocyclelab.errors import ConfigError, HorizonExceeded, SingularValueError
from cocyclelab.oseledets import stable_directions, unstable_directions
from cocyclelab.spectrum import finite_time_exponents, lyapunov_exponents

D = np.diag([2.0, 0.5])


def lc_spec():
    return LocallyConstantCocycle(table=np.array([D, mat2.rotation(0.6) @ D]))


class TestBatches:
    def test_batch_round_trip(self, shift2, cat):
        pts = sample_points(shift2, 6, 8, seed=1)
        batch = engine.batch_of(shift2, pts)
        assert batch.size == 6
        assert not batch.windows.flags.writeable
        tpts = sample_points(cat, 6, 0, seed=1)
        tbatch = engine.batch_of(cat, tpts)
        assert np.array_equal(tbatch.coords, np.array([[p.u, p.v] for p in tpts]))

    def test_mixed_windows_rejected(self, shift2):
        a = ShiftPoint(window=np.zeros(5, dtype=np.int16))
        b = ShiftPoint(window=np.zeros(7, dtype=np.int16))
        with pytest.raises(ConfigError):
            engine.batch_of(shift2, [a, b])

    def test_mixed_point_types_rejected(self, shift2, cat):
        spts = sample_points(shift2, 3, 4, seed=1)
        tpts = sample_points(cat, 3, 0, seed=1)
        for sys_, pts in ((shift2, tpts), (cat, spts)):
            with pytest.raises(ConfigError):
                engine.batch_of(sys_, pts)
            with pytest.raises(ConfigError):
                engine.batch_of(sys_, [pts[0], pts[1]])
        with pytest.raises(ConfigError):
            engine.batch_of(shift2, [spts[0], tpts[0]])
        with pytest.raises(ConfigError):
            engine.batch_of(cat, [tpts[0], spts[0]])

    def test_draw_batch_is_a_view(self, shift2, cat):
        draw = sample_points(shift2, 10, 6, seed=3)
        batch = engine.batch_of(shift2, draw[2:7])
        assert np.shares_memory(batch.windows, draw.windows)
        assert batch.horizon == 6 and np.all(batch.offsets == 0)
        listed = engine.batch_of(shift2, [draw[i] for i in range(2, 7)])
        assert np.array_equal(batch.windows, listed.windows)
        tdraw = sample_points(cat, 10, 0, seed=3)
        tbatch = engine.batch_of(cat, tdraw[2:7])
        assert np.array_equal(tbatch.coords, tdraw.coords[2:7])
        engine.step(cat, tbatch, 1)
        assert np.array_equal(tdraw.coords, sample_points(cat, 10, 0, seed=3).coords)

    def test_stacked_blocks_are_narrower(self):
        # with 13 members per sample a block holds STACK_SPAN // 13 samples
        seen = []

        def fn(start, stop):
            seen.append((start, stop))
            return (np.arange(start, stop),)

        (out,) = engine.block_map(fn, 2000, rows=13)
        width = engine.STACK_SPAN // 13
        assert width < engine.BLOCK
        assert seen[:2] == [(0, width), (width, 2 * width)]
        assert np.array_equal(out, np.arange(2000))

    def test_step_matches_apply_f(self, shift2, cat):
        pts = sample_points(shift2, 4, 6, seed=2)
        batch = engine.batch_of(shift2, pts)
        engine.step(shift2, batch, 3)
        assert np.all(batch.offsets == 3)
        tpts = sample_points(cat, 4, 0, seed=2)
        tbatch = engine.batch_of(cat, tpts)
        engine.step(cat, tbatch, 2)
        for i, p in enumerate(tpts):
            q = apply_f(cat, p, 2)
            assert (tbatch.coords[i, 0], tbatch.coords[i, 1]) == (q.u, q.v)
        engine.step(cat, tbatch, -2)
        for i, p in enumerate(tpts):
            q = apply_f(cat, apply_f(cat, p, 2), -2)
            assert (tbatch.coords[i, 0], tbatch.coords[i, 1]) == (q.u, q.v)

    def test_step_past_horizon_raises(self, shift2):
        pts = sample_points(shift2, 2, 3, seed=3)
        batch = engine.batch_of(shift2, pts)
        with pytest.raises(HorizonExceeded):
            engine.step(shift2, batch, 4)


class TestValues:
    def test_symbol_blocks(self, shift2):
        spec = lc_spec()
        pts = sample_points(shift2, 8, 6, seed=4)
        batch = engine.batch_of(shift2, pts)
        va, vb, vc, vd = engine.values(spec, shift2, batch)
        for i, p in enumerate(pts):
            ref = spec.table[p.symbol(0)]
            assert (va[i], vb[i], vc[i], vd[i]) == tuple(ref.ravel())

    def test_torus_values(self, cat):
        spec = PointwiseCocycle(factors=(RotationFactor(angle=TrigExpr(sin_u=0.5)),))
        pts = sample_points(cat, 8, 0, seed=5)
        batch = engine.batch_of(cat, pts)
        va, vb, vc, vd = engine.values(spec, cat, batch)
        th = 0.5 * np.sin(2 * np.pi * np.array([p.u for p in pts]))
        assert np.allclose(va, np.cos(th))
        assert np.allclose(vc, np.sin(th))


class TestScans:
    def test_forward_scan_matches_products(self, shift2):
        spec = lc_spec()
        pts = sample_points(shift2, 10, 25, seed=6)
        fwd = engine.forward_scan(spec, shift2, engine.batch_of(shift2, pts), 20)
        st = engine.exponent_scan(spec, shift2, engine.batch_of(shift2, pts), 20)
        for i, x in enumerate(pts):
            plain = product(spec, shift2, x, 20)
            for scan in (fwd, st):
                got = np.exp(scan.log_scale[i]) * np.array(
                    [[scan.a[i], scan.b[i]], [scan.c[i], scan.d[i]]]
                )
                assert mat2.opnorm(got - plain) / mat2.opnorm(plain) < 1e-9
            inv_plain = np.linalg.inv(plain)
            inv_got = np.exp(st.inv_log_scale[i]) * np.array(
                [[st.inv_a[i], st.inv_b[i]], [st.inv_c[i], st.inv_d[i]]]
            )
            # inverting the badly conditioned reference product costs
            # cond * eps of relative accuracy, so the bound is looser here
            assert mat2.opnorm(inv_got - inv_plain) / mat2.opnorm(inv_plain) < 1e-5
            det_plain = np.linalg.det(plain)
            # det of the rounded reference product is itself only good to
            # about cond * eps, so the comparison cannot be tighter
            for scan in (fwd, st):
                assert scan.logdet[i] == pytest.approx(np.log(abs(det_plain)), abs=1e-6)

    def test_mixed_offsets_match_products(self, shift2):
        spec = lc_spec()
        draw = sample_points(shift2, 3, 30, seed=14)
        pts = [ShiftPoint(window=p.window, offset=o) for p, o in zip(draw, (0, 3, -4))]
        n = 12
        scans = (
            (engine.forward_scan, 0),
            (engine.exponent_scan, 0),
            (engine.backward_scan, -n),
        )
        for scan, start in scans:
            st = scan(spec, shift2, engine.batch_of(shift2, pts), n)
            for i, x in enumerate(pts):
                ref = product(spec, shift2, apply_f(shift2, x, start), n)
                got = np.exp(st.log_scale[i]) * np.array(
                    [[st.a[i], st.b[i]], [st.c[i], st.d[i]]]
                )
                assert mat2.opnorm(got - ref) / mat2.opnorm(ref) < 1e-12

    def test_backward_scan_is_backward_window(self, cat):
        spec = PointwiseCocycle(
            factors=(
                RotationFactor(angle=TrigExpr(cos_u=0.4)),
                RotationFactor(angle=TrigExpr(const=0.0)),
            )
        )
        dil = ConstantCocycle(matrix=D)
        for spec_k in (spec, None):
            pass
        pts = sample_points(cat, 5, 0, seed=7)
        batch = engine.batch_of(cat, pts)
        st = engine.backward_scan(spec, cat, batch, 12)
        for i, x in enumerate(pts):
            ref = product(spec, cat, apply_f(cat, x, -12), 12)
            got = np.exp(st.log_scale[i]) * np.array(
                [[st.a[i], st.b[i]], [st.c[i], st.d[i]]]
            )
            assert mat2.opnorm(got - ref) / mat2.opnorm(ref) < 1e-9
        # batch ends at f^{-12} of the start
        for i, x in enumerate(pts):
            q = apply_f(cat, x, -12)
            assert (batch.coords[i, 0], batch.coords[i, 1]) == (q.u, q.v)

    def test_forward_record_paths(self, shift2):
        spec = lc_spec()
        pts = sample_points(shift2, 3, 12, seed=8)
        batch = engine.batch_of(shift2, pts)
        ls_path, ldet_path = engine.forward_record(spec, shift2, batch, 10)
        assert ls_path.shape == (10, 3)
        for i, x in enumerate(pts):
            for n in (1, 5, 10):
                plain = product(spec, shift2, x, n)
                assert ls_path[n - 1, i] == pytest.approx(
                    np.log(mat2.opnorm(plain)), rel=1e-9
                )
                assert ldet_path[n - 1, i] == pytest.approx(
                    np.log(abs(np.linalg.det(plain))), rel=1e-9
                )

    def test_scan_normalized_unit_norm(self, shift2):
        spec = lc_spec()
        pts = sample_points(shift2, 4, 35, seed=9)
        batch = engine.batch_of(shift2, pts)
        st = engine.forward_scan(spec, shift2, batch, 30)
        norms = mat2.opnorm_batch(st.a, st.b, st.c, st.d)
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestBlockMap:
    def test_thread_counts_agree_bitwise(self):
        def job(start, stop):
            idx = np.arange(start, stop, dtype=float)
            rng = np.random.default_rng(1234)
            noise = rng.random(5000)
            return (np.sin(idx) + noise[start:stop], idx ** 2)

        single = engine.block_map(job, 5000, threads=1)
        multi = engine.block_map(job, 5000, threads=8)
        assert np.array_equal(single[0], multi[0])
        assert np.array_equal(single[1], multi[1])

    def test_block_layout(self):
        calls = []

        def job(start, stop):
            calls.append((start, stop))
            return (np.zeros(stop - start),)

        width = engine.BLOCK
        count = 2 * width + 452
        out = engine.block_map(job, count, threads=1)
        assert calls == [(0, width), (width, 2 * width), (2 * width, count)]
        assert out[0].shape == (count,)


class TestBlockWidth:
    @pytest.mark.parametrize("base", ["shift2", "cat"])
    def test_outputs_do_not_depend_on_block_width(self, base, request, monkeypatch):
        sys_ = request.getfixturevalue(base)
        if base == "shift2":
            spec = lc_spec()
            points = sample_points(sys_, 5000, 40, seed=10)
        else:
            spec = PointwiseCocycle(
                factors=(
                    RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1)),
                    ConstantFactor(matrix=np.diag([1.5, 1 / 1.5])),
                )
            )
            points = sample_points(sys_, 5000, 0, seed=10)
        runs = []
        for width in (1024, 4096):
            monkeypatch.setattr(engine, "BLOCK", width)
            ft = finite_time_exponents(spec, sys_, points, 30)
            runs.append(
                (ft.plus, ft.minus, ft.logdet_rate)
                + unstable_directions(spec, sys_, points, 12)
                + stable_directions(spec, sys_, points, 12)
            )
        for narrow, wide in zip(*runs):
            assert np.array_equal(narrow, wide)


def depth2_spec():
    """Reads two symbols per step, so the window edge differs from n."""
    r = mat2.rotation(0.4)
    return LocallyConstantCocycle(
        table=np.array([D, r @ D, D @ r, r @ D @ r]), depth=2, alphabet_size=2
    )


def window_batch(sys_, horizon, offsets=(0,)):
    rng = np.random.default_rng(horizon)
    window = rng.integers(0, 2, 2 * horizon + 1).astype(np.int16)
    return engine.batch_of(sys_, [ShiftPoint(window=window, offset=o) for o in offsets])


class TestHorizonEdges:
    """The once-per-scan window check admits exactly the symbols a scan
    reads and refuses a window one symbol shorter."""

    N = 10

    @pytest.mark.parametrize("scan", ["forward_scan", "exponent_scan", "forward_record"])
    def test_forward_reads_n_plus_depth_minus_one_symbols(self, shift2, scan):
        spec, n = depth2_spec(), self.N
        run = getattr(engine, scan)
        exact = n + spec.symbol_depth - 2  # symbols 0 .. n + depth - 2
        batch = window_batch(shift2, exact)
        run(spec, shift2, batch, n)
        assert np.all(batch.offsets == n - 1)
        with pytest.raises(HorizonExceeded):
            run(spec, shift2, window_batch(shift2, exact - 1), n)

    def test_backward_reads_n_symbols_behind(self, shift2):
        spec, n = depth2_spec(), self.N
        batch = window_batch(shift2, n)
        engine.backward_scan(spec, shift2, batch, n)
        assert np.all(batch.offsets == -n)
        with pytest.raises(HorizonExceeded):
            engine.backward_scan(spec, shift2, window_batch(shift2, n - 1), n)

    def test_check_covers_every_sample_offset(self, shift2):
        spec, n = depth2_spec(), self.N
        exact = n + spec.symbol_depth - 2
        # the sample one step ahead needs one more symbol forward ...
        engine.forward_scan(spec, shift2, window_batch(shift2, exact + 1, (0, 1)), n)
        with pytest.raises(HorizonExceeded):
            engine.forward_scan(spec, shift2, window_batch(shift2, exact, (0, 1)), n)
        # ... and the sample one step behind one more backward
        engine.backward_scan(spec, shift2, window_batch(shift2, n + 1, (0, -1)), n)
        with pytest.raises(HorizonExceeded):
            engine.backward_scan(spec, shift2, window_batch(shift2, n, (0, -1)), n)

    def test_lyapunov_points_end_to_end(self, shift2):
        spec, n = depth2_spec(), self.N
        exact = n + spec.symbol_depth - 2
        points = sample_points(shift2, 6, exact, seed=11)
        rep = lyapunov_exponents(spec, shift2, n=n, points=points)
        assert rep.samples == 6
        short = sample_points(shift2, 6, exact - 1, seed=11)
        with pytest.raises(HorizonExceeded):
            lyapunov_exponents(spec, shift2, n=n, points=short)


class TestSingularSteps:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scan", ["forward_scan", "backward_scan", "forward_record", "exponent_scan"]
    )
    def test_singular_step_raises_without_warnings(self, shift2, scan):
        spec = LocallyConstantCocycle(
            table=np.array([D, np.zeros((2, 2))]), invertible=False
        )
        # the singular symbol sits two steps ahead and two steps behind
        pts = [ShiftPoint(window=np.array([0, 0, 1, 0, 0, 0, 1, 0, 0], dtype=np.int16))]
        batch = engine.batch_of(shift2, pts * 3)
        with pytest.raises(SingularValueError):
            getattr(engine, scan)(spec, shift2, batch, 4)
