"""Batched iteration kernels against the per-point reference path."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import engine, mat2
from cocyclelab.base import (
    BernoulliMeasure,
    ShiftPoint,
    ShiftSystem,
    TorusPoint,
    apply_f,
    sample_points,
)
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PerturbedCocycle,
    PointwiseCocycle,
    RotationFactor,
    StackedCocycle,
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

    def test_pushed_draw_matches_apply_f(self, shift2, cat):
        draw = sample_points(shift2, 5, 2, seed=4)
        moved = engine.pushed(shift2, draw)
        assert np.shares_memory(moved.windows, draw.windows)
        for p, got in zip(draw, moved):
            q = apply_f(shift2, p, 1)
            assert got.offset == q.offset == 1
            assert [got.symbol(j) for j in (-3, 0, 1)] == [
                q.symbol(j) for j in (-3, 0, 1)
            ]
        assert np.array_equal(moved.symbols(1), [p.symbol(2) for p in draw])
        assert np.all(engine.batch_of(shift2, moved[2:4]).offsets == 1)
        # one more push stands at the edge; a third leaves the window, as
        # apply_f does
        edge = engine.pushed(shift2, moved)
        with pytest.raises(HorizonExceeded):
            apply_f(shift2, edge[0], 1)
        with pytest.raises(HorizonExceeded):
            engine.pushed(shift2, edge)
        with pytest.raises(HorizonExceeded):
            edge.symbols(1)
        tdraw = sample_points(cat, 5, 0, seed=4)
        tmoved = engine.pushed(cat, tdraw)
        for p, q in zip(tdraw, tmoved):
            r = apply_f(cat, p, 1)
            assert (q.u, q.v) == (r.u, r.v)

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
        log_scale, inv_log_scale, logdet = engine.exponent_scan(
            spec, shift2, engine.batch_of(shift2, pts), 20
        )
        for i, x in enumerate(pts):
            plain = product(spec, shift2, x, 20)
            got = np.exp(fwd.log_scale[i]) * np.array(
                [[fwd.a[i], fwd.b[i]], [fwd.c[i], fwd.d[i]]]
            )
            assert mat2.opnorm(got - plain) / mat2.opnorm(plain) < 1e-9
            # the product of step inverses, multiplied out step by step
            inv_plain = product(spec, shift2, apply_f(shift2, x, 20), -20)
            for got_log, ref in ((log_scale, plain), (inv_log_scale, inv_plain)):
                assert got_log[i] == pytest.approx(
                    np.log(mat2.opnorm(ref)), abs=1e-12
                )
            det_plain = np.linalg.det(plain)
            # det of the rounded reference product is itself only good to
            # about cond * eps, so the comparison cannot be tighter
            for got_log in (fwd.logdet, logdet):
                assert got_log[i] == pytest.approx(np.log(abs(det_plain)), abs=1e-6)

    def test_mixed_offsets_match_products(self, shift2):
        spec = lc_spec()
        draw = sample_points(shift2, 3, 30, seed=14)
        pts = [ShiftPoint(window=p.window, offset=o) for p, o in zip(draw, (0, 3, -4))]
        n = 12
        for scan, start in ((engine.forward_scan, 0), (engine.backward_scan, -n)):
            st = scan(spec, shift2, engine.batch_of(shift2, pts), n)
            for i, x in enumerate(pts):
                ref = product(spec, shift2, apply_f(shift2, x, start), n)
                got = np.exp(st.log_scale[i]) * np.array(
                    [[st.a[i], st.b[i]], [st.c[i], st.d[i]]]
                )
                assert mat2.opnorm(got - ref) / mat2.opnorm(ref) < 1e-12
        logs = engine.exponent_scan(spec, shift2, engine.batch_of(shift2, pts), n)
        for i, x in enumerate(pts):
            ref = product(spec, shift2, x, n)
            inv_ref = product(spec, shift2, apply_f(shift2, x, n), -n)
            want = (
                np.log(mat2.opnorm(ref)),
                np.log(mat2.opnorm(inv_ref)),
                np.log(abs(np.linalg.det(ref))),
            )
            # det of the rounded reference product is only good to about
            # cond * eps (see above)
            for got, w, tol in zip(logs, want, (1e-12, 1e-12, 1e-6)):
                assert got[i] == pytest.approx(w, abs=tol)

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


def without_table_hook(spec):
    """The same values, bitwise, from a spec with no symbol table, which
    the exponent scan walks a step at a time."""
    zero = LocallyConstantCocycle(
        table=np.zeros_like(spec.table), depth=spec.depth,
        alphabet_size=spec.alphabet_size, invertible=False,
    )
    return PerturbedCocycle(spec, zero, t=0.0, rule="additive")


class TestWordBlocks:
    """The exponent scan's word path: k-step factors gathered per word."""

    def test_word_length_from_alphabet(self):
        assert [engine._word_length(a) for a in (2, 3, 4, 16, 17, 300)] == [
            8, 5, 4, 2, 1, 1,
        ]

    def test_only_tables_over_the_alphabet_take_words(self, shift2, cat):
        assert engine.word_tables(lc_spec(), shift2, 10).factors.keys() == {8, 2}
        assert engine.word_tables(lc_spec(), shift2, 3).factors.keys() == {3}
        assert engine.word_tables(lc_spec(), shift2, 0) is None
        assert engine.word_tables(without_table_hook(lc_spec()), shift2, 10) is None
        shift3 = ShiftSystem(
            alphabet_size=3, measure=BernoulliMeasure(weights=(0.2, 0.3, 0.5))
        )
        assert engine.word_tables(lc_spec(), shift3, 10) is None
        torus = PointwiseCocycle(factors=(ConstantFactor(matrix=D),))
        assert engine.word_tables(torus, cat, 10) is None

    @pytest.mark.parametrize("make", [lc_spec, depth2_spec])
    def test_word_length_one_is_the_step_path(self, shift2, monkeypatch, make):
        monkeypatch.setattr(engine, "WORD_SPAN", 1)
        spec = make()
        pts = sample_points(shift2, 300, 45, seed=15)
        assert engine.word_tables(spec, shift2, 40).k == 1
        words = finite_time_exponents(spec, shift2, pts, 40)
        steps = finite_time_exponents(without_table_hook(spec), shift2, pts, 40)
        for name in ("plus", "minus", "logdet_rate"):
            assert np.array_equal(getattr(words, name), getattr(steps, name)), name

    def test_depth_expanded_stack_rows_are_member_calls(self, shift2):
        # the depth-1 member reads two symbols per step in the stack, so
        # its words there are one symbol longer, but group the same steps
        members = (lc_spec(), depth2_spec())
        pts = sample_points(shift2, 400, 45, seed=18)
        stacked = finite_time_exponents(StackedCocycle(members), shift2, pts, 43)
        for row, spec in enumerate(members):
            alone = finite_time_exponents(spec, shift2, pts, 43)
            for name in ("plus", "minus", "logdet_rate"):
                assert np.array_equal(getattr(stacked, name)[row], getattr(alone, name))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tables_built_once_per_call(self, shift2, monkeypatch, threads):
        # not once per block
        built = []
        word_factors = engine._word_factors

        def counted(*args):
            built.append(args[-1])
            return word_factors(*args)

        monkeypatch.setattr(engine, "_word_factors", counted)
        monkeypatch.setattr(engine, "BLOCK", 1024)
        pts = sample_points(shift2, 5000, 32, seed=17)
        finite_time_exponents(lc_spec(), shift2, pts, 30, threads)
        # five blocks, two word lengths: 3 words of 8 steps and a tail of 6
        assert sorted(built) == [6, 8]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_step_inside_a_word_raises(self, shift2):
        spec = LocallyConstantCocycle(
            table=np.array([D, np.zeros((2, 2))]), invertible=False
        )
        window = np.zeros(41, dtype=np.int16)
        window[20 + 11] = 1  # step 11 of 20: inside the second word
        batch = engine.batch_of(shift2, [ShiftPoint(window=window)] * 3)
        with pytest.raises(SingularValueError):
            engine.exponent_scan(spec, shift2, batch, 20)
        # a walk that stops just before the singular symbol absorbs none of it
        batch = engine.batch_of(shift2, [ShiftPoint(window=window)])
        log_scale, _, _ = engine.exponent_scan(spec, shift2, batch, 11)
        assert log_scale[0] == pytest.approx(11 * np.log(2.0), abs=1e-12)
