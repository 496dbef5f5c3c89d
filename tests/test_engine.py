"""Batched iteration kernels against the per-point reference path."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from cocyclelab import engine, mat2
from cocyclelab.base import (
    BernoulliMeasure,
    LebesgueMeasure,
    MarkovMeasure,
    ShiftDraw,
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
from oracles import rotation

D = np.diag([2.0, 0.5])


def lc_spec():
    return LocallyConstantCocycle(table=np.array([D, rotation(0.6) @ D]))


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

    @pytest.mark.parametrize("j", [400, -400], ids=["forward", "backward"])
    def test_long_torus_orbits_match_apply_f(self, cat, j):
        draw = sample_points(cat, 16, 0, seed=7)
        batch = engine.batch_of(cat, draw)
        for _ in range(abs(j)):
            engine.step(cat, batch, 1 if j > 0 else -1)
        # the same orbit reduced with % 1.0, one step at a time
        m = cat.int_matrix if j > 0 else cat.int_inverse
        u, v = draw.coords[:, 0], draw.coords[:, 1]
        for _ in range(abs(j)):
            u, v = (m[0, 0] * u + m[0, 1] * v) % 1.0, (m[1, 0] * u + m[1, 1] * v) % 1.0
        assert np.array_equal(batch.coords, np.column_stack([u, v]))
        for p, got in zip(draw, batch.coords):
            q = apply_f(cat, p, j)
            assert (q.u, q.v) == tuple(got)

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
        log_scale, logdet = engine.exponent_scan(
            spec, shift2, engine.batch_of(shift2, pts), 20
        )
        for i, x in enumerate(pts):
            plain = product(spec, shift2, x, 20)
            got = np.exp(fwd.log_scale[i]) * np.array(
                [[fwd.a[i], fwd.b[i]], [fwd.c[i], fwd.d[i]]]
            )
            assert mat2.opnorm(got - plain) / mat2.opnorm(plain) < 1e-9
            # the product of step inverses, multiplied out step by step, has
            # log norm log sigma1 - log |det| of the forward product
            inv_plain = product(spec, shift2, apply_f(shift2, x, 20), -20)
            for got_log, ref in ((log_scale, plain), (log_scale - logdet, inv_plain)):
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
        log_scale, logdet = engine.exponent_scan(
            spec, shift2, engine.batch_of(shift2, pts), n
        )
        logs = (log_scale, log_scale - logdet, logdet)
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
    r = rotation(0.4)
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

    @pytest.mark.parametrize("n", [3, 8, 16, 19])
    def test_one_exact_window_for_every_scan(self, shift2, n):
        # at depth 2 the forward scans read n symbols ahead (the word walk
        # reads depth - 1 past its last step, whatever its word lengths)
        # and the backward scan n behind, so horizon n is exact for all
        spec = depth2_spec()
        assert engine.word_tables(spec, shift2, n) is not None
        for scan in (engine.exponent_scan, engine.forward_scan, engine.backward_scan):
            scan(spec, shift2, window_batch(shift2, n), n)
            with pytest.raises(HorizonExceeded):
                scan(spec, shift2, window_batch(shift2, n - 1), n)
        # the words at the exact window are the steps' products
        words = engine.exponent_scan(spec, shift2, window_batch(shift2, n), n)
        steps = engine.exponent_scan(
            without_table_hook(spec), shift2, window_batch(shift2, n), n
        )
        for got, want in zip(words, steps):
            assert got == pytest.approx(want, abs=1e-12)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scan", ["forward_scan", "backward_scan", "forward_record", "exponent_scan"]
    )
    def test_singular_entry_never_read_passes(self, shift2, scan):
        # the rule holds on every step, so a table entry no step reads is
        # no reason to raise; the same entry read once raises
        spec = LocallyConstantCocycle(
            table=np.array([D, np.zeros((2, 2))]), invertible=False
        )
        pts = [ShiftPoint(window=np.zeros(9, dtype=np.int16))]
        batch = engine.batch_of(shift2, pts * 3)
        getattr(engine, scan)(spec, shift2, batch, 4)
        window = np.zeros(9, dtype=np.int16)
        window[4 + (-4 if scan == "backward_scan" else 3)] = 1
        batch = engine.batch_of(shift2, [ShiftPoint(window=window)] * 3)
        with pytest.raises(SingularValueError):
            getattr(engine, scan)(spec, shift2, batch, 4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "scan", ["forward_scan", "backward_scan", "forward_record", "exponent_scan"]
    )
    def test_nan_step_raises(self, shift2, scan):
        # finite specs whose composition overflows: exp(diag(1000, -1000))
        # is inf and 0, and inf * 0 makes the symbol-1 step NaN
        direction = LocallyConstantCocycle(
            table=np.array([np.zeros((2, 2)), np.diag([1e3, -1e3])]), invertible=False
        )
        spec = PerturbedCocycle(
            LocallyConstantCocycle(table=np.array([D, D])), direction,
            t=1.0, rule="multiplicative_exp",
        )
        a, _, _, _ = spec.values_at_symbols(np.array([[0], [1]]))
        assert np.isfinite(a[0]) and np.isnan(a[1])
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
        log_scale, _ = engine.exponent_scan(spec, shift2, batch, 11)
        assert log_scale[0] == pytest.approx(11 * np.log(2.0), abs=1e-12)


def random_table(alphabet, depth, seed):
    """An invertible table of alphabet**depth random matrices."""
    rng = np.random.default_rng(seed)
    tab = np.diag([1.4, 0.7]) + 0.3 * rng.standard_normal((alphabet**depth, 2, 2))
    return LocallyConstantCocycle(table=tab, depth=depth, alphabet_size=alphabet)


def markov_shift(alphabet):
    """A Markov shift in which symbol 0 never follows itself."""
    p = np.full((alphabet, alphabet), 1.0 / alphabet)
    p[0] = [0.0] + [1.0 / (alphabet - 1)] * (alphabet - 1)
    return ShiftSystem(
        alphabet_size=alphabet, measure=MarkovMeasure(matrix=tuple(map(tuple, p)))
    )


def bernoulli_shift(alphabet):
    weights = (1.0 / alphabet,) * alphabet
    return ShiftSystem(alphabet_size=alphabet, measure=BernoulliMeasure(weights=weights))


def one_point_scans(scan, spec, sys_, draw, n):
    """The scan's state fields at each point of ``draw`` from one-point
    batches, which share nothing, joined along the sample axis."""
    states = [
        scan(spec, sys_, engine.batch_of(sys_, draw[i : i + 1]), n)
        for i in range(len(draw))
    ]
    return {
        f: np.concatenate([vars(st)[f] for st in states], axis=-1)
        for f in vars(states[0])
    }


class TestScanHeads:
    """The first k steps of a draw's direction scans, walked once per word
    of the symbols they read, give bitwise the unshared walk."""

    N = 10

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("law", [bernoulli_shift, markov_shift])
    @pytest.mark.parametrize("alphabet, depth", [(2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
    def test_head_scans_are_one_point_scans(
        self, backward, law, alphabet, depth, stacked
    ):
        sys_ = law(alphabet)
        spec = random_table(alphabet, depth, seed=alphabet + depth)
        if stacked:
            spec = StackedCocycle((spec, random_table(alphabet, 1, seed=9)))
        draw = sample_points(sys_, 60, self.N + 2, seed=depth)
        scan = engine.backward_scan if backward else engine.forward_scan
        # the draw, the draw pushed by f, and points at mixed offsets
        mixed = [
            ShiftPoint(window=w, offset=i % 3 - 1) for i, w in enumerate(draw.windows)
        ]
        head = engine.scan_head(spec, sys_, 60, self.N, backward)
        assert head is not None and 1 <= head.k <= self.N
        assert head.state.a.shape[-1] == alphabet ** (head.k + depth - 1) < 60
        for points in (draw, engine.pushed(sys_, draw), mixed):
            batch = engine.batch_of(sys_, points)
            start = batch.offsets.copy()
            st = scan(spec, sys_, batch, self.N, head)
            end = -self.N if backward else self.N - 1
            assert np.array_equal(batch.offsets, start + end)
            want = one_point_scans(scan, spec, sys_, points, self.N)
            for f, x in vars(st).items():
                assert np.array_equal(x, want[f]), f

    @pytest.mark.parametrize("alphabet, n, span", [(2, 40, 0), (3, 40, 1), (5, 30, 2), (2, 3, 0)])
    def test_k_maximizes_the_sample_steps_saved(self, alphabet, n, span):
        # every word of k + span symbols is walked once, so k steps save
        # k (count - words) sample-steps; ties go to the shorter head
        count = 400 * alphabet**span
        spec = random_table(alphabet, span + 1, seed=1)
        saved = [k * (count - alphabet ** (k + span)) for k in range(1, n + 1)]
        head = engine.scan_head(spec, bernoulli_shift(alphabet), count, n, False)
        assert head.k == int(np.argmax(saved)) + 1
        assert head.state.a.size == alphabet ** (head.k + span)

    @pytest.mark.parametrize(
        "count, k", [(10_000, 10), (2_000, 8), (100, 5)], ids=["ac8", "sweep", "selftest"]
    )
    def test_the_shipped_draws_walk_every_word_once(self, shift2, count, k):
        # a Bernoulli(1/2, 1/2) depth-1 table at depth 40, as every shipped
        # shift extraction is
        for backward in (False, True):
            head = engine.scan_head(lc_spec(), shift2, count, 40, backward)
            assert (head.k, head.state.a.size) == (k, 2**k)

    def test_nothing_shared_is_no_head(self, shift2):
        # no head unless the words of one step are fewer than the samples
        assert engine.scan_head(lc_spec(), shift2, 2, 30, False) is None
        assert engine.scan_head(lc_spec(), shift2, 3, 30, False).k == 1
        assert engine.scan_head(depth2_spec(), shift2, 4, 30, True) is None
        assert engine.scan_head(depth2_spec(), shift2, 5, 30, True).k == 1
        assert engine.scan_head(lc_spec(), shift2, 10_000, 0, True) is None
        # nor without a symbol table
        assert engine.scan_head(ConstantCocycle(D), shift2, 10_000, 5, True) is None

    def test_torus_draws_take_no_head(self, cat):
        spec = PointwiseCocycle(factors=(RotationFactor(angle=TrigExpr(sin_u=0.1)),))
        assert engine.scan_head(spec, cat, 10_000, 5, True) is None

    def test_head_of_another_scan_is_refused(self, shift2):
        draw = sample_points(shift2, 200, 12, seed=3)
        head = engine.scan_head(lc_spec(), shift2, 200, 10, backward=True)
        for n, scan in [(10, engine.forward_scan), (9, engine.backward_scan)]:
            with pytest.raises(ConfigError, match="another scan"):
                scan(lc_spec(), shift2, engine.batch_of(shift2, draw), n, head)
        # a head is not tied to the draw: it serves a batch of any size
        st = engine.backward_scan(lc_spec(), shift2, engine.batch_of(shift2, draw[:7]), 10, head)
        assert st.a.shape == (7,)

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_window_check_is_the_scans(self, shift2, backward):
        # at depth 2 both scans read n symbols to one side: horizon n is
        # exact, n - 1 is refused before any step, as without a head
        spec, n = depth2_spec(), 10
        scan = engine.backward_scan if backward else engine.forward_scan
        head = engine.scan_head(spec, shift2, 300, n, backward)
        for horizon in (n, n - 1):
            draw = sample_points(shift2, 300, horizon, seed=4)
            batch = engine.batch_of(shift2, draw)
            if horizon < n:
                with pytest.raises(HorizonExceeded):
                    scan(spec, shift2, batch, n, head)
                assert np.all(batch.offsets == 0)
                extract = unstable_directions if backward else stable_directions
                with pytest.raises(HorizonExceeded):
                    extract(spec, shift2, draw, n)
            else:
                st = scan(spec, shift2, batch, n, head)
                want = one_point_scans(scan, spec, shift2, draw, n)
                assert np.array_equal(st.a, want["a"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("nan", [False, True], ids=["singular", "nan"])
    def test_bad_step_in_the_head_raises(self, shift2, backward, nan):
        if nan:
            # exp(diag(1000, -1000)) is inf and 0, and inf * 0 makes the
            # symbol-1 step NaN; only the exponential's overflow may warn
            direction = LocallyConstantCocycle(
                table=np.array([np.zeros((2, 2)), np.diag([1e3, -1e3])]),
                invertible=False,
            )
            spec = PerturbedCocycle(
                LocallyConstantCocycle(table=np.array([D, D])), direction,
                t=1.0, rule="multiplicative_exp",
            )
            stack = StackedCocycle((spec.base, spec))
        else:
            spec = LocallyConstantCocycle(
                table=np.array([D, np.zeros((2, 2))]), invertible=False
            )
            stack = StackedCocycle((lc_spec(), spec))
        # every sample reads the bad symbol two steps along
        window = np.zeros(13, dtype=np.int16)
        window[6 + (-2 if backward else 1)] = 1
        draw = ShiftDraw(np.tile(window, (50, 1)), 0)
        extract = unstable_directions if backward else stable_directions
        with np.errstate(over="ignore") if nan else nullcontext():
            for s in (spec, stack):
                assert engine.scan_head(s, shift2, 50, 4, backward) is None
                with pytest.raises(SingularValueError):
                    extract(s, shift2, draw, 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_an_unread_singular_entry_takes_no_head(self, backward):
        # a depth-2 table whose entry for the word 00 is singular, over a
        # Markov law in which 0 never follows 0: the draw never reads it,
        # so the walk raises nothing and gives the regular table's result
        sys_ = markov_shift(2)
        tab = random_table(2, 2, seed=3).table
        bad = tab.copy()
        bad[0] = 0.0
        spec = LocallyConstantCocycle(table=bad, depth=2, alphabet_size=2, invertible=False)
        good = LocallyConstantCocycle(table=tab, depth=2, alphabet_size=2)
        assert engine.scan_head(good, sys_, 2000, 20, backward).k == 7
        assert engine.scan_head(spec, sys_, 2000, 20, backward) is None
        draw = sample_points(sys_, 2000, 22, seed=2)
        extract = unstable_directions if backward else stable_directions
        for x, y in zip(extract(spec, sys_, draw, 20), extract(good, sys_, draw, 20)):
            assert np.array_equal(x, y)

    def test_large_draws_read_fewer_values(self, shift2, monkeypatch):
        # a scan that stopped sharing its head would gather S * n steps; the
        # head of about 10 of the 20 steps gathers a little over half of that
        rows = []
        orbit_values = engine._orbit_values

        def counted(*args):
            for values in orbit_values(*args):
                rows.append(values[0].shape[-1])
                yield values

        monkeypatch.setattr(engine, "_orbit_values", counted)
        draw = sample_points(shift2, 10_000, 22, seed=5)
        for extract in (unstable_directions, stable_directions):
            rows.clear()
            extract(lc_spec(), shift2, draw, 20)
            assert 0.4 * 10_000 * 20 < sum(rows) < 0.8 * 10_000 * 20

    def test_directions_do_not_depend_on_the_rest_of_the_draw(self, shift2):
        spec = StackedCocycle((lc_spec(), random_table(2, 1, seed=4)))
        a = sample_points(shift2, 3000, 32, seed=6)
        b = sample_points(shift2, 3000, 32, seed=7)
        mixed = ShiftDraw(np.concatenate([a.windows[::3], b.windows[:1700]]), 0)
        for extract in (unstable_directions, stable_directions):
            alone = extract(spec, shift2, a, 30)
            among = extract(spec, shift2, mixed, 30)
            for x, y in zip(alone, among):
                assert np.array_equal(x[..., ::3], y[..., :1000])

    def test_threads_agree_through_the_head(self, shift2, monkeypatch):
        # one head per extraction, over the whole draw, not one per block
        built = []
        scan_head = engine.scan_head

        def counted(spec, sys_, count, n, backward):
            built.append(count)
            return scan_head(spec, sys_, count, n, backward)

        monkeypatch.setattr(engine, "scan_head", counted)
        monkeypatch.setattr(engine, "BLOCK", 700)
        draw = sample_points(shift2, 3000, 32, seed=8)
        for extract in (unstable_directions, stable_directions):
            one = extract(lc_spec(), shift2, draw, 30, threads=1)
            two = extract(lc_spec(), shift2, draw, 30, threads=2)
            for x, y in zip(one, two):
                assert np.array_equal(x, y)
        assert built == [3000] * 4


class HookOnly:
    """``spec``'s values through its hook alone: without a symbol table the
    direction scans take the per-step hook path."""

    def __init__(self, spec):
        self.spec = spec
        self.symbol_depth = spec.symbol_depth

    def values_at_symbols(self, block):
        return self.spec.values_at_symbols(block)


class TestStepTables:
    """Over a regular symbol table the direction scans gather every step
    from one step table by its word number, bitwise the hook path."""

    N = 10

    @pytest.mark.parametrize("span", [engine.NUMBER_SPAN, 7], ids=["span", "chunked"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("law", [bernoulli_shift, markov_shift])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_table(3, 1, seed=1),
            lambda: random_table(3, 2, seed=2),
            lambda: StackedCocycle((random_table(3, 1, seed=3), random_table(3, 1, seed=4))),
            # a depth-expanded stack: its depth-1 member reads two symbols
            lambda: StackedCocycle((random_table(3, 1, seed=5), random_table(3, 2, seed=6))),
        ],
        ids=["single", "depth2", "stacked", "expanded"],
    )
    def test_table_steps_are_the_hooks(self, monkeypatch, span, backward, law, make):
        monkeypatch.setattr(engine, "NUMBER_SPAN", span)
        sys_, spec = law(3), make()
        draw = sample_points(sys_, 90, self.N + 3, seed=11)
        mixed = [ShiftPoint(window=w, offset=i % 3 - 1) for i, w in enumerate(draw.windows)]
        scan = engine.backward_scan if backward else engine.forward_scan
        head = engine.scan_head(spec, sys_, len(mixed), self.N, backward)
        assert head is not None
        for h in (None, head):
            runs = []
            for s in (spec, HookOnly(spec)):
                batch = engine.batch_of(sys_, mixed)
                runs.append((scan(s, sys_, batch, self.N, h), batch.offsets))
            (table, table_at), (hook, hook_at) = runs
            assert np.array_equal(table_at, hook_at)
            for f, x in vars(table).items():
                assert np.array_equal(x, vars(hook)[f]), f
        # forward_record keeps one row per sample: single tables only
        if not backward and not isinstance(spec, StackedCocycle):
            paths = [
                engine.forward_record(s, sys_, engine.batch_of(sys_, mixed), self.N)
                for s in (spec, HookOnly(spec))
            ]
            for x, y in zip(*paths):
                assert np.array_equal(x, y)

    def test_stacked_hook_rows_are_contiguous(self, shift2):
        spec = StackedCocycle((lc_spec(), random_table(2, 1, seed=7)))
        block = sample_points(shift2, 50, 0, seed=1).windows
        for x in spec.values_at_symbols(block):
            assert x.shape == (2, 50) and x.flags.c_contiguous

    @pytest.mark.parametrize("span", [engine.NUMBER_SPAN, 7], ids=["span", "chunked"])
    @pytest.mark.parametrize("n", [3, 16, 21])
    @pytest.mark.parametrize("make", [lc_spec, depth2_spec])
    def test_word_walk_numbers(self, shift2, monkeypatch, span, n, make):
        # each word factor is gathered by its word's number, read here
        # symbol by symbol; k = 8 divides 16 and not 3 or 21
        monkeypatch.setattr(engine, "NUMBER_SPAN", span)
        spec = make()
        words = engine.word_tables(spec, shift2, n)
        draw = sample_points(shift2, 40, n + 2, seed=n)
        points = [ShiftPoint(window=w, offset=i % 3 - 1) for i, w in enumerate(draw.windows)]
        batch = engine.batch_of(shift2, points)
        got = list(engine._word_walk(words, batch, n))
        assert len(got) == -(-n // words.k)
        horizon = n + 2
        for w, factor in enumerate(got):
            at = w * words.k
            length = min(words.k, n - at)
            want = []
            for p in points:
                first = horizon + p.offset + at
                symbols = p.window[first : first + length + spec.depth - 1]
                want.append(int("".join(map(str, symbols)), 2))
            assert np.array_equal(factor, words.factors[length][:, want])
