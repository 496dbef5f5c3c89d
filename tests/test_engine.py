"""Batched iteration kernels against the per-point reference path."""

from __future__ import annotations

import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from cocyclelab import cocycle, engine, mat2
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
    PointwiseEntriesField,
    RotationFactor,
    StackedCocycle,
    TrigExpr,
    product,
)
from cocyclelab.config import build_family, build_system, load_config
from cocyclelab.continuity import perturbations
from cocyclelab.errors import ConfigError, HorizonExceeded, SingularValueError
from cocyclelab.oseledets import stable_directions, unstable_directions
from cocyclelab.spectrum import finite_time_exponents, lyapunov_exponents
from oracles import (
    NanAt,
    Unproven,
    oracle_direction_walk,
    oracle_entries,
    per_factor_exponent_walk,
    rotation,
    same_values,
    torus_exponent_walk,
    word_matrix,
)

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blocks_are_joined_as_they_arrive(self, threads):
        # each block's (M, width) results go into the outputs as they come,
        # with their dtypes, so at most one block's arrays are held beside
        # the outputs in a serial run
        held = []

        def job(start, stop):
            if threads == 1:
                assert sum(ref() is not None for ref in held) <= 1
            idx = np.arange(start, stop, dtype=float)
            x = np.stack([idx, -idx])
            held.append(weakref.ref(x))
            return x, x > 7

        x, big = engine.block_map(job, 10, threads, rows=engine.STACK_SPAN // 3)
        assert len(held) == 4  # blocks of 3, 3, 3 and 1
        assert np.array_equal(x, np.stack([np.arange(10.0), -np.arange(10.0)]))
        assert big.dtype == bool and np.array_equal(big, x > 7)


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
    def test_one_exact_window_for_every_scan(self, shift2, monkeypatch, n):
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
        step_path(monkeypatch)
        steps = engine.exponent_scan(spec, shift2, window_batch(shift2, n), n)
        for got, want in zip(words, steps):
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("depth, n", [(10, 4), (4, 10)], ids=["depth", "n"])
    def test_forward_walk_reads_the_longer_window(self, shift2, depth, n):
        # one check for max(depth, n) steps, which at depth 2 read that many
        # symbols ahead: horizon max(depth, n) is exact, one less is
        # refused before any step
        spec, span = depth2_spec(), max(depth, n)
        batch = window_batch(shift2, span)
        walk = engine.forward_walk(spec, shift2, batch, depth, n)
        assert np.all(batch.offsets == span - 1)
        short = window_batch(shift2, span - 1)
        with pytest.raises(HorizonExceeded):
            engine.forward_walk(spec, shift2, short, depth, n)
        assert np.all(short.offsets == 0)
        st = engine.forward_scan(spec, shift2, window_batch(shift2, span), depth)
        exps = engine.exponent_scan(spec, shift2, window_batch(shift2, span), n)
        assert_walk_is_scans(walk, (st, exps, None))

    def test_lyapunov_points_end_to_end(self, shift2):
        spec, n = depth2_spec(), self.N
        exact = n + spec.symbol_depth - 2
        points = sample_points(shift2, 6, exact, seed=11)
        rep = lyapunov_exponents(spec, shift2, n=n, points=points)
        assert rep.samples == 6
        short = sample_points(shift2, 6, exact - 1, seed=11)
        with pytest.raises(HorizonExceeded):
            lyapunov_exponents(spec, shift2, n=n, points=short)


def shipped_torus_family(direction=None):
    """The shipped torus base and its perturbations along the shipped
    direction (or ``direction``) at t = 2^-1 .. 2^-10."""
    base = PointwiseCocycle(
        factors=(
            RotationFactor(angle=TrigExpr(sin_u=0.15, cos_v=0.1)),
            ConstantFactor(matrix=np.diag([1.5, 1.0 / 1.5])),
        )
    )
    field = direction or PointwiseEntriesField(
        e00=TrigExpr(), e01=TrigExpr(const=-1.0, sin_u=0.2),
        e10=TrigExpr(const=1.0, sin_u=-0.2), e11=TrigExpr(),
    )
    members = [
        PerturbedCocycle(base=base, direction=field, t=2.0**-k, rule="multiplicative_exp")
        for k in range(1, 11)
    ]
    return base, members


class TestTorusExponentWalk:
    """A torus exponent scan reads each step's det and regularity flag, not
    its log |det|; its results are bitwise those of a step-by-step walk that
    forms every value term by term and reads the flag from the log."""

    def test_single_spec(self, cat):
        base, members = shipped_torus_family()
        draw = sample_points(cat, 40, 0, seed=3)
        for spec in (base, members[2]):
            got = engine.exponent_scan(spec, cat, engine.batch_of(cat, draw), 60)
            ref = torus_exponent_walk(spec, cat, draw, 60)
            assert all(same_values(g, r) for g, r in zip(got, ref))

    def test_stack(self, cat):
        base, members = shipped_torus_family()
        stack = StackedCocycle((base, *members))
        draw = sample_points(cat, 40, 0, seed=3)
        got = engine.exponent_scan(stack, cat, engine.batch_of(cat, draw), 60)
        ref = torus_exponent_walk(stack, cat, draw, 60)
        assert got[0].shape == (11, 40)
        assert all(same_values(g, r) for g, r in zip(got, ref))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_member_raises(self, cat):
        # 3000 off a zero diagonal overflows exp(t B) at t = 1/2 (the
        # hook warns; continuity censors such a size before any scan)
        steep = PointwiseEntriesField(
            e00=TrigExpr(), e01=TrigExpr(const=3000.0, sin_u=0.2),
            e10=TrigExpr(const=3000.0), e11=TrigExpr(),
        )
        base, members = shipped_torus_family(steep)
        draw = sample_points(cat, 10, 0, seed=3)
        for spec in (members[0], StackedCocycle((base, *members))):
            with pytest.raises(SingularValueError):
                engine.exponent_scan(spec, cat, engine.batch_of(cat, draw), 5)
            with pytest.raises(SingularValueError):
                torus_exponent_walk(spec, cat, draw, 5)


def ac8_stack():
    """The shipped shift base and its specialized perturbations, as the
    continuity walk stacks them."""
    cfg = load_config("configs/shift_gapped.yaml")
    sys_, fam = build_system(cfg), build_family(cfg)
    live = perturbations(fam.base, fam.direction, fam.ts, fam.rule, sys_)
    assert all(spec is not None for spec in live)
    return sys_, StackedCocycle((fam.base, *live))


def separate_scans(spec, sys_, points, depth, n, head=None, words=None):
    """``forward_scan`` at depth and ``exponent_scan`` over n, each on its
    own batch of ``points``, and where the exponent batch ends."""
    batch = engine.batch_of(sys_, points)
    st = engine.forward_scan(spec, sys_, batch, depth, head)
    batch = engine.batch_of(sys_, points)
    exps = engine.exponent_scan(spec, sys_, batch, n, words)
    return st, exps, batch


def assert_walk_is_scans(walk, scans):
    st, log_scale, logdet, clean = walk
    want_st, want_exps, _ = scans
    for f, x in vars(st).items():
        assert same_values(x, getattr(want_st, f)), f
    assert same_values(log_scale, want_exps[0]) and same_values(logdet, want_exps[1])
    assert clean.dtype == bool and clean.shape == log_scale.shape and clean.all()


class TestForwardWalk:
    """One forward walk gives, bitwise, a direction scan at depth and an
    exponent scan over n, each as its separate call gives it, and flags
    where the exponent scan would raise in place of raising."""

    @pytest.mark.parametrize("depth, n", [(40, 400), (9, 5), (7, 7)])
    def test_torus_single_spec(self, cat, depth, n):
        base, members = shipped_torus_family()
        draw = sample_points(cat, 30, 0, seed=3)
        for spec in (base, members[2]):
            batch = engine.batch_of(cat, draw)
            walk = engine.forward_walk(spec, cat, batch, depth, n)
            scans = separate_scans(spec, cat, draw, depth, n)
            assert_walk_is_scans(walk, scans)
            if depth <= n:
                assert same_values(batch.coords, scans[2].coords)

    def test_torus_shipped_stack(self, cat):
        base, members = shipped_torus_family()
        stack = StackedCocycle((base, *members))
        draw = sample_points(cat, 40, 0, seed=5)
        walk = engine.forward_walk(stack, cat, engine.batch_of(cat, draw), 40, 400)
        assert walk[1].shape == (11, 40)
        assert_walk_is_scans(walk, separate_scans(stack, cat, draw, 40, 400))

    @pytest.mark.parametrize("depth, n", [(40, 400), (12, 9)])
    def test_shift_stack_with_a_head(self, depth, n):
        sys_, stack = ac8_stack()
        draw = sample_points(sys_, 600, max(depth, n) + 2 + stack.symbol_depth, seed=1)
        head = engine.scan_head(stack, sys_, len(draw), depth, backward=False)
        words = engine.word_tables(stack, sys_, n)
        assert head is not None and head.k > 1 and words is not None
        batch = engine.batch_of(sys_, draw)
        walk = engine.forward_walk(stack, sys_, batch, depth, n, head, words)
        assert walk[1].shape == (13, 600)
        assert_walk_is_scans(walk, separate_scans(stack, sys_, draw, depth, n, head, words))
        assert np.array_equal(batch.offsets, np.full(600, max(depth, n) - 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_singular_step_past_depth_is_flagged(self, shift2):
        # symbol 1 is the zero matrix: read at step 5 of 8, past depth 3
        spec = LocallyConstantCocycle(
            table=np.array([D, np.zeros((2, 2))]), invertible=False
        )
        window = np.zeros(19, dtype=np.int16)
        window[9 + 5] = 1
        points = [ShiftPoint(np.zeros(19, dtype=np.int16)), ShiftPoint(window)]
        _, log_scale, _, clean = engine.forward_walk(
            spec, shift2, engine.batch_of(shift2, points), 3, 8
        )
        assert clean.tolist() == [True, False] and np.isfinite(log_scale[0])
        with pytest.raises(SingularValueError):
            engine.exponent_scan(spec, shift2, engine.batch_of(shift2, points), 8)
        # read within the depth, it raises, as forward_scan does
        with pytest.raises(SingularValueError):
            engine.forward_walk(spec, shift2, engine.batch_of(shift2, points), 6, 8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_torus_nan_past_depth_is_flagged(self, cat):
        base, _ = shipped_torus_family()
        draw = sample_points(cat, 20, 0, seed=3)
        batch = engine.batch_of(cat, draw)
        engine.step(cat, batch, 6)
        spec = NanAt(base, batch.coords[[4, 11], 0])
        _, log_scale, logdet, clean = engine.forward_walk(
            spec, cat, engine.batch_of(cat, draw), 6, 10
        )
        assert np.flatnonzero(~clean).tolist() == [4, 11]
        alone = engine.exponent_scan(base, cat, engine.batch_of(cat, draw), 10)
        assert same_values(log_scale[clean], alone[0][clean])
        assert same_values(logdet[clean], alone[1][clean])
        with pytest.raises(SingularValueError):
            engine.forward_walk(spec, cat, engine.batch_of(cat, draw), 7, 10)

    def test_bad_windows_are_refused(self, cat):
        draw = sample_points(cat, 3, 0, seed=3)
        for depth, n in ((0, 5), (5, 0)):
            with pytest.raises(ConfigError):
                engine.forward_walk(lc_spec(), cat, engine.batch_of(cat, draw), depth, n)


class TestOneWalk:
    """Every scan is one walk: a shift walk checks its symbol window once,
    and a torus forward walk calls the spec's hook once per step of the
    longer of its two windows."""

    def test_one_window_check_per_shift_walk(self, shift2, monkeypatch):
        checked = []
        symbol_starts = engine._symbol_starts

        def counted(batch, n, depth, backward):
            checked.append(n)
            return symbol_starts(batch, n, depth, backward)

        monkeypatch.setattr(engine, "_symbol_starts", counted)
        spec, draw = lc_spec(), sample_points(shift2, 300, 45, seed=2)
        head = engine.scan_head(spec, shift2, 300, 30, backward=False)
        back = engine.scan_head(spec, shift2, 300, 30, backward=True)
        words = engine.word_tables(spec, shift2, 40)
        assert head is not None and back is not None and words is not None
        runs = [
            (lambda b: engine.forward_walk(spec, shift2, b, 30, 40, head, words), 40),
            (lambda b: engine.forward_walk(spec, shift2, b, 40, 30), 40),
            (lambda b: engine.forward_scan(spec, shift2, b, 30, head), 30),
            (lambda b: engine.backward_scan(spec, shift2, b, 30, back), 30),
            (lambda b: engine.forward_record(spec, shift2, b, 30), 30),
            (lambda b: engine.exponent_scan(spec, shift2, b, 40, words), 40),
        ]
        for run, span in runs:
            checked.clear()
            run(engine.batch_of(shift2, draw))
            assert checked == [span]

    @pytest.mark.parametrize("depth, n", [(9, 5), (5, 9)], ids=["depth", "n"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
    def test_one_hook_call_per_torus_step(self, cat, monkeypatch, depth, n, stacked):
        base, members = shipped_torus_family()
        spec = StackedCocycle((base, *members)) if stacked else base
        calls = []
        hook = type(spec).values_at_coords

        def counted(self, coords, modes=None):
            calls.append(coords.shape)
            return hook(self, coords, modes)

        monkeypatch.setattr(type(spec), "values_at_coords", counted)
        draw = sample_points(cat, 20, 0, seed=3)
        engine.forward_walk(spec, cat, engine.batch_of(cat, draw), depth, n)
        assert calls == [(20, 2)] * max(depth, n)


class TestProvenWalks:
    """A torus walk of a spec that ``cocycle.proven_regular`` proves calls
    ``mat2.regular`` at no step and gives, bitwise, what the same spec
    gives through a wrapper that hides the proof."""

    def test_no_rule_call_and_the_same_bits(self, cat, monkeypatch):
        base, members = shipped_torus_family()
        stack = StackedCocycle((base, *members))
        assert cocycle.proven_regular(stack)
        assert not cocycle.proven_regular(Unproven(stack))
        calls = []
        rule = mat2.regular
        monkeypatch.setattr(mat2, "regular", lambda *a, **k: calls.append(1) or rule(*a, **k))
        draw = sample_points(cat, 40, 0, seed=5)
        runs = []
        for spec in (stack, Unproven(stack)):
            calls.clear()
            walk = engine.forward_walk(spec, cat, engine.batch_of(cat, draw), 40, 440)
            back = engine.backward_scan(spec, cat, engine.batch_of(cat, draw), 40)
            runs.append((len(calls), walk, back))
        (proven_calls, walk, back), (hidden_calls, hidden_walk, hidden_back) = runs
        assert proven_calls == 0 and hidden_calls == 440 + 40
        assert_walk_is_scans(walk, (hidden_walk[0], hidden_walk[1:3], None))
        assert same_values(walk[3], hidden_walk[3])
        for f, x in vars(back).items():
            assert same_values(x, getattr(hidden_back, f)), f


# shift_gapped's table, and torus_pointwise's constant factor
GAPPED = np.array([
    [[1.2, 0.0], [0.0, 0.8333333333333334]],
    [[1.194004998333631, -0.0831945138723568], [0.11980009997619379, 0.8291701377316882]],
])
TORUS_FACTOR = np.diag([1.5, 0.6666666666666666])


def torus_k2_spec():
    """A spec proven regular whose bounds give a rescale period of 2:
    torus_pointwise's cocycle with its constant factor times 2**90."""
    angle = TrigExpr(sin_u=0.15, cos_v=0.1)
    factor = ConstantFactor(np.ldexp(TORUS_FACTOR, 90))
    return PointwiseCocycle(factors=(RotationFactor(angle=angle), factor))


def failing_table():
    return LocallyConstantCocycle(table=np.array([D, np.zeros((2, 2))]), invertible=False)


def assert_per_factor(spec, sys_, n, samples=30, depth=7):
    """``forward_walk`` and ``exponent_scan`` over n give, bitwise, the
    exponent walk that rescales after every factor."""
    horizon = n + 2 + spec.symbol_depth
    draw = sample_points(sys_, samples, horizon, seed=4)
    want = per_factor_exponent_walk(spec, sys_, draw, n)
    walk = engine.forward_walk(spec, sys_, engine.batch_of(sys_, draw), depth, n)
    assert all(same_values(g, w) for g, w in zip(walk[1:], want))
    if not want[2].all():
        with pytest.raises(SingularValueError):
            engine.exponent_scan(spec, sys_, engine.batch_of(sys_, draw), n)
        return
    got = engine.exponent_scan(spec, sys_, engine.batch_of(sys_, draw), n)
    assert all(same_values(g, w) for g, w in zip(got, want[:2]))


class TestRescalePeriod:
    """The exponent product is rescaled once per period of K factors and
    after the last; at each rescale it is bitwise the product rescaled
    after every factor, so every result is that walk's."""

    def test_period_from_bounds(self):
        assert engine._period(2.7331782005897405, 0.3658744240617359) == 176
        assert engine._period(1.0, 1.0) == engine._period(1.5, 0.75) == 256
        assert engine._period(2.0**128, 1.0) == 2 and engine._period(2.0**200, 1.0) == 1
        for s1, s2 in ((np.inf, 1.0), (1.0, 0.0), (np.nan, 1.0), (1.0, np.nan)):
            assert engine._period(s1, s2) == 1

    def test_periods_of_the_shipped_walks(self, cat):
        base, members = shipped_torus_family()
        stack = StackedCocycle((base, *members))
        for spec, want in ((stack, 176), (base, 256), (torus_k2_spec(), 2)):
            assert cocycle.proven_regular(spec)
            assert engine._period(*cocycle.singular_bounds(spec)) == want
        assert not cocycle.proven_regular(Unproven(stack))
        sys_, ac8 = ac8_stack()
        assert engine.word_tables(ac8, sys_, 400)._period == 50
        assert engine.word_tables(failing_table(), sys_, 400)._period == 1

    @pytest.mark.parametrize("n", [175, 176, 177, 351, 353, 400])
    def test_torus_family(self, cat, n):
        base, members = shipped_torus_family()
        assert_per_factor(StackedCocycle((base, *members)), cat, n)
        assert_per_factor(base, cat, n)

    @pytest.mark.parametrize("n", [59, 60, 61])
    def test_proven_torus_spec_with_a_period_of_2(self, cat, n):
        assert_per_factor(torus_k2_spec(), cat, n)

    @pytest.mark.parametrize("words", [49, 50, 51, 99, 101])
    def test_ac8_stack(self, words):
        sys_, stack = ac8_stack()
        # whole words, and one word fewer plus a 3-step tail
        for n in (8 * words, 8 * (words - 1) + 3):
            assert_per_factor(stack, sys_, n, samples=100)

    def test_diagonal_table(self, shift2):
        # the product stays diagonal; its small entry sinks toward the
        # subnormals, which the result does not read
        spec = LocallyConstantCocycle(table=np.array([np.diag([1.9, 0.45]), np.diag([1.3, 0.7])]))
        assert engine.word_tables(spec, shift2, 400)._period == 14
        assert_per_factor(spec, shift2, 400)

    @pytest.mark.parametrize("k", [-200, -30, 30, 200])
    def test_scaled_gapped_table(self, shift2, k):
        assert_per_factor(LocallyConstantCocycle(table=np.ldexp(GAPPED, k)), shift2, 400)

    def test_a_failing_entry(self, shift2):
        # stacked, so that a failing step within the depth does not raise
        assert_per_factor(StackedCocycle((failing_table(),)), shift2, 40)


def counted_rescales(monkeypatch):
    calls = []
    radix_scale = engine._radix_scale

    def counted(*args):
        calls.append(None)
        return radix_scale(*args)

    monkeypatch.setattr(engine, "_radix_scale", counted)
    return calls


class TestRescaleCount:
    """A walk of ``count`` factors rescales ceil(count / K) times: once per
    factor, K = 1, where nothing proves a bound."""

    def test_torus(self, cat, monkeypatch):
        base, members = shipped_torus_family()
        stack = StackedCocycle((base, *members))
        # a direction no bound reads: singular_bounds gives (inf, 0)
        unbounded = PerturbedCocycle(
            base, NanAt(members[0].direction, []), t=0.5, rule="multiplicative_exp"
        )
        assert cocycle.singular_bounds(unbounded) == (np.inf, 0.0)
        draw = sample_points(cat, 20, 0, seed=3)
        calls = counted_rescales(monkeypatch)
        for spec, depth, n, want in (
            (stack, 40, 400, 3),
            (base, 40, 400, 2),
            (torus_k2_spec(), 40, 61, 31),
            (Unproven(stack), 40, 400, 400),
            (unbounded, 5, 30, 30),
        ):
            calls.clear()
            engine.forward_walk(spec, cat, engine.batch_of(cat, draw), depth, n)
            assert len(calls) == want
        calls.clear()
        engine.exponent_scan(stack, cat, engine.batch_of(cat, draw), 177)
        assert len(calls) == 2

    def test_shift(self, monkeypatch):
        sys_, stack = ac8_stack()
        draw = sample_points(sys_, 100, 810 + stack.symbol_depth, seed=3)
        cases = [(stack, 400, 1), (stack, 808, 3), (stack, 803, 3), (failing_table(), 400, 50)]
        tables = [engine.word_tables(spec, sys_, n) for spec, n, _ in cases]
        head = engine.scan_head(stack, sys_, len(draw), 40, backward=False)
        calls = counted_rescales(monkeypatch)
        for (spec, n, want), words in zip(cases, tables):
            calls.clear()
            engine._walk(spec, sys_, engine.batch_of(sys_, draw), 0, n, words=words)
            assert len(calls) == want
        calls.clear()
        engine.forward_walk(stack, sys_, engine.batch_of(sys_, draw), 40, 400, head, tables[0])
        assert len(calls) == 1


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
        "scan",
        ["forward_scan", "backward_scan", "forward_record", "forward_walk", "exponent_scan"],
    )
    def test_oversized_step_raises_without_warnings(self, shift2, cat, scan):
        # 1e200 D fails the rule by size: the norm's squares overflow
        run = getattr(engine, scan)
        if scan == "forward_walk":
            run = lambda spec, sys_, batch, n: engine.forward_walk(spec, sys_, batch, n, n)
        spec = LocallyConstantCocycle(table=np.array([D, 1e200 * D]), invertible=False)
        pts = [ShiftPoint(window=np.array([0, 0, 1, 0, 0, 0, 1, 0, 0], dtype=np.int16))]
        with pytest.raises(SingularValueError):
            run(spec, shift2, engine.batch_of(shift2, pts * 3), 4)
        big = ConstantCocycle(matrix=1e200 * D, invertible=False)
        with pytest.raises(SingularValueError):
            run(big, cat, engine.batch_of(cat, sample_points(cat, 5, 0, seed=1)), 4)

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
        assert np.all(np.isfinite(word_matrix(spec, [0])))
        assert np.isnan(word_matrix(spec, [1])).any()
        pts = [ShiftPoint(window=np.array([0, 0, 1, 0, 0, 0, 1, 0, 0], dtype=np.int16))]
        batch = engine.batch_of(shift2, pts * 3)
        with pytest.raises(SingularValueError):
            getattr(engine, scan)(spec, shift2, batch, 4)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scan", ["forward_scan", "backward_scan", "forward_record", "exponent_scan"]
    )
    @pytest.mark.parametrize("bad", [1, 2, 3], ids=["singular", "nan", "inf"])
    def test_bad_entries_raise_only_where_read(self, scan, bad):
        # over four symbols: D, then D expm(-1000 I), which underflows to
        # the zero matrix, then D expm(diag(1000, -1000)), which is NaN,
        # then D expm(diag(1000, 0)), whose inf meets zeros in any product
        direction = LocallyConstantCocycle(
            table=np.array(
                [np.zeros((2, 2)), -1e3 * np.eye(2), np.diag([1e3, -1e3]), np.diag([1e3, 0.0])]
            ),
            invertible=False,
        )
        spec = PerturbedCocycle(
            LocallyConstantCocycle(table=np.array([D] * 4)), direction,
            t=1.0, rule="multiplicative_exp",
        )
        sys_ = bernoulli_shift(4)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not mat2.regular(*word_matrix(spec, [1]).ravel())
            assert np.isnan(word_matrix(spec, [2])).any()
            assert np.isinf(word_matrix(spec, [3])).any()
        # another bad entry sits in the window, one step past the walk
        window = np.zeros(11, dtype=np.int16)
        window[5 + (-5 if scan == "backward_scan" else 4)] = bad % 3 + 1
        run = getattr(engine, scan)
        run(spec, sys_, engine.batch_of(sys_, [ShiftPoint(window)] * 3), 4)
        window[5 + (-4 if scan == "backward_scan" else 3)] = bad
        points = [ShiftPoint(np.zeros(11, dtype=np.int16)), ShiftPoint(window)]
        with pytest.raises(SingularValueError):
            run(spec, sys_, engine.batch_of(sys_, points), 4)

    @pytest.mark.parametrize("table, shift", [(2, 3), (3, 2)])
    def test_table_over_another_alphabet_is_refused(self, table, shift):
        spec = random_table(table, 1, seed=2)
        sys_ = bernoulli_shift(shift)
        draw = sample_points(sys_, 5, 6, seed=1)
        named = f"over {table} symbols .* on {shift} symbols"
        for scan in ("forward_scan", "backward_scan", "forward_record", "exponent_scan"):
            with pytest.raises(ConfigError, match=named):
                getattr(engine, scan)(spec, sys_, engine.batch_of(sys_, draw), 4)
        with pytest.raises(ConfigError, match=named):
            engine.values(spec, sys_, engine.batch_of(sys_, draw))


def step_path(monkeypatch):
    """Walk every exponent scan a step at a time: no word tables."""
    monkeypatch.setattr(engine, "word_tables", lambda spec, sys_, n: None)


class TestWordBlocks:
    """The exponent scan's word path: k-step factors gathered per word."""

    def test_word_length_from_alphabet(self):
        assert [engine._word_length(a) for a in (2, 3, 4, 16, 17, 300)] == [
            8, 5, 4, 2, 1, 1,
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_only_tables_over_the_alphabet_take_words(self, shift2, cat):
        assert engine.word_tables(lc_spec(), shift2, 10).factors.keys() == {8, 2}
        assert engine.word_tables(lc_spec(), shift2, 3).factors.keys() == {3}
        assert engine.word_tables(lc_spec(), shift2, 0) is None
        # a constant and a perturbation are the tables the oracle reads
        spin = ConstantCocycle(np.array([[0.0, -1.0], [1.0, 0.0]]), invertible=False)
        for spec in (
            ConstantCocycle(D),
            PerturbedCocycle(lc_spec(), spin, t=0.3, rule="multiplicative_exp"),
        ):
            table = np.array([word_matrix(spec, [s]) for s in range(2)])
            want = engine.word_tables(LocallyConstantCocycle(table), shift2, 10)
            got = engine.word_tables(spec, shift2, 10)
            for length, factors in want.factors.items():
                assert np.array_equal(got.factors[length], factors)
        # a singular entry takes word tables too: the regularity flag (the
        # factor's last row) is 0 in exactly the words through symbol 1
        singular = LocallyConstantCocycle(
            table=np.array([D, np.zeros((2, 2))]), invertible=False
        )
        words = engine.word_tables(singular, shift2, 10)
        for length, factors in words.factors.items():
            assert np.array_equal(factors[7], np.arange(2**length) == 0)
        shift3 = ShiftSystem(
            alphabet_size=3, measure=BernoulliMeasure(weights=(0.2, 0.3, 0.5))
        )
        with pytest.raises(ConfigError, match="over 2 symbols .* on 3 symbols"):
            engine.word_tables(lc_spec(), shift3, 10)
        torus = PointwiseCocycle(factors=(ConstantFactor(matrix=D),))
        assert engine.word_tables(torus, cat, 10) is None

    @pytest.mark.parametrize("make", [lc_spec, depth2_spec])
    def test_word_length_one_is_the_step_path(self, shift2, monkeypatch, make):
        monkeypatch.setattr(engine, "WORD_SPAN", 1)
        spec = make()
        pts = sample_points(shift2, 300, 45, seed=15)
        assert engine.word_tables(spec, shift2, 40).k == 1
        words = finite_time_exponents(spec, shift2, pts, 40)
        step_path(monkeypatch)
        steps = finite_time_exponents(spec, shift2, pts, 40)
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

    def test_tables_of_another_n_are_refused(self, shift2):
        # a 41-step scan needs a 1-step tail that 40-step tables lack, and
        # a 40-step scan groups its steps as 41-step tables do not say
        draw = sample_points(shift2, 20, 43, seed=5)
        for built, n in ((40, 41), (41, 40)):
            words = engine.word_tables(lc_spec(), shift2, built)
            batch = engine.batch_of(shift2, draw)
            with pytest.raises(ConfigError, match="another scan"):
                engine.exponent_scan(lc_spec(), shift2, batch, n, words)
            assert np.all(batch.offsets == 0)
            words = engine.word_tables(lc_spec(), shift2, n)
            got = engine.exponent_scan(lc_spec(), shift2, batch, n, words)
            want = engine.exponent_scan(lc_spec(), shift2, engine.batch_of(shift2, draw), n)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

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
        # a constant is its matrix at every symbol: it takes a head, and the
        # scan from it is the oracle's walk
        spec, draw = ConstantCocycle(D), sample_points(shift2, 10, 6, seed=1)
        head = engine.scan_head(spec, shift2, 10, 5, True)
        assert head.k == 2
        st = engine.backward_scan(spec, shift2, engine.batch_of(shift2, draw), 5, head)
        want, _ = oracle_direction_walk(spec, list(draw), 5, True)
        for f, x in vars(st).items():
            assert np.array_equal(x, want[f]), f

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
        scan = engine.backward_scan if backward else engine.forward_scan
        # the head walks all four steps; the logdet is NaN in exactly the
        # words through symbol 1, in the bad member's row
        through = np.arange(16) != 0
        with np.errstate(over="ignore") if nan else nullcontext():
            for s, bad in ((spec, through), (stack, [np.zeros(16, bool), through])):
                head = engine.scan_head(s, shift2, 50, 4, backward)
                assert head.k == 4
                assert np.array_equal(np.isnan(head.state.logdet), bad)
                if s is spec:
                    with pytest.raises(SingularValueError):
                        scan(s, shift2, engine.batch_of(shift2, draw), 4, head)
                    with pytest.raises(SingularValueError):
                        extract(s, shift2, draw, 4)
                    continue
                # a stack raises nothing: the bad member's state entries and
                # directions are NaN, and the other row is its own scan's
                st = scan(s, shift2, engine.batch_of(shift2, draw), 4, head)
                alone = scan(s.members[0], shift2, engine.batch_of(shift2, draw), 4)
                for x, want in zip((st.a, st.b, st.c, st.d), (alone.a, alone.b, alone.c, alone.d)):
                    assert np.isnan(x[1]).all() and same_values(x[0], want)
                vx, vy, ok = extract(s, shift2, draw, 4)
                assert np.isnan(vx[1]).all() and np.isnan(vy[1]).all()
                assert ok.tolist() == [[True] * 50, [False] * 50]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_an_unread_singular_entry_takes_a_head_and_word_tables(self, backward):
        # a depth-2 table whose entry for the word 00 is singular, over a
        # Markov law in which 0 never follows 0: the draw never reads it,
        # so the walks raise nothing and give the regular table's results
        sys_ = markov_shift(2)
        tab = random_table(2, 2, seed=3).table
        bad = tab.copy()
        bad[0] = 0.0
        spec = LocallyConstantCocycle(table=bad, depth=2, alphabet_size=2, invertible=False)
        good = LocallyConstantCocycle(table=tab, depth=2, alphabet_size=2)
        for s in (good, spec):
            assert engine.scan_head(s, sys_, 2000, 20, backward).k == 7
            assert engine.word_tables(s, sys_, 20).factors.keys() == {8, 4}
        draw = sample_points(sys_, 2000, 22, seed=2)
        extract = unstable_directions if backward else stable_directions
        for x, y in zip(extract(spec, sys_, draw, 20), extract(good, sys_, draw, 20)):
            assert np.array_equal(x, y)
        got = finite_time_exponents(spec, sys_, draw, 20)
        want = finite_time_exponents(good, sys_, draw, 20)
        for name in ("plus", "minus", "logdet_rate"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

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


class TestStepTables:
    """The direction scans gather every step from one step table by its
    word number, bitwise the oracle's walk over ``word_matrix``."""

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
        want, paths = oracle_direction_walk(spec, mixed, self.N, backward)
        for h in (None, head):
            batch = engine.batch_of(sys_, mixed)
            start = batch.offsets.copy()
            st = scan(spec, sys_, batch, self.N, h)
            end = -self.N if backward else self.N - 1
            assert np.array_equal(batch.offsets, start + end)
            for f, x in vars(st).items():
                assert np.array_equal(x, want[f]), f
        if not backward:
            got = engine.forward_record(spec, sys_, engine.batch_of(sys_, mixed), self.N)
            for x, y in zip(got, paths):
                assert np.array_equal(x, y)

    def test_stacked_hook_rows_are_contiguous(self, shift2):
        spec = StackedCocycle((lc_spec(), random_table(2, 1, seed=7)))
        entries, alphabet, depth = cocycle.symbol_table(spec, shift2)
        assert (alphabet, depth) == (2, 1)
        draw = sample_points(shift2, 50, 0, seed=1)
        got = engine.values(spec, shift2, engine.batch_of(shift2, draw))
        for e, x, y in zip(entries, got, oracle_entries(spec, list(draw))):
            assert e.shape == (2, 2) and e.flags.c_contiguous
            assert x.shape == (2, 50) and x.flags.c_contiguous
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("torus", [False, True], ids=["tables", "torus"])
    def test_forward_record_takes_a_stack(self, shift2, cat, torus):
        # the paths take the state's shape, (n, M, S); row m is the member's
        if torus:
            rot = RotationFactor(angle=TrigExpr(sin_u=0.3))
            base = PointwiseCocycle(factors=(rot, ConstantFactor(matrix=D)))
            spin = ConstantCocycle(np.array([[0.0, -1.0], [1.0, 0.0]]), invertible=False)
            members = (base, PerturbedCocycle(base, spin, t=0.25, rule="multiplicative_exp"))
            sys_, draw = cat, sample_points(cat, 40, 0, seed=3)
        else:
            members = (lc_spec(), random_table(2, 2, seed=5))
            sys_, draw = shift2, sample_points(shift2, 40, 12, seed=3)
        def record(spec):
            return engine.forward_record(spec, sys_, engine.batch_of(sys_, draw), 10)

        got = record(StackedCocycle(members))
        for m, member in enumerate(members):
            own = record(member)
            for x, y in zip(got, own):
                assert x.shape == (10, 2, 40)
                assert np.array_equal(x[:, m], y)

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
        starts = engine._symbol_starts(batch, n, spec.symbol_depth, backward=False)
        got = list(engine._word_walk(words, batch.windows, starts, n))
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
