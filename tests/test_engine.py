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
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
    product,
)
from cocyclelab.errors import ConfigError, HorizonExceeded

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
        batch = engine.batch_of(shift2, pts)
        st = engine.forward_scan(spec, shift2, batch, 20, want_inverse=True)
        for i, x in enumerate(pts):
            plain = product(spec, shift2, x, 20)
            got = np.exp(st.log_scale[i]) * np.array(
                [[st.a[i], st.b[i]], [st.c[i], st.d[i]]]
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
            assert st.logdet[i] == pytest.approx(np.log(abs(det_plain)), abs=1e-6)

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

        out = engine.block_map(job, 2500, threads=1)
        assert calls == [(0, 1024), (1024, 2048), (2048, 2500)]
        assert out[0].shape == (2500,)
