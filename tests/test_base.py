"""Base dynamics: metric, stepping, sampling."""

from __future__ import annotations

import numpy as np
import pytest

from cocyclelab import base
from cocyclelab.base import (
    BernoulliMeasure,
    LebesgueMeasure,
    MarkovMeasure,
    ShiftDraw,
    ShiftPoint,
    ShiftSystem,
    TorusDraw,
    TorusPoint,
    TorusSystem,
    apply_f,
    sample_points,
)
from cocyclelab.cocycle import _HolderSample
from cocyclelab.errors import CocycleLabError, ConfigError, HorizonExceeded
from oracles import base_distance, expansion, stable_vector, unstable_vector


def wpoint(*symbols, offset=0):
    return ShiftPoint(window=np.array(symbols, dtype=np.int16), offset=offset)


class TestMeasures:
    def test_bernoulli_validation(self):
        with pytest.raises(ConfigError):
            BernoulliMeasure(weights=(0.5, 0.6))
        with pytest.raises(ConfigError):
            BernoulliMeasure(weights=(-0.1, 1.1))
        with pytest.raises(ConfigError):
            BernoulliMeasure(weights=(1.0,))
        BernoulliMeasure(weights=(1.0, 0.0))  # degenerate but legal
        # NaN fails no range check and sums to NaN, so it is refused by name
        for w in ((float("nan"), 1.0), (0.5, 0.5, float("nan"))):
            with pytest.raises(ConfigError, match="must be finite"):
                BernoulliMeasure(weights=w)

    def test_markov_stationary_against_linear_solve(self):
        p = ((0.9, 0.1), (0.2, 0.8))
        m = MarkovMeasure(matrix=p)
        assert m.stationary[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.stationary[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        # generic 3-state chain vs a direct linear solve
        q = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
        m3 = MarkovMeasure(matrix=tuple(map(tuple, q)))
        a = np.vstack([q.T - np.eye(3), np.ones(3)])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(m3.stationary, ref, atol=1e-10)

    def test_markov_rejects_reducible_and_periodic(self):
        with pytest.raises(ConfigError):
            MarkovMeasure(matrix=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ConfigError):
            MarkovMeasure(matrix=((0.0, 1.0), (1.0, 0.0)))

    def test_markov_rejects_bad_rows(self):
        with pytest.raises(ConfigError):
            MarkovMeasure(matrix=((0.9, 0.2), (0.2, 0.8)))


class TestSystems:
    def test_shift_measure_compat(self):
        with pytest.raises(ConfigError):
            ShiftSystem(alphabet_size=3, measure=BernoulliMeasure(weights=(0.5, 0.5)))
        with pytest.raises(ConfigError):
            ShiftSystem(alphabet_size=2, measure=LebesgueMeasure())

    def test_torus_matrix_validation(self):
        with pytest.raises(ConfigError):
            TorusSystem(matrix=((1, 1), (1, 1)))  # det 0
        with pytest.raises(ConfigError):
            TorusSystem(matrix=((2, 0), (0, 2)))  # det 4
        with pytest.raises(ConfigError):
            TorusSystem(matrix=((0, -1), (1, 0)))  # rotation, |eig| = 1
        with pytest.raises(ConfigError):
            TorusSystem(matrix=((1.5, 1), (1, 1)))

    def test_cat_map_eigendata(self, cat):
        lam_s = (3.0 - np.sqrt(5.0)) / 2.0
        assert cat.contraction == pytest.approx(lam_s, abs=1e-12)
        assert expansion(cat) == pytest.approx(1.0 / lam_s, abs=1e-12)
        m = cat.int_matrix.astype(float)
        es = stable_vector(cat)
        eu = unstable_vector(cat)
        assert np.allclose(m @ es, -lam_s * es) or np.allclose(m @ es, lam_s * es)
        assert np.linalg.norm(es) == pytest.approx(1.0)
        assert np.linalg.norm(eu) == pytest.approx(1.0)
        assert np.array_equal(cat.int_matrix @ cat.int_inverse, np.eye(2, dtype=np.int64))


class TestPoints:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            ShiftPoint(window=np.array([0, 1], dtype=np.int16))  # even length
        with pytest.raises(HorizonExceeded):
            ShiftPoint(window=np.array([0, 1, 0], dtype=np.int16), offset=2)

    def test_window_is_read_only(self):
        p = wpoint(0, 1, 0)
        assert not p.window.flags.writeable
        with pytest.raises(ValueError):
            p.window[0] = 1

    def test_symbol_access(self):
        p = wpoint(3, 1, 4, 1, 5, offset=1)
        assert p.symbol(0) == 1
        assert p.symbol(-3) == 3
        assert p.symbol(1) == 5
        with pytest.raises(HorizonExceeded):
            p.symbol(2)

    def test_torus_point_wraps(self):
        p = TorusPoint(-0.25, 1.5)
        assert (p.u, p.v) == (0.75, 0.5)


class TestApplyF:
    def test_shift_moves_offset(self, shift2):
        p = wpoint(0, 1, 1, 0, 1)
        q = apply_f(shift2, p, 2)
        assert q.offset == 2 and q.symbol(0) == 1
        assert apply_f(shift2, q, -2).offset == 0
        with pytest.raises(HorizonExceeded):
            apply_f(shift2, p, 3)

    def test_cat_map_half_half(self, cat):
        q = apply_f(cat, TorusPoint(0.5, 0.5))
        assert (q.u, q.v) == (0.5, 0.0)

    def test_torus_composition_is_exact(self, cat):
        x = TorusPoint(0.123, 0.456)
        lhs = apply_f(cat, x, 5)
        rhs = apply_f(cat, apply_f(cat, x, 2), 3)
        assert (lhs.u, lhs.v) == (rhs.u, rhs.v)

    def test_torus_inverse_roundtrip(self, cat):
        x = TorusPoint(0.3178, 0.9143)
        back = apply_f(cat, apply_f(cat, x, 1), -1)
        assert back.u == pytest.approx(x.u, abs=1e-12)
        assert back.v == pytest.approx(x.v, abs=1e-12)
        y = TorusPoint(0.5, 0.25)  # dyadic coords stay exact
        assert apply_f(cat, apply_f(cat, y, 3), -3).coords.tolist() == [0.5, 0.25]


WRAP_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-20, -1e-20, 5e-324, -5e-324,
    1.0 - 2.0**-53, -(1.0 - 2.0**-53), 2.0**52 + 0.5, -(2.0**52 + 0.5),
    2.0**53, -(2.0**53), 1e300, -1e300,
]


def same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestWrap:
    """wrap_unit is bitwise the remainder x % 1.0."""

    def test_edge_values(self):
        xs = np.array(WRAP_EDGES)
        assert same_bits(base.wrap_unit(xs), xs % 1.0)
        for x in WRAP_EDGES:
            assert same_bits(base.wrap_unit(x), x % 1.0)
        assert base.wrap_unit(-1e-20) == 1.0
        assert TorusPoint(-1e-20, -0.0).coords.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 10.0, 1e3, 1e8, 1e15])
    def test_random_values_both_signs(self, scale):
        x = scale * np.random.default_rng(1).standard_normal(100_000)
        assert (x < 0).any() and (x > 0).any()
        assert same_bits(base.wrap_unit(x), x % 1.0)

    def test_forward_and_inverse_steps(self, cat):
        # the raw sums a torus step wraps, for the map and for its inverse,
        # whose off-diagonal entries make them negative
        uv = np.random.default_rng(2).random((100_000, 2))
        for m in (cat.int_matrix, cat.int_inverse):
            for row in m:
                x = row[0] * uv[:, 0] + row[1] * uv[:, 1]
                assert same_bits(base.wrap_unit(x), x % 1.0)


class TestDistance:
    def test_shift_first_disagreement(self, shift2):
        x = wpoint(0, 0, 1, 1, 0, 1, 1)
        y = wpoint(1, 0, 1, 1, 0, 1, 0)  # differs at indices -3 and +3
        assert base_distance(shift2, x, y) == 0.125
        assert base_distance(shift2, x, x) == 0.0

    def test_shift_center_disagreement(self, shift2):
        x = wpoint(0, 0, 0)
        y = wpoint(0, 1, 0)
        assert base_distance(shift2, x, y) == 1.0

    def test_torus_wraparound(self, cat):
        d = base_distance(cat, TorusPoint(0.9, 0.1), TorusPoint(0.1, 0.9))
        assert d == pytest.approx(0.2, abs=1e-15)

    def test_metric_axioms_shift(self, shift2):
        rng = np.random.default_rng(42)
        for _ in range(200):
            pts = [
                wpoint(*rng.integers(0, 2, size=9)) for _ in range(3)
            ]
            x, y, z = pts
            dxy = base_distance(shift2, x, y)
            assert dxy == base_distance(shift2, y, x)
            assert dxy <= base_distance(shift2, x, z) + base_distance(shift2, z, y) + 1e-15

    def test_metric_axioms_torus(self, cat):
        rng = np.random.default_rng(43)
        for _ in range(200):
            x, y, z = (TorusPoint(*rng.random(2)) for _ in range(3))
            dxy = base_distance(cat, x, y)
            assert dxy == base_distance(cat, y, x)
            assert dxy <= base_distance(cat, x, z) + base_distance(cat, z, y) + 1e-15


class TestSampling:
    def test_reproducible(self, shift2, cat):
        a = sample_points(shift2, 5, 10, seed=7)
        b = sample_points(shift2, 5, 10, seed=7)
        for p, q in zip(a, b):
            assert np.array_equal(p.window, q.window)
        ta = sample_points(cat, 5, 0, seed=7)
        tb = sample_points(cat, 5, 0, seed=7)
        for p, q in zip(ta, tb):
            assert (p.u, p.v) == (q.u, q.v)

    def test_substream_consistency(self, shift2, cat):
        # point i comes from its own substream, whatever the count
        few = sample_points(shift2, 3, 6, seed=123)
        many = sample_points(shift2, 10, 6, seed=123)
        for p, q in zip(few, many):
            assert np.array_equal(p.window, q.window)
        few = sample_points(cat, 3, 0, seed=123)
        many = sample_points(cat, 10, 0, seed=123)
        for p, q in zip(few, many):
            assert (p.u, p.v) == (q.u, q.v)

    def test_bernoulli_frequencies(self):
        sys = ShiftSystem(alphabet_size=2, measure=BernoulliMeasure(weights=(0.3, 0.7)))
        pts = sample_points(sys, 2000, 10, seed=5)
        symbols = np.concatenate([p.window for p in pts])
        freq = np.mean(symbols == 1)
        assert freq == pytest.approx(0.7, abs=0.02)

    def test_degenerate_bernoulli(self):
        sys = ShiftSystem(alphabet_size=2, measure=BernoulliMeasure(weights=(1.0, 0.0)))
        pts = sample_points(sys, 10, 5, seed=1)
        assert all(np.all(p.window == 0) for p in pts)

    def test_markov_transition_frequencies(self):
        p = ((0.9, 0.1), (0.2, 0.8))
        sys = ShiftSystem(alphabet_size=2, measure=MarkovMeasure(matrix=p))
        pts = sample_points(sys, 1500, 12, seed=9)
        wins = np.stack([q.window for q in pts])
        prev = wins[:, :-1].ravel()
        nxt = wins[:, 1:].ravel()
        for s in (0, 1):
            sel = prev == s
            trans = np.mean(nxt[sel] == 1)
            assert trans == pytest.approx(p[s][1], abs=0.03)
        occ = np.mean(wins == 0)
        assert occ == pytest.approx(2.0 / 3.0, abs=0.03)

    def test_torus_uniform(self, cat):
        pts = sample_points(cat, 4000, 0, seed=11)
        coords = np.array([[p.u, p.v] for p in pts])
        assert np.all(coords >= 0.0) and np.all(coords < 1.0)
        assert np.mean(coords[:, 0]) == pytest.approx(0.5, abs=0.025)
        assert np.mean(coords[:, 1]) == pytest.approx(0.5, abs=0.025)


def numpy_substream(seed, i):
    """Point i's generator as numpy builds it: the per-point oracle."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def one_shot_windows(sys, count, horizon, seed):
    """Windows by the one-shot route: the whole draw as float64 uniforms,
    one numpy generator per point, then every symbol at once."""
    length = 2 * horizon + 1
    uniforms = np.empty((count, length))
    for i in range(count):
        uniforms[i] = numpy_substream(seed, i).random(length)
    measure = sys.measure
    if isinstance(measure, BernoulliMeasure):
        cum = np.cumsum(measure.weights)
        symbols = np.searchsorted(cum, uniforms.ravel(), side="right")
        return symbols.reshape(count, length).astype(np.int16)
    cum_rows = np.cumsum(np.asarray(measure.matrix), axis=1)
    cum_pi = np.cumsum(np.asarray(measure.stationary))
    windows = np.empty((count, length), dtype=np.int16)
    state = (cum_pi[None, :] <= uniforms[:, :1]).sum(axis=1)
    windows[:, 0] = state
    for t in range(1, length):
        state = (cum_rows[state] <= uniforms[:, t : t + 1]).sum(axis=1)
        windows[:, t] = state
    return windows


MEASURES = {
    "bernoulli": BernoulliMeasure(weights=(0.2, 0.5, 0.3)),
    "markov": MarkovMeasure(
        matrix=((0.5, 0.3, 0.2), (0.1, 0.8, 0.1), (0.3, 0.3, 0.4))
    ),
}


class TestChunkedSampling:
    @pytest.mark.parametrize("kind", sorted(MEASURES))
    @pytest.mark.parametrize("chunk_rows", [3, 256, None])
    def test_windows_match_one_shot_route(self, monkeypatch, kind, chunk_rows):
        sys = ShiftSystem(alphabet_size=3, measure=MEASURES[kind])
        count, horizon = (10, 7) if chunk_rows == 3 else (700, 20)
        if chunk_rows is not None:
            # chunks of exactly chunk_rows rows, the last one partial
            monkeypatch.setattr(base, "_MIN_CHUNK_ROWS", chunk_rows)
            monkeypatch.setattr(base, "_CHUNK_ENTRIES", 1)
        else:
            # the shipped sizes: a 1307-row chunk, then a partial one
            count, horizon = 2000, 200
        draw = sample_points(sys, count, horizon, seed=5)
        assert draw.windows.dtype == np.int16 and not draw.windows.flags.writeable
        assert np.array_equal(draw.windows, one_shot_windows(sys, count, horizon, 5))


class TestDraws:
    def test_shift_draw_points_and_slices(self, shift2):
        draw = sample_points(shift2, 6, 4, seed=2)
        assert isinstance(draw, ShiftDraw) and len(draw) == 6
        p = draw[4]
        assert p.offset == 0 and p.horizon == 4
        assert np.shares_memory(p.window, draw.windows)
        part = draw[1:5]
        assert isinstance(part, ShiftDraw) and len(part) == 4
        assert np.array_equal(part[0].window, draw[1].window)
        assert [q.window.size for q in draw] == [9] * 6

    def test_torus_draw_points_and_slices(self, cat):
        draw = sample_points(cat, 6, 0, seed=2)
        assert isinstance(draw, TorusDraw) and len(draw) == 6
        assert (draw[3].u, draw[3].v) == tuple(draw.coords[3])
        assert (draw[2:4][1].u, draw[2:4][1].v) == (draw[3].u, draw[3].v)
        assert not draw.coords.flags.writeable

    def test_vectorized_torus_metric_matches_points(self, cat):
        rng = np.random.default_rng(8)
        xs, ys = rng.random((50, 2)), rng.random((50, 2))
        for x, y, d in zip(xs, ys, base.torus_distances(xs, ys)):
            assert base_distance(cat, TorusPoint(*x), TorusPoint(*y)) == d


def one_shot_lattice(count, seed):
    """Torus lattice integers, one numpy generator per point."""
    return np.array(
        [numpy_substream(seed, i).integers(0, 2**26, size=2) for i in range(count)],
        dtype=np.int64,
    ).reshape(count, 2)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70]


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 4 rows, so a draw of 10 points crosses two boundaries."""
    monkeypatch.setattr(base, "_MIN_CHUNK_ROWS", 4)
    monkeypatch.setattr(base, "_CHUNK_ENTRIES", 1)


class TestBulkSeeding:
    """The bulk-seeded draw against numpy's own per-point generators."""

    @pytest.mark.parametrize("seed", SEEDS + [2**128 + 5])
    def test_states_match_numpy(self, seed):
        def numpy_state(i):
            bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))
            return bits.state["state"]["state"], bits.state["state"]["inc"]

        for lo, hi in [(0, 300), (69_990, 70_010), (2**32 - 2, 2**32)]:
            want = [numpy_state(i) for i in range(lo, hi)]
            assert base._pcg64_states(seed, lo, hi) == want

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "alphabet, measure",
        [
            (2, BernoulliMeasure(weights=(0.4, 0.6))),
            (3, BernoulliMeasure(weights=(0.3, 0.0, 0.7))),
            (3, MEASURES["markov"]),
        ],
        ids=["bernoulli2", "bernoulli3-zero", "markov3"],
    )
    def test_windows_match_numpy(self, small_chunks, seed, alphabet, measure):
        sys = ShiftSystem(alphabet_size=alphabet, measure=measure)
        draw = sample_points(sys, 10, 6, seed)
        assert np.array_equal(draw.windows, one_shot_windows(sys, 10, 6, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_torus_lattice_matches_numpy(self, small_chunks, cat, seed):
        draw = sample_points(cat, 10, 0, seed)
        ints = one_shot_lattice(10, seed)
        assert np.array_equal(draw.coords * 2**26, ints)
        assert np.array_equal(draw.coords, ints / 2**26)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lattice_pairs_match_numpy(self, seed):
        # the pair computed from each seeded state is numpy's own draw
        for lo, hi in [(0, 300), (2**32 - 3, 2**32)]:
            states = base._pcg64_states(seed, lo, hi)
            for i, state in zip(range(lo, hi), states):
                want = numpy_substream(seed, i).integers(0, 2**26, size=2)
                assert base._lattice_pair(*state) == tuple(want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_torus_draw_crosses_seed_blocks(self, monkeypatch, cat, seed):
        monkeypatch.setattr(base, "_SEED_BLOCK", 4)
        draw = sample_points(cat, 10, 0, seed)
        assert np.array_equal(draw.coords, one_shot_lattice(10, seed) / 2**26)

    def test_holder_draw_matches_numpy(self, cat):
        sample = _HolderSample.draw(cat, pairs=300, seed=7)
        assert np.array_equal(sample.coords[:600], one_shot_lattice(600, 7) / 2**26)

    def test_guard_stops_a_changed_seeding(self, monkeypatch, shift2, cat):
        monkeypatch.setattr(base, "_PCG64_MULT", base._PCG64_MULT + 2)
        for sys in (shift2, cat):
            with pytest.raises(CocycleLabError, match="seeding"):
                sample_points(sys, 3, 2, seed=1)
            # an empty draw seeds nothing and checks nothing
            assert len(sample_points(sys, 0, 2, seed=1)) == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lo, hi: (hi, lo),  # halves swapped
            lambda lo, hi: (lo ^ 1, hi),  # one low bit
            lambda lo, hi: (lo, hi >> 1),  # a half shifted by 7, not 6
        ],
        ids=["swapped", "low-bit", "shift"],
    )
    def test_guard_stops_a_changed_lattice_pair(self, monkeypatch, shift2, cat, mutate):
        pair = base._lattice_pair
        monkeypatch.setattr(base, "_lattice_pair", lambda s, i: mutate(*pair(s, i)))
        for sys in (shift2, cat):
            with pytest.raises(CocycleLabError, match="seeding differs"):
                sample_points(sys, 3, 2, seed=1)

    def test_negative_seed_is_a_config_error(self, shift2):
        with pytest.raises(ConfigError, match="seed"):
            sample_points(shift2, 2, 3, seed=-1)

    def test_count_limit(self, shift2):
        with pytest.raises(ConfigError, match="2\\*\\*32"):
            sample_points(shift2, 2**32 + 1, 0, seed=0)


def searched(cut, uniforms):
    """The conversion by binary search: the oracle for the bucket table."""
    return np.searchsorted(cut, uniforms, side="right").astype(np.int16)


def converted(weights, uniforms):
    """Symbols of ``uniforms`` through the bucket table, as sample_points
    converts a chunk (two rows, so the split fallback indexes a 2-d out)."""
    cut = base._cut_points(np.asarray(weights, dtype=float))
    table = base._bucket_table(cut)
    u = np.asarray(uniforms, dtype=float).reshape(2, -1).copy()
    out = np.empty(u.shape, dtype=np.int16)
    base._to_symbols(cut, table, u, out)
    return cut, table, out.ravel()


TOP = 1.0 - 2.0**-53  # the largest uniform numpy draws


class TestSymbolTable:
    """Uniforms become symbols through a table over their top bits,
    bitwise the binary search; the cut points stop at the last positive
    weight, so no uniform maps outside the symbols that have weight."""

    @pytest.mark.parametrize(
        "weights",
        [
            (0.5, 0.5),
            (0.3, 0.7),
            (1 / 3, 1 / 3, 1 / 3),
            (0.0, 0.3, 0.0, 0.0, 0.7, 0.0),
            (2.0**-20, 0.25, 0.75 - 2.0**-20),
            tuple(np.random.default_rng(4).dirichlet(np.ones(1000))),
        ],
        ids=["halves", "split", "thirds", "zeros", "narrow", "1000"],
    )
    def test_matches_search(self, weights):
        cut = base._cut_points(np.asarray(weights, dtype=float))
        step = 2.0**-base._BUCKET_BITS
        finite = cut[np.isfinite(cut)]
        # every cut point, its neighbours and the edges of its bucket
        near = np.concatenate(
            [finite, np.nextafter(finite, 0.0), np.nextafter(finite, 1.0)]
        )
        edges = np.floor(near / step) * step
        edges = np.concatenate([edges, edges + step, np.nextafter(edges, 0.0)])
        special = np.concatenate([near, edges, [0.0, 2.0**-53, 0.5, TOP]])
        special = special[(special >= 0.0) & (special < 1.0)]
        randoms = np.random.default_rng(9).random(20_000 - special.size % 2)
        uniforms = np.concatenate([special, randoms])
        cut, table, got = converted(weights, uniforms)
        assert np.array_equal(got, searched(cut, uniforms))
        # the search fallback ran wherever a cut point splits a bucket
        split = table[(uniforms / step).astype(np.int64)] < 0
        if weights == (0.5, 0.5):
            assert not np.any(table < 0)  # 1/2 is a bucket edge: no split
        else:
            assert split.any()
        if len(weights) < 1000:
            assert np.array_equal(got, searched(np.asarray(weights).cumsum(), uniforms))

    @pytest.mark.parametrize(
        "weights, splits", [((0.5, 0.5), False), ((0.3, 0.7), True)], ids=["halves", "split"]
    )
    def test_split_search_runs_only_with_a_split_bucket(self, monkeypatch, weights, splits):
        uniforms = np.random.default_rng(5).random(4_000)
        cut = base._cut_points(np.asarray(weights, dtype=float))
        expected = searched(cut, uniforms)
        assert np.any(base._bucket_table(cut) < 0) == splits
        calls = []
        find = np.flatnonzero

        def counted(*args, **kwargs):
            calls.append(args)
            return find(*args, **kwargs)

        # the split buckets' uniforms are looked for only when there are any
        monkeypatch.setattr(base.np, "flatnonzero", counted)
        _, _, got = converted(weights, uniforms)
        monkeypatch.undo()
        assert np.array_equal(got, expected)
        assert bool(calls) == splits

    @pytest.mark.parametrize(
        "weights, last",
        [
            ((0.1,) * 10, 9),
            ((0.5, 0.5 - 4e-13), 1),
            ((0.1,) * 10 + (0.0, 0.0), 9),
        ],
        ids=["tenths", "short", "trailing-zeros"],
    )
    def test_top_uniforms_stay_in_alphabet(self, weights, last):
        # each cumsum rounds below 1, so the plain search maps the top
        # uniforms past the last symbol with weight
        BernoulliMeasure(weights=weights)  # a legal measure
        assert np.cumsum(weights)[-1] < 1.0
        assert np.searchsorted(np.cumsum(weights), TOP, side="right") > last
        _, _, got = converted(weights, [TOP, 0.0, 0.9999999999999, TOP])
        assert got[0] == got[3] == last and got[1] == 0

    def test_markov_cut_points(self):
        rows = np.array([[0.5, 0.5 - 4e-13, 0.0], [0.0, 0.5, 0.5 - 4e-13], [1.0, 0.0, 0.0]])
        cut = base._cut_points(rows)
        assert np.array_equal(np.isinf(cut), [[0, 1, 1], [0, 0, 1], [1, 1, 1]])
        assert np.array_equal(cut[:, 0], [0.5, 0.0, np.inf])
        assert list((cut <= TOP).sum(axis=1)) == [1, 2, 0]

    @pytest.mark.parametrize(
        "measure, alphabet, last",
        [
            (BernoulliMeasure(weights=(0.1,) * 10), 10, 9),
            (MarkovMeasure(matrix=((0.5, 0.5 - 4e-13), (0.5 - 4e-13, 0.5))), 2, 1),
        ],
        ids=["bernoulli", "markov"],
    )
    def test_draw_of_top_uniforms(self, monkeypatch, measure, alphabet, last):
        class Top:
            def random(self, out):
                out[:] = TOP

        def substreams(seed, lo, hi):
            for _ in range(lo, hi):
                yield Top()

        monkeypatch.setattr(base, "_substreams", substreams)
        sys = ShiftSystem(alphabet_size=alphabet, measure=measure)
        windows = sample_points(sys, 5, 3, seed=0).windows
        assert np.all(windows == last)
