"""Seeded sampling estimators: determinism, calibration, exact agreement."""

import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from scipy import stats

import oracles
from setshaping import (
    DegenerateSampleError,
    McConfig,
    ResourceLimitError,
    SourceEnsemble,
    average_info_exact,
    estimate_average_info,
    estimate_shaped_average_info,
    estimate_table,
    info_from_counts,
    sample_compositions,
    shaped_average_info_exact,
    shard_generator,
)
from setshaping import montecarlo
from setshaping.montecarlo import SHARD_SIZE


@pytest.fixture(scope="module")
def exact_a3_n100():
    return (
        average_info_exact(SourceEnsemble.uniform(3), 100),
        shaped_average_info_exact(3, 100, 1),
    )


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        # the sizes are checked in field order, with the messages of
        # ShapingParameters, SourceEnsemble and shaping_experiment
        with pytest.raises(ValueError, match="alphabet must have at least one symbol"):
            McConfig(alphabet_size=0, n=0, k=0, samples=0, seed=0)
        with pytest.raises(ValueError, match="block length must be positive"):
            McConfig(alphabet_size=2, n=0, k=0, samples=0, seed=0)
        with pytest.raises(ValueError, match="length surplus must be positive"):
            McConfig(alphabet_size=2, n=5, k=0, samples=0, seed=0)
        with pytest.raises(ValueError, match="need at least one sample"):
            McConfig(alphabet_size=2, n=5, k=1, samples=0, seed=0)
        with pytest.raises(ValueError):
            McConfig(alphabet_size=2, n=5, k=1, samples=10, seed=-1)
        with pytest.raises(ValueError):
            McConfig(alphabet_size=2, n=5, k=1, samples=10, seed=2**64)
        with pytest.raises(ValueError):
            McConfig(alphabet_size=2, n=5, k=1, samples=10, seed=0, threads=0)

    @pytest.mark.parametrize(
        "field", ["alphabet_size", "n", "k", "samples", "seed", "threads"]
    )
    def test_fields_are_integers(self, monkeypatch, field):
        # numpy would truncate a fractional block length in the draw and
        # estimate n=10; every field is refused before any draw instead
        draws = []
        monkeypatch.setattr(montecarlo, "sample_compositions", lambda *args: draws.append(args))
        fields = dict(alphabet_size=3, n=10, k=1, samples=1000, seed=1, threads=1)
        for bad in (fields[field] + 0.5, float(fields[field])):
            with pytest.raises(TypeError):
                estimate_table([McConfig(**{**fields, field: bad})], method="auto")
        assert draws == []

    def test_numpy_integer_fields_accepted(self):
        plain = McConfig(alphabet_size=3, n=10, k=1, samples=1000, seed=1, threads=2)
        wide = McConfig(
            alphabet_size=np.int64(3),
            n=np.int32(10),
            k=np.uint8(1),
            samples=np.int64(1000),
            seed=np.uint64(1),
            threads=np.int16(2),
        )
        assert repr(wide) == repr(plain)
        assert wide == plain

    def test_single_symbol_alphabet_accepted(self):
        cfg = McConfig(alphabet_size=1, n=9, k=3, samples=64, seed=1)
        assert estimate_average_info(cfg).mean == 0.0
        assert estimate_shaped_average_info(cfg).mean == 0.0


class TestSampling:
    def test_shard_streams_are_stable(self):
        a = shard_generator(123, 0).integers(0, 1 << 30, size=4)
        b = shard_generator(123, 0).integers(0, 1 << 30, size=4)
        c = shard_generator(123, 1).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_composition_sampler_shape_and_sum(self):
        counts = sample_compositions(shard_generator(0, 0), 12, 4, size=100)
        assert counts.shape == (100, 4)
        assert np.all(counts.sum(axis=1) == 12)

    def test_composition_sampler_goodness_of_fit(self):
        # sampled composition frequencies against the exact class weights
        n, a, m = 5, 3, 10**6
        comps = list(oracles.compositions(n, a))
        index = {c: i for i, c in enumerate(comps)}
        probs = np.array([oracles.class_weight([1 / a] * a, c) for c in comps])
        counts = sample_compositions(shard_generator(42, 0), n, a, size=m)
        observed = np.zeros(len(comps))
        for row in counts:
            observed[index[tuple(int(v) for v in row)]] += 1
        result = stats.chisquare(observed, probs * m)
        assert result.pvalue > 0.001

    def test_string_sampler_matches_composition_law(self):
        n, a, m = 3, 2, 200_000
        strings = oracles.sample_strings(shard_generator(9, 0), n, a, size=m)
        assert strings.shape == (m, n)
        comps = list(oracles.compositions(n, a))
        probs = np.array([oracles.class_weight([1 / a] * a, c) for c in comps])
        ones = strings.sum(axis=1)
        observed = np.array([(ones == c[1]).sum() for c in comps])
        result = stats.chisquare(observed, probs * m)
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("length", [5, 101, 300])
    @pytest.mark.parametrize("a", [2, 3, 6, 10])
    def test_sub_chunk_draws_equal_one_whole_shard_draw(self, a, length):
        # Shards are drawn in sub-chunks written in place: numpy must give
        # the same rows whatever the size of each call on one stream.
        step = montecarlo._CHUNK_ROWS
        size = 2 * step + 123
        whole = sample_compositions(shard_generator(11, 2), length, a, size)
        rng = shard_generator(11, 2)
        chunks = [
            sample_compositions(rng, length, a, min(step, size - lo))
            for lo in range(0, size, step)
        ]
        assert np.array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("length, dtype", [(101, np.uint8), (300, np.uint16)])
    def test_rows_land_at_their_sample_index(self, monkeypatch, length, dtype):
        # With no window the shaped estimator keeps every row.  The driver's
        # sub-chunks, shard after shard, are the draws in sample order, each
        # starting at the sample index of its first row.
        m = SHARD_SIZE + 17
        cfg = McConfig(alphabet_size=3, n=length - 1, k=1, samples=m, seed=6, threads=2)
        parts = []
        real = montecarlo._sampled_shards

        def spy(config, length, consume):
            def record(counts, infos, start):
                kept = consume(counts, infos, start)
                parts.append((start, *kept))
                return kept

            shards = real(config, length, record)
            parts.sort(key=lambda part: part[0])
            return shards

        monkeypatch.setattr(montecarlo, "_sampled_shards", spy)
        monkeypatch.setattr(montecarlo, "_WINDOW_MARGIN", math.inf)
        estimate_shaped_average_info(cfg)
        want = np.concatenate(
            [
                sample_compositions(shard_generator(6, i), length, 3, size)
                for i, size in enumerate(montecarlo._shard_sizes(m))
            ]
        )
        starts, infos, counts = zip(*parts)
        assert list(starts) == np.cumsum([0] + [len(c) for c in counts[:-1]]).tolist()
        counts, infos = np.concatenate(counts), np.concatenate(infos)
        assert counts.dtype == dtype
        assert np.array_equal(counts, want)
        assert infos.tobytes() == info_from_counts(want).tobytes()

    def test_info_of_balanced_counts(self):
        got = float(info_from_counts(np.array([[2, 2]]))[0])
        assert math.isclose(got, 4.0, abs_tol=1e-12)


class TestInfoFromCounts:
    """Integer counts go through a c*ln(c) lookup table, float counts through
    math.log per element; both give exactly the floats of the xlogy formula."""

    @staticmethod
    def _counts():
        rows = sample_compositions(shard_generator(8, 0), 40, 5, size=500)
        # one-symbol rows (content exactly 0) in every position, zeros in most
        return np.vstack([rows, 40 * np.eye(5, dtype=np.int64)])

    @staticmethod
    def _xlogy_formula(counts):
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1)
        return (scipy.special.xlogy(n, n) - scipy.special.xlogy(c, c).sum(axis=-1)) / math.log(2)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_table_path_is_bit_identical_to_float_path(self, dtype):
        counts = self._counts().astype(dtype)
        want = self._xlogy_formula(counts)
        looked_up = info_from_counts(counts)
        direct = info_from_counts(counts.astype(np.float64))
        assert looked_up.dtype == np.float64
        assert looked_up.tobytes() == want.tobytes()
        assert direct.tobytes() == want.tobytes()
        assert np.all(looked_up[-5:] == 0.0)

    def test_float_path_is_bit_identical_to_xlogy(self):
        rng = np.random.default_rng(2021)
        # reals, integral floats, a subnormal and values near the float limits
        rows = np.concatenate(
            [rng.random(60_000) * 1000, np.arange(3000.0), [0.0, 5e-324, 1e-300, 1e300, 0.5, 1.0]]
        ).reshape(-1, 3)
        assert info_from_counts(rows).tobytes() == self._xlogy_formula(rows).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_negative_counts_rejected(self, dtype):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            info_from_counts(np.array([[3, 0], [2, -1]], dtype=dtype))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_counts_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="counts must be finite"):
                info_from_counts(np.array([[bad, 1.0], [2.0, 2.0]]))

    def test_all_zero_rows_and_tiny_input(self):
        for counts in ([[0, 0, 0]] * 4, [[3, 0], [0, 3], [1, 2]], [[2, 2]]):
            counts = np.array(counts)
            want = info_from_counts(counts.astype(np.float64))
            assert info_from_counts(counts).tobytes() == want.tobytes()

    def test_empty_matrix(self):
        for dtype in (np.int64, np.float64):
            got = info_from_counts(np.zeros((0, 4), dtype=dtype))
            assert got.shape == (0,) and got.dtype == np.float64

    def test_float_input_keeps_the_float_path(self):
        counts = np.array([[1.5, 2.5], [4.0, 0.0]])
        got = info_from_counts(counts)
        assert got[1] == 0.0
        assert math.isclose(got[0], 4 * math.log2(4) - 1.5 * math.log2(1.5) - 2.5 * math.log2(2.5))


class TestEstimators:
    def test_mean_estimate_near_exact(self, exact_a3_n100):
        exact_x, _ = exact_a3_n100
        est = estimate_average_info(McConfig(alphabet_size=3, n=100, k=1, samples=40_000, seed=5))
        assert est.samples_used == 40_000
        assert est.std_error > 0
        assert abs(est.mean - exact_x) < 4 * est.std_error

    def test_shaped_estimate_near_exact(self, exact_a3_n100):
        _, exact_y = exact_a3_n100
        est = estimate_shaped_average_info(
            McConfig(alphabet_size=3, n=100, k=1, samples=40_000, seed=5)
        )
        assert est.samples_used == 40_000 // 3
        assert abs(est.mean - exact_y) < 4 * est.std_error

    def test_error_bars_cover_exact_values(self, exact_a3_n100):
        # 3-sigma coverage across 30 fixed seeds, both estimators
        exact_x, exact_y = exact_a3_n100
        m = 20_000
        for seed in range(30):
            cfg = McConfig(alphabet_size=3, n=100, k=1, samples=m, seed=seed)
            est_x = estimate_average_info(cfg)
            est_y = estimate_shaped_average_info(cfg)
            assert abs(est_x.mean - exact_x) <= 3 * est_x.std_error
            assert abs(est_y.mean - exact_y) <= 3 * est_y.std_error

    def test_degenerate_quantile_rejected(self):
        with pytest.raises(DegenerateSampleError):
            estimate_shaped_average_info(
                McConfig(alphabet_size=3, n=4, k=2, samples=5, seed=0)
            )

    def test_single_sample_mean(self):
        est = estimate_average_info(McConfig(alphabet_size=2, n=8, k=1, samples=1, seed=0))
        assert est.samples_used == 1
        assert est.std_error == math.inf


class TestTieBand:
    def test_band_order_matches_per_sample_sort(self):
        # (4,4,4,4,0) and (8,2,2,2,2) tie on product across partitions;
        # permutations tie within one; samples repeat every vector.
        vectors = np.array(
            [(4, 4, 4, 4, 0), (8, 2, 2, 2, 2), (2, 8, 2, 2, 2), (0, 4, 4, 4, 4),
             (5, 5, 3, 3, 0), (3, 5, 5, 0, 3), (16, 0, 0, 0, 0)]
        )
        rng = np.random.default_rng(4)
        counts = vectors[rng.integers(0, len(vectors), size=2 * SHARD_SIZE + 99)]
        counts = counts.astype(np.uint8)  # the dtype the estimator keeps at n+k=16
        band = rng.random(len(counts)) < 0.01
        got = np.flatnonzero(band)[montecarlo._band_in_exact_order(counts[band])]
        rows = {i: tuple(counts[i].tolist()) for i in np.flatnonzero(band).tolist()}
        want = sorted(rows, key=lambda i: (-oracles.order_product(rows[i]), rows[i], i))
        assert got.tolist() == want


class TestWindow:
    """The shaped estimator keeps only the samples below its window, and
    draws again keeping all where the window falls short: below the cut, or
    inside the cut's tie band.  Either way the estimate is the same."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The length of every draw the shaped estimator makes."""
        calls = []
        real = montecarlo._sampled_shards

        def spy(config, length, consume):
            calls.append(length)
            return real(config, length, consume)

        monkeypatch.setattr(montecarlo, "_sampled_shards", spy)
        return calls

    @pytest.mark.parametrize(
        "a, n, k, m",
        [
            (1, 9, 3, 64),
            (2, 7, 1, 999),
            (3, 50, 2, 5000),
            (10, 100, 1, SHARD_SIZE + 17),
            (10, 3, 1, 2000),
            (16, 10, 2, 20_000),
        ],
    )
    def test_forced_miss_changes_nothing(self, monkeypatch, passes, a, n, k, m):
        cfg = McConfig(alphabet_size=a, n=n, k=k, samples=m, seed=31, threads=2)
        want = repr(estimate_shaped_average_info(cfg))
        monkeypatch.setattr(montecarlo, "_WINDOW_MARGIN", -1e9)
        passes.clear()
        assert repr(estimate_shaped_average_info(cfg)) == want
        # An alphabet of one has no window to miss.
        assert passes == [n + k] * (1 if a == 1 else 2)

    @pytest.mark.parametrize("above", [False, True])
    def test_window_at_the_cut_draws_again(self, monkeypatch, passes, above):
        # At the cut value itself the window keeps fewer samples than the
        # cut; one float above it, the window keeps the cut but falls
        # inside its tie band.
        m, a, length = 3000, 3, 41
        cfg = McConfig(alphabet_size=a, n=length - 1, k=1, samples=m, seed=8)
        want = repr(estimate_shaped_average_info(cfg))
        drawn = sample_compositions(shard_generator(8, 0), length, a, m)
        cut_value = np.sort(info_from_counts(drawn))[m // a - 1]
        window = np.nextafter(cut_value, math.inf) if above else cut_value
        monkeypatch.setattr(montecarlo, "_keep_window", lambda *_: float(window))
        passes.clear()
        assert repr(estimate_shaped_average_info(cfg)) == want
        assert passes == [length, length]

    @pytest.mark.parametrize("m, seeds", [(20_000, range(21)), (10**6, (0, 20))])
    def test_table2_rows_draw_once(self, passes, m, seeds):
        for a in range(2, 11):
            for seed in seeds:
                cfg = McConfig(alphabet_size=a, n=100, k=1, samples=m, seed=seed, threads=2)
                estimate_shaped_average_info(cfg)
        assert passes == [101] * (9 * len(seeds))

    @pytest.mark.parametrize(
        "a, n, k, draws",
        [(1, 20, 1, 1), (3, 1, 2, 2), (6, 100, 1, 1), (10, 3, 1, 2), (16, 10, 2, 2)],
    )
    def test_thread_count_never_changes_results(self, passes, a, n, k, draws):
        base = dict(alphabet_size=a, n=n, k=k, samples=2 * SHARD_SIZE + 1234, seed=79)
        results = set()
        for threads in (1, 2, 3):
            passes.clear()
            results.add(repr(estimate_shaped_average_info(McConfig(**base, threads=threads))))
            assert len(passes) == draws
        assert len(results) == 1


class TestMeanAndStd:
    """numpy's mean and std(ddof=1), taken in place on the contents."""

    @pytest.mark.parametrize("size", [2, 3, 129, 1_000_003])
    def test_bits_of_numpy_mean_and_std(self, size):
        rng = np.random.default_rng(size)
        for values in (
            rng.standard_normal(size),
            300 + 5 * rng.standard_normal(size),
            rng.random(size) * 1e6,
        ):
            want = (float(values.mean()), float(values.std(ddof=1)))
            got = montecarlo._mean_and_std(values.copy())
            assert [x.hex() for x in got] == [x.hex() for x in want]


class TestShapedOracle:
    """The quantile cut against a plain sort of every sampled row."""

    @pytest.mark.parametrize("a, n", [(3, 299), (10, 100)])
    def test_cut_takes_the_sorted_prefix(self, a, n):
        m = SHARD_SIZE + 17  # an uneven shard split
        cfg = McConfig(alphabet_size=a, n=n, k=1, samples=m, seed=12, threads=2)
        est = estimate_shaped_average_info(cfg)
        drawn = np.concatenate(
            [
                sample_compositions(shard_generator(cfg.seed, i), n + 1, a, size)
                for i, size in enumerate(montecarlo._shard_sizes(m))
            ]
        )
        rows = [tuple(row) for row in drawn.tolist()]
        chosen = oracles.sampled_shaped_selection(rows, a, 1)
        want = math.fsum(oracles.composition_info_bits(rows[i]) for i in chosen) / len(chosen)
        assert est.samples_used == len(chosen)
        assert math.isclose(est.mean, want, rel_tol=1e-12)


class TestGolden:
    """Estimates pinned to their reprs, across an uneven shard split."""

    M = 3 * SHARD_SIZE + 17
    EXPECTED = {
        2: (
            "McEstimate(mean=99.27436098065883, std_error=0.0023110830663803763, samples_used=196625)",
            "McEstimate(mean=99.65801904325737, std_error=0.004286608666629007, samples_used=98312)",
        ),
        6: (
            "McEstimate(mean=254.85061620463054, std_error=0.005189105410924694, samples_used=196625)",
            "McEstimate(mean=253.45907153862962, std_error=0.014025563608827965, samples_used=32770)",
        ),
        10: (
            "McEstimate(mean=325.56644332067043, std_error=0.007070014513115993, samples_used=196625)",
            "McEstimate(mean=322.3910449110645, std_error=0.021958151956053263, samples_used=19662)",
        ),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("a", [2, 6, 10])
    def test_reprs_are_pinned(self, a, threads):
        cfg = McConfig(alphabet_size=a, n=100, k=1, samples=self.M, seed=2021, threads=threads)
        got = (repr(estimate_average_info(cfg)), repr(estimate_shaped_average_info(cfg)))
        assert got == self.EXPECTED[a]


class TestMemory:
    """Peak traced allocation against the bytes of the int64 count matrix.

    Measured at 0.128 (source: the contents and each thread's sub-chunk,
    10.2 bytes a sample) and 0.055 (shaped: the 14% of samples in the
    window, their contents, uint8 counts and one copy of the contents,
    4.4 bytes a sample).
    """

    @pytest.mark.parametrize(
        "estimator, limit",
        [(estimate_average_info, 0.16), (estimate_shaped_average_info, 0.1)],
    )
    def test_peak_against_count_matrix(self, estimator, limit):
        m, a = 16 * SHARD_SIZE, 10
        cfg = McConfig(alphabet_size=a, n=100, k=1, samples=m, seed=3, threads=2)
        tracemalloc.start()
        try:
            estimator(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit * m * a * 8


class TestMemoryRefusal:
    """A run whose preallocated arrays exceed physical memory never draws."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = montecarlo.shard_generator

        def spy(seed, shard_index):
            calls.append(shard_index)
            return real(seed, shard_index)

        monkeypatch.setattr(montecarlo, "shard_generator", spy)
        return calls

    @pytest.mark.parametrize(
        "estimator, a, n, per_sample",
        [
            (estimate_average_info, 10, 100, 8),  # the contents
            # A draw with no window: contents, their copy and uint8 counts
            (estimate_shaped_average_info, 10, 100, 16 + 10),
            (estimate_shaped_average_info, 3, 299, 16 + 3 * 2),  # or uint16 counts
        ],
    )
    def test_refused_just_below_its_arrays(
        self, monkeypatch, draws, estimator, a, n, per_sample
    ):
        cfg = McConfig(alphabet_size=a, n=n, k=1, samples=1000, seed=0)
        monkeypatch.setattr(montecarlo, "_physical_memory", lambda: 1000 * per_sample - 1)
        with pytest.raises(ResourceLimitError):
            estimator(cfg)
        assert draws == []
        monkeypatch.setattr(montecarlo, "_physical_memory", lambda: 1000 * per_sample)
        assert estimator(cfg).samples_used > 0
        assert draws == [0]

    def test_unknown_physical_memory_skips_the_check(self, monkeypatch):
        monkeypatch.delattr(os, "sysconf", raising=False)
        assert montecarlo._physical_memory() is None
        cfg = McConfig(alphabet_size=2, n=8, k=1, samples=10, seed=0)
        assert estimate_average_info(cfg).samples_used == 10


class TestDeterminism:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_thread_count_never_changes_results(self, threads):
        m = SHARD_SIZE + 1234  # force an uneven shard split
        base = dict(alphabet_size=3, n=50, k=1, samples=m, seed=77)
        one = estimate_average_info(McConfig(**base, threads=1))
        many = estimate_average_info(McConfig(**base, threads=threads))
        assert one == many
        one_s = estimate_shaped_average_info(McConfig(**base, threads=1))
        many_s = estimate_shaped_average_info(McConfig(**base, threads=threads))
        assert one_s == many_s

    def test_ten_symbols_agree_across_threads(self):
        base = dict(alphabet_size=10, n=100, k=1, samples=2 * SHARD_SIZE + 1234, seed=78)
        results = [
            (
                estimate_average_info(McConfig(**base, threads=threads)),
                estimate_shaped_average_info(McConfig(**base, threads=threads)),
            )
            for threads in (1, 2, 3)
        ]
        assert results[0] == results[1] == results[2]

    def test_same_seed_same_estimate(self):
        cfg = McConfig(alphabet_size=4, n=30, k=1, samples=10_000, seed=3)
        assert estimate_average_info(cfg) == estimate_average_info(cfg)

    def test_more_threads_than_cores_under_fast_switching(self):
        # Workers write disjoint slices of the source contents and return
        # their shards' kept rows; frequent thread switches must not lose or
        # misplace any of them.
        base = dict(alphabet_size=4, n=12, k=1, samples=6 * SHARD_SIZE + 5, seed=80)
        want = [f(McConfig(**base)) for f in (estimate_average_info, estimate_shaped_average_info)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cfg = McConfig(**base, threads=8)
            got = [f(cfg) for f in (estimate_average_info, estimate_shaped_average_info)]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_different_seeds_differ(self):
        a = estimate_average_info(McConfig(alphabet_size=4, n=30, k=1, samples=1000, seed=0))
        b = estimate_average_info(McConfig(alphabet_size=4, n=30, k=1, samples=1000, seed=1))
        assert a.mean != b.mean


class TestEstimateTable:
    def test_empty_input(self):
        assert estimate_table([]) == []

    def test_auto_splits_by_enumerability(self, monkeypatch):
        # The shaped mean's walk keeps 47 rows of 371 bytes at a=3 and 1,978
        # rows of 396 bytes at a=6 (n+k = 101): a budget of 10**5 bytes
        # admits the first and refuses the second.
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 10**5)
        configs = [
            McConfig(alphabet_size=3, n=100, k=1, samples=2000, seed=0),
            McConfig(alphabet_size=6, n=100, k=1, samples=2000, seed=0),
        ]
        small, large = estimate_table(configs, method="auto")
        assert small.method == "exact"
        assert small.source_stderr is None
        assert large.method == "monte-carlo"
        assert large.source_stderr > 0
        assert large.samples == 2000

    def test_exact_rows_match_analyzer(self, exact_a3_n100):
        exact_x, exact_y = exact_a3_n100
        (row,) = estimate_table(
            [McConfig(alphabet_size=3, n=100, k=1, samples=10, seed=0)], method="exact"
        )
        assert row.source_bits == exact_x
        assert row.shaped_bits == exact_y

    def test_forced_exact_past_the_cap_fails(self, monkeypatch):
        # The a=10 row's walk keeps 30,789 rows of 414 bytes, 12.7 MB.
        config = McConfig(alphabet_size=10, n=100, k=1, samples=10, seed=0)
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 10**6)
        with pytest.raises(ResourceLimitError):
            estimate_table([config], method="exact")

    def test_auto_samples_exactly_the_rows_the_exact_layer_refuses(self, monkeypatch):
        # At a=3, n=9, k=1 the shaped mean walks 6 rows of 334 bytes at
        # n+k=10; the source mean walks none.  A refused row is sampled in
        # both columns, and its exact source mean is never computed.
        config = McConfig(alphabet_size=3, n=9, k=1, samples=2000, seed=0)
        sources = []
        monkeypatch.setattr(
            montecarlo,
            "average_info_exact",
            lambda *args: sources.append(args) or average_info_exact(*args),
        )
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 6 * 334 - 1)
        (row,) = estimate_table([config], method="auto")
        assert row.method == "monte-carlo"
        assert row.samples == 2000
        assert row.source_stderr > 0
        assert sources == []
        with pytest.raises(ResourceLimitError):
            estimate_table([config], method="exact")
        assert sources == []
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 6 * 334)
        (row,) = estimate_table([config], method="auto")
        assert row.method == "exact"
        assert row.shaped_bits == shaped_average_info_exact(3, 9, 1)
        assert row.source_bits == average_info_exact(SourceEnsemble.uniform(3), 9)
        assert len(sources) == 1

    def test_forced_mc_on_small_problem(self):
        (row,) = estimate_table(
            [McConfig(alphabet_size=2, n=10, k=1, samples=4000, seed=1)], method="mc"
        )
        assert row.method == "monte-carlo"
        exact = average_info_exact(SourceEnsemble.uniform(2), 10)
        assert abs(row.source_bits - exact) < 4 * row.source_stderr

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            estimate_table([], method="fast")
