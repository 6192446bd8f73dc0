"""Rank/unrank correspondence and the length-increasing shaping map."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from setshaping import compositions
from setshaping import (
    BlockLengthError,
    InvalidSymbolError,
    NotInImageError,
    ShapingParameters,
    class_order,
    in_image,
    shape,
    string_rank,
    string_unrank,
    unshape,
)


class TestParameters:
    def test_output_length(self):
        assert ShapingParameters(3, 10, 1).output_length == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapingParameters(1, 4, 1)
        with pytest.raises(ValueError):
            ShapingParameters(2, 0, 1)
        with pytest.raises(ValueError):
            ShapingParameters(2, 4, 0)

    def test_fields_are_integers(self):
        # a float field is refused when the parameters are built, even an
        # integral one, and numpy integers become plain ones
        for args in [(2.0, 3), (2, 3.0), (2, 3, 1.0), (2, 3, "1")]:
            with pytest.raises(TypeError):
                ShapingParameters(*args)
        got = ShapingParameters(np.int64(3), np.int32(10), np.uint8(2))
        assert repr(got) == repr(ShapingParameters(3, 10, 2))
        assert type(got.n) is int


class TestRanking:
    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rank_enumerates_sorted_order(self, n, a):
        strings = oracles.all_strings_sorted(n, a)
        for i, s in enumerate(strings):
            assert string_rank(s, a) == i
            assert tuple(string_unrank(i, n, a)) == s

    def test_most_balanced_string_ranks_last_of_two(self):
        # n=2, a=2: constants come first, then the two mixed strings
        assert string_rank([1, 1], 2) == 0
        assert string_rank([0, 0], 2) == 1
        assert string_rank([0, 1], 2) == 2
        assert string_rank([1, 0], 2) == 3
        assert tuple(string_unrank(3, 2, 2)) == (1, 0)

    def test_unrank_range_checked(self):
        with pytest.raises(ValueError, match=r"rank 4 out of range for 2\*\*2 strings"):
            string_unrank(4, 2, 2)
        with pytest.raises(ValueError, match=r"rank -1 out of range for 2\*\*2 strings"):
            string_unrank(-1, 2, 2)

    def test_rank_of_empty_string_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            string_rank([], 2)

    def test_unrank_takes_integer_ranks_only(self):
        # a float rank is refused, even an integral one, and a numpy integer is a rank
        for rank in (1.5, 2.0):
            with pytest.raises(TypeError):
                string_unrank(rank, 3, 2)
        assert string_unrank(np.int64(2), 3, 2) == string_unrank(2, 3, 2)

    def test_rank_validates_symbols(self):
        with pytest.raises(InvalidSymbolError):
            string_rank([0, 2], 2)

    @settings(max_examples=80)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=9),
        st.data(),
    )
    def test_rank_unrank_inverse(self, a, n, data):
        rank = data.draw(st.integers(min_value=0, max_value=a**n - 1))
        s = string_unrank(rank, n, a)
        assert string_rank(s, a) == rank

    def test_large_block_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = rng.integers(0, 3, size=60)
            rank = string_rank(s, 3)
            assert tuple(string_unrank(rank, 60, 3)) == tuple(s)


class TestWithinClass:
    """A string's rank is its class's start plus its lex rank inside the class."""

    @staticmethod
    def check(s, a):
        rank = string_rank(s, a)
        start = class_order(len(s), a).strings_before_class(oracles.counts_of(s, a))
        assert rank == start + oracles.lex_rank_in_class(s, a)
        assert tuple(string_unrank(rank, len(s), a)) == s

    @pytest.mark.parametrize("a", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 7, 23, 40])
    def test_strings_with_long_zero_runs(self, n, a):
        # runs of symbol 0 of every length, leading and trailing ones included
        rng = random.Random(100 * n + a)
        strings = {(0,) * n, (0,) * (n - 1) + (a - 1,), (a - 1,) + (0,) * (n - 1)}
        while len(strings) < min(a**n, 10):
            s = []
            while len(s) < n:
                s.extend([0] * rng.randrange(n))
                s.append(rng.randrange(a))
            strings.add(tuple(s[:n]))
        for s in sorted(strings):
            self.check(s, a)

    def test_large_alphabet(self, monkeypatch):
        # 3 into 1000 parts has 167,167,000 compositions, but its order holds
        # three partitions
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        for s in [(0, 0, 0), (0, 0, 999), (0, 5, 0), (999, 0, 0), (7, 7, 0), (3, 998, 2)]:
            self.check(s, 1000)


class TestShapingMap:
    def test_two_symbol_table(self):
        params = ShapingParameters(2, 2, 1)
        table = {x: tuple(shape(list(x), params)) for x in oracles.shape_table(2, 2, 1)}
        assert table == oracles.shape_table(2, 2, 1)

    def test_wrong_input_length_rejected(self):
        params = ShapingParameters(2, 3, 1)
        with pytest.raises(BlockLengthError):
            shape([0, 1], params)
        with pytest.raises(BlockLengthError):
            unshape([0, 1, 1], params)

    def test_unshape_rejects_strings_outside_image(self):
        params = ShapingParameters(2, 2, 1)
        outside = [y for y in oracles.all_strings_sorted(3, 2)[4:]]
        assert len(outside) == 4
        for y in outside:
            assert not in_image(list(y), params)
            with pytest.raises(NotInImageError):
                unshape(list(y), params)

    def test_image_is_exactly_the_least_strings(self):
        params = ShapingParameters(3, 3, 1)
        sorted_y = oracles.all_strings_sorted(4, 3)
        image = {tuple(shape(list(x), params)) for x in oracles.all_strings_sorted(3, 3)}
        assert image == set(sorted_y[: 3**3])
        for y in sorted_y[: 3**3]:
            assert in_image(list(y), params)
        for y in sorted_y[3**3 :]:
            assert not in_image(list(y), params)

    def test_shape_preserves_rank(self):
        # position in the input order equals position in the output order
        params = ShapingParameters(3, 4, 2)
        for rank in range(0, 3**4, 5):
            x = string_unrank(rank, 4, 3)
            y = shape(x, params)
            assert string_rank(y, 3) == rank

    @pytest.mark.parametrize("a,n,k", [(2, 4, 1), (2, 3, 2), (3, 3, 1), (3, 2, 2)])
    def test_round_trip_exhaustive(self, a, n, k):
        params = ShapingParameters(a, n, k)
        seen = set()
        for x in oracles.all_strings_sorted(n, a):
            y = shape(list(x), params)
            assert len(y) == n + k
            assert tuple(unshape(y, params)) == x
            seen.add(tuple(y))
        assert len(seen) == a**n

    def test_round_trip_long_blocks(self):
        params = ShapingParameters(3, 100, 1)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.integers(0, 3, size=100)
            y = shape(x, params)
            assert tuple(unshape(y, params)) == tuple(x)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=2),
        st.data(),
    )
    def test_round_trip_property(self, a, n, k, data):
        params = ShapingParameters(a, n, k)
        x = data.draw(st.lists(st.integers(min_value=0, max_value=a - 1), min_size=n, max_size=n))
        y = shape(x, params)
        assert list(unshape(y, params)) == x


class TestTailOrders:
    """Random blocks are served by the tails of the two orders they use."""

    def test_seeded_blocks_walk_no_partitions_after_the_builds(self, monkeypatch):
        monkeypatch.setattr(compositions, "_ORDER_CACHE", {})
        for a in (3, 5):
            class_order(100, a)
            class_order(101, a)
        walks = []
        walk = compositions._partition_rows
        monkeypatch.setattr(
            compositions, "_partition_rows", lambda *args: walks.append(args) or walk(*args)
        )
        # seeded as the stream-roundtrip benchmark seeds its blocks
        for seed in range(5):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            for a in (3, 5):
                params = ShapingParameters(a, 100, 1)
                for _ in range(1000):
                    x = tuple(int(v) for v in rng.integers(0, a, size=100))
                    assert unshape(shape(x, params), params) == x
        assert walks == []
        assert all(class_order(n, a)._prefix_at(0) for a in (3, 5) for n in (100, 101))


class TestGolden:
    """Seeded blocks through shape, unshape and in_image, pinned by hash."""

    EXPECTED = {
        (3, 100, 1): "d3490905830f0844634c550519569e454acc68fa6486cfff4cefeda3983cc510",
        (5, 100, 1): "18dcfad367f6c70b16a05148fe76b19024ae83f0414fd62c1e552cc0021ddf63",
        (2, 30, 2): "f458c859932fea8c6ec8be9028389fcf9e08d935894a1fcb2661ffd50ba06cb3",
    }

    @pytest.mark.parametrize("a, n, k", sorted(EXPECTED))
    def test_outcomes_are_pinned(self, a, n, k):
        params = ShapingParameters(a, n, k)
        rng = np.random.default_rng([a, n, k])
        out = []
        for _ in range(50):
            x = rng.integers(0, a, size=n).tolist()
            z = rng.integers(0, a, size=n + k).tolist()
            y = shape(x, params)
            try:
                back = unshape(z, params)
            except NotInImageError as exc:
                back = str(exc)
            out.append((y, unshape(y, params), in_image(y, params), in_image(z, params), back))
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.EXPECTED[a, n, k]
