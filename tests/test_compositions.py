"""Exact composition order: products, weights, tie groups, selection."""

import gc
import math
import sys
import tracemalloc
import threading
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, islice, permutations, product
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from setshaping import (
    ClassOrder,
    ResourceLimitError,
    SourceEnsemble,
    class_order,
    empirical_information_content,
    multinomial,
    order_product,
    rank_info_series,
    shaped_average_info,
)
from setshaping.compositions import (
    _WholeOrder,
    _cover_limit,
    _even_split_product,
    _iter_group_classes,
    _key_tolerance,
    _partition_rows,
    _tail_rows,
    _tie_groups,
    _upper_normal_quantile,
    _whole_order,
    top_tallies,
)
from setshaping import compositions as compositions_module


# Bytes a tail row retains, with its share of the per-group arrays, once
# gc.collect() has cleared the interpreter's free lists: 44.1 at (101, 5)
# with Python 3.11.7 and numpy 2.4.6, where the order's nbytes is 43.95 a
# row, and a margin of 5.9.
PER_ROW_LIMIT = 50


def walk_charge(n, a):
    """Bytes a partition walk charges its budget for each row it keeps."""
    return 330 + math.ceil(n * math.log2(a) / 4)


def compositions():
    return st.integers(min_value=2, max_value=5).flatmap(
        lambda a: st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.sampled_from(list(oracles.compositions(n, a)))
        )
    )


def counted_walks(monkeypatch):
    """The limit of each partition walk from here on, () for a walk over every row."""
    walks = []
    monkeypatch.setattr(
        "setshaping.compositions._partition_rows",
        lambda *args: walks.append(args[2:]) or _partition_rows(*args),
    )
    return walks


def complete(order):
    """The order itself if it is complete, else the shared complete order."""
    return _whole_order(order.n, order.alphabet_size) if order._prefix_at(0) else order


def prefix_sums(order):
    """Strings before each tie group the order holds, and all of them, as ints."""
    return [order._prefix_at(gi) for gi in range(len(order._prefix))]


def group_of(order, counts):
    """Index of the complete order's tie group holding the composition."""
    counts = order._checked(counts)
    return complete(order)._find(sorted(filter(None, counts), reverse=True))


def group_infos(n, a):
    """Information content of each tie group of the order of (n, a), ascending."""
    return [content for content, _, _ in _tie_groups(n, a)]


def group_string_totals(order):
    """Number of strings in each tie group of the complete order."""
    prefix = prefix_sums(complete(order))
    return [y - x for x, y in zip(prefix, prefix[1:])]


def head(n, a, count):
    """The first count strings of the order of (n, a), one tie group at a time.

    Returns the information contents of the groups they touch and how many
    strings each group gives: all of its strings, except for the last
    group, which the cut may split.
    """
    if not 0 < count <= a**n:
        raise ValueError(f"string count {count} out of range")
    infos, taken = [], []
    for content, strings, _ in _tie_groups(n, a):
        infos.append(content)
        taken.append(min(strings, count))
        count -= taken[-1]
        if not count:
            return infos, taken


def info_at(n, a, index):
    """Information content of the string at the given position of the order of (n, a).

    The last tie group that the first index+1 strings touch holds it.
    """
    return head(n, a, index + 1)[0][-1]


def classes(n, a):
    """Every (composition, class size) pair of the order of (n, a), in order."""
    return [pair for _, _, parts in _tie_groups(n, a) for pair in _iter_group_classes(parts, a)]


def table_of(order):
    """The arrays an order keeps, by attribute name."""
    return {name: value for name, value in vars(order).items() if name.startswith("_")}


def same_table(order, table):
    """Whether the order still holds exactly these objects, none reassigned."""
    now = table_of(order)
    return now.keys() == table.keys() and all(now[name] is table[name] for name in table)


def assert_same_arrays(order, other):
    """The two orders hold equal tables: rows, groups, prefix sums and keys."""
    for name in ("_parts", "_starts", "_prefix", "_keys", "_key_groups"):
        got, want = getattr(order, name), getattr(other, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def cuts_at_group_edges(totals, infos):
    """Each count on a tie-group edge or one off it, with the cut it makes.

    The cut is the contents of the groups the first count strings touch and
    how many strings each gives, from the groups' string totals and contents.
    """
    edges = list(accumulate(totals))
    counts = {e + d for e in [0, *edges] for d in (-1, 0, 1)}
    for count in sorted(c for c in counts if 0 < c <= edges[-1]):
        g = bisect_left(edges, count)
        yield count, infos[: g + 1], totals[:g] + [count - (edges[g - 1] if g else 0)]


def oracle_groups(n, a):
    """String total and content of each tie group, from the brute-force table."""
    groups = oracles.group_table(n, a)
    return [g[2] for g in groups], [oracles.composition_info_bits(g[1][0]) for g in groups]


SMALL_ORDERS = [(n, a) for n in range(1, 11) for a in range(1, 5)]


def library_compare(c1, c2):
    """-1, 0 or +1 from the classes' positions in the library's order."""
    order = class_order(sum(c1), len(c1))
    r1, r2 = order.strings_before_class(c1), order.strings_before_class(c2)
    return (r1 > r2) - (r1 < r2)


class TestCounting:
    def test_enumeration_length_matches_count(self):
        for n, a in [(1, 2), (4, 3), (6, 2), (5, 4)]:
            comps = [c for c, _ in classes(n, a)]
            assert len(comps) == math.comb(n + a - 1, a - 1)
            assert len(set(comps)) == len(comps)
            assert all(sum(c) == n and len(c) == a for c in comps)
            assert set(comps) == set(oracles.compositions(n, a))

    def test_enumeration_is_lexicographic(self):
        # the oracle the tests enumerate with, and the order inside every tie group
        comps = list(oracles.compositions(5, 3))
        assert comps == sorted(comps)
        for _, _, parts in _tie_groups(8, 5):
            vectors = [v for v, _ in _iter_group_classes(parts, 5)]
            assert vectors == sorted(vectors)

    def test_multinomial_matches_factorials(self):
        for counts in [(3,), (2, 2), (1, 2, 3), (0, 5, 0), (4, 4, 4, 4, 0)]:
            n = sum(counts)
            expect = math.factorial(n)
            for c in counts:
                expect //= math.factorial(c)
            assert multinomial(counts) == expect

    def test_class_sizes_tile_the_string_space(self):
        for n, a in [(4, 2), (5, 3), (3, 4)]:
            assert sum(multinomial(c) for c in oracles.compositions(n, a)) == a**n

    def test_cap_enforced(self, monkeypatch):
        assert compositions_module.WALK_BYTE_BUDGET == 512 * 2**20
        # The walk of 9 into 3 parts keeps 12 rows of walk_charge(9, 3) = 334
        # bytes.  The budget is read at call time, and a walk that keeps
        # exactly the budget is admitted.
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 12 * walk_charge(9, 3))
        assert len(_partition_rows(9, 3)) == 12
        class_order(9, 3)
        monkeypatch.setattr(
            "setshaping.compositions.WALK_BYTE_BUDGET", 12 * walk_charge(9, 3) - 1
        )
        with pytest.raises(ResourceLimitError, match="more than 11 rows of 334 bytes each"):
            _partition_rows(9, 3)
        with pytest.raises(ResourceLimitError):
            ClassOrder(9, 3)
        # Far past it: the 16,928 rows of 40 into 10 parts against 1 MB.
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 10**6)
        with pytest.raises(ResourceLimitError):
            ClassOrder(40, 10)

    def test_walk_past_the_recursion_limit_is_refused(self):
        # the walk nests a call per part, and its first branch places 2000
        # parts of 1 before it keeps a row
        with pytest.raises(ResourceLimitError, match="nest deeper than the walk's recursion"):
            _partition_rows(2000, 2000)

    def test_budget_admits_what_the_composition_count_would_not(self):
        # 3 into 1000 parts has 167,167,000 compositions, but three
        # partitions; (40, 10) has 2,054,455,634 compositions and 16,928 rows.
        assert [row[1] for row in _partition_rows(3, 1000)] == [(1, 1, 1), (2, 1), (3,)]
        assert len(_partition_rows(40, 10)) == 16928

    def test_refused_walk_frees_its_rows(self, monkeypatch):
        # With the collector off, only reference counts free the rows kept
        # before the refusal: once the exception is handled, nothing may hold
        # them, in a cycle or otherwise.  Binary rows at n=20000 carry string
        # totals of up to 2.5 kB, ints that no free list keeps.
        monkeypatch.setattr(
            "setshaping.compositions.WALK_BYTE_BUDGET", 200 * walk_charge(20000, 2)
        )
        refused = False
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            try:
                _partition_rows(20000, 2)
            except ResourceLimitError:
                refused = True
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert refused
        assert peak > 10**6
        assert current < peak / 20


class TestOrderKeys:
    def test_order_product_matches_oracle(self):
        for counts in [(0, 0), (3, 0), (1, 1, 2), (4, 4, 4, 4, 0), (8, 2, 2, 2, 2)]:
            assert order_product(counts) == oracles.order_product(counts)

    def test_zero_counts_contribute_one(self):
        assert order_product((0, 0, 0)) == 1
        assert order_product((5, 0)) == 5**5

    def test_info_bits_match_oracle_realization(self):
        # realize a string with the given composition: the per-class and
        # per-string references and the library's per-string content agree
        for counts in [(2, 1), (3, 3), (0, 4), (1, 1, 1), (5, 2, 0, 1)]:
            s = [v for v, c in enumerate(counts) for _ in range(c)]
            got = oracles.composition_info_bits(counts)
            assert math.isclose(got, oracles.empirical_info(s, len(counts)), abs_tol=1e-12)
            assert math.isclose(got, empirical_information_content(s, len(counts)), abs_tol=1e-12)

    def test_product_order_is_info_order(self):
        # larger product means lower information content, exactly
        n, a = 9, 3
        comps = list(oracles.compositions(n, a))
        for c1 in comps[::7]:
            for c2 in comps[::5]:
                p1, p2 = order_product(c1), order_product(c2)
                i1, i2 = oracles.composition_info_bits(c1), oracles.composition_info_bits(c2)
                if p1 > p2:
                    assert i1 < i2 + 1e-9
                elif p1 < p2:
                    assert i1 > i2 - 1e-9

    def test_exact_compare_orders_by_product_then_counts(self):
        for c1, c2, expect in [
            ((3, 0), (0, 3), 1),
            ((0, 3), (3, 0), -1),
            ((2, 1), (2, 1), 0),
            # higher product sorts earlier
            ((0, 3), (1, 2), -1),
        ]:
            assert library_compare(c1, c2) == expect
            assert oracles.exact_compare(c1, c2) == expect

    def test_cross_partition_exact_tie(self):
        # 4^4 repeated four times equals 8^8 * 2^2 four times: same product,
        # different partitions, so the count vector breaks the tie
        c1 = (4, 4, 4, 4, 0)
        c2 = (8, 2, 2, 2, 2)
        assert order_product(c1) == order_product(c2)
        assert library_compare(c1, c2) == -1
        assert library_compare(c2, c1) == 1

    @given(compositions(), compositions())
    def test_exact_compare_is_antisymmetric(self, c1, c2):
        if len(c1) != len(c2) or sum(c1) != sum(c2):
            return
        assert library_compare(c1, c2) == oracles.exact_compare(c1, c2)
        assert library_compare(c1, c2) == -library_compare(c2, c1)

    @given(compositions())
    def test_exact_compare_reflexive(self, c):
        assert library_compare(c, c) == 0


class TestCountChecks:
    def test_negative_counts_refused(self):
        for count in (multinomial, order_product):
            with pytest.raises(ValueError, match="counts must be nonnegative"):
                count([-1, 2])
            with pytest.raises(ValueError, match="counts must be nonnegative"):
                count([-2, 3])
        assert order_product([0, 1, 3]) == 27


class TestClassWeight:
    def test_uniform_weight_is_class_share(self):
        n, a = 5, 3
        probs = [1.0 / a] * a
        for counts in oracles.compositions(n, a):
            got = oracles.class_weight(probs, counts)
            assert math.isclose(got, multinomial(counts) / a**n, rel_tol=1e-12)

    def test_weights_sum_to_one(self):
        for probs in [(0.5, 0.5), (0.7, 0.3), (0.5, 0.25, 0.25), (0.9, 0.05, 0.05)]:
            n = 8
            total = math.fsum(oracles.class_weight(probs, c) for c in oracles.compositions(n, len(probs)))
            assert math.isclose(total, 1.0, abs_tol=1e-12)

    def test_weight_matches_exact_fraction(self):
        probs = (0.5, 0.25, 0.25)
        counts = (2, 1, 1)
        exact = multinomial(counts) * Fraction(1, 2) ** 2 * Fraction(1, 4) ** 2
        assert math.isclose(oracles.class_weight(probs, counts), float(exact), rel_tol=1e-12)

    def test_class_size_beyond_float_range(self):
        counts = (550, 550)
        assert multinomial(counts) > 2**1024
        exact = Fraction(multinomial(counts), 2**1100)
        assert math.isclose(oracles.class_weight((0.5, 0.5), counts), float(exact), rel_tol=1e-9)

    def test_zero_probability_symbol(self):
        probs = (1.0, 0.0)
        assert oracles.class_weight(probs, (3, 0)) == 1.0
        assert oracles.class_weight(probs, (2, 1)) == 0.0


class TestSortedOrder:
    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force_class_order(self, n, a):
        got = [c for c, _ in classes(n, a)]
        seen = []
        for s in oracles.all_strings_sorted(n, a):
            c = oracles.counts_of(s, a)
            if not seen or seen[-1] != c:
                seen.append(c)
        assert got == seen

    def test_sizes_accompany_compositions(self):
        for counts, size in classes(5, 3):
            assert size == multinomial(counts)

    def test_info_is_nondecreasing_along_order(self):
        infos = [oracles.composition_info_bits(c) for c, _ in classes(7, 3)]
        assert all(x <= y + 1e-12 for x, y in zip(infos, infos[1:]))


class TestClassOrder:
    def test_group_totals_tile_everything(self):
        order = ClassOrder(8, 3)
        assert sum(group_string_totals(order)) == 3**8

    def test_group_products_strictly_descending(self):
        # the tail's own groups, and the complete order's
        order = ClassOrder(16, 5)
        for prods in (order.group_products, complete(order).group_products):
            assert all(x > y for x, y in zip(prods, prods[1:]))

    def test_group_infos_strictly_increasing(self):
        infos = group_infos(16, 5)
        assert all(x < y for x, y in zip(infos, infos[1:]))

    def test_cross_partition_tie_lands_in_one_group(self):
        order = ClassOrder(16, 5)
        gi = group_of(order, (4, 4, 4, 4, 0))
        assert group_of(order, (8, 2, 2, 2, 2)) == gi
        assert len(complete(order).group_partitions[gi]) == 2

    def test_strings_before_class_matches_brute_force(self):
        n, a = 5, 3
        order = ClassOrder(n, a)
        strings = oracles.all_strings_sorted(n, a)
        first_index = {}
        for i, s in enumerate(strings):
            c = oracles.counts_of(s, a)
            first_index.setdefault(c, i)
        for counts, start in first_index.items():
            assert order.strings_before_class(counts) == start

    def test_locate_string_walks_every_class_boundary(self):
        n, a = 5, 3
        order = ClassOrder(n, a)
        strings = oracles.all_strings_sorted(n, a)
        for index in range(a**n):
            counts, offset = order.locate_string(index)
            assert counts == oracles.counts_of(strings[index], a)
            within = [s for s in strings[:index] if oracles.counts_of(s, a) == counts]
            assert offset == len(within)

    def test_info_at_matches_string_info(self):
        n, a = 5, 3
        strings = oracles.all_strings_sorted(n, a)
        for index in range(0, a**n, 7):
            assert math.isclose(
                info_at(n, a, index), oracles.empirical_info(strings[index], a), abs_tol=1e-12
            )

    def test_index_bounds_checked(self):
        order = ClassOrder(3, 2)
        with pytest.raises(ValueError, match=r"rank -1 out of range for 2\*\*3 strings"):
            order.locate_string(-1)
        with pytest.raises(ValueError, match=r"rank 8 out of range for 2\*\*3 strings"):
            order.locate_string(8)
        with pytest.raises(ValueError):
            info_at(3, 2, 8)

    def test_foreign_composition_rejected(self):
        order = ClassOrder(4, 2)
        with pytest.raises(ValueError):
            order.strings_before_class((2, 1))
        with pytest.raises(ValueError):
            group_of(order, (3, 3))

    def test_negative_parts_rejected(self):
        # each sums to n and shares its order product with a real composition
        order = class_order(4, 4)
        for counts in [(2, 2, 1, -1), (3, 1, 1, -1)]:
            with pytest.raises(ValueError):
                order.strings_before_class(counts)

    def test_lookup_by_two_byte_parts(self):
        # past n=255 the parts are stored in two bytes, so a partition's key
        # holds zero bytes inside (256) and at its end
        order = ClassOrder(300, 2)
        products = complete(order).group_products
        tail = ClassOrder(300, 2)
        # the tail first, then past it
        for c in (150, 151, 160, 140, 256, 44, 0, 1, 299, 300):
            counts = (c, 300 - c)
            assert products[group_of(order, counts)] == order_product(counts)
            start = tail.strings_before_class(counts)
            assert start == order.strings_before_class(counts)
            assert tail.locate_string(start) == (counts, 0)

    def test_iter_group_classes_is_lex_within_group(self):
        # (16, 5) is built as a tail: gi indexes the groups of the complete order
        gi = group_of(ClassOrder(16, 5), (4, 4, 4, 4, 0))
        _, _, parts = list(_tie_groups(16, 5))[gi]
        got = list(_iter_group_classes(parts, 5))
        vectors = [v for v, _ in got]
        assert vectors == sorted(vectors)
        assert len(vectors) == oracles.group_table(16, 5)[gi][3]
        assert all(size == multinomial(v) for v, size in got)

    def test_iter_classes_agrees_with_materialized_list(self):
        assert classes(6, 4) == oracles.sorted_compositions(6, 4)

    def test_shared_instances_are_cached(self):
        assert class_order(7, 2) is class_order(7, 2)

    def test_sizes_checked_before_any_walk(self, monkeypatch):
        # a float size is refused, even an integral one whose order is
        # cached, and so is a size below one; numpy integers are sizes
        walks = counted_walks(monkeypatch)
        class_order(3, 2)
        walks.clear()
        for n, a in [(3.0, 2), (3, 2.0), (2.5, 2)]:
            with pytest.raises(TypeError):
                class_order(n, a)
            with pytest.raises(TypeError):
                ClassOrder(n, a)
        for n, a in [(0, 2), (2, 0)]:
            with pytest.raises(ValueError, match="need n >= 1 and a >= 1"):
                ClassOrder(n, a)
        assert walks == []
        assert class_order(np.int64(3), np.int64(2)) is class_order(3, 2)
        assert type(ClassOrder(np.int64(3), np.int64(2)).n) is int

    def test_cap_applies_to_cached_orders(self, monkeypatch):
        # 9 into 3 parts walks 12 rows; the byte budget guards the build, and
        # the cached order it admits is the one every later call returns,
        # with no walk, under any budget
        cache = {}
        need = 12 * walk_charge(9, 3)
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", cache)
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError):
            class_order(9, 3)
        assert cache == {}
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", need)
        order = class_order(9, 3)
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 0)
        assert class_order(9, 3) is order

    def test_prefix_sums_keep_their_trailing_zero_bytes(self):
        # 2**16 strings take three bytes, 0x010000: numpy reads the last
        # entry out as b"\x01" and the first, 0, as b""
        order = ClassOrder(16, 2)
        assert order._prefix.dtype == np.dtype("S3")
        assert order._prefix.item(0) == b"" and order._prefix.item(-1) == b"\x01"
        totals = [g[2] for g in oracles.group_table(16, 2)]
        assert prefix_sums(order) == [0, *accumulate(totals)]
        # the first and last strings of each group are found in it
        for gi, start in enumerate(prefix_sums(order)[:-1]):
            for index in (start, start + totals[gi] - 1):
                assert group_of(order, order.locate_string(index)[0]) == gi

    def test_cache_evicts_the_least_recently_used_past_its_budget(self, monkeypatch):
        assert compositions_module.ORDER_CACHE_BYTE_BUDGET == 256 * 2**20
        keys = [(30, 3), (31, 3), (32, 3), (33, 3)]
        sizes = sorted(ClassOrder(*key).nbytes for key in keys)
        # every field an order keeps past its sizes is an array it counts
        order = ClassOrder(*keys[0])
        assert all(isinstance(value, np.ndarray) for value in table_of(order).values())
        assert order.nbytes == sum(value.nbytes for value in table_of(order).values())
        cache = {}
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", cache)
        # room for any two of the orders, never for three
        budget = sizes[-2] + sizes[-1]
        assert budget < sum(sizes[:3])
        monkeypatch.setattr("setshaping.compositions.ORDER_CACHE_BYTE_BUDGET", budget)

        def held():
            return sum(order.nbytes for order in cache.values())

        first = class_order(*keys[0])
        class_order(*keys[1])
        # a hit makes its order the most recently used
        assert class_order(*keys[0]) is first
        assert list(cache) == [keys[1], keys[0]]
        class_order(*keys[2])
        assert list(cache) == [keys[0], keys[2]] and held() <= budget
        class_order(*keys[3])
        assert list(cache) == [keys[2], keys[3]] and held() <= budget
        # an evicted order is built again, equal to a fresh one
        again = class_order(*keys[0])
        assert again is not first and list(cache) == [keys[3], keys[0]]
        assert_same_arrays(again, ClassOrder(*keys[0]))
        # a complete order replacing its tail is charged at its own size
        whole = _whole_order(*keys[0])
        assert whole.nbytes > again.nbytes and cache[keys[0]] is whole
        assert list(cache) == [keys[3], keys[0]] and held() <= budget
        # the order just built stays, even alone past the budget
        monkeypatch.setattr("setshaping.compositions.ORDER_CACHE_BYTE_BUDGET", 0)
        order = class_order(*keys[1])
        assert cache == {keys[1]: order}

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=7), st.data())
    def test_locate_inverts_strings_before(self, a, n, data):
        order = class_order(n, a)
        index = data.draw(st.integers(min_value=0, max_value=a**n - 1))
        counts, offset = order.locate_string(index)
        assert sum(counts) == n
        start = order.strings_before_class(counts)
        assert start <= index < start + multinomial(counts)
        assert offset == index - start


class TestHead:
    """The first count strings of the order, from the tie groups of one sorted walk."""

    @pytest.mark.parametrize("n, a", [(4, 2), (3, 3), (4, 3), (3, 4)])
    def test_every_cut_against_sorted_strings(self, n, a):
        strings = oracles.all_strings_sorted(n, a)
        products = [oracles.order_product(oracles.counts_of(s, a)) for s in strings]
        edges = {0}
        for i in range(1, len(products)):
            if products[i] != products[i - 1]:
                edges.add(i)
        for count in range(1, a**n + 1):
            infos, taken = head(n, a, count)
            # one run per tie group the first count strings touch
            runs = []
            for i in range(count):
                if i in edges:
                    runs.append([0, oracles.empirical_info(strings[i], a)])
                runs[-1][0] += 1
            assert taken == [r[0] for r in runs]
            assert len(infos) == len(runs)
            for info, (_, expect) in zip(infos, runs):
                assert math.isclose(info, expect, abs_tol=1e-12)
        # the cases: inside the first group, on a group edge, inside a later group
        first_edge = min(edges - {0})
        assert first_edge > 1 and any(e + 1 not in edges for e in edges - {0})
        assert head(n, a, first_edge)[1] == [first_edge]
        assert head(n, a, a**n)[1] == group_string_totals(ClassOrder(n, a))

    @pytest.mark.parametrize("n, a", SMALL_ORDERS)
    def test_every_group_edge_against_the_oracle(self, n, a):
        for count, infos, taken in cuts_at_group_edges(*oracle_groups(n, a)):
            # bit for bit: each group's content comes from its first partition
            assert head(n, a, count) == (infos, taken)


WALK_CASES = [(n, a) for n in range(1, 15) for a in range(1, 7)]


def walk_limits(products):
    """Every third tie edge, on it and just below it, past the largest, and 0."""
    limits = {0, products[-1] + 1}
    for p in products[::3] + products[-1:]:
        limits.update((p - 1, p))
    return sorted(limits)


class TestBoundedWalk:
    """The partition walk kept to the rows at or below an order product limit."""

    @pytest.mark.parametrize("n, a", WALK_CASES)
    def test_equals_the_filtered_full_walk(self, n, a):
        rows = _partition_rows(n, a)
        products = [order_product(row[1]) for row in rows]
        assert min(products) == _even_split_product(n, a)
        for limit in walk_limits(sorted(set(products))):
            assert _partition_rows(n, a, limit) == [
                row for row, p in zip(rows, products) if p <= limit
            ]

    @pytest.mark.parametrize("n, a", WALK_CASES)
    def test_equals_the_brute_force_walk(self, n, a):
        want = oracles.partition_rows(n, a)
        tol = _key_tolerance(n, a)
        for limit in [None] + walk_limits(sorted({row[0] for row in want})):
            got = _partition_rows(n, a, limit)
            expected = [row for row in want if limit is None or row[0] <= limit]
            assert [row[1:] for row in got] == [row[1:] for row in expected]
            for (key, _, _), (product, _, _) in zip(got, expected):
                assert abs(key - math.log(product)) <= key * tol

    def test_limits_on_a_product_at_large_n(self):
        # keys near 1.2e6, where one ulp is 2.3e-10: a limit equal to a
        # row's exact product keeps that row and no row past it
        n, a = 10**5, 2
        first = _partition_rows(n, a, _even_split_product(n, a) << 1)
        assert len(first) > 3
        products = [order_product(row[1]) for row in first[:4]]
        tol = _key_tolerance(n, a)
        for (key, _, _), product in zip(first, products):
            assert abs(key - math.log(product)) <= key * tol
        for i, p in enumerate(products[:3]):
            assert _partition_rows(n, a, p) == first[: i + 1]
            assert _partition_rows(n, a, p - 1) == first[:i]


class TestExactPath:
    """With an infinite float error bound every decision is made on exact integers."""

    @staticmethod
    def exact_only(monkeypatch):
        monkeypatch.setattr("setshaping.compositions._KEY_EPS", math.inf)

    @pytest.mark.parametrize("n, a", WALK_CASES)
    def test_walks_and_orders_are_unchanged(self, n, a, monkeypatch):
        limits = [None] + walk_limits(sorted({row[0] for row in oracles.partition_rows(n, a)}))
        walks = [_partition_rows(n, a, limit) for limit in limits]
        whole, tail = _WholeOrder(n, a), ClassOrder(n, a)
        groups = list(_tie_groups(n, a))
        tallies = [top_tallies(n, a, count) for count in range(1, a**n + 1, max(1, a**n // 50))]
        self.exact_only(monkeypatch)
        assert [_partition_rows(n, a, limit) for limit in limits] == walks
        for order, built in ((whole, _WholeOrder(n, a)), (tail, ClassOrder(n, a))):
            assert_same_arrays(built, order)
        assert list(_tie_groups(n, a)) == groups
        assert [
            top_tallies(n, a, count) for count in range(1, a**n + 1, max(1, a**n // 50))
        ] == tallies

    def test_tail_is_unchanged(self, monkeypatch):
        n, a = 101, 5
        walk = _tail_rows(n, a, a**n >> 20)
        tail = ClassOrder(n, a)
        self.exact_only(monkeypatch)
        assert _tail_rows(n, a, a**n >> 20) == walk
        assert_same_arrays(ClassOrder(n, a), tail)


class TestCoverLimit:
    """The tail limits come from a normal quantile taken with math alone."""

    @staticmethod
    def statistics_limit(n, a, uncovered):
        """_cover_limit with the quantile of statistics.NormalDist."""
        k = a - 1
        fraction = min(max(uncovered / a**n, 1e-300), 0.5)
        z = -NormalDist().inv_cdf(fraction)
        chi2 = k * max(1 - 2 / (9 * k) + z * math.sqrt(2 / (9 * k)), 0.0) ** 3
        return _even_split_product(n, a) << (math.ceil(chi2 / (2 * math.log(2))) + 1)

    # Table 1 (n = a, k = 1) and Table 2 (n = 100, k = 1, a = 2..10), both
    # orders of each row; the (100|101, 3|5) tails are among them.
    @pytest.mark.parametrize(
        "n, a",
        [(n, a) for a in range(2, 8) for n in (a, a + 1)]
        + [(n, a) for a in range(2, 11) for n in (100, 101)],
    )
    def test_limits_are_unchanged(self, n, a):
        # a tail leaves out a**n >> 20 strings; the top walk of a shaped
        # mean at length n leaves out a**n - a**(n-1)
        for uncovered in (a**n >> 20, a**n - a ** (n - 1)):
            if uncovered:
                assert _cover_limit(n, a, uncovered) == self.statistics_limit(n, a, uncovered)

    def test_quantile_matches_statistics(self):
        for p in [0.5, 0.4, 0.25, 0.1, 1e-3, 2.0**-20, 1e-10, 1e-100, 1e-250, 1e-300]:
            want = -NormalDist().inv_cdf(p)
            assert math.isclose(_upper_normal_quantile(p), want, rel_tol=1e-14, abs_tol=1e-15)


class TestTopGroups:
    """Symbol-count tallies of the last count strings of the order, read without building it."""

    @pytest.mark.parametrize("n, a", [(1, 3), (4, 2), (3, 3), (4, 3), (3, 4), (8, 2), (5, 3), (4, 4)])
    def test_every_cut_mirrors_the_full_order(self, n, a):
        # the content of the last count strings, summed from the highest
        contents = [oracles.empirical_info(s, a) for s in oracles.all_strings_sorted(n, a)]
        contents.reverse()
        xlogx = [c * math.log2(c) if c > 1 else 0.0 for c in range(n + 1)]
        for count in range(1, a**n + 1):
            tallies = top_tallies(n, a, count)
            assert len(tallies) == n + 1
            assert sum(tallies) == a * count
            assert sum(c * t for c, t in enumerate(tallies)) == n * count
            got = count * xlogx[n] - math.fsum(t * x for t, x in zip(tallies, xlogx))
            want = math.fsum(contents[:count])
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("n, a", SMALL_ORDERS)
    def test_every_group_edge_against_the_oracle(self, n, a):
        # at a tie-group edge the tallies are those of whole groups
        totals, _ = oracle_groups(n, a)
        count, want = 0, [0] * (n + 1)
        for strings, tally in zip(totals[::-1], oracles.group_tallies(n, a)[::-1]):
            count += strings
            want = [w + t for w, t in zip(want, tally)]
            assert top_tallies(n, a, count) == want

    def test_widens_past_the_first_limit(self, monkeypatch):
        # a first limit that holds too few strings falls back to every row
        monkeypatch.setattr(
            "setshaping.compositions._cover_limit", lambda n, a, _: _even_split_product(n, a)
        )
        walks = counted_walks(monkeypatch)
        tallies = top_tallies(12, 2, 2**12 - 1)
        assert walks == [(_even_split_product(12, 2),), ()]
        # every string but a first one, 0**12 or 1**12, whose counts are 12 and 0
        want = [2 * math.comb(12, c) for c in range(13)]
        want[0] -= 1
        want[12] -= 1
        assert tallies == want

    def test_count_bounds_checked(self):
        with pytest.raises(ValueError):
            top_tallies(3, 2, 0)
        with pytest.raises(ValueError):
            top_tallies(3, 2, 9)

    def test_cap_enforced(self, monkeypatch):
        # The tail that leaves out all but one string of 9 into 3 parts keeps
        # 5 rows; a budget of none refuses it outright.
        need = 5 * walk_charge(9, 3)
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", need - 1)
        with pytest.raises(ResourceLimitError):
            top_tallies(9, 3, 1)
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", 0)
        with pytest.raises(ResourceLimitError):
            top_tallies(9, 3, 1)
        monkeypatch.setattr("setshaping.compositions.WALK_BYTE_BUDGET", need)
        assert top_tallies(9, 3, 1) == [0, 0, 0, 3, 0, 0, 0, 0, 0, 0]


class TestTail:
    """An order built as its high-content tail answers as the complete order."""

    @staticmethod
    def probes(n, a, base):
        """Count vectors and string indices at both ends of the order and at the cut."""
        q, extra = divmod(n, a)
        balanced = set(permutations((q + 1,) * extra + (q,) * (a - extra)))
        ends = [(n,) + (0,) * (a - 1), (0,) * (a - 1) + (n,)]
        below = [0, a ** (n - 1)] + [base - 1] * (base > 0)
        return sorted(balanced), ends, [base, a**n - 1], below

    # (13, 3) may leave out one string, fewer than its lowest-content tie
    # group holds, so it is built complete at once
    @pytest.mark.parametrize("n, a", [(13, 3), (40, 3), (30, 4), (101, 5)])
    def test_answers_equal_the_complete_order(self, n, a, monkeypatch):
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        whole = _whole_order(n, a)
        assert whole._prefix_at(0) == 0
        base = ClassOrder(n, a)._prefix_at(0)
        assert (base > 0) == (n > 13)
        assert base <= a**n >> 20
        balanced, ends, tail_indices, head_indices = self.probes(n, a, base)

        def check(order, vectors, indices):
            for counts in vectors:
                assert order.strings_before_class(counts) == whole.strings_before_class(counts)
            for index in indices:
                assert order.locate_string(index) == whole.locate_string(index)

        # a rank, or a selection, below the cut reads the shared complete
        # order, which replaces the cached tail; the tail itself never changes
        for vectors, indices in ((ends, []), ([], head_indices)):
            cache = {}
            monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", cache)
            order = class_order(n, a)
            table = table_of(order)
            check(order, balanced, tail_indices)
            assert cache == {(n, a): order}
            check(order, vectors, indices)
            assert same_table(order, table) and order._prefix_at(0) == base
            assert list(cache) == [(n, a)] and cache[(n, a)]._prefix_at(0) == 0
            assert (cache[(n, a)] is order) == (base == 0)
            check(order, balanced + ends, tail_indices + head_indices)
            assert same_table(order, table)
            # the tail's group tables are the suffix of the complete order's
            products = order.group_products
            assert products == whole.group_products[len(whole.group_products) - len(products) :]

    @pytest.mark.parametrize("n, a", [(40, 3), (30, 4), (101, 5)])
    def test_tail_is_a_suffix_of_the_complete_table(self, n, a):
        tail = ClassOrder(n, a)
        full = _WholeOrder(n, a)
        assert tail._prefix_at(0) > 0
        g = len(tail._starts) - 1
        skipped_rows = len(full._parts) - len(tail._parts)
        skipped_groups = len(full._starts) - g - 1
        assert tail._parts.tolist() == full._parts[skipped_rows:].tolist()
        assert [s + skipped_rows for s in tail._starts.tolist()] == full._starts[-g - 1 :].tolist()
        assert tail.group_partitions == full.group_partitions[-g:]
        assert prefix_sums(tail) == prefix_sums(full)[-g - 1 :]
        # the lookup finds every tail partition in the group the full table has
        for gi, parts in enumerate(tail.group_partitions):
            for part in parts:
                assert tail._find(part) == gi
                assert full._find(part) == gi + skipped_groups
        assert tail._find(full.group_partitions[0][0]) is None

    @pytest.mark.parametrize("n, a", [(100, 3), (101, 3), (100, 5), (101, 5)])
    def test_tail_takes_one_walk(self, n, a, monkeypatch):
        limits = counted_walks(monkeypatch)
        order = ClassOrder(n, a)
        assert len(limits) == 1 and limits[0] != ()
        assert 0 < order._prefix_at(0) <= a**n >> 20

    def test_tail_retains_few_bytes_per_row(self):
        # 10,658 rows; 572 bytes a row when each row held its bigint product,
        # partition tuple, bigint class size and class count
        ClassOrder(101, 5)  # the imports of a first build stay out
        tracemalloc.start()
        try:
            order = ClassOrder(101, 5)
            # The tuples the walk freed sit in the free lists until collected.
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows = int(order._starts[-1])
        assert rows == 10658
        assert retained / rows < PER_ROW_LIMIT

    def test_threads_complete_one_shared_order_once(self, monkeypatch):
        n, a = 101, 5
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        reference = _whole_order(n, a)
        cache = {}
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", cache)
        walks = counted_walks(monkeypatch)
        order = class_order(n, a)
        table = table_of(order)
        balanced, ends, tail_indices, head_indices = self.probes(n, a, order._prefix_at(0))
        vectors, indices = balanced + ends, tail_indices + head_indices
        want = (
            [reference.strings_before_class(v) for v in vectors],
            [reference.locate_string(i) for i in indices],
        )
        results, errors = [], []

        def worker(shift):
            try:
                # each thread starts at a different probe, some below the cut
                vs, ix = vectors[shift:] + vectors[:shift], indices[shift:] + indices[:shift]
                got = dict(zip(vs, map(order.strings_before_class, vs)))
                found = dict(zip(ix, map(order.locate_string, ix)))
                results.append(([got[v] for v in vectors], [found[i] for i in indices]))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [want] * 8
        # the tail walk, then one complete order shared by every thread
        assert len(walks) == 2 and walks[0] != () and walks[1] == ()
        assert same_table(order, table) and order._prefix_at(0) > 0
        assert list(cache) == [(n, a)] and cache[(n, a)]._prefix_at(0) == 0

    def test_threads_share_a_cache_past_its_budget(self, monkeypatch):
        # eight threads query four orders, below their cuts too, through a
        # cache with room for about two: orders are evicted and built again
        # while other threads hold them, and every answer is a fresh order's
        keys = [(30, 3), (31, 3), (24, 4), (25, 4)]
        probes = {key: self.probes(*key, ClassOrder(*key)._prefix_at(0)) for key in keys}

        def answers(order, key):
            balanced, ends, tail_indices, head_indices = probes[key]
            return (
                [order.strings_before_class(v) for v in balanced + ends],
                [order.locate_string(i) for i in tail_indices + head_indices],
            )

        want = {key: answers(_WholeOrder(*key), key) for key in keys}
        cache = {}
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", cache)
        budget = 2 * max(_WholeOrder(*key).nbytes for key in keys)
        monkeypatch.setattr("setshaping.compositions.ORDER_CACHE_BYTE_BUDGET", budget)
        results, errors = [], []

        def worker(shift):
            try:
                for _ in range(3):
                    for key in keys[shift % 4 :] + keys[: shift % 4]:
                        results.append(answers(class_order(*key), key) == want[key])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [True] * 8 * 3 * 4
        assert 0 < len(cache) < 4 and sum(order.nbytes for order in cache.values()) <= budget


class TestWholeOrderReaders:
    """A reader of the whole order walks each order once, in full, and caches nothing."""

    @pytest.mark.parametrize(
        "read, orders",
        [
            (lambda: rank_info_series(2, 21, 1), 2),
            (lambda: shaped_average_info(SourceEnsemble((0.1, 0.2, 0.3, 0.4)), 40, 1), 2),
        ],
        ids=["rank_info_series", "shaped_average_info"],
    )
    def test_one_walk_per_order(self, read, orders, monkeypatch):
        cache = {}
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", cache)
        walks = counted_walks(monkeypatch)
        first = read()
        assert walks == [()] * orders and cache == {}
        # nothing is cached, so each call walks again
        assert repr(read()) == repr(first)
        assert walks == [()] * 2 * orders and cache == {}


class TestGroupTableOracle:
    """Every per-group table of the partition walk against brute force."""

    @pytest.mark.parametrize(
        "n, a",
        [(n, a) for n in range(1, 13) for a in range(1, 7)] + [(1, 10**5), (2, 10**4)],
    )
    def test_matches_brute_force_groups(self, n, a):
        order = ClassOrder(n, a)
        table = oracles.group_table(n, a)
        whole = complete(order)
        assert whole.group_products == [g[0] for g in table]
        assert whole.group_partitions == [g[1] for g in table]
        # a tail lists its own groups, the last ones of the complete order
        own = order.group_partitions
        assert own == whole.group_partitions[len(table) - len(own) :]
        assert group_string_totals(order) == [g[2] for g in table]
        groups = list(_tie_groups(n, a))
        assert [(parts, strings) for _, strings, parts in groups] == [(g[1], g[2]) for g in table]
        # bit for bit: the value oracles.composition_info_bits gives the first partition
        assert group_infos(n, a) == [oracles.composition_info_bits(g[1][0]) for g in table]
        if math.comb(n + a - 1, a - 1) <= 10**4:
            expected = oracles.sorted_compositions(n, a)
            assert classes(n, a) == expected
            # rank and selection at every class, cross-partition ties included
            start = 0
            for counts, size in expected:
                assert order.strings_before_class(counts) == start
                assert order.locate_string(start) == (counts, 0)
                assert order.locate_string(start + size - 1) == (counts, size - 1)
                start += size
        else:
            # a vectors of length a are too many to list; check each group's head
            for (_, parts, _, _), (_, _, got) in zip(table, groups):
                for vector, size in islice(_iter_group_classes(got, a), 3):
                    assert tuple(sorted(filter(None, vector), reverse=True)) in parts
                    assert size == oracles.class_size(vector)

    def test_benchmark_order_size_is_pinned(self, monkeypatch):
        # the traced benchmark reports the counts of its cold a=5, n+k=101
        # build, a tail; the complete order holds every partition
        monkeypatch.setattr("setshaping.compositions._ORDER_CACHE", {})
        for order, partitions, groups in (
            (class_order(101, 5), 10658, 10642),
            (_whole_order(101, 5), 48006, 47820),
        ):
            assert sum(len(parts) for parts in order.group_partitions) == partitions
            assert len(order.group_products) == groups


class TestZeroRuns:
    """Rank and selection over count vectors that are mostly zeros."""

    @pytest.mark.parametrize("n, a", [(3, 30), (4, 16), (6, 9), (16, 5)])
    def test_every_class_against_brute_force(self, n, a):
        order = ClassOrder(n, a)
        start = 0
        for counts, size in oracles.sorted_compositions(n, a):
            assert order.strings_before_class(counts) == start
            assert order.locate_string(start) == (counts, 0)
            assert order.locate_string(start + size - 1) == (counts, size - 1)
            start += size

    def test_single_symbol_vectors_at_a_large_alphabet(self):
        # n=1: the classes are the unit vectors, (0,...,0,1) first
        a = 10**5
        order = ClassOrder(1, a)
        for j in (0, 1, a // 2, a - 1):
            counts = tuple(int(i == j) for i in range(a))
            assert order.strings_before_class(counts) == a - 1 - j
            assert order.locate_string(a - 1 - j) == (counts, 0)

    def test_pairs_at_a_large_alphabet(self):
        # n=2: the a vectors with one 2 first, then e_i + e_j (i < j) lex
        # ascending, which puts a later first 1 earlier.
        a = 10**4
        order = ClassOrder(2, a)
        for i, j in ((0, 1), (0, a - 1), (a - 2, a - 1), (17, 9000), (5000, 5001)):
            counts = tuple(int(v in (i, j)) for v in range(a))
            classes = a + math.comb(a - 1 - i, 2) + (a - 1 - j)
            strings = a + 2 * (classes - a)
            assert order.strings_before_class(counts) == strings
            assert order.locate_string(strings + 1) == (counts, 1)
        assert order.locate_string(a - 1) == ((2,) + (0,) * (a - 1), 0)

