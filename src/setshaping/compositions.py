"""Exact combinatorics over composition classes of symbol strings.

A composition is the per-symbol count vector of a string over an alphabet of
size a; every string in a composition class shares its empirical information
content.  For a fixed total n, comparing the contents

    n*log2(n) - sum_v c_v*log2(c_v)

reduces to comparing the integer products prod_v c_v**c_v, which makes the
ordering exact: floats never decide a placement and ties are detected
reliably.  The total order used throughout is information content ascending
(order product descending), with equal-content classes ranked by their count
vectors ascending lexicographically, and the strings inside a class ordered
lexicographically by symbol index.

Compositions that share the same multiset of counts are permutations of one
another, so they share their product, class size, and information content.
ClassOrder therefore aggregates by partition of n and only expands individual
count vectors on demand; the partition count grows polynomially in n where
the composition count grows like n**(a-1), which keeps n around 100 cheap
while staying exact.  One depth-first walk over the partitions yields a flat
table of (product, partition, class size, class count) rows; one stable sort
and one pass over it give the tie groups.  Given a product limit, the same
walk keeps only the rows at or below it, which is how top_groups reads the
highest-content end of the order without building the rest.
"""

from __future__ import annotations

import heapq
import math
import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate, groupby, repeat
from operator import itemgetter, mul
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

# The composition cap: the exact layer refuses more composition classes than this.
DEFAULT_COMPOSITION_CAP = 10**8


def check_composition_cap(n: int, a: int) -> None:
    """Raise ResourceLimitError if n into a parts has more compositions than the cap.

    The count is C(n+a-1, a-1), by stars and bars; the cap is
    DEFAULT_COMPOSITION_CAP, read when this is called.
    """
    count = math.comb(n + a - 1, a - 1)
    if count > DEFAULT_COMPOSITION_CAP:
        raise ResourceLimitError(
            f"{count} composition classes for n={n}, a={a} "
            f"exceeds the cap of {DEFAULT_COMPOSITION_CAP}"
        )


def multinomial(counts: Sequence[int]) -> int:
    """Number of distinct strings with the given composition, n!/prod(c!)."""
    result = 1
    total = 0
    for c in counts:
        if c < 0:
            raise ValueError("counts must be nonnegative")
        total += c
        result *= math.comb(total, c)
    return result


def order_product(counts: Sequence[int]) -> int:
    """prod_v c_v**c_v with 0**0 = 1; larger product means lower content."""
    result = 1
    for c in counts:
        if c > 1:
            result *= c**c
    return result


def _even_split_product(r: int, s: int) -> int:
    """Order product of r split as evenly as possible into s parts.

    By convexity of c*log(c) no split of r into at most s parts has a
    smaller product.
    """
    q, extra = divmod(r, s)
    return (q**q) ** (s - extra) * ((q + 1) ** (q + 1)) ** extra


def _partition_rows(
    n: int, a: int, limit: int | None = None
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """One row per partition of n into at most a parts, partitions lex ascending.

    A row is (order product, partition, class size, class count): the class
    size is the multinomial n!/prod(c!) and the class count is the number of
    distinct a-length count vectors that sort to the partition,
    perm(a, len) / prod(multiplicity!).  The depth-first walk carries the
    product, the factorial denominator and the multiplicity factorials down
    the recursion, so siblings share their prefix's work.

    With a limit, only the rows whose order product is at most limit are
    kept.  Parts are placed largest first and each is at least the even
    share of the rest, so the least product a prefix can be completed to is
    the even split of what remains over the free slots.  That bound never
    falls as the next part grows, so the first part past the limit ends the
    loop; every test is on exact integers.
    """
    powers = [c**c for c in range(n + 1)]
    fact = list(accumulate(range(1, n + 1), mul, initial=1))
    perms = [math.perm(a, length) for length in range(min(a, n) + 1)]
    if limit is not None:
        # least[s][r]: least order product of r in at most s parts.
        least = [[1]] + [
            [_even_split_product(r, s) for r in range(n + 1)] for s in range(1, a)
        ]
    rows: list[tuple[int, tuple[int, ...], int, int]] = []

    def walk(prefix, rest, slots, top, prod, den, mult_den, run):
        # top bounds the next part and is the last part placed, whose run
        # of equal parts has length run.
        for c in range(-(-rest // slots), min(rest, top) + 1):
            p = prod * powers[c]
            if limit is not None and p * least[slots - 1][rest - c] > limit:
                break
            part = prefix + (c,)
            c_run = run + 1 if c == top else 1
            d, md = den * fact[c], mult_den * c_run
            if c == rest:
                rows.append((p, part, fact[n] // d, perms[len(part)] // md))
            else:
                walk(part, rest - c, slots - 1, c, p, d, md, c_run)

    walk((), n, a, n, 1, 1, 1, 0)
    return rows


def top_groups(n: int, a: int, count: int) -> tuple[list[float], list[int]]:
    """The last count strings of the order of (n, a), one tie group at a time.

    The mirror of ClassOrder.head, read without building the order: the
    highest-content strings lie on the few partitions of smallest order
    product, so the partition walk keeps only the rows up to a product
    limit, widened from 2**8 times the least product until the kept rows
    hold count strings.  Every kept tie group is whole, since its rows
    share one product.  Returns the information contents of the groups,
    highest first, and how many strings each gives: all of its strings,
    except for the last group, which the cut may split.
    """
    if not 0 < count <= a**n:
        raise ValueError(f"string count {count} out of range")
    check_composition_cap(n, a)
    least_product = _even_split_product(n, a)
    shift = 8
    rows = _partition_rows(n, a, least_product << shift)
    while sum(size * classes for _, _, size, classes in rows) < count:
        shift *= 2
        rows = _partition_rows(n, a, least_product << shift)
    # Stable: partitions stay ascending inside each tie group, as in
    # ClassOrder, so each group's content comes from the same partition.
    rows.sort(key=itemgetter(0))

    xlogx = [0.0, 0.0] + [c * math.log2(c) for c in range(2, n + 1)]
    infos, taken = [], []
    for _, group in groupby(rows, key=itemgetter(0)):
        group = list(group)
        strings = sum(size * classes for _, _, size, classes in group)
        # ClassOrder's sum over the group's first partition: the same bits.
        infos.append(xlogx[n] - math.fsum([xlogx[c] for c in group[0][1] if c > 1]))
        taken.append(min(strings, count))
        count -= taken[-1]
        if not count:
            break
    return infos, taken


def _padded_multiset(partition: Sequence[int], a: int) -> dict[int, int]:
    """Value -> multiplicity of the partition padded with zeros to a parts."""
    counts = {0: a - len(partition)}
    for c in partition:
        counts[c] = counts.get(c, 0) + 1
    return counts


def _after_zeros(count: int, slots: int, nonzero: int, zeros: int) -> int:
    """Arrangements of a multiset that start with `zeros` zeros.

    Of the count arrangements of slots elements, nonzero of them nonzero,
    comb(slots, nonzero) choose where the zeros go and each choice carries
    the same count // comb(slots, nonzero) orders of the nonzero elements.
    Zero when fewer than `zeros` zeros remain.
    """
    if zeros == 1:
        return count * (slots - nonzero) // slots
    return count // math.comb(slots, nonzero) * math.comb(slots - zeros, nonzero)


def _lex_rank(seq: Sequence[int], remaining: dict[int, int], count: int) -> int:
    """Rank of seq among the count distinct arrangements of a multiset, lex ascending.

    remaining maps each value to its multiplicity and is used up in place.
    Of the count arrangements of a multiset of slots elements, count*m//slots
    start with a value of multiplicity m, so count*below//slots start below
    the next value of seq, with below the multiplicities of the smaller
    values: one exact division per position and no factorials.  Zero sorts
    first, so a run of zeros in seq puts nothing below it; each run is taken
    in one step, and the trailing one not at all.  A seq that is no
    arrangement of the multiset gets the number of arrangements below it.
    """
    values = sorted(remaining)
    slots = sum(remaining.values())
    rank = 0
    zeros = 0
    for value in seq:
        if not value:
            zeros += 1
            continue
        if zeros:
            if zeros > remaining[0]:
                break
            count = _after_zeros(count, slots, slots - remaining[0], zeros)
            remaining[0] -= zeros
            slots -= zeros
            zeros = 0
        below = 0
        for v in values:
            if v >= value:
                break
            below += remaining[v]
        rank += count * below // slots
        m = remaining.get(value, 0)
        if m == 0:
            break
        count = count * m // slots
        remaining[value] = m - 1
        slots -= 1
    return rank


def _lex_select(t: int, remaining: dict[int, int], count: int) -> tuple[int, ...]:
    """The arrangement of rank t among the count of a multiset; inverse of _lex_rank.

    remaining is used up in place.  The arrangements whose next value is at
    most v number count*M//slots, with M the multiplicities up to v, so the
    next value is the first whose running multiplicity exceeds t*slots//count:
    one exact division picks it.
    """
    values = sorted(remaining)
    slots = sum(remaining.values())
    out = []
    while slots:
        q = t * slots // count
        below = 0
        for v in values:
            m = remaining[v]
            if below + m > q:
                break
            below += m
        else:
            raise AssertionError("rank exceeded the arrangements")
        t -= count * below // slots
        count = count * m // slots
        remaining[v] = m - 1
        out.append(v)
        slots -= 1
    return tuple(out)


def _lex_vectors(partition: Sequence[int], a: int) -> Iterator[tuple[int, ...]]:
    """Distinct padded count vectors of the partition, lex ascending."""
    vec = sorted(list(partition) + [0] * (a - len(partition)))
    while True:
        yield tuple(vec)
        i = a - 2
        while i >= 0 and vec[i] >= vec[i + 1]:
            i -= 1
        if i < 0:
            return
        j = a - 1
        while vec[j] <= vec[i]:
            j -= 1
        vec[i], vec[j] = vec[j], vec[i]
        vec[i + 1 :] = reversed(vec[i + 1 :])


def _zero_run(active: list[tuple[dict[int, int], int, int]], slots: int, t: int) -> int:
    """Length of the run of zeros that the t-th string of active starts with.

    active holds (remaining multiset, class size, arrangements) rows that
    share the vector so far, and t lies among the strings whose next part is
    zero.  The strings whose next z parts are zero come first and shrink as
    z grows, so the run is the largest z they still cover t for.
    """

    def weight(zeros: int) -> int:
        return sum(
            size * _after_zeros(count, slots, slots - rem[0], zeros)
            for rem, size, count in active
        )

    # Gallop from a run of one, the common case, then bisect.
    lo, hi = 1, 2
    while hi <= slots and t < weight(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi - 1, slots)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if t < weight(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


class ClassOrder:
    """The exact total order over all compositions of n into a parts.

    Storage and build time scale with the number of partitions of n.  The
    build walks the partitions once into a flat row table (see
    _partition_rows), sorted by order product descending with partitions
    ascending inside a tie.  A tie group is a maximal run of rows sharing one
    exact order product (hence one information content); per group the order
    keeps the product, the row offset, the information content and the exact
    string total with its prefix sums, so rank and selection queries read one
    group's row slice and never materialize the composition list.
    """

    def __init__(self, n: int, a: int):
        if n < 1 or a < 1:
            raise ValueError("need n >= 1 and a >= 1")
        check_composition_cap(n, a)
        self.n = n
        self.alphabet_size = a
        self.total_strings = a**n

        self._rows = rows = _partition_rows(n, a)
        # Stable: partitions stay ascending inside each tie group.
        rows.sort(key=itemgetter(0), reverse=True)

        xlogx = [0.0, 0.0] + [c * math.log2(c) for c in range(2, n + 1)]
        products, starts, strings, infos = [], [], [], []
        for i, (product, part, size, count) in enumerate(rows):
            if products and product == products[-1]:
                strings[-1] += size * count
                continue
            products.append(product)
            starts.append(i)
            strings.append(size * count)
            # n*log2(n) - sum c*log2(c) over the parts, summed by fsum.
            infos.append(xlogx[n] - math.fsum([xlogx[c] for c in part if c > 1]))
        starts.append(len(rows))
        self.group_products = products
        self._group_start = starts
        self._group_index = {p: i for i, p in enumerate(products)}
        self.group_string_totals = strings
        self.group_infos = np.array(infos, dtype=np.float64)

        self._string_prefix = list(accumulate(self.group_string_totals, initial=0))
        if self._string_prefix[-1] != self.total_strings:
            raise AssertionError("group totals disagree with a**n")

    def _group_rows(self, gi: int) -> list[tuple[int, tuple[int, ...], int, int]]:
        return self._rows[self._group_start[gi] : self._group_start[gi + 1]]

    @property
    def group_partitions(self) -> list[list[tuple[int, ...]]]:
        """Partitions of each tie group, ascending."""
        rows, starts = self._rows, self._group_start
        return [[row[1] for row in rows[s:e]] for s, e in zip(starts, starts[1:])]

    # -- lookups ---------------------------------------------------------

    def group_of(self, counts: Sequence[int]) -> int:
        """Index of the tie group containing the composition."""
        try:
            return self._group_index[order_product(counts)]
        except KeyError:
            raise ValueError(f"{tuple(counts)} is not a composition of n={self.n}")

    def _checked(self, counts: Sequence[int]) -> tuple[int, ...]:
        counts = tuple(counts)
        if len(counts) != self.alphabet_size or sum(counts) != self.n:
            raise ValueError("composition does not match this order")
        if min(counts) < 0:
            raise ValueError("counts must be nonnegative")
        return counts

    def strings_before_class(self, counts: Sequence[int]) -> int:
        """Exact number of strings ranked before the first string of the class."""
        counts = self._checked(counts)
        gi = self.group_of(counts)
        total = self._string_prefix[gi]
        for _, part, size, count in self._group_rows(gi):
            remaining = _padded_multiset(part, self.alphabet_size)
            total += size * _lex_rank(counts, remaining, count)
        return total

    def locate_string(self, index: int) -> tuple[tuple[int, ...], int]:
        """Composition holding the index-th string overall, plus the offset within it."""
        if not 0 <= index < self.total_strings:
            raise ValueError(f"string index {index} out of range")
        gi = bisect_right(self._string_prefix, index) - 1
        return self._select_in_group(gi, index - self._string_prefix[gi])

    def head(self, count: int) -> tuple[np.ndarray, list[int]]:
        """The first count strings of the order, one tie group at a time.

        Returns the information contents of the groups they touch and how
        many strings each group gives: all of its strings, except for the
        last group, which the cut may split.
        """
        if not 0 < count <= self.total_strings:
            raise ValueError(f"string count {count} out of range")
        g = bisect_left(self._string_prefix, count)
        taken = self.group_string_totals[: g - 1]
        taken.append(count - self._string_prefix[g - 1])
        return self.group_infos[:g], taken

    def info_at(self, index: int) -> float:
        """Information content of the string at the given position."""
        if not 0 <= index < self.total_strings:
            raise ValueError(f"string index {index} out of range")
        gi = bisect_right(self._string_prefix, index) - 1
        return float(self.group_infos[gi])

    def _select_in_group(self, gi: int, t: int) -> tuple[tuple[int, ...], int]:
        # Per row still consistent with the vector so far: its remaining
        # multiset, class size, and number of arrangements of the multiset.
        active = [
            (_padded_multiset(part, self.alphabet_size), size, count)
            for _, part, size, count in self._group_rows(gi)
        ]
        vector: list[int] = []
        slots = self.alphabet_size
        while slots:
            for v in sorted({u for rem, _, _ in active for u, m in rem.items() if m}):
                weight = sum(s * c * rem.get(v, 0) // slots for rem, s, c in active)
                if t < weight:
                    break
                t -= weight
            else:
                raise AssertionError("offset exceeded the tie group")
            if v == 0 and vector and vector[-1] == 0:
                # A second zero in a row: take the rest of the run at once.
                zeros = _zero_run(active, slots, t)
                survivors = []
                for rem, size, count in active:
                    count = _after_zeros(count, slots, slots - rem[0], zeros)
                    if count:
                        rem[0] -= zeros
                        survivors.append((rem, size, count))
                vector.extend(repeat(0, zeros))
                slots -= zeros
            else:
                survivors = []
                for rem, size, count in active:
                    m = rem.get(v, 0)
                    if m:
                        rem[v] = m - 1
                        survivors.append((rem, size, count * m // slots))
                vector.append(v)
                slots -= 1
            active = survivors
        return tuple(vector), t

    # -- iteration -------------------------------------------------------

    def _iter_group_classes(self, gi: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """(composition, class size) pairs of one tie group, lex ascending."""
        streams = [
            zip(_lex_vectors(part, self.alphabet_size), repeat(size))
            for _, part, size, _ in self._group_rows(gi)
        ]
        yield from heapq.merge(*streams, key=itemgetter(0))

    def iter_classes(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every (composition, class size) pair in exact order."""
        for gi in range(len(self.group_products)):
            yield from self._iter_group_classes(gi)


_ORDER_CACHE: dict[tuple[int, int], ClassOrder] = {}
_ORDER_LOCK = threading.Lock()


def class_order(n: int, a: int) -> ClassOrder:
    """Shared ClassOrder for (n, a); builds are serialized and idempotent.

    The composition cap is checked when the order is built, so a cached
    order has already passed it.
    """
    key = (n, a)
    order = _ORDER_CACHE.get(key)
    if order is not None:
        return order
    with _ORDER_LOCK:
        order = _ORDER_CACHE.get(key)
        if order is None:
            order = ClassOrder(n, a)
            _ORDER_CACHE[key] = order
    return order

