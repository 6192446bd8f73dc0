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
while staying exact.  One depth-first walk over the partitions, whose one
loop places every part and the last two together, yields a flat list of
(key, partition, string total) rows.  The key is sum c*ln(c), the
log of the order product, as a float within a proven relative bound of it
(see _key_tolerance); the string totals come from multinomials carried
down the walk, a node's times comb(rest, c) for a part c, and the walk keeps
no table of powers or factorials.  _exact_order sorts the rows by key and hands the
runs whose keys lie within the bound of each other to exact integer
products, which order them and find the ties, so floats never decide a
placement that exact products would decide differently, and flags the
ties, which give the tie groups.  A ClassOrder keeps no products, no
class sizes and no contents, only numpy arrays: a small-int matrix of the
partitions, their bytes sorted for lookup, and, per tie group, its first
row and the exact number of strings before it as big-endian bytes as wide
as a**n, about 71 bytes a row at n=101, a=5 against 110 with the prefix
sums a list of ints and 570 with the rows kept whole.  Class sizes and
class counts are recomputed for the one group a query reads.  Given a product
limit, the same walk keeps only the rows at or below it: the high-content
end of the order, where nearly every string lies.  The limit is an exact
product, and a key within the bound of its log is tested on exact
products, so that tail is an exact suffix of the complete order and each of
its tie groups is whole.  A ClassOrder is built as that tail, holding all
but at most 2**-20 of the strings, and is never changed: it answers rank
and selection, and a query below the tail goes to the shared complete
order, which _whole_order builds with one walk over every partition.  The
shared orders are cached up to ORDER_CACHE_BYTE_BUDGET bytes of their
arrays, the least recently used evicted first.  A
reader of the whole order from end to end (the per-rank series, the
non-uniform shaped mean) takes _tie_groups: one walk over every
partition, sorted as an order's, yielding each tie group's content,
string total and partitions, and caching nothing.  top_tallies tallies
the symbol counts of the highest-content strings off the rows of the same
kind of tail, and builds no order.  What every walk costs is bounded where
it keeps its rows: each row is charged its bytes against one budget,
WALK_BYTE_BUDGET, and a walk that would keep more raises
ResourceLimitError.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
import threading
from array import array
from itertools import accumulate, chain, compress, repeat
from operator import eq, itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

# Bytes a partition walk may keep in rows.  A fixed constant, not a share
# of physical memory, so that which rows are exact and which sampled, and so
# every seeded output, is the same on every machine.
WALK_BYTE_BUDGET = 512 * 2**20
# Bytes of the class orders the cache keeps (their ClassOrder.nbytes).  Past
# it, a build evicts the least recently used orders, never its own.
ORDER_CACHE_BYTE_BUDGET = 256 * 2**20


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
        elif c < 0:
            raise ValueError("counts must be nonnegative")
    return result


def _even_split_product(r: int, s: int) -> int:
    """Order product of r split as evenly as possible into s parts.

    By convexity of c*log(c) no split of r into at most s parts has a
    smaller product.
    """
    q, extra = divmod(r, s)
    return (q**q) ** (s - extra) * ((q + 1) ** (q + 1)) ** extra


# A float key sums at most min(n, a) terms c*ln(c), each within 3 units of
# 2**-53 of its value relative (libm's log within one ulp, then the product
# rounded; 4 for the even split's multiples of one term), and each addition
# adds one more: the key is within (terms + 3) * 2**-53 of ln(order
# product), relative.  _key_tolerance takes (terms + 4) * 2**-52, over
# twice that, which also covers ln(limit) and the rounding of the
# comparisons made with it.  Keys and ln(limit) are nonnegative, so the
# bound grows with the key's magnitude: at n = 10**5 keys near 1.2e6 have
# an ulp of 2.3e-10, and no fixed constant would do.
_KEY_EPS = 2.0**-52


def _key_tolerance(n: int, a: int) -> float:
    """Relative error bound of every float key of a walk of n into a parts."""
    return (min(n, a) + 4) * _KEY_EPS


def _partition_rows(
    n: int, a: int, limit: int | None = None
) -> list[tuple[float, tuple[int, ...], int]]:
    """One row per partition of n into at most a parts, partitions lex ascending.

    A row is (key, partition, strings).  The key is sum c*ln(c) over the
    parts, the natural log of the order product, as a float within
    _key_tolerance of it.  strings counts the strings of every class of
    the partition, its class size n!/prod(c!) times its class count, the
    number of distinct a-length count vectors that sort to it,
    perm(a, len) / prod(multiplicity!).  The depth-first walk carries both
    down: a node holds the multinomial of its parts and its rest, which a
    part c out of rest multiplies by comb(rest, c), stepped from
    comb(rest, c - 1) as c grows, and the class count of its parts, which a
    part multiplies by the free slots and divides by its run of equal parts.
    One loop places every part.  With two slots free, a part c places the
    last part, rest - c, with it, and the row ends there; where the two are
    equal, the class count also divides by the run that rest - c extends.
    Only a = 1, a single row, is made outside the loop.

    With a limit, only the rows whose order product is at most limit are
    kept.  Parts are placed largest first and each is at least the even
    share of the rest, so the least product a prefix can be completed to is
    the even split of what remains over the free slots; with two slots
    free, that is the row's own product, and its bound key the row's key.
    That bound never falls as the next part grows, so the first part past
    the limit ends the loop.  The bound's key is compared with ln(limit) in
    floats; only where the two lie within the keys' error bound are the
    exact integer products compared, so every decision is the exact one.

    Each row kept is charged against WALK_BYTE_BUDGET, read at call time:
    330 bytes, and twice the n*log2(a)/8 bytes of a string total, once in
    the row and once in an order's prefix sums.  The 330 cover the row's
    tuples, key and list slot, about 200 bytes, and an order build's sort
    arrays and partition matrix: the (101, 10) tail's build peaks at 318
    bytes a row under tracemalloc.  The walk keeps at most the budget over
    the charge rows and raises ResourceLimitError on the next; the rows
    kept so far are freed with the exception.  The walk nests one call per
    part; one that would nest past the recursion limit raises
    ResourceLimitError too.
    """
    xlnx = [0.0, 0.0] + [c * math.log(c) for c in range(2, n + 1)]
    rows: list[tuple[float, tuple[int, ...], int]] = []
    charge = 330 + math.ceil(n * math.log2(a) / 4)
    most = WALK_BYTE_BUDGET // charge
    if limit is not None:
        if limit < 1:
            return rows
        ln_limit = math.log(limit)
        tol = _key_tolerance(n, a)

    def walk(prefix, rest, slots, top, key, mult, count, run):
        # At least two slots are free.  top bounds the next part and is the
        # last part placed, whose run of equal parts has length run.
        first = -(-rest // slots)
        size = mult * math.comb(rest, first - 1)
        last = slots == 2
        for c in range(first, min(rest, top) + 1):
            k = key + xlnx[c]
            r = rest - c
            if last:
                # The last two parts, c and r: the bound is the row's own key.
                k = least = k + xlnx[r]
            elif limit is not None:
                q, extra = divmod(r, slots - 1)
                least = k + (slots - 1 - extra) * xlnx[q] + extra * xlnx[q + 1]
            if limit is not None:
                bound = (least + ln_limit) * tol
                if not ln_limit - least > bound and (
                    least - ln_limit > bound
                    or order_product(prefix) * c**c * _even_split_product(r, slots - 1) > limit
                ):
                    break
            # mult * comb(rest, c), from mult * comb(rest, c - 1)
            size = size * (r + 1) // c
            c_run = run + 1 if c == top else 1
            count2 = count * slots // c_run
            if r and not last:
                walk(prefix + (c,), r, slots - 1, c, k, size, count2, c_run)
                continue
            if r == c:
                # The last two parts are equal: r extends c's run too.
                count2 //= c_run + 1
            if len(rows) == most:
                raise ResourceLimitError(
                    f"the partitions of n={n} into a={a} parts need more than {most} "
                    f"rows of {charge} bytes each, past the walk's byte budget"
                )
            rows.append((k, prefix + ((c, r) if r else (c,)), size * count2))

    try:
        if a > 1:
            walk((), n, a, n, 0.0, 1, 1, 0)
        elif limit is None or n**n <= limit:
            rows.append((xlnx[n], (n,), 1))
    except RecursionError:
        # The walk nests a call per part, up to min(n, a) deep.
        raise ResourceLimitError(
            f"the partitions of n={n} into a={a} parts nest deeper than the walk's "
            f"recursion limit of {sys.getrecursionlimit()}"
        ) from None
    finally:
        # walk refers to itself; dropping it frees it, and so rows, with the
        # caller or with a refusal.
        del walk
    return rows


def _upper_normal_quantile(p: float) -> float:
    """z with P(Z > z) = p for a standard normal Z and 1e-300 <= p <= 0.5.

    Newton's method on ln P(Z > z), from math.erfc alone.  It starts at
    sqrt(-2 ln(2p)), at or above z since P(Z > z) <= exp(-z**2/2)/2, and
    ln P(Z > z) is concave, so each step stays at or above z and the steps
    fall until rounding stops them.
    """
    z = math.sqrt(2 * math.log(0.5 / p))
    for _ in range(64):
        tail = math.erfc(z / math.sqrt(2)) / 2
        density = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        step = (math.log(tail) - math.log(p)) * tail / density
        if not step < 0:
            break
        z += step
    return z


def _chi_square_upper_quantile(dof: int, p: float) -> float:
    """x with P(X > x) about p for a chi-square X with dof >= 1 degrees of freedom.

    The Wilson-Hilferty approximation: (X/dof)**(1/3) is about normal with
    mean 1 - 2/(9 dof) and variance 2/(9 dof).  p is clamped to
    [1e-300, 0.5] so that the normal quantile stays finite.
    """
    z = _upper_normal_quantile(min(max(p, 1e-300), 0.5))
    return dof * max(1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof)), 0.0) ** 3


def _content_gap(a: int, fraction: float) -> float:
    """Bits below L*log2(a) of the content at the upper-tail fraction, for any L.

    For a uniformly random string over a symbols, L*log2(a) less its
    content is about half a chi-square variable with a-1 degrees of
    freedom, over ln 2: fraction of the strings fall short by more than
    this.  Both _cover_limit and the Monte Carlo keep window read it.
    """
    return _chi_square_upper_quantile(a - 1, fraction) / (2 * math.log(2))


def _cover_limit(n: int, a: int, uncovered: int) -> int:
    """An order product limit whose rows leave out about `uncovered` strings.

    For a uniformly random string, ln(product / least product) is about n
    times the divergence of its counts from the even split, which tends to
    half a chi-square variable with a-1 degrees of freedom.  The limit is
    the least product raised by the content gap at the fraction left out
    (_content_gap), rounded up to whole bits, and one more bit for the
    finite n (on the Table 1 and Table 2 orders and the n=100 tails it
    added at most 0.61 bits).  Only how many rows a walk visits depends on
    it: exact products still decide which rows are kept, and _tail_rows
    walks every row when the limit falls short.
    """
    return _even_split_product(n, a) << (math.ceil(_content_gap(a, uncovered / a**n)) + 1)


def _tail_rows(n: int, a: int, uncovered: int) -> tuple[list, int]:
    """The rows of a tail leaving out at most `uncovered` strings, and their string total.

    The rows are those _partition_rows keeps under the product limit of
    _cover_limit, in walk order.  Where that limit holds too few strings,
    and with uncovered 0, they are every row, which hold all a**n strings.
    """
    if uncovered:
        rows = _partition_rows(n, a, _cover_limit(n, a, uncovered))
        covered = sum(row[2] for row in rows)
        if covered >= a**n - uncovered:
            return rows, covered
    rows = _partition_rows(n, a)
    covered = sum(row[2] for row in rows)
    if covered != a**n:
        raise AssertionError("group totals disagree with a**n")
    return rows, covered


# Runs of rows whose float keys cannot order them, sorted by exact products
# a batch at a time.
_RUN_BATCH = 1 << 12


class _Powers(dict):
    """c -> c**c, each computed when first read."""

    def __missing__(self, c: int) -> int:
        power = self[c] = c**c
        return power


def _exact_order(rows: list, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The order of rows of _partition_rows by exact order product, and its tie flags.

    Entry i of the order is the index in rows of the row placed i-th, by
    order product descending as in a class order.  Walk order breaks ties,
    so partitions stay ascending inside a tie group.  The rows are sorted
    by float key, descending.  Where adjacent keys lie within the relative
    error bound tol of each other, floats cannot tell their products
    apart: each run of such rows gets exact products, computed from c**c
    of only the parts it holds.  A run whose products are all equal is one
    tie, put in walk order; any other run is sorted by its exact products.
    Rows in different runs differ by more than the bound, so floats never
    decide a placement that exact products would decide differently.  Flag
    i is whether the row placed i-th has the same exact product as the one
    before it; only rows inside a run can.
    """
    keys = np.fromiter((row[0] for row in rows), dtype=np.float64, count=len(rows))
    order = np.argsort(-keys, kind="stable")
    keys = keys[order]
    # near[i]: rows i-1 and i lie within the bound, and so in one run.
    near = np.zeros(len(rows) + 1, dtype=bool)
    near[1:-1] = ~(np.abs(np.diff(keys)) > (keys[:-1] + keys[1:]) * tol)
    del keys
    ties = np.zeros(len(rows), dtype=bool)
    # The positions of the rows in runs, and where each run starts among them.
    pos = np.flatnonzero(near[:-1] | near[1:])
    run_starts = np.flatnonzero(~near[pos])
    powers = _Powers()
    # A batch of whole runs at a time, so that few exact products are held.
    cuts = [*run_starts[::_RUN_BATCH].tolist(), len(pos)]
    for lo, hi in zip(cuts, cuts[1:]):
        at = pos[lo:hi]
        linked = near[at]
        members = order[at]
        products = [math.prod(map(powers.__getitem__, rows[i][1])) for i in members.tolist()]
        equal = np.fromiter(map(eq, products[1:], products), dtype=bool, count=len(at) - 1)
        ties[at[1:]] = equal & linked[1:]
        runs = np.cumsum(~linked)
        order[at] = members[np.lexsort((members, runs))]
        # A run whose products are not all equal is sorted by them.
        for run in dict.fromkeys(runs[1:][linked[1:] & ~equal].tolist()):
            first, end = np.searchsorted(runs, [run, run + 1]).tolist()
            by_product = sorted(
                zip((-p for p in products[first:end]), members[first:end].tolist())
            )
            order[at[first:end]] = [i for _, i in by_product]
            ties[at[first + 1 : end]] = [x[0] == y[0] for x, y in zip(by_product, by_product[1:])]
    return order, ties


def top_tallies(n: int, a: int, count: int) -> list[int]:
    """Symbol-count tallies of the last count strings of the order of (n, a).

    Entry c is how many (string, symbol) pairs among those strings have a
    symbol that occurs c times in its string, for c = 0..n; the entries sum
    to a*count and their c-weighted sum is n*count.  The content of the
    strings is then count*n*log2(n) - sum_c tallies[c]*c*log2(c).  The
    highest-content strings lie on the few partitions of smallest order
    product, so only the tail that holds count strings is walked (see
    _tail_rows), and no order is built: the rows are taken by product
    ascending, partitions ascending inside a tie, until count strings are
    taken.  Partitions tied in product share their sum of c*log2(c), so
    which rows of the last tie group give its strings changes the tallies
    but not the content they give.
    """
    if not 0 < count <= a**n:
        raise ValueError(f"string count {count} out of range")
    rows, _ = _tail_rows(n, a, a**n - count)
    # Reversed rows break ties in reverse walk order, so the order read
    # backwards is product ascending with ties in walk order.
    rows.reverse()
    order, _ = _exact_order(rows, _key_tolerance(n, a))
    tallies = [0] * (n + 1)
    for _, part, strings in map(rows.__getitem__, order[::-1].tolist()):
        take = min(strings, count)
        tallies[0] += take * (a - len(part))
        for c in part:
            tallies[c] += take
        count -= take
        if not count:
            break
    return tallies


def _tie_groups(n: int, a: int) -> Iterator[tuple[float, int, list[tuple[int, ...]]]]:
    """(content, strings, partitions) of each tie group of the order of (n, a), in order.

    One walk over every partition, ordered by _exact_order as a ClassOrder
    is.  The content is n*log2(n) - sum c*log2(c) over the parts of the
    group's first partition, summed by fsum; strings is the group's string
    total, and its partitions are ascending.  Nothing is cached: each call
    walks again.
    """
    rows, _ = _tail_rows(n, a, 0)
    order, ties = _exact_order(rows, _key_tolerance(n, a))
    xlogx = [0.0, 0.0] + [c * math.log2(c) for c in range(2, n + 1)]
    starts = [*np.flatnonzero(~ties).tolist(), len(rows)]
    order = order.tolist()
    for start, end in zip(starts, starts[1:]):
        group = [rows[i] for i in order[start:end]]
        content = xlogx[n] - math.fsum(map(xlogx.__getitem__, group[0][1]))
        yield content, sum(map(itemgetter(2), group)), list(map(itemgetter(1), group))


def _after_zeros(count: int, slots: int, zeros: int, run: int) -> int:
    """Arrangements of a multiset that start with a run of its least value.

    Of the count arrangements of slots elements, zeros of them the least
    value, count*perm(zeros, run)//perm(slots, run) start with run of them:
    a short run takes these products of small ints.  A run longer than the
    other elements, the zero runs of a count vector over a large alphabet,
    takes comb(slots, nonzero) for where the other elements go, each choice
    carrying the same count // comb(slots, nonzero) orders of them.  Zero
    when fewer than `run` remain.
    """
    nonzero = slots - zeros
    if run <= nonzero:
        return count * math.perm(zeros, run) // math.perm(slots, run)
    return count // math.comb(slots, nonzero) * math.comb(slots - run, nonzero)


def _lex_rank(seq: Sequence[int], mults: list[int], count: int) -> int:
    """Rank of seq among the count distinct arrangements of a multiset, lex ascending.

    The multiset is a flat list of multiplicities, mults[i] that of its
    i-th least value, used up in place, and seq holds the indices of its
    values; a negative entry -r stands for a run of r of index 0, so that a
    count vector over a large alphabet is ranked in steps of its nonzero
    parts.  Of the count arrangements of slots elements, count*m//slots
    start with the value of multiplicity m, so count*below//slots start
    below the next value of seq, with below the multiplicities of the
    lesser values: one exact division per position and no factorials.
    Index 0 sorts first and puts nothing below it, so a run of it is taken
    in one step at the next other index (see _after_zeros), and the
    trailing one not at all.  A seq that is no arrangement of the multiset
    gets the number of arrangements below it.
    """
    slots = sum(mults)
    rank = 0
    zeros = 0
    for i in seq:
        if i <= 0:
            zeros += -i or 1
            continue
        if zeros:
            m = mults[0]
            if zeros > m:
                break
            if zeros == 1:
                count = count * m // slots
            else:
                count = _after_zeros(count, slots, m, zeros)
            mults[0] = m - zeros
            slots -= zeros
            zeros = 0
        below = sum(mults[:i])
        if below:
            rank += count * below // slots
        m = mults[i]
        if not m:
            break
        count = count * m // slots
        mults[i] = m - 1
        slots -= 1
    return rank


def _lex_select(t: int, mults: list[int], count: int) -> list[int]:
    """The arrangement of rank t among the count of a multiset; inverse of _lex_rank.

    mults is the flat multiplicity list of _lex_rank, used up in place, and
    the arrangement comes back as indices of its values.  The arrangements
    whose next index is at most i number count*M//slots, with M the
    multiplicities up to i, so the next index is the first whose running
    multiplicity exceeds t*slots//count: one exact division picks it.  Once
    t is 0 the rest is the least arrangement of what remains, its indices
    in ascending order.
    """
    if not 0 <= t < count:
        raise AssertionError("rank exceeded the arrangements")
    slots = sum(mults)
    out = []
    while t:
        q = t * slots // count
        i = below = 0
        m = mults[0]
        while below + m <= q:
            below += m
            i += 1
            m = mults[i]
        t -= count * below // slots
        count = count * m // slots
        mults[i] = m - 1
        out.append(i)
        slots -= 1
    out.extend(chain.from_iterable(map(repeat, range(len(mults)), mults)))
    return out


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


def _iter_group_classes(
    partitions: Sequence[Sequence[int]], a: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(composition, class size) pairs of one tie group's partitions, lex ascending."""
    streams = [zip(_lex_vectors(part, a), repeat(multinomial(part))) for part in partitions]
    return heapq.merge(*streams, key=itemgetter(0))


def _zero_run(active: list[tuple[list[int], int]], slots: int, t: int) -> int:
    """Length of the run of the least value that the t-th string of active starts with.

    active holds (multiplicities, strings) rows that share the vector so
    far, and t lies among the strings whose next value is the least.  The
    strings whose next z values are the least come first and shrink as z
    grows, so the run is the largest z they still cover t for.
    """

    def weight(run: int) -> int:
        return sum(_after_zeros(strings, slots, mults[0], run) for mults, strings in active)

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
    """Rank and selection over the exact order of the compositions of n into a parts.

    Storage and build time scale with the number of partitions of n.  The
    build walks the partitions (see _partition_rows), orders them by exact
    order product descending with partitions ascending inside a tie (see
    _exact_order), and groups them into tie groups: maximal runs of rows
    sharing one exact order product, hence one information content.  The
    float keys and the exact products of near keys order and split the rows
    while the order is built; it keeps neither them nor any class size nor
    any content.  It keeps the partitions, one row each of `_parts`, a
    small-int matrix with min(n, a) columns padded with zeros, and per tie
    group its first row in `_starts` and, in `_prefix`, the exact number of
    strings before it in the whole order, as fixed-width big-endian bytes
    that _prefix_at reads back.  A partition is looked up by its bytes:
    `_keys` holds every row's bytes sorted and `_key_groups` the group of
    each.  Every one of these fields is a numpy array, so `nbytes`, their
    sum, is what the order holds.  Rank and selection queries read one
    group's partitions, recompute their class sizes and class counts (see
    _group_classes), and never materialize the composition list.  A reader
    of the whole order, group by group, takes _tie_groups instead.

    The order is built once, as its high-content tail: the rows up to a
    product limit that leaves out at most a**n >> 20 strings (see
    _tail_rows), so a random string almost always lies in it.  The limit is
    an exact product, so the tail is an exact suffix of the complete order
    and each of its tie groups is whole; _prefix_at(0) is the number of
    strings below it, 0 for a complete order.  The group tables
    (group_partitions, group_products) list the groups the order holds.
    No field is reassigned after __init__, so threads may share an order.
    A tail hands a rank or selection query that falls below it to the
    shared complete order of (n, a) (see _whole_order), whose answers are
    the same.
    """

    def __init__(self, n: int, a: int):
        n, a = operator.index(n), operator.index(a)
        if n < 1 or a < 1:
            raise ValueError("need n >= 1 and a >= 1")
        self.n = n
        self.alphabet_size = a
        self.total_strings = a**n
        rows, covered = _tail_rows(n, a, self._uncovered())
        order, ties = _exact_order(rows, _key_tolerance(n, a))
        starts = np.flatnonzero(~ties)
        strings = np.fromiter(map(itemgetter(2), rows), dtype=object, count=len(rows))[order]
        parts_of = [row[1] for row in rows]
        del rows
        # Strings before each group: the running string total at its first
        # row, and at the end, each as big-endian bytes as wide as a**n.
        width = -(-self.total_strings.bit_length() // 8)
        prefix = np.fromiter(
            (
                total.to_bytes(width, "big")
                for total in compress(
                    accumulate(strings, initial=a**n - covered), chain((~ties).tolist(), [True])
                )
            ),
            dtype=np.dtype((np.bytes_, width)),
            count=len(starts) + 1,
        )
        del strings, ties

        # The partitions padded with zeros, a row each, in walk order and then
        # in the order's.
        cols = min(n, a)
        lengths = np.fromiter(map(len, parts_of), dtype=np.intp, count=len(parts_of))
        parts = np.zeros((len(parts_of), cols), dtype=np.min_scalar_type(n))
        parts[np.arange(cols) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(parts_of), dtype=parts.dtype, count=int(lengths.sum())
        )
        del parts_of
        parts = parts[order]
        self._parts = parts
        self._starts = np.append(starts, len(parts)).astype(np.min_scalar_type(len(parts)))
        self._prefix = prefix
        # Each row's bytes as one fixed-width string.  Numpy drops trailing
        # zero bytes when it reads one out, and so do _find and _prefix_at.
        keys = parts.view(np.dtype((np.bytes_, cols * parts.itemsize)))[:, 0]
        by_key = np.argsort(keys, kind="stable")
        groups = np.repeat(
            np.arange(len(starts), dtype=np.min_scalar_type(len(starts))), np.diff(self._starts)
        )
        self._keys = keys[by_key]
        self._key_groups = groups[by_key]

    def _uncovered(self) -> int:
        """How many of the strings the order may leave out below its tail."""
        return self.total_strings >> 20

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the order keeps, all it holds that grows with it."""
        return sum(value.nbytes for name, value in vars(self).items() if name[0] == "_")

    def _prefix_at(self, gi: int) -> int:
        """Strings before tie group gi in the whole order; all of them past the last."""
        return int.from_bytes(self._prefix.item(gi).ljust(self._prefix.itemsize, b"\0"), "big")

    @property
    def group_products(self) -> list[int]:
        """Order product of each tie group the order holds, descending."""
        return [order_product(parts[0]) for parts in self.group_partitions]

    @property
    def group_partitions(self) -> list[list[tuple[int, ...]]]:
        """Partitions of each tie group the order holds, ascending."""
        parts = [tuple(filter(None, row)) for row in self._parts.tolist()]
        starts = self._starts.tolist()
        return [parts[s:e] for s, e in zip(starts, starts[1:])]

    # -- lookups ---------------------------------------------------------

    def _find(self, partition: Sequence[int]) -> int | None:
        """Tie group of a partition (nonzero parts, descending), None if absent."""
        key = array(self._parts.dtype.char, partition).tobytes().rstrip(b"\0")
        i = int(self._keys.searchsorted(key))
        if i < len(self._keys) and self._keys.item(i) == key:
            return self._key_groups.item(i)
        return None

    def _group_classes(self, gi: int) -> tuple[list[int], list[tuple[list[int], int, int]]]:
        """The values of a tie group and (multiplicities, class size, class count) per partition.

        The values are every part of the group's partitions padded with
        zeros to a parts, ascending.  A partition's multiplicities count
        each value in it, its class size is multinomial(partition) and its
        class count the number of distinct arrangements of that multiset.
        """
        rows = self._parts[self._starts.item(gi) : self._starts.item(gi + 1)].tolist()
        # The rows hold min(n, a) parts, zeros included; a > n pads the rest.
        pad = self.alphabet_size - len(rows[0])
        values = set().union(*rows)
        if pad:
            values.add(0)
        values = sorted(values)
        classes = []
        for row in rows:
            mults = list(map(row.count, values))
            mults[0] += pad
            classes.append((mults, multinomial(row), multinomial(mults)))
        return values, classes

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
        gi = self._find(sorted(filter(None, counts), reverse=True))
        if gi is None:
            if not self._prefix_at(0):
                raise AssertionError(f"{counts} is missing from the order")
            return _whole_order(self.n, self.alphabet_size).strings_before_class(counts)
        values, rows = self._group_classes(gi)
        # The vector as indices of the values, each run of zeros as one
        # entry and the trailing run left out (see _lex_rank).
        seq = []
        done = 0
        for at in compress(range(len(counts)), counts):
            if at > done:
                seq.append(done - at)
            seq.append(values.index(counts[at]))
            done = at + 1
        total = self._prefix_at(gi)
        for mults, size, count in rows:
            total += size * _lex_rank(seq, mults, count)
        return total

    def locate_string(self, index: int) -> tuple[tuple[int, ...], int]:
        """Composition holding the index-th string overall, plus the offset within it."""
        index = operator.index(index)
        if not 0 <= index < self.total_strings:
            raise ValueError(
                f"rank {index} out of range for {self.alphabet_size}**{self.n} strings"
            )
        # Numpy compares the entries as if padded with zero bytes, which
        # orders big-endian bytes of one width as the numbers they hold.
        key = index.to_bytes(self._prefix.itemsize, "big")
        gi = int(self._prefix.searchsorted(key, side="right")) - 1
        if gi < 0:
            return _whole_order(self.n, self.alphabet_size).locate_string(index)
        return self._select_in_group(gi, index - self._prefix_at(gi))

    def _select_in_group(self, gi: int, t: int) -> tuple[tuple[int, ...], int]:
        """The count vector holding the t-th string of tie group gi, and the offset within it.

        The group's classes, merged lex ascending by vector, are selected
        from as _lex_select selects from one multiset, and a group of one
        partition is one row: each row still consistent with the vector so
        far keeps its multiplicities and its strings, class size times
        arrangements left, and the next value is the first whose strings,
        summed over the rows, pass t.  A second least value in a row takes
        the rest of its run at once (_zero_run), and once t is 0 the rest is
        the least remainder of the rows.
        """
        values, rows = self._group_classes(gi)
        active = [(mults, size * count) for mults, size, count in rows]
        indices = range(len(values))
        vector: list[int] = []
        slots = self.alphabet_size
        while t and slots:
            # t*slots against the strings times slots, so that no row's
            # division is made before its value is picked.
            scaled = t * slots
            for i in indices:
                weight = 0
                for mults, strings in active:
                    weight += strings * mults[i]
                if scaled < weight:
                    break
                scaled -= weight
            else:
                raise AssertionError("offset exceeded the tie group")
            t = scaled // slots
            survivors = []
            if not i and vector and vector[-1] == values[0]:
                run = _zero_run(active, slots, t)
                for mults, strings in active:
                    strings = _after_zeros(strings, slots, mults[0], run)
                    if strings:
                        mults[0] -= run
                        survivors.append((mults, strings))
                vector.extend(repeat(values[0], run))
                slots -= run
            else:
                for mults, strings in active:
                    m = mults[i]
                    if m:
                        mults[i] = m - 1
                        survivors.append((mults, strings * m // slots))
                vector.append(values[i])
                slots -= 1
            active = survivors
        if slots:
            vector.extend(
                min(list(chain.from_iterable(map(repeat, values, mults))) for mults, _ in active)
            )
        return tuple(vector), t


_ORDER_CACHE: dict[tuple[int, int], ClassOrder] = {}
_ORDER_LOCK = threading.Lock()


def class_order(n: int, a: int) -> ClassOrder:
    """Shared ClassOrder for (n, a); builds are serialized and idempotent.

    The walk's byte budget is charged when the order is built, so a
    cached order has already passed it.  The cache keeps the orders' nbytes
    under ORDER_CACHE_BYTE_BUDGET: a build past it evicts the least
    recently used orders, never the one just built, and an evicted order is
    built again when next asked for.
    """
    return _cached_order(n, a, whole=False)


class _WholeOrder(ClassOrder):
    """A ClassOrder built complete, with one walk over every partition."""

    def _uncovered(self) -> int:
        return 0


def _whole_order(n: int, a: int) -> ClassOrder:
    """class_order(n, a), complete: the one builder of a complete order.

    A cached tail is replaced by the complete order, built with one walk
    over every partition; orders that keep the tail hand it what lies
    below it.  An order not yet cached takes the one walk, in full, with no
    tail first.
    """
    return _cached_order(n, a, whole=True)


def _cached_order(n: int, a: int, whole: bool) -> ClassOrder:
    # A float n or a would find the order of its integer in the cache.
    key = (operator.index(n), operator.index(a))
    with _ORDER_LOCK:
        order = _ORDER_CACHE.get(key)
        built = order is None or whole and order._prefix_at(0)
        if built:
            order = (_WholeOrder if whole else ClassOrder)(*key)
        # Last in the cache is most recently used.
        _ORDER_CACHE.pop(key, None)
        _ORDER_CACHE[key] = order
        if built:
            held = sum(cached.nbytes for cached in _ORDER_CACHE.values())
            for old in list(_ORDER_CACHE)[:-1]:
                if held <= ORDER_CACHE_BYTE_BUDGET:
                    break
                held -= _ORDER_CACHE.pop(old).nbytes
    return order
