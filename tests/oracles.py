"""Brute-force reference implementations used to pin expected test values.

Everything here enumerates strings or compositions explicitly and sticks
to the stdlib (sample_strings only calls the numpy Generator it is given),
so it stays independent of the library code it is used to check.  It is
only usable at toy scales (a**n up to a few million strings; group_table
handles any alphabet for n up to about 16).
"""

import itertools
import math
from fractions import Fraction


def counts_of(s, a):
    counts = [0] * a
    for sym in s:
        counts[sym] += 1
    return tuple(counts)


def empirical_info(s, a):
    """Information content of s measured against its own symbol frequencies."""
    n = len(s)
    counts = counts_of(s, a)
    return n * math.log2(n) - sum(c * math.log2(c) for c in counts if c > 0)


def literal_info(s, probs):
    """Information content of s measured against source probabilities."""
    return -sum(math.log2(probs[sym]) for sym in s)


def order_product(counts):
    """Integer product c**c over the counts; comparing products compares info."""
    prod = 1
    for c in counts:
        if c > 0:
            prod *= c**c
    return prod


def exact_compare(c1, c2):
    """-1, 0 or +1 ordering two equal-total compositions: content ascending
    (order product descending), then count vectors lexicographically."""
    k1, k2 = (-order_product(c1), tuple(c1)), (-order_product(c2), tuple(c2))
    return (k1 > k2) - (k1 < k2)


def string_probability(probs, s):
    """Probability of the exact string under the i.i.d. source."""
    return math.prod(probs[sym] for sym in s)


def string_sort_key(s, a):
    """Total order: info ascending, then counts lex ascending, then string lex."""
    counts = counts_of(s, a)
    return (-order_product(counts), counts, tuple(s))


def all_strings_sorted(n, a):
    return sorted(itertools.product(range(a), repeat=n), key=lambda s: string_sort_key(s, a))


def mean_empirical_info(n, a):
    """Plain average of empirical info over all a**n strings (uniform source)."""
    total = math.fsum(empirical_info(s, a) for s in itertools.product(range(a), repeat=n))
    return total / a**n


def weighted_mean_info(n, probs, info_fn):
    """Probability-weighted average of info_fn over all strings."""
    a = len(probs)
    total = 0.0
    for s in itertools.product(range(a), repeat=n):
        p = 1.0
        for sym in s:
            p *= probs[sym]
        if p > 0.0:
            total += p * info_fn(s)
    return total


def shaped_selection(n, a, k):
    """The a**n least strings of length n+k under the total order."""
    return all_strings_sorted(n + k, a)[: a**n]


def shaped_mean_info(n, a, k):
    sel = shaped_selection(n, a, k)
    return math.fsum(empirical_info(s, a) for s in sel) / len(sel)


def shape_table(n, a, k):
    """The order-preserving bijection as an explicit dict."""
    return dict(zip(all_strings_sorted(n, a), shaped_selection(n, a, k)))


def complement_min_info(n, a, k):
    rest = all_strings_sorted(n + k, a)[a**n :]
    return min(empirical_info(s, a) for s in rest)


def kt_probability(s, a):
    """Exact add-1/2 (Krichevsky-Trofimov) sequence probability as a Fraction."""
    counts = [0] * a
    prob = Fraction(1)
    for m, sym in enumerate(s):
        prob *= Fraction(2 * counts[sym] + 1, 2 * m + a)
        counts[sym] += 1
    return prob


def kt_ideal_bits(s, a):
    p = kt_probability(s, a)
    return math.log2(p.denominator) - math.log2(p.numerator)


def class_size(counts):
    """Strings with the given symbol counts, n!/prod(c!)."""
    size = math.factorial(sum(counts))
    for c in counts:
        size //= math.factorial(c)
    return size


def compositions(n, a):
    """All compositions of n into a nonnegative parts, by stars and bars."""
    for bars in itertools.combinations(range(n + a - 1), a - 1):
        edges = (-1,) + bars + (n + a - 1,)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


def sorted_compositions(n, a):
    """(composition, class size) pairs in the total order of string_sort_key."""
    comps = sorted(compositions(n, a), key=lambda c: (-order_product(c), c))
    return [(c, class_size(c)) for c in comps]


def positive_compositions(n):
    """The 2**(n-1) compositions of n into positive parts, one per cut set."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        yield tuple(parts) + (run,)


def group_table(n, a):
    """Tie groups of the compositions of n into a parts, product descending.

    One (product, partitions ascending, strings, classes) tuple per group.  A
    composition is its nonzero counts in symbol order, a positive composition
    of some length L <= a, placed on L of the a symbols; so each positive
    composition stands for comb(a, L) compositions, which keeps large
    alphabets enumerable.
    """
    groups = {}
    for parts in positive_compositions(n):
        if len(parts) > a:
            continue
        placements = math.comb(a, len(parts))
        group = groups.setdefault(order_product(parts), [set(), 0, 0])
        group[0].add(tuple(sorted(parts, reverse=True)))
        group[1] += placements * class_size(parts)
        group[2] += placements
    return [
        (product, sorted(parts), strings, classes)
        for product, (parts, strings, classes) in sorted(groups.items(), reverse=True)
    ]


def sample_strings(rng, n, a, size):
    """Explicit uniform strings, a size x n array; the slow route that the
    composition sampler is checked against."""
    return rng.integers(0, a, size=(size, n), dtype="int64")
