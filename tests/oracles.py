"""Brute-force reference implementations used to pin expected test values.

Everything here enumerates strings or compositions explicitly, or codes
one bit per call, and sticks to the stdlib (sample_strings only calls the
numpy Generator it is given), so it stays independent of the library code
it is used to check.  It is
only usable at toy scales (a**n up to a few million strings; group_table
handles any alphabet for n up to about 16).
"""

import collections
import itertools
import math
import struct
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


def sampled_shaped_selection(rows, a, k):
    """Indices of the len(rows) // a**k least sampled count vectors, each
    sample ranked by (-order product, vector, sample index)."""
    products = {}
    for row in rows:
        if row not in products:
            products[row] = order_product(row)
    ranked = sorted(range(len(rows)), key=lambda i: (-products[rows[i]], rows[i], i))
    return ranked[: len(rows) // a**k]


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


def lex_rank_in_class(s, a):
    """Lexicographic rank of s among the strings with its symbol counts.

    At each position, every smaller symbol still available there leads the
    strings that place it and arrange the rest freely.
    """
    counts = list(counts_of(s, a))
    rank = 0
    for sym in s:
        for v in range(sym):
            if counts[v]:
                counts[v] -= 1
                rank += class_size(counts)
                counts[v] += 1
        counts[sym] -= 1
    return rank


def compositions(n, a):
    """All compositions of n into a nonnegative parts, by stars and bars."""
    for bars in itertools.combinations(range(n + a - 1), a - 1):
        edges = (-1,) + bars + (n + a - 1,)
        yield tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))


def composition_info_bits(counts):
    """Empirical information content shared by every string in the class."""
    n = sum(counts)
    if n <= 0:
        raise ValueError("composition must have positive total")
    return n * math.log2(n) - math.fsum(c * math.log2(c) for c in counts if c > 1)


def class_weight(probs, counts):
    """Probability that an i.i.d. draw of sum(counts) symbols lands in the class."""
    if len(probs) != len(counts):
        raise ValueError("probability vector and composition sizes differ")
    log_p = 0.0
    for p, c in zip(probs, counts):
        if c == 0:
            continue
        if p == 0.0:
            return 0.0
        log_p += c * math.log(p)
    try:
        return float(class_size(counts)) * math.exp(log_p)
    except OverflowError:
        # The class size is beyond float range: combine in log space.
        log_scale = math.lgamma(sum(counts) + 1) - math.fsum(
            math.lgamma(c + 1) for c in counts
        )
        return math.exp(log_scale + log_p)


def class_walk_mean(n, probs, interpretation="empirical"):
    """Mean content of length-n strings: every class's weight times its content."""
    log2p = [math.log2(p) if p > 0.0 else 0.0 for p in probs]
    terms = []
    for counts in compositions(n, len(probs)):
        weight = class_weight(probs, counts)
        if weight == 0.0:
            continue
        if interpretation == "empirical":
            value = composition_info_bits(counts)
        else:
            value = -math.fsum(c * log2p[v] for v, c in enumerate(counts) if c)
        terms.append(weight * value)
    return math.fsum(terms)


def sorted_compositions(n, a):
    """(composition, class size) pairs in the total order of string_sort_key."""
    comps = sorted(compositions(n, a), key=lambda c: (-order_product(c), c))
    return [(c, class_size(c)) for c in comps]


def shaped_source_mean(n, k, probs, interpretation="empirical"):
    """Mean content of shaped outputs when inputs follow an i.i.d. source.

    The rank-r input maps to the rank-r output, so the two class orders are
    walked side by side and each output class collects the exact probability
    of the inputs mapped into it: the probabilities are taken as the exact
    fractions of their floats and summed as integers over one common
    denominator.  Only the final weight times content is rounded.  The
    literal interpretation needs positive probabilities.
    """
    a = len(probs)
    ratios = [Fraction(p) for p in probs]
    den = math.lcm(*(r.denominator for r in ratios))
    nums = [r.numerator * (den // r.denominator) for r in ratios]
    outputs = iter(sorted_compositions(n + k, a))
    y_counts, y_left = next(outputs)
    mass = {}
    for x_counts, x_left in sorted_compositions(n, a):
        weight = math.prod(m**c for m, c in zip(nums, x_counts))
        while x_left:
            if not y_left:
                y_counts, y_left = next(outputs)
            take = min(x_left, y_left)
            mass[y_counts] = mass.get(y_counts, 0) + take * weight
            x_left -= take
            y_left -= take
    scale = den**n
    terms = []
    for counts, m in mass.items():
        if interpretation == "empirical":
            info = composition_info_bits(counts)
        else:
            info = -math.fsum(c * math.log2(p) for p, c in zip(probs, counts) if c)
        # int / int is correctly rounded, so the mass is exact to the last bit
        terms.append(m / scale * info)
    return math.fsum(terms)


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


def partition_rows(n, a):
    """(order product, partition, strings) per partition of n into at most a parts.

    Partitions are nonzero parts descending, listed lex ascending; strings
    counts the strings of every class of the partition, its class size
    times the distinct placements of its parts on the a symbols.
    """
    rows = []
    for length in range(1, min(n, a) + 1):
        for parts in itertools.combinations_with_replacement(range(n, 0, -1), length):
            if sum(parts) != n:
                continue
            placements = math.perm(a, length)
            for m in collections.Counter(parts).values():
                placements //= math.factorial(m)
            rows.append((order_product(parts), parts, class_size(parts) * placements))
    rows.sort(key=lambda row: row[1])
    return rows


def group_tallies(n, a):
    """Symbol-count tallies of each tie group's strings, product descending.

    Entry c of a group's list counts the (string, symbol) pairs of the
    group's strings whose symbol occurs c times in its string, c = 0..n;
    compositions are placed on symbols as in group_table.
    """
    groups = {}
    for parts in positive_compositions(n):
        if len(parts) > a:
            continue
        strings = math.comb(a, len(parts)) * class_size(parts)
        tally = groups.setdefault(order_product(parts), [0] * (n + 1))
        tally[0] += strings * (a - len(parts))
        for c in parts:
            tally[c] += strings
    return [groups[product] for product in sorted(groups, reverse=True)]


def sample_strings(rng, n, a, size):
    """Explicit uniform strings, a size x n array; the slow route that the
    composition sampler is checked against."""
    return rng.integers(0, a, size=(size, n), dtype="int64")


# The container coder one bit and one model call at a time: the two-register
# arithmetic coder of Witten, Neal and Cleary (CACM 30(6), 1987) with the
# add-1/2 model, 32-bit registers and the package's container layout.
_HEADER = struct.Struct("<BHQQ")
_FORMAT_VERSION = 1
_PRECISION = 32
_WHOLE = 1 << _PRECISION
_HALF = _WHOLE >> 1
_QUARTER = _WHOLE >> 2
_MASK = _WHOLE - 1


class CorruptStreamError(Exception):
    """Raised by reference_decode with the package's messages."""


class _BitWriter:
    def __init__(self):
        self.bits = []

    def write(self, bit):
        self.bits.append(bit)

    def getvalue(self):
        bits = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(
            int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8)
        )


class _BitReader:
    """Payload bits most-significant-first, then zeros forever."""

    def __init__(self, data, bit_length):
        self._data = data
        self._limit = bit_length
        self._pos = 0

    def read(self):
        if self._pos >= self._limit:
            return 0
        bit = (self._data[self._pos >> 3] >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit


class _AdaptiveModel:
    """Add-1/2 frequencies: freq[v] = 2*count[v] + 1, total = 2*m + a."""

    def __init__(self, a):
        self.freq = [1] * a
        self.total = a

    def interval(self, symbol):
        low = sum(self.freq[:symbol])
        return low, low + self.freq[symbol]

    def find(self, value):
        low = 0
        for symbol, f in enumerate(self.freq):
            if value < low + f:
                return symbol, low, low + f
            low += f
        raise CorruptStreamError("decoded value outside the model's range")

    def update(self, symbol):
        self.freq[symbol] += 2
        self.total += 2


def reference_encode(symbols, a):
    """Container bytes of a list of symbols in [0, a)."""
    writer = _BitWriter()
    if symbols:
        model = _AdaptiveModel(a)
        low, high, pending = 0, _MASK, 0

        def emit(bit):
            nonlocal pending
            writer.write(bit)
            for _ in range(pending):
                writer.write(bit ^ 1)
            pending = 0

        for s in symbols:
            cum_low, cum_high = model.interval(s)
            total = model.total
            span = high - low + 1
            high = low + span * cum_high // total - 1
            low = low + span * cum_low // total
            while True:
                if high < _HALF:
                    emit(0)
                elif low >= _HALF:
                    emit(1)
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < 3 * _QUARTER:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low = low << 1
                high = (high << 1) | 1
            model.update(s)
        pending += 1
        emit(0 if low < _QUARTER else 1)
    header = _HEADER.pack(_FORMAT_VERSION, a, len(symbols), len(writer.bits))
    return header + writer.getvalue()


def reference_decode(blob, n=None, alphabet_size=None):
    """Symbols of a container, or CorruptStreamError with the package's message."""
    if len(blob) < _HEADER.size:
        raise CorruptStreamError("container shorter than its header")
    version, a, count, bit_length = _HEADER.unpack(blob[: _HEADER.size])
    if version != _FORMAT_VERSION:
        raise CorruptStreamError(f"unknown container version {version}")
    if a < 1:
        raise CorruptStreamError("header declares an empty alphabet")
    if alphabet_size is not None and alphabet_size != a:
        raise CorruptStreamError(
            f"expected alphabet size {alphabet_size}, header says {a}"
        )
    if n is not None and n != count:
        raise CorruptStreamError(f"expected {n} symbols, header says {count}")
    if 2 * count + a >= _QUARTER:
        raise CorruptStreamError("header declares a block the coder cannot produce")
    payload = blob[_HEADER.size :]
    if len(payload) != (bit_length + 7) // 8:
        raise CorruptStreamError("payload length disagrees with the recorded bit count")
    if bit_length % 8 and payload[-1] & ((1 << (8 - bit_length % 8)) - 1):
        raise CorruptStreamError("nonzero padding in the final byte")
    if count == 0:
        return ()

    reader = _BitReader(payload, bit_length)
    code = 0
    for _ in range(_PRECISION):
        code = (code << 1) | reader.read()
    model = _AdaptiveModel(a)
    low, high = 0, _MASK
    out = []
    for _ in range(count):
        total = model.total
        span = high - low + 1
        value = ((code - low + 1) * total - 1) // span
        symbol, cum_low, cum_high = model.find(value)
        high = low + span * cum_high // total - 1
        low = low + span * cum_low // total
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < 3 * _QUARTER:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low = low << 1
            high = (high << 1) | 1
            code = (code << 1) | reader.read()
        model.update(symbol)
        out.append(symbol)
    return tuple(out)
