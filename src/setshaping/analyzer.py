"""Exact mean information content, before and after shaping.

The mean over all a**n strings needs no class order.  By linearity of
expectation the empirical mean is n*log2(n) - sum_v E[c_v*log2(c_v)], and
each count c_v is Binomial(n, p_v), so it is one exact binomial sum per
distinct probability; the literal mean is n times the source entropy.

A string's empirical information content n*log2(n) - sum_v c_v*log2(c_v)
depends only on its symbol counts, so the mean over any set of strings
needs only K_c, how many (string, symbol) pairs of the set have a symbol
that occurs c times in its string.  The uniform shaped mean over the a**n
lowest-content strings of length L = n+k is

    L*log2(L) - sum_c (K_c / a**n) * c*log2(c),

with each K_c an exact integer: the pairs of all a**L strings,
a*comb(L,c)*(a-1)**(L-c), less those of the highest-content strings left
out, which compositions.top_tallies counts off the few near-balanced
partitions without building the order.  Both per-rank series, and the
output side of the non-uniform empirical shaped mean, take the tie groups
of compositions._tie_groups up to the cut; the non-uniform shaped mean
walks the classes of those groups otherwise.  Each reads its orders once,
from one sorted partition walk, and builds no ClassOrder.  Nothing here
enumerates strings.

The selection cutoff slices the length-(n+k) order after exactly a**n
strings.  When the cut lands inside a class, the selected members are the
first strings of that class in lexicographic order; their shared content
makes the mean independent of that choice, but the rule keeps the selected
set identical to the image of the shaping map.

The analyzer keeps no copy of a rule another layer owns: a shaping
instance (a, n, k) is checked by building bijection.ShapingParameters,
whose plain-int fields the computation then reads, so a numpy integer
cannot overflow in a**n; an interpretation name is checked by
source._check_interpretation, a block length by source._check_sizes, and
the probability and the literal content of a class come from
source._log_probability of its count vector.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bijection import ShapingParameters
from .compositions import _iter_group_classes, _tie_groups, top_tallies
from .errors import ResourceLimitError
from .source import SourceEnsemble, _check_interpretation, _check_sizes, _log_probability

# Largest a**n for which the per-rank series is materialized.
SERIES_LIMIT = 10**7

# The checked fields of a ShapingParameters, as (a, n, k).
_shaping = operator.attrgetter("alphabet_size", "n", "k")


@dataclass(frozen=True)
class AverageReport:
    """One table row: mean content before and after shaping, plus provenance."""

    alphabet_size: int
    block_length: int
    surplus: int
    source_bits: float
    shaped_bits: float
    method: str = "exact"
    source_stderr: float | None = None
    shaped_stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    @property
    def diff_bits(self) -> float:
        return self.source_bits - self.shaped_bits

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "block_length": self.block_length,
            "surplus": self.surplus,
            "method": self.method,
            "source_bits": self.source_bits,
            "shaped_bits": self.shaped_bits,
            "diff_bits": self.diff_bits,
            "source_stderr": self.source_stderr,
            "shaped_stderr": self.shaped_stderr,
            "samples": self.samples,
            "seed": self.seed,
        }


def _binomial_weights(n: int, num: int, den: int) -> Iterator[tuple[int, int]]:
    """(c, comb(n,c)*num**c*(den-num)**(n-c)) for c = n down to 2; needs num > 0.

    From c = n down, each step w[c-1] = w[c]*c*(den-num) // ((n-c+1)*num)
    is exact.
    """
    rest = den - num
    weight = num**n
    for c in range(n, 1, -1):
        yield c, weight
        weight = weight * c * rest // ((n - c + 1) * num)


def _head(length: int, a: int, count: int) -> Iterator[tuple[int, float]]:
    """(strings, content) of each tie group the first count strings of the order touch.

    The groups come from compositions._tie_groups; the last one gives only
    the strings before the cut.
    """
    for content, strings, _ in _tie_groups(length, a):
        take = min(strings, count)
        yield take, content
        count -= take
        if not count:
            return


def average_info_exact(
    ensemble: SourceEnsemble, n: int, interpretation: str = "empirical"
) -> float:
    """Mean information content of length-n strings under the source law.

    Empirical: n*log2(n) - sum_v E[c_v*log2(c_v)] with c_v ~ Binomial(n, p).
    p is taken as an exact fraction P/D (1/a for a uniform source, else the
    float's own binary fraction) and the binomial weights comb(n,c)*P**c*
    Q**(n-c), Q = D-P, as exact integers, each divided by D**n once.
    Symbols sharing a probability share one sum; zero-probability symbols
    never occur and contribute nothing.  No class order is built and no
    partition walked, so the walk's byte budget does not apply.
    """
    _check_interpretation(interpretation)
    n = operator.index(n)
    _check_sizes(n=n)
    a = ensemble.alphabet_size
    if a == 1:
        return 0.0
    if interpretation == "literal" and ensemble.is_uniform:
        return n * math.log2(a)
    if interpretation == "literal":
        return n * ensemble.entropy_bits()

    if ensemble.is_uniform:
        shares = {(1, a): a}
    else:
        probs = ensemble.probabilities
        shares = Counter(p.as_integer_ratio() for p in probs if p > 0.0)
    terms = [n * math.log2(n)]
    for (num, den), m in shares.items():
        scale = den**n
        for c, weight in _binomial_weights(n, num, den):
            terms.append(-(m * weight / scale) * (c * math.log2(c)))
    # fsum is correctly rounded, so the order of the terms does not matter.
    return math.fsum(terms)


def shaped_average_info_exact(a: int, n: int, k: int) -> float:
    """Mean content of the a**n lowest-content strings of length n+k.

    Uniform sources only: every selected string carries weight a**-n, so the
    mean is a plain average, L*log2(L) - sum_c (K_c / a**n) * c*log2(c) with
    L = n+k.  K_c counts the (string, symbol) pairs of the selected strings
    whose symbol occurs c times: a*comb(L,c)*(a-1)**(L-c) over all a**L
    strings, less the pairs of the a**L - a**n highest-content strings,
    which top_tallies counts.  The subtraction is on exact integers, not on
    float means; each term rounds K_c / a**n, c*log2(c) and their product
    once, and fsum rounds their sum once.
    """
    a, n, k = _shaping(ShapingParameters(a, n, k))
    count, length = a**n, n + k
    left_out = top_tallies(length, a, a**length - count)
    terms = [length * math.log2(length)]
    for c, weight in _binomial_weights(length, 1, a):
        # int / int is correctly rounded, so no count leaves float range.
        terms.append(-((a * weight - left_out[c]) / count) * (c * math.log2(c)))
    return math.fsum(terms)


def shaped_average_info(
    ensemble: SourceEnsemble, n: int, k: int, interpretation: str = "empirical"
) -> float:
    """Mean content of shaped outputs when inputs follow the source law.

    The shaping map sends the rank-r input to the rank-r output, so the mean
    is an index-aligned product of two class streams: input classes carry
    the probability weight, output classes carry the content.  Runs are
    intersected without expanding any strings; cost scales with the class
    counts of both lengths, so non-uniform sources are supported only at
    enumerable scale.  Under a uniform source every length-(n+k) string has
    literal content (n+k)*log2(a), and so has their mean.
    """
    _check_interpretation(interpretation)
    a, n, k = _shaping(ShapingParameters(ensemble.alphabet_size, n, k))
    if ensemble.is_uniform:
        if interpretation == "literal":
            return (n + k) * math.log2(a)
        return shaped_average_info_exact(a, n, k)

    probs = ensemble.probabilities

    def classes(length: int) -> Iterator[tuple[tuple[int, ...], int]]:
        for _, _, partitions in _tie_groups(length, a):
            yield from _iter_group_classes(partitions, a)

    def x_runs() -> Iterator[tuple[int, float]]:
        for counts, size in classes(n):
            yield size, _log_probability(probs, counts)

    def y_runs() -> Iterator[tuple[int, float]]:
        if interpretation == "empirical":
            yield from _head(n + k, a, a**n)
        else:
            for counts, size in classes(n + k):
                yield size, 0.0 - _log_probability(probs, counts, math.log2)

    def terms() -> Iterator[float]:
        ln2 = math.log(2.0)
        ys = y_runs()
        y_len, y_info = next(ys)
        for x_len, log_p in x_runs():
            while x_len:
                if y_len == 0:
                    y_len, y_info = next(ys)
                    continue
                take = x_len if x_len <= y_len else y_len
                # Past 2**960 strings, move 2**s from the count into the
                # probability's exponent: the count stays in float range and
                # the probability out of the subnormals.  With s = 0 the
                # factors are float(take) and exp(log_p).
                s = max(take.bit_length() - 960, 0)
                weight = math.exp(log_p + s * ln2)
                if weight != 0.0:
                    yield take / (1 << s) * weight * y_info
                x_len -= take
                y_len -= take

    # fsum is correctly rounded, so summing the terms as they come, without
    # a list of them, gives the same bits.
    return math.fsum(terms())


def rank_info_series(a: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Content of the rank-r string and of its shaped image, for every r.

    Returns two float arrays of length a**n, both non-decreasing: the sorted
    contents of all length-n strings, and the sorted contents of the a**n
    selected length-(n+k) strings.
    """
    a, n, k = _shaping(ShapingParameters(a, n, k))
    total = a**n
    if total > SERIES_LIMIT:
        raise ResourceLimitError(
            f"{a}**{n} ranks exceed the series limit of {SERIES_LIMIT}"
        )

    def series(length: int) -> np.ndarray:
        taken, infos = zip(*_head(length, a, total))
        return np.repeat(np.array(infos), np.array(taken, dtype=np.int64))

    return series(n), series(n + k)
