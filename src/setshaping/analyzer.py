"""Exact mean information content, before and after shaping.

A string's empirical information content depends only on its composition, so
the mean over all a**n strings reduces to a weighted sum over composition
classes, and the mean over the a**n lowest-content strings of length n+k
reduces to whole tie groups of the exact class order plus one partially
included group.  Every uniform mean and per-rank series reads that cut from
ClassOrder.head: the first a**n strings of the length-n order (all of them)
or of the length-(n+k) order (the shaped selection).  Non-uniform means walk
the classes of the order instead.  Nothing here enumerates strings.

The selection cutoff slices the length-(n+k) order after exactly a**n
strings.  When the cut lands inside a class, the selected members are the
first strings of that class in lexicographic order; their shared content
makes the mean independent of that choice, but the rule keeps the selected
set identical to the image of the shaping map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .compositions import (
    DEFAULT_COMPOSITION_CAP,
    ClassOrder,
    _log_probability,
    class_order,
    class_weight,
    composition_info_bits,
    multinomial,
)
from .errors import ResourceLimitError
from .source import SourceEnsemble

# Largest a**n for which the per-rank series is materialized.
DEFAULT_SERIES_LIMIT = 10**7
# Largest class list a SelectionBoundary will hold.
DEFAULT_BOUNDARY_CLASS_LIMIT = 10**6


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


@dataclass(frozen=True)
class SelectionBoundary:
    """How the cutoff after a**n strings slices the length-(n+k) order.

    fully_included lists (composition, class size) for every class whose
    strings are all selected, in exact order.  boundary_class is the class
    the cut splits, or None when the cut lands exactly on a class edge;
    strings_from_boundary of its strings (the lexicographically first ones)
    are selected.
    """

    alphabet_size: int
    block_length: int
    surplus: int
    target: int
    fully_included: tuple[tuple[tuple[int, ...], int], ...]
    boundary_class: tuple[int, ...] | None
    strings_from_boundary: int
    selection_max_info: float
    complement_min_info: float


def _check_shaping(a: int, n: int, k: int) -> None:
    if a < 2:
        raise ValueError("shaping needs an alphabet of at least two symbols")
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")


def _head_mean(order: ClassOrder, count: int) -> float:
    """Plain mean content of the first count strings of the order."""
    infos, taken = order.head(count)
    terms = [float(strings) * float(info) for strings, info in zip(taken, infos)]
    return math.fsum(terms) / float(count)


def average_info_exact(
    ensemble: SourceEnsemble,
    n: int,
    interpretation: str = "empirical",
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> float:
    """Mean information content of length-n strings under the source law."""
    if interpretation not in ("empirical", "literal"):
        raise ValueError(f"unknown interpretation {interpretation!r}")
    if n < 1:
        raise ValueError("block length must be positive")
    a = ensemble.alphabet_size
    if a == 1:
        return 0.0
    if interpretation == "literal" and ensemble.is_uniform:
        return n * math.log2(a)
    order = class_order(n, a, cap)
    if interpretation == "empirical" and ensemble.is_uniform:
        return _head_mean(order, order.total_strings)

    # fsum is correctly rounded, so the order of the terms does not matter.
    probs = ensemble.probabilities
    log2p = [math.log2(p) if p > 0.0 else 0.0 for p in probs]
    terms = []
    for counts, _ in order.iter_classes():
        weight = class_weight(probs, counts)
        if weight == 0.0:
            continue
        if interpretation == "empirical":
            value = composition_info_bits(counts)
        else:
            value = -math.fsum(
                c * log2p[v] for v, c in enumerate(counts) if c
            )
        terms.append(weight * value)
    return math.fsum(terms)


def shaped_average_info_exact(
    a: int, n: int, k: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> float:
    """Mean content of the a**n lowest-content strings of length n+k.

    Uniform sources only: every selected string carries weight a**-n, so the
    mean is a plain average and whole tie groups contribute strings*info.
    """
    _check_shaping(a, n, k)
    return _head_mean(class_order(n + k, a, cap), a**n)


def shaped_average_info(
    ensemble: SourceEnsemble,
    n: int,
    k: int,
    interpretation: str = "empirical",
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> float:
    """Mean content of shaped outputs when inputs follow the source law.

    The shaping map sends the rank-r input to the rank-r output, so the mean
    is an index-aligned product of two class streams: input classes carry
    the probability weight, output classes carry the content.  Runs are
    intersected without expanding any strings; cost scales with the class
    counts of both lengths, so non-uniform sources are supported only at
    enumerable scale.
    """
    if interpretation not in ("empirical", "literal"):
        raise ValueError(f"unknown interpretation {interpretation!r}")
    a = ensemble.alphabet_size
    _check_shaping(a, n, k)
    if ensemble.is_uniform and interpretation == "empirical":
        return shaped_average_info_exact(a, n, k, cap)

    order_x = class_order(n, a, cap)
    order_y = class_order(n + k, a, cap)
    probs = ensemble.probabilities

    def x_runs() -> Iterator[tuple[int, float]]:
        for counts, size in order_x.iter_classes():
            yield size, math.exp(_log_probability(probs, counts))

    def y_runs() -> Iterator[tuple[int, float]]:
        if interpretation == "empirical":
            infos, taken = order_y.head(a**n)
            for info, strings in zip(infos, taken):
                yield strings, float(info)
        else:
            for counts, size in order_y.iter_classes():
                value = 0.0
                for p, c in zip(probs, counts):
                    if c == 0:
                        continue
                    if p == 0.0:
                        value = math.inf
                        break
                    value -= c * math.log2(p)
                yield size, value

    terms = []
    ys = y_runs()
    y_len, y_info = next(ys)
    for x_len, x_p in x_runs():
        while x_len:
            if y_len == 0:
                y_len, y_info = next(ys)
                continue
            take = x_len if x_len <= y_len else y_len
            if x_p != 0.0:
                terms.append(float(take) * x_p * y_info)
            x_len -= take
            y_len -= take
    return math.fsum(terms)


def shaped_threshold(
    a: int,
    n: int,
    k: int,
    cap: int = DEFAULT_COMPOSITION_CAP,
    class_limit: int = DEFAULT_BOUNDARY_CLASS_LIMIT,
) -> SelectionBoundary:
    """Locate the cutoff after a**n strings in the length-(n+k) order."""
    _check_shaping(a, n, k)
    order = class_order(n + k, a, cap)
    target = a**n

    counts, offset = order.locate_string(target - 1)
    taken = offset + 1
    if taken == multinomial(counts):
        boundary = None
        from_boundary = 0
        full_classes = order.classes_before(counts) + 1
    else:
        boundary = counts
        from_boundary = taken
        full_classes = order.classes_before(counts)
    if full_classes > class_limit:
        raise ResourceLimitError(
            f"cutoff keeps {full_classes} whole classes, "
            f"beyond the materialization limit of {class_limit}"
        )

    return SelectionBoundary(
        alphabet_size=a,
        block_length=n,
        surplus=k,
        target=target,
        fully_included=tuple(islice(order.iter_classes(), full_classes)),
        boundary_class=boundary,
        strings_from_boundary=from_boundary,
        selection_max_info=order.info_at(target - 1),
        complement_min_info=order.info_at(target),
    )


def complement_min_info(
    a: int, n: int, k: int, cap: int = DEFAULT_COMPOSITION_CAP
) -> float:
    """Lowest content among length-(n+k) strings the selection leaves out."""
    _check_shaping(a, n, k)
    order = class_order(n + k, a, cap)
    return order.info_at(a**n)


def rank_info_series(
    a: int,
    n: int,
    k: int,
    limit: int = DEFAULT_SERIES_LIMIT,
    cap: int = DEFAULT_COMPOSITION_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Content of the rank-r string and of its shaped image, for every r.

    Returns two float arrays of length a**n, both non-decreasing: the sorted
    contents of all length-n strings, and the sorted contents of the a**n
    selected length-(n+k) strings.
    """
    _check_shaping(a, n, k)
    total = a**n
    if total > limit:
        raise ResourceLimitError(
            f"{a}**{n} = {total} ranks exceed the series limit of {limit}"
        )

    def series(length: int) -> np.ndarray:
        infos, taken = class_order(length, a, cap).head(total)
        return np.repeat(infos, np.array(taken, dtype=np.int64))

    return series(n), series(n + k)
