"""Rank, unrank, and the order-preserving length-increasing injection.

A string's rank is its position in the exact order: information content
ascending, ties broken by count vector, strings within a class
lexicographic.  Shaping a length-n string means taking its rank r and
returning the rank-r string of length n+k over the same alphabet, which is
one of the a**n lowest-content strings of that longer length.  Unshaping
inverts this and rejects strings whose rank falls outside the image.

All rank arithmetic is exact integer work; no floats participate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compositions import _lex_rank, _lex_select, class_order, multinomial
from .errors import BlockLengthError, NotInImageError
from .source import _check_sizes, _index_fields, _nonempty_symbols, validate_symbols


@dataclass(frozen=True)
class ShapingParameters:
    """Alphabet size, block length n, and length surplus k of the map."""

    alphabet_size: int
    n: int
    k: int = 1

    def __post_init__(self):
        # A float field fails here, not in the rank arithmetic.
        _index_fields(self)
        if self.alphabet_size < 2:
            raise ValueError("shaping needs an alphabet of at least two symbols")
        _check_sizes(n=self.n, k=self.k)

    @property
    def output_length(self) -> int:
        return self.n + self.k


def string_rank(symbols: Sequence[int], alphabet_size: int) -> int:
    """Exact position of the string in the order over its own length."""
    return _rank_valid(_nonempty_symbols(symbols, alphabet_size), alphabet_size)


def _rank_valid(arr: np.ndarray, alphabet_size: int) -> int:
    """string_rank of a nonempty array that validate_symbols accepted."""
    order = class_order(int(arr.size), alphabet_size)
    counts = np.bincount(arr, minlength=alphabet_size).tolist()
    # Symbols that do not occur change neither the arrangements of the class
    # nor a string's rank among them.
    present = {v: c for v, c in enumerate(counts) if c}
    within = _lex_rank(arr.tolist(), present, multinomial(present.values()))
    return order.strings_before_class(counts) + within


def _block_rank(symbols: Sequence[int], params: ShapingParameters, length: int) -> int:
    """Rank of a block that must hold exactly length symbols of the alphabet."""
    arr = validate_symbols(symbols, params.alphabet_size)
    if arr.size != length:
        raise BlockLengthError(f"expected a block of length {length}, got {arr.size}")
    return _rank_valid(arr, params.alphabet_size)


def string_unrank(rank: int, n: int, alphabet_size: int) -> tuple[int, ...]:
    """The rank-th string of length n; inverse of string_rank."""
    counts, offset = class_order(n, alphabet_size).locate_string(rank)
    present = {v: c for v, c in enumerate(counts) if c}
    return _lex_select(offset, present, multinomial(present.values()))


def shape(symbols: Sequence[int], params: ShapingParameters) -> tuple[int, ...]:
    """Map a length-n string to its length n+k image of equal rank."""
    rank = _block_rank(symbols, params, params.n)
    return string_unrank(rank, params.output_length, params.alphabet_size)


def unshape(symbols: Sequence[int], params: ShapingParameters) -> tuple[int, ...]:
    """Invert shape; raises NotInImageError off the image of the map."""
    rank = _block_rank(symbols, params, params.output_length)
    limit = params.alphabet_size**params.n
    if rank >= limit:
        raise NotInImageError(
            f"rank {rank} exceeds the {limit} images of length-{params.n} strings"
        )
    return string_unrank(rank, params.n, params.alphabet_size)


def in_image(symbols: Sequence[int], params: ShapingParameters) -> bool:
    """Whether a length n+k string is the image of some length-n string."""
    rank = _block_rank(symbols, params, params.output_length)
    return rank < params.alphabet_size**params.n
