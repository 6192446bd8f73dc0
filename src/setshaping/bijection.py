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
from itertools import compress
from typing import Sequence

from .compositions import _lex_rank, _lex_select, class_order, multinomial
from .errors import BlockLengthError, NotInImageError
from .source import _check_sizes, _index_fields, _nonempty_symbols, _symbol_list


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
    return _rank_valid(_nonempty_symbols(_symbol_list(symbols, alphabet_size)), alphabet_size)


def _rank_valid(symbols: list[int], alphabet_size: int) -> int:
    """string_rank of a nonempty list that _symbol_list accepted.

    Symbols that do not occur change neither the arrangements of the class
    nor a string's rank among them, so the string is ranked among the
    arrangements of the symbols it holds, as indices of them.
    """
    order = class_order(len(symbols), alphabet_size)
    counts = [0] * alphabet_size
    for v in symbols:
        counts[v] += 1
    present = list(compress(range(alphabet_size), counts))
    mults = list(map(counts.__getitem__, present))
    before = order.strings_before_class(counts)
    if present[-1] != len(present) - 1:
        symbols = list(map(dict(zip(present, range(len(present)))).__getitem__, symbols))
    return before + _lex_rank(symbols, mults, multinomial(mults))


def _block_rank(symbols: Sequence[int], params: ShapingParameters, length: int) -> int:
    """Rank of a block that must hold exactly length symbols of the alphabet."""
    symbols = _symbol_list(symbols, params.alphabet_size)
    if len(symbols) != length:
        raise BlockLengthError(f"expected a block of length {length}, got {len(symbols)}")
    return _rank_valid(symbols, params.alphabet_size)


def string_unrank(rank: int, n: int, alphabet_size: int) -> tuple[int, ...]:
    """The rank-th string of length n; inverse of string_rank."""
    counts, offset = class_order(n, alphabet_size).locate_string(rank)
    present = list(compress(range(alphabet_size), counts))
    mults = list(map(counts.__getitem__, present))
    return tuple(map(present.__getitem__, _lex_select(offset, mults, multinomial(mults))))


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
