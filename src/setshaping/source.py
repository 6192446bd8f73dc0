"""Symbol sources and the two notions of per-string information content.

Strings are sequences of integer symbol indices in [0, a).  Information
content comes in two interpretations:

* literal: -sum_j log2 p(s_j), measured against the source probabilities;
* empirical: n*log2(n) - sum_v c_v*log2(c_v), measured against the string's
  own symbol counts c, so it depends only on the composition.

The shaping analysis tabulates the empirical interpretation; the literal one
stays available as a selectable mode.  _INTERPRETATIONS names the two, for
the command line too, and _check_interpretation is the one check of a name
against them.  _log_probability is the one sum of c_v*log(p_v) over a count
vector: in bits, and taken from 0.0, the literal content of a single string
here and of whole classes in the analyzer, and in nats the probability of
an input class there.  _index_fields is the one integer check of the fields
of ShapingParameters and McConfig, _check_sizes the one check that an
alphabet size, block length, length surplus or sample count is positive,
for every class and function that takes one, and _nonempty_symbols the one
check that a string is nonempty.  validate_symbols makes every rejection of
a symbol; _symbol_list, the route of the block calls, takes a list or tuple
of in-range ints as it is and hands every other string to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InvalidSymbolError

PROB_SUM_TOL = 1e-12

_INTERPRETATIONS = ("empirical", "literal")


def _check_interpretation(interpretation: str) -> None:
    if interpretation not in _INTERPRETATIONS:
        raise ValueError(f"unknown interpretation {interpretation!r}")


def _index_fields(instance) -> None:
    """Take every field of a frozen dataclass of integers through operator.index.

    A float field, even an integral one, raises TypeError; a numpy integer
    becomes a plain int.
    """
    for field in fields(instance):
        object.__setattr__(instance, field.name, operator.index(getattr(instance, field.name)))


def _check_sizes(alphabet_size: int = 1, n: int = 1, k: int = 1, samples: int = 1) -> None:
    """Raise ValueError on the first of the sizes, in this order, below 1."""
    if alphabet_size < 1:
        raise ValueError("alphabet must have at least one symbol")
    if n < 1:
        raise ValueError("block length must be positive")
    if k < 1:
        raise ValueError("length surplus must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")


@dataclass(frozen=True)
class SourceEnsemble:
    """An i.i.d. symbol source over the alphabet {0, ..., a-1}."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        _check_sizes(len(probs))
        # Written so that NaN, for which every comparison is false, fails them.
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if not abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def uniform(cls, alphabet_size: int) -> "SourceEnsemble":
        # An empty alphabet divides by nothing and reaches __post_init__.
        return cls(tuple(1.0 / alphabet_size for _ in range(alphabet_size)))

    @property
    def alphabet_size(self) -> int:
        return len(self.probabilities)

    @property
    def is_uniform(self) -> bool:
        first = self.probabilities[0]
        return all(p == first for p in self.probabilities)

    def entropy_bits(self) -> float:
        """Shannon entropy of one symbol, in bits."""
        return -math.fsum(p * math.log2(p) for p in self.probabilities if p > 0.0)


def _as_int_array(symbols: Sequence[int]) -> np.ndarray:
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise ValueError("a string must be one-dimensional")
    if arr.dtype.kind == "f":
        # a fractional symbol is corrupt input, not something to truncate
        if arr.size and np.any(np.mod(arr, 1) != 0):
            raise InvalidSymbolError("symbols must be whole numbers")
        return arr.astype(np.int64)
    if arr.dtype.kind in "iub":
        return arr.astype(np.int64)
    raise InvalidSymbolError(f"symbols must be integers, not {arr.dtype}")


def validate_symbols(symbols: Sequence[int], alphabet_size: int) -> np.ndarray:
    """Return the string as an int64 array, rejecting out-of-range symbols."""
    arr = _as_int_array(symbols)
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet_size):
        raise InvalidSymbolError(
            f"symbols must lie in [0, {alphabet_size}); "
            f"saw values in [{arr.min()}, {arr.max()}]"
        )
    return arr


_INT = {int}


def _symbol_list(symbols: Sequence[int], alphabet_size: int) -> list[int]:
    """The string as a list of ints, each in [0, alphabet_size).

    A list or tuple of ints that all lie in range is taken as it is, with
    no numpy round trip: the block calls get their strings this way.  Every
    other input, a bool, a numpy scalar or array, a float or a symbol out of
    range among them, goes through validate_symbols, which accepts or
    rejects it as it would on its own.
    """
    if type(symbols) in (list, tuple) and {*map(type, symbols)} == _INT:
        # The range is checked on the distinct symbols, fewer than the symbols.
        distinct = set(symbols)
        if min(distinct) >= 0 and max(distinct) < alphabet_size:
            return list(symbols)
    return validate_symbols(symbols, alphabet_size).tolist()


def _nonempty_symbols(symbols: Sequence[int]) -> Sequence[int]:
    """A string that validate_symbols or _symbol_list accepted, if it is nonempty."""
    if not len(symbols):
        raise ValueError("a string must be nonempty")
    return symbols


def composition_of(symbols: Sequence[int], alphabet_size: int) -> tuple[int, ...]:
    """Per-symbol count vector of the string."""
    arr = validate_symbols(symbols, alphabet_size)
    return tuple(int(c) for c in np.bincount(arr, minlength=alphabet_size))


def literal_information_content(
    ensemble: SourceEnsemble, symbols: Sequence[int]
) -> float:
    """-sum_j log2 p(s_j); rejects symbols the source cannot emit."""
    arr = _nonempty_symbols(validate_symbols(symbols, ensemble.alphabet_size))
    counts = np.bincount(arr, minlength=ensemble.alphabet_size)
    total = 0.0 - _log_probability(ensemble.probabilities, counts, math.log2)
    if total == math.inf:
        raise InvalidSymbolError("string uses a zero-probability symbol")
    return total


def _log_probability(
    probabilities: Sequence[float], counts: Sequence[int], log=math.log
) -> float:
    """sum_v c_v*log(p_v) over the symbols that occur; -inf if one has p_v = 0.

    The log of the probability of one string with these counts: in nats
    with math.log, in bits with math.log2.  Rounding is symmetric, so 0.0
    less the bits is, bit for bit, -c_v*log2(p_v) summed from 0.0; -bits
    would give -0.0 where every occurring p_v is 1.
    """
    total = 0.0
    for p, c in zip(probabilities, counts):
        if c == 0:
            continue
        if p == 0.0:
            return -math.inf
        total += c * log(p)
    return total


def empirical_information_content(symbols: Sequence[int], alphabet_size: int) -> float:
    """n*log2(n) - sum_v c_v*log2(c_v) from the string's own counts."""
    arr = _nonempty_symbols(validate_symbols(symbols, alphabet_size))
    counts = np.bincount(arr, minlength=alphabet_size)
    n = int(arr.size)
    return n * math.log2(n) - math.fsum(
        int(c) * math.log2(int(c)) for c in counts if c > 1
    )


def information_content(
    ensemble: SourceEnsemble,
    symbols: Sequence[int],
    interpretation: str = "empirical",
) -> float:
    """Dispatch between the two interpretations by name."""
    _check_interpretation(interpretation)
    if interpretation == "literal":
        return literal_information_content(ensemble, symbols)
    return empirical_information_content(symbols, ensemble.alphabet_size)
