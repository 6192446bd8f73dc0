"""Adaptive arithmetic codec whose output length tracks empirical content.

The model is order-0 adaptive with the add-1/2 estimator: after m symbols of
which c equalled v, the next-symbol probability of v is (2c+1)/(2m+a), kept
as exact integer frequencies.  The whole-string code length under this model
exceeds the string's empirical information content by at most about
((a-1)/2)*log2(n) plus a small constant, which is tight enough that shaping
gains of a fraction of a bit stay visible in actual compressed sizes.

The coder itself is the classic two-register binary arithmetic coder with
pending-bit underflow handling, on 32-bit register values and integer-only
arithmetic, so encodings are identical on every platform.  Termination
spends at most two bits plus byte padding.  The encoder collects each
emitted bit with its pending bits as one string piece and packs them once;
it takes one loop turn per shift, which measured faster than closed forms
there.  The decoder keeps the interval as low and span = high - low + 1,
and tracks d = code - low instead of code: renormalisation takes the same
offset from code and low and doubles both, so d just gains one payload bit
per shift.  It takes a symbol's shifts in two steps: first the leading bits
that low and high share, counted from low ^ high, then the underflow run,
low = 01... and high = 10..., counted from the bits where low is 1 and high
0.  One integer holds d above the payload bits read ahead of it, so a shift
only moves the line between them, and payload is read a chunk at a time.

Container layout: a little-endian header (format version u8, alphabet size
u16, symbol count u64, payload bit length u64) followed by the payload,
final byte zero-padded.  _read_header is the one reader of the header and
makes every check of the framing, for decode and encoded_bit_length alike,
so the bit length of a container decode refuses is refused too.  Code
lengths quoted by this module are payload bit lengths: termination
included, framing excluded.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bijection import ShapingParameters, shape
from .errors import CorruptStreamError
from .source import _check_sizes, _symbol_list, empirical_information_content

HEADER = struct.Struct("<BHQQ")
FORMAT_VERSION = 1

_PRECISION = 32
_WHOLE = 1 << _PRECISION
_HALF = _WHOLE >> 1
_QUARTER = _WHOLE >> 2
_MASK = _WHOLE - 1
# Model totals must stay below the quarter range or intervals can vanish.
_MAX_TOTAL = _QUARTER
_THREE_QUARTERS = 3 * _QUARTER
# Payload bytes the decoder reads ahead at a time.
_CHUNK = 8
# Sampled strings shaping_experiment draws at a time.
_DRAW_ROWS = 1 << 10


def _fits_coder(n: int, a: int) -> bool:
    """Whether the model total after n symbols, 2*n + a, stays below _MAX_TOTAL."""
    return 2 * n + a < _MAX_TOTAL


def _check_block(n: int, a: int):
    if not 1 <= a <= 0xFFFF:
        raise ValueError("alphabet size must be in [1, 65535]")
    if not _fits_coder(n, a):
        raise ValueError("block too long for the coder's precision")


def encode(symbols: Sequence[int], alphabet_size: int) -> bytes:
    """Compress one string into a self-framing container."""
    symbols = _symbol_list(symbols, alphabet_size)
    n = len(symbols)
    _check_block(n, alphabet_size)
    pieces = []
    if n:
        # Add-1/2 model: freq[v] = 2*count[v] + 1, total = 2*m + a.
        freq = [1] * alphabet_size
        total = alphabet_size
        low, high, pending = 0, _MASK, 0
        for s in symbols:
            cum_low = sum(freq[:s])
            f = freq[s]
            span = high - low + 1
            high = low + span * (cum_low + f) // total - 1
            low = low + span * cum_low // total
            while True:
                if high < _HALF:
                    pieces.append("0" + "1" * pending)
                    pending = 0
                elif low >= _HALF:
                    pieces.append("1" + "0" * pending)
                    pending = 0
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low = low << 1
                high = (high << 1) | 1
            freq[s] = f + 2
            total += 2
        pending += 1
        if low < _QUARTER:
            pieces.append("0" + "1" * pending)
        else:
            pieces.append("1" + "0" * pending)
    bits = "".join(pieces)
    padded = bits + "0" * (-len(bits) % 8)
    payload = int(padded, 2).to_bytes(len(padded) // 8, "big") if padded else b""
    header = HEADER.pack(FORMAT_VERSION, alphabet_size, n, len(bits))
    return header + payload


def _read_header(
    blob: bytes, n: int | None = None, alphabet_size: int | None = None
) -> tuple[int, int, int, bytes]:
    """(alphabet size, symbol count, payload bit length, payload) of a container.

    Every check of the container's framing is made here, so decode and
    encoded_bit_length refuse the same containers; n and alphabet_size,
    when given, must match the header.
    """
    if len(blob) < HEADER.size:
        raise CorruptStreamError("container shorter than its header")
    version, a, count, bit_length = HEADER.unpack(blob[: HEADER.size])
    if version != FORMAT_VERSION:
        raise CorruptStreamError(f"unknown container version {version}")
    if a < 1:
        raise CorruptStreamError("header declares an empty alphabet")
    if alphabet_size is not None and alphabet_size != a:
        raise CorruptStreamError(
            f"expected alphabet size {alphabet_size}, header says {a}"
        )
    if n is not None and n != count:
        raise CorruptStreamError(f"expected {n} symbols, header says {count}")
    if not _fits_coder(count, a):
        raise CorruptStreamError("header declares a block the coder cannot produce")

    payload = blob[HEADER.size :]
    if len(payload) != (bit_length + 7) // 8:
        raise CorruptStreamError("payload length disagrees with the recorded bit count")
    if bit_length % 8 and payload[-1] & ((1 << (8 - bit_length % 8)) - 1):
        raise CorruptStreamError("nonzero padding in the final byte")
    return a, count, bit_length, payload


def decode(
    blob: bytes, n: int | None = None, alphabet_size: int | None = None
) -> tuple[int, ...]:
    """Invert encode; n and alphabet_size, when given, must match the header."""
    a, count, _, payload = _read_header(blob, n, alphabet_size)
    if count == 0:
        return ()

    # The padding is zero, so the payload bytes read as the payload bits
    # followed by zeros; past its end, zero bytes are read forever.  The
    # low `fill` bits of bits are payload read ahead; above them it holds
    # d = code - low, with code the first 32 payload bits at the start.
    bits = int.from_bytes(payload[:_CHUNK].ljust(_CHUNK, b"\0"), "big")
    pos = _CHUNK
    fill = 8 * _CHUNK - _PRECISION
    freq = [1] * a
    total = a
    # The interval is [low, low + span); high of the encoder is low + span - 1.
    low, span = 0, _WHOLE
    out = []
    for _ in range(count):
        value = (((bits >> fill) + 1) * total - 1) // span
        cum_low = 0
        # code - low = d < span, so value < total and the loop always breaks.
        for symbol, f in enumerate(freq):
            if value < cum_low + f:
                break
            cum_low += f
        step = span * cum_low // total
        span = span * (cum_low + f) // total - step
        low += step
        bits -= step << fill
        # The shifts, in two steps; each doubles span and moves one payload
        # bit into d.  First the leading bits that low and high share.
        t = _PRECISION - (low ^ (low + span - 1)).bit_length()
        low = (low << t) & _MASK
        span <<= t
        if low >= _QUARTER and low + span <= _THREE_QUARTERS:
            # Then the underflow run, low = 01... and high = 10...: each
            # shift drops the second bit of both, while low's is 1 and high's 0.
            run = _PRECISION - 1 - (((low + span - 1) | ~low) & (_HALF - 1)).bit_length()
            low = (low << run) & (_HALF - 1)
            span <<= run
            t += run
        while fill < t:
            chunk = payload[pos : pos + _CHUNK].ljust(_CHUNK, b"\0")
            bits = (bits << 8 * _CHUNK) | int.from_bytes(chunk, "big")
            pos += _CHUNK
            fill += 8 * _CHUNK
        fill -= t
        freq[symbol] = f + 2
        total += 2
        out.append(symbol)
    return tuple(out)


def encoded_bit_length(blob: bytes) -> int:
    """Payload bit length recorded in the header of a container decode accepts."""
    return _read_header(blob)[2]


def redundancy_bound_bits(n: int, alphabet_size: int) -> float:
    """Worst-case code length minus empirical content for length-n strings."""
    if n < 2:
        return 4.0
    return (alphabet_size - 1) / 2 * math.log2(n) + 4.0


@dataclass(frozen=True)
class ExperimentReport:
    """Compressed sizes of raw vs shaped strings over one seeded sample."""

    alphabet_size: int
    block_length: int
    surplus: int
    samples: int
    seed: int
    mean_bits_raw: float
    mean_bits_shaped: float
    mean_emp_info_raw: float
    mean_emp_info_shaped: float

    @property
    def delta_bits(self) -> float:
        return self.mean_bits_raw - self.mean_bits_shaped

    @property
    def raw_bits_per_symbol(self) -> float:
        return self.mean_bits_raw / self.block_length

    @property
    def shaped_bits_per_symbol(self) -> float:
        # Shaped strings carry k extra symbols; dividing by n (not n+k)
        # charges that overhead to the transform instead of hiding it.
        return self.mean_bits_shaped / self.block_length

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "delta_bits": self.delta_bits,
            "raw_bits_per_symbol": self.raw_bits_per_symbol,
            "shaped_bits_per_symbol": self.shaped_bits_per_symbol,
        }


def shaping_experiment(
    params: ShapingParameters, samples: int = 10**4, seed: int = 0
) -> ExperimentReport:
    """Compress seeded uniform strings before and after shaping.

    Answers the question the averages only hint at: do actual compressed
    sizes drop?  Shaped outputs are k symbols longer; the report keeps both
    absolute bits and bits per source symbol so that cost stays visible.
    The strings are drawn _DRAW_ROWS at a time from one stream, which gives
    the strings of one whole draw without holding them all.  Nothing is kept
    per string: the bit counts are summed as ints and the contents as exact
    Fractions, whose float is the correctly rounded sum, as math.fsum of
    every value would give; each mean divides that by the sample count.
    """
    # Imported here: fractions imports decimal, about 5 ms that no other
    # entry point of the package needs.
    from fractions import Fraction

    _check_sizes(samples=samples)
    a, n = params.alphabet_size, params.n
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    bits_raw = bits_shaped = 0
    info_raw = info_shaped = Fraction()
    for start in range(0, samples, _DRAW_ROWS):
        rows = min(_DRAW_ROWS, samples - start)
        for x in map(tuple, rng.integers(0, a, size=(rows, n), dtype=np.int64).tolist()):
            y = shape(x, params)
            bits_raw += encoded_bit_length(encode(x, a))
            bits_shaped += encoded_bit_length(encode(y, a))
            info_raw += Fraction(empirical_information_content(x, a))
            info_shaped += Fraction(empirical_information_content(y, a))

    return ExperimentReport(
        alphabet_size=a,
        block_length=n,
        surplus=params.k,
        samples=samples,
        seed=seed,
        mean_bits_raw=bits_raw / samples,
        mean_bits_shaped=bits_shaped / samples,
        mean_emp_info_raw=float(info_raw) / samples,
        mean_emp_info_shaped=float(info_shaped) / samples,
    )
