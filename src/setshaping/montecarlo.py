"""Seeded Monte Carlo estimates of mean content, before and after shaping.

Sampling happens at composition level: the count vector of a uniform random
string is multinomially distributed, and information content depends only on
counts, so drawing counts directly avoids materializing length-n strings.

Reproducibility contract: work is cut into fixed-size shards regardless of
thread count; shard i is driven by its own counter-based Philox stream
seeded with SeedSequence(entropy=seed, spawn_key=(i,)), and sample j of
shard i is sample i*SHARD_SIZE + j.  Each shard is drawn in sub-chunks of
1<<12 rows (n+k rows where that is more), one after another from the
shard's one stream, which gives the same rows as one whole-shard draw, and
_sampled_shards hands each sub-chunk's count vectors and contents, computed
on the sampler's thread through a lookup table of c*ln(c) terms that gives
the same floats as the direct formula, to the estimator.  Whatever an
estimator keeps of a shard it keeps in sample order, and it reduces only
after every shard is in.  Results are therefore byte-identical across
thread counts, schedulings, and platforms.

The source estimator writes every content in place into one preallocated
array (8 bytes per sample) and takes numpy's mean and std(ddof=1) step for
step, the second in place on that array.

The shaped estimator is a quantile cut: the selected set is the lowest
1/a**k fraction of the length-(n+k) order, so the mean of the lowest
floor(M/a**k) of M sampled contents estimates the shaped mean.  Only the
samples below a window, the cut content predicted by the chi-square law of
the contents plus a margin, can reach the cut, so each shard keeps the
contents and count vectors of those alone, the counts narrowed to the
smallest unsigned type that holds n+k (a bytes per sample up to n+k=255):
at n=100, 14% of the samples at a=10 and 25% at a=6.  The cut value is found by selection
(np.partition) on one copy of the kept contents, not by a full sort.
Where fewer than the cut were kept, or the cut's tie band reaches the
window, every sample is drawn again with no window; that keeps what a
windowless estimator keeps, and only very short blocks need it.  Samples
tied at the cutoff are admitted in the exact composition order (bigint
product comparison, then count vector, then sample index), the same rule
the shaping map uses; the exact comparison runs once per distinct count
vector in the band, not once per sample.

A run whose arrays would not fit in physical memory is refused before the
first draw: 8 bytes per sample for the source estimator, and for the shaped
one what a draw with no window holds, 16 + a*itemsize.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analyzer import AverageReport, average_info_exact, shaped_average_info_exact
from .compositions import _content_gap, order_product
from .errors import DegenerateSampleError, ResourceLimitError
from .source import SourceEnsemble, _check_sizes, _index_fields

SHARD_SIZE = 1 << 16
_CHUNK_ROWS = 1 << 12
# Bits of the shaped estimator's window above its predicted cut.
_WINDOW_MARGIN = 0.75

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class McConfig:
    """Parameters of one seeded estimation run over a uniform source."""

    alphabet_size: int
    n: int
    k: int = 1
    samples: int = 10**6
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        # A fractional field fails here, before numpy truncates it in a draw.
        _index_fields(self)
        _check_sizes(self.alphabet_size, self.n, self.k, self.samples)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.threads < 1:
            raise ValueError("thread count must be positive")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples_used: int


def shard_generator(seed: int, shard_index: int) -> np.random.Generator:
    """The Philox stream assigned to one shard; independent of all others."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,))
    return np.random.Generator(np.random.Philox(seq))


def sample_compositions(
    rng: np.random.Generator, n: int, a: int, size: int
) -> np.ndarray:
    """Count vectors of `size` uniform length-n strings, drawn multinomially."""
    return rng.multinomial(n, np.full(a, 1.0 / a), size=size)


def _xlogx(x: float) -> float:
    """x*ln(x), 0 at 0: the two double operations of scipy.special.xlogy(x, x)."""
    return x * math.log(x) if x else 0.0


def info_from_counts(counts: np.ndarray) -> np.ndarray:
    """Empirical information content of each row of a counts matrix."""
    counts = np.asarray(counts)
    if counts.dtype.kind == "f" and not np.isfinite(counts).all():
        raise ValueError("counts must be finite")
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    if (
        counts.dtype.kind in "iu"
        and counts.size
        and counts.ndim
        # No count above the row count: no row sum can overflow, and the
        # table below is no longer than the input.
        and counts.max() <= counts.size // counts.shape[-1]
    ):
        totals = counts.sum(axis=-1)
        # The values the float path gives, looked up instead of recomputed.
        terms = np.array([_xlogx(r) for r in range(int(totals.max()) + 1)])
        return (terms[totals] - terms[counts].sum(axis=-1)) / _LN2
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum(axis=-1)
    # math.log per element, not numpy's vectorised log, which differs from
    # it in the last bit on some inputs.  The same route for both terms, so
    # one-symbol rows cancel to exactly 0.
    xlogx = np.vectorize(_xlogx, otypes=[np.float64])
    return (xlogx(n) - xlogx(c).sum(axis=-1)) / _LN2


def _shard_sizes(total: int) -> list[int]:
    sizes = [SHARD_SIZE] * (total // SHARD_SIZE)
    if total % SHARD_SIZE:
        sizes.append(total % SHARD_SIZE)
    return sizes


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_memory(config: McConfig, per_sample: int) -> None:
    """Raises ResourceLimitError, before any draw, when per_sample bytes for
    each sample exceed physical memory."""
    need = config.samples * per_sample
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ResourceLimitError(
            f"{config.samples} samples at alphabet {config.alphabet_size} "
            f"need {need} bytes; physical memory is {memory}"
        )


def _sampled_shards(config: McConfig, length: int, consume: Callable) -> list[list]:
    """consume(counts, infos, start) of every sub-chunk, in lists per shard.

    Shard i is drawn from its own stream in sub-chunks of _CHUNK_ROWS rows
    (`length` rows where that is more), one after another.  counts are a
    sub-chunk's int64 count vectors, infos their contents and start the
    sample index of its first row, i*SHARD_SIZE plus its offset in the
    shard.  Every sub-chunk but a shard's last has at least `length` rows,
    so info_from_counts keeps its table path.  consume runs on the shard's
    worker thread, and the results of each shard's list are in sample order.
    """
    a, step = config.alphabet_size, max(_CHUNK_ROWS, length)

    def run(item: tuple[int, int]) -> list:
        index, size = item
        rng = shard_generator(config.seed, index)
        start = index * SHARD_SIZE
        results = []
        for lo in range(start, start + size, step):
            counts = sample_compositions(rng, length, a, min(step, start + size - lo))
            results.append(consume(counts, info_from_counts(counts), lo))
        return results

    jobs = list(enumerate(_shard_sizes(config.samples)))
    if config.threads == 1 or len(jobs) == 1:
        return [run(job) for job in jobs]
    # Imported here: concurrent.futures imports logging, about 7 ms that a
    # single-threaded run and every other entry point of the package skip.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(run, jobs))


def _mean_and_std(values: np.ndarray) -> tuple[float, float]:
    """values.mean() and values.std(ddof=1), bit for bit, by numpy's own steps.

    values, two or more float64s, is overwritten in place, so no temporary
    of its size is made.
    """
    mean = float(np.add.reduce(values) / values.size)
    np.subtract(values, mean, out=values)
    np.multiply(values, values, out=values)
    return mean, math.sqrt(np.add.reduce(values) / (values.size - 1))


def estimate_average_info(config: McConfig) -> McEstimate:
    """Sample mean of content over uniform length-n strings."""
    total = config.samples
    _check_memory(config, 8)
    infos = np.empty(total, dtype=np.float64)

    def store(counts: np.ndarray, chunk: np.ndarray, start: int) -> None:
        infos[start : start + len(chunk)] = chunk

    _sampled_shards(config, config.n, store)
    if total == 1:
        return McEstimate(float(infos[0]), math.inf, 1)
    mean, std = _mean_and_std(infos)
    return McEstimate(mean, std / math.sqrt(total), total)


def _keep_window(length: int, a: int, k: int) -> float:
    """The content below which the shaped estimator keeps a sample.

    For a uniform length-L string, L*log2(a) less its content is about half
    a chi-square variable with a-1 degrees of freedom, over ln 2, so the
    cut at the lowest 1/a**k of contents lies near L*log2(a) less its upper
    a**-k quantile over 2 ln 2; the window is _WINDOW_MARGIN bits above.
    At n=100, k=1, a=2..10 the cut of 10**6 samples lay between 0.04 bits
    above and 0.26 bits below that prediction.  Where the window falls
    short, the estimator draws again.
    """
    if a == 1:
        return math.inf
    return length * math.log2(a) - _content_gap(a, a**-k) + _WINDOW_MARGIN


def _band_in_exact_order(counts: np.ndarray) -> np.ndarray:
    """The order of the tie band's rows by (-order product, counts, row).

    Row i of counts is the band's i-th kept sample in sample order, so equal
    vectors keep sample order.
    """
    distinct, inverse = np.unique(counts, axis=0, return_inverse=True)
    vectors = [tuple(row) for row in distinct.tolist()]
    ranked = sorted(
        range(len(vectors)), key=lambda j: (-order_product(vectors[j]), vectors[j])
    )
    rank = np.empty(len(vectors), dtype=np.intp)
    rank[ranked] = np.arange(len(vectors))
    return np.argsort(rank[inverse.reshape(-1)], kind="stable")


def estimate_shaped_average_info(config: McConfig) -> McEstimate:
    """Quantile-cut estimate of the shaped mean under a uniform source."""
    a = config.alphabet_size
    cut = config.samples // a**config.k
    if cut == 0:
        raise DegenerateSampleError(
            f"{config.samples} samples leave none below the 1/{a**config.k} quantile"
        )
    length = config.n + config.k
    dtype = np.min_scalar_type(length)
    # A draw with an infinite window keeps every content and count vector,
    # and the selection copies the contents.
    _check_memory(config, 16 + a * dtype.itemsize)
    window = _keep_window(length, a, config.k)

    def keep(counts: np.ndarray, infos: np.ndarray, start: int) -> tuple:
        inside = infos < window
        return infos[inside], counts[inside].astype(dtype)

    while True:
        # Per shard, its kept contents and count vectors in sample order.
        kept = _sampled_shards(config, length, keep)
        for i, parts in enumerate(kept):
            kept[i] = tuple(np.concatenate(column) for column in zip(*parts))
        contents = [infos for infos, _ in kept]
        if sum(map(len, contents)) >= cut:
            scratch = np.concatenate(contents)
            scratch.partition(cut - 1)
            cut_value = float(scratch[cut - 1])
            del scratch
            tol = 1e-9 * max(1.0, abs(cut_value))
            # Then every sample below the cut or in its tie band was kept.
            if cut_value + tol < window:
                break
        del kept, contents
        window = math.inf

    below = np.concatenate([infos[infos < cut_value - tol] for infos in contents])
    bands = [np.abs(infos - cut_value) <= tol for infos in contents]
    band_infos = np.concatenate([infos[band] for infos, band in zip(contents, bands)])
    band_counts = np.concatenate([counts[band] for (_, counts), band in zip(kept, bands)])

    need = cut - below.size
    order = _band_in_exact_order(band_counts)
    if not 0 < need <= len(order):
        raise AssertionError("quantile cut fell outside its tie band")
    chosen = np.concatenate([below, band_infos[order[:need]]])

    mean = float(chosen.mean())
    if chosen.size > 1:
        # The cut position is itself estimated, so the estimator's variance
        # carries a boundary term beyond the conditional variance:
        # Var = (Var[X | X below cut] + (1-q)*(cut - mean)^2) / cut_count.
        # Without it the error bars understate by ~40% at small quantiles.
        q = chosen.size / config.samples
        variance = float(chosen.var(ddof=1)) + (1.0 - q) * (cut_value - mean) ** 2
        std_error = math.sqrt(variance / chosen.size)
    else:
        std_error = math.inf
    return McEstimate(mean, std_error, int(chosen.size))


def estimate_table(
    configs: list[McConfig], method: str = "auto"
) -> list[AverageReport]:
    """One AverageReport per config: exact where the exact layer admits it.

    method "exact" computes every row exactly and lets the exact layer's
    ResourceLimitError through, "mc" samples every row, and "auto" tries
    the exact row and samples it when the exact layer refuses it.  A row
    takes one method: auto computes the shaped mean first, the one exact
    column whose partition walk the byte budget can refuse, so a refused
    row has done no exact work and samples both columns.
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    reports = []
    for config in configs:
        a, n, k = config.alphabet_size, config.n, config.k
        if method != "mc":
            try:
                shaped = shaped_average_info_exact(a, n, k)
            except ResourceLimitError:
                if method == "exact":
                    raise
            else:
                source = average_info_exact(SourceEnsemble.uniform(a), n)
                reports.append(AverageReport(a, n, k, source, shaped, method="exact"))
                continue
        est_x = estimate_average_info(config)
        est_y = estimate_shaped_average_info(config)
        reports.append(
            AverageReport(
                a,
                n,
                k,
                est_x.mean,
                est_y.mean,
                method="monte-carlo",
                source_stderr=est_x.std_error,
                shaped_stderr=est_y.std_error,
                samples=config.samples,
                seed=config.seed,
            )
        )
    return reports
