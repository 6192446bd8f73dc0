"""Seeded Monte Carlo estimates of mean content, before and after shaping.

Sampling happens at composition level: the count vector of a uniform random
string is multinomially distributed, and information content depends only on
counts, so drawing counts directly avoids materializing length-n strings.

Reproducibility contract: work is cut into fixed-size shards regardless of
thread count; shard i is driven by its own counter-based Philox stream
seeded with SeedSequence(entropy=seed, spawn_key=(i,)); sample j of shard i
is written at row i*SHARD_SIZE + j of one preallocated array before any
reduction.  Results are therefore byte-identical across thread counts,
schedulings, and platforms.

Each shard worker draws its shard in sub-chunks of 1<<14 rows (n+k rows
where that is more), one after another from the shard's one stream, which
gives the same rows as one whole-shard draw.  It computes each sub-chunk's contents right after
sampling, on the same threads as the sampler, through a lookup table of
c*ln(c) terms that gives the same floats as the direct formula, and writes
them in place.  The source estimator keeps only the contents (8 bytes per
sample); the shaped estimator also keeps every count vector, narrowed to
the smallest unsigned type that holds n+k (a bytes per sample up to
n+k=255), to re-rank its tie band.  A run whose arrays would not fit in
physical memory is refused before the first draw.

The shaped estimator is a quantile cut: the selected set is the lowest
1/a**k fraction of the length-(n+k) order, so the mean of the lowest
floor(M/a**k) of M sampled contents estimates the shaped mean.  The cut
value is found by selection (np.partition), not by a full sort.  Samples
tied at the cutoff are admitted in the exact composition order (bigint
product comparison, then count vector, then sample index), the same rule
the shaping map uses; the exact comparison runs once per distinct count
vector in the band, not once per sample.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analyzer import AverageReport, average_info_exact, shaped_average_info_exact
from .compositions import order_product
from .errors import DegenerateSampleError, ResourceLimitError
from .source import SourceEnsemble

SHARD_SIZE = 1 << 16
_CHUNK_ROWS = 1 << 14

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
        if self.alphabet_size < 1:
            raise ValueError("alphabet must have at least one symbol")
        if self.n < 1:
            raise ValueError("block length must be positive")
        if self.k < 1:
            raise ValueError("length surplus must be positive")
        if self.samples < 1:
            raise ValueError("need at least one sample")
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


def _sampled_shards(
    config: McConfig, length: int, keep_counts: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    """(counts, contents) of every sample, row j of shard i at i*SHARD_SIZE+j.

    Both arrays are allocated once, up front; each worker draws its shard in
    sub-chunks and writes their rows in place.  Without keep_counts no count
    matrix is kept, only the contents.  The kept counts have the narrowest
    unsigned dtype that holds `length`.  Every sub-chunk but a shard's last
    has at least `length` rows, so info_from_counts keeps its table path.

    Raises ResourceLimitError, before any draw, when these arrays and an
    8-byte-per-sample scratch for the reductions exceed physical memory.
    """
    a, total = config.alphabet_size, config.samples
    dtype = np.min_scalar_type(length)
    need = total * (16 + (a * dtype.itemsize if keep_counts else 0))
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise ResourceLimitError(
            f"{total} samples at alphabet {a} need {need} bytes; "
            f"physical memory is {memory}"
        )
    infos = np.empty(total, dtype=np.float64)
    counts = np.empty((total, a), dtype=dtype) if keep_counts else None
    step = max(_CHUNK_ROWS, length)

    def run(item: tuple[int, int]) -> None:
        index, size = item
        rng = shard_generator(config.seed, index)
        start = index * SHARD_SIZE
        for lo in range(start, start + size, step):
            hi = min(lo + step, start + size)
            chunk = sample_compositions(rng, length, a, hi - lo)
            infos[lo:hi] = info_from_counts(chunk)
            if counts is not None:
                counts[lo:hi] = chunk

    jobs = list(enumerate(_shard_sizes(total)))
    if config.threads == 1 or len(jobs) == 1:
        for job in jobs:
            run(job)
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run, jobs))
    return counts, infos


def estimate_average_info(config: McConfig) -> McEstimate:
    """Sample mean of content over uniform length-n strings."""
    _, infos = _sampled_shards(config, config.n, keep_counts=False)
    mean = float(infos.mean())
    if infos.size > 1:
        std_error = float(infos.std(ddof=1) / math.sqrt(infos.size))
    else:
        std_error = math.inf
    return McEstimate(mean, std_error, int(infos.size))


def _band_in_exact_order(counts: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Indices of the band samples sorted by (-order product, counts, index).

    Sample i is row i of counts.
    """
    indices = np.flatnonzero(band)
    distinct, inverse = np.unique(counts[indices], axis=0, return_inverse=True)
    vectors = [tuple(row) for row in distinct.tolist()]
    ranked = sorted(
        range(len(vectors)), key=lambda j: (-order_product(vectors[j]), vectors[j])
    )
    rank = np.empty(len(vectors), dtype=np.intp)
    rank[ranked] = np.arange(len(vectors))
    # Stable over ascending indices, so equal vectors keep sample order.
    return indices[np.argsort(rank[inverse.reshape(-1)], kind="stable")]


def estimate_shaped_average_info(config: McConfig) -> McEstimate:
    """Quantile-cut estimate of the shaped mean under a uniform source."""
    a = config.alphabet_size
    cut = config.samples // a**config.k
    if cut == 0:
        raise DegenerateSampleError(
            f"{config.samples} samples leave none below the 1/{a**config.k} quantile"
        )
    counts, infos = _sampled_shards(config, config.n + config.k, keep_counts=True)

    # One scratch array serves the selection and then the band test; it is
    # freed before the chosen contents are gathered.
    scratch = infos.copy()
    scratch.partition(cut - 1)
    cut_value = float(scratch[cut - 1])
    tol = 1e-9 * max(1.0, abs(cut_value))
    below = infos < cut_value - tol
    band = np.abs(np.subtract(infos, cut_value, out=scratch), out=scratch) <= tol
    del scratch

    need = cut - int(np.count_nonzero(below))
    band_indices = _band_in_exact_order(counts, band)
    if not 0 < need <= len(band_indices):
        raise AssertionError("quantile cut fell outside its tie band")
    chosen = np.concatenate([infos[below], infos[band_indices[:need]]])

    mean = float(chosen.mean())
    if chosen.size > 1:
        # The cut position is itself estimated, so the estimator's variance
        # carries a boundary term beyond the conditional variance:
        # Var = (Var[X | X below cut] + (1-q)*(cut - mean)^2) / cut_count.
        # Without it the error bars understate by ~40% at small quantiles.
        q = chosen.size / infos.size
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
    the exact row and samples it when the exact layer refuses it.
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    reports = []
    for config in configs:
        a, n, k = config.alphabet_size, config.n, config.k
        if method != "mc":
            try:
                source = average_info_exact(SourceEnsemble.uniform(a), n)
                shaped = shaped_average_info_exact(a, n, k)
            except ResourceLimitError:
                if method == "exact":
                    raise
            else:
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
