"""The benchmark's workloads: generated inputs, timed operations, checks.

Each workload calls only the package's public functions.  An operation is
one table row, the series, or one block; its output is checked after the
timed phase, and an exception or a failed check counts it as failed.  See
README.md in this directory for why each workload was chosen and which
end-to-end metric each layer metric should move.

Reference values are the published ones, copied here so the benchmark does
not depend on the test suite.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from setshaping import (
    McConfig,
    ShapingParameters,
    SourceEnsemble,
    average_info_exact,
    class_order,
    composition_of,
    decode,
    empirical_information_content,
    encode,
    encoded_bit_length,
    estimate_average_info,
    estimate_shaped_average_info,
    estimate_table,
    info_from_counts,
    rank_info_series,
    redundancy_bound_bits,
    sample_compositions,
    shape,
    shaped_average_info_exact,
    shard_generator,
    string_rank,
    string_unrank,
    unshape,
)
from setshaping import montecarlo

from tracing import layer_self_times, span_metrics

# Published Table 1 (n=a, k=1): a -> (source bits, shaped bits), 3 decimals.
TABLE1_REFERENCE = {
    2: (1.000, 1.377),
    3: (2.893, 2.885),
    4: (5.296, 5.050),
    5: (8.070, 7.708),
    6: (11.137, 10.223),
    7: (14.448, 13.387),
}
# Published Table 2 (n=100, k=1): a -> (source bits, shaped bits).
TABLE2_REFERENCE = {
    2: (99.275, 99.660),
    3: (157.044, 157.034),
    4: (197.816, 197.331),
    5: (229.279, 228.315),
    6: (254.850, 253.436),
    7: (276.350, 274.471),
    8: (294.869, 292.557),
    9: (311.118, 308.371),
    10: (325.568, 322.417),
}
# Published means of the Figure 1 series (a=3, n=10, k=1).
SERIES_REFERENCE = (14.263, 14.136)

TABLE2_EXACT_TOLERANCE = 0.05
TABLE2_MC_TOLERANCE = 0.15
# Fixed so the workload is the same on any machine; 2 is the core count of
# the machine the baseline was measured on.
MC_THREADS = 2


def max_rss_mb() -> float:
    """Peak resident set of this process; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# A child's times are scaled by the workload's `reference_s` over the mean
# time of its `reference()` in that child, which takes out the drift in the
# speed of a shared host; the raw times are reported beside them.  Each
# `reference_s` is that reference's mean on the 2-vCPU machine the baseline
# was measured on, in a quiet period.  The mean, not the median, because a
# job's time is the sum over its slow and fast stretches alike.  One sample
# is taken per REFERENCE_EVERY reference times of work, about 10% extra time.
REFERENCE_EVERY = 10
_REFERENCE_MODULUS = (1 << 233) - 1


def reference_loop() -> float:
    """Seconds for one run of a fixed pure-Python loop that calls no package
    code: small- and big-integer arithmetic, tuples and a dict, the kinds of
    work the package's Python layers do.  A change to the package cannot
    change it, so it measures the speed of the machine alone."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    big = acc = 1
    for i in range(25_000):
        key = (i % 509, i & 7)
        acc = (acc + table.get(key, i)) & 0xFFFF
        table[key] = acc ^ i
        big = (big * 3 + acc) % _REFERENCE_MODULUS
    return time.perf_counter() - start


def reference_sampler() -> float:
    """Seconds for numpy's multinomial sampler, called directly (not through
    the package), over 16 shards on MC_THREADS threads, as a reference for a
    job that keeps both vCPUs busy: reference_loop, on one thread, does not
    track such a job on the baseline machine."""

    def shard(index: int) -> None:
        rng = np.random.Generator(np.random.Philox(index))
        rng.multinomial(100, np.full(10, 0.1), size=12_500)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=MC_THREADS) as pool:
        list(pool.map(shard, range(16)))
    return time.perf_counter() - start


@dataclass
class Op:
    """One operation: `call(tracer)` returns the output `check` inspects."""

    label: str
    call: Callable
    check: Callable


def _off(label: str, got: float, want: float, tolerance: float) -> list[str]:
    if abs(got - want) <= tolerance:
        return []
    return [f"{label}: got {got:.6f}, reference {want} (tolerance {tolerance})"]


class Workload:
    """Defaults: no set-up, one pass per child, no probe, no extra metrics."""

    passes = 1
    reference = staticmethod(reference_loop)
    reference_s = 0.0094
    # Name of the throughput printed for the workload, if it has one:
    # work_done(outputs) per second of the pass.
    rate: str | None = None
    # Span name -> statistics reported from it by the traced run.
    span_stats: dict[str, tuple[str, ...]] = {}

    def setup(self, tr) -> None:
        pass

    def probe(self, tr) -> None:
        """Traced run only: extra per-layer calls after the timed phase."""

    def work_done(self, outputs) -> int:
        return 0

    def layer_metrics(self, outputs) -> dict[str, float]:
        return {}


def _build(tr, n: int, a: int):
    """Cold class_order build; traced, also its memory rise and size."""
    if not tr.enabled:
        return class_order(n, a)
    before = max_rss_mb()
    order = tr.call("compositions.build", class_order, n, a)
    tr.count("compositions.build_rss_mb", max_rss_mb() - before)
    tr.count("compositions.partitions", sum(len(p) for p in order.group_partitions))
    tr.count("compositions.tie_groups", len(order.group_products))
    return order


class ExactTables(Workload):
    """Table 1, the Table 2 exact rows and the Figure 1 series, cold cache.

    One pass per child: only the first job in a process sees a cold cache.
    """

    name = "exact-tables"
    span_stats = {
        "compositions.build": ("sum",),
        "analyzer.average_info_exact": ("sum",),
        "analyzer.shaped_average_info_exact": ("sum",),
        "analyzer.rank_info_series": ("sum",),
    }

    def __init__(
        self,
        seed: int,
        scale: str = "full",
        table1=TABLE1_REFERENCE,
        table2=TABLE2_REFERENCE,
        series=SERIES_REFERENCE,
    ):
        # The inputs are the paper's fixed grid, so the seed selects nothing.
        self.table1 = table1
        self.table2 = table2
        self.series = series
        self.table2_alphabets = range(2, 6) if scale == "full" else range(2, 4)

    def _row(self, a: int, n: int, k: int = 1):
        def call(tr):
            if tr.enabled:
                _build(tr, n, a)
                _build(tr, n + k, a)
            x = tr.call(
                "analyzer.average_info_exact",
                average_info_exact,
                SourceEnsemble.uniform(a),
                n,
            )
            y = tr.call(
                "analyzer.shaped_average_info_exact", shaped_average_info_exact, a, n, k
            )
            return x, y

        return call

    def _series(self, tr):
        if tr.enabled:
            _build(tr, 10, 3)
            _build(tr, 11, 3)
        xs, ys = tr.call("analyzer.rank_info_series", rank_info_series, 3, 10, 1)
        return float(xs.mean()), float(ys.mean())

    def ops(self) -> list[Op]:
        ops = []
        for a in range(2, 8):
            want_x, want_y = self.table1[a]

            def check(out, a=a, want_x=want_x, want_y=want_y):
                # "match to three decimals": equal after rounding.
                return [
                    f"table1 a={a} {label}: {got:.6f} rounds to {round(got, 3)}, not {want}"
                    for label, got, want in (("I(x)", out[0], want_x), ("I(y)", out[1], want_y))
                    if round(got, 3) != round(want, 3)
                ]

            ops.append(Op(f"table1.a{a}", self._row(a, a), check))
        for a in self.table2_alphabets:
            want_x, want_y = self.table2[a]

            def check(out, a=a, want_x=want_x, want_y=want_y):
                tol = TABLE2_EXACT_TOLERANCE
                return _off(f"table2 exact a={a} I(x)", out[0], want_x, tol) + _off(
                    f"table2 exact a={a} I(y)", out[1], want_y, tol
                )

            ops.append(Op(f"table2.a{a}", self._row(a, 100), check))

        def check_series(out):
            return [
                f"series mean {label}: {got:.6f} rounds to {round(got, 3)}, not {want}"
                for label, got, want in zip(("I(x)", "I(y)"), out, self.series)
                if round(got, 3) != round(want, 3)
            ]

        ops.append(Op("figure1.series", self._series, check_series))
        return ops


class McTable(Workload):
    """The Table 2 rows that `table2 --method auto` sends to Monte Carlo."""

    name = "mc-table"
    rate = "samples_per_s"
    reference = staticmethod(reference_sampler)
    reference_s = 0.110
    span_stats = {
        "montecarlo.estimate_table": ("sum",),
        "montecarlo.estimate_average_info": ("sum",),
        "montecarlo.estimate_shaped_average_info": ("sum",),
        "montecarlo.sample": ("sum",),
        "montecarlo.info": ("sum",),
    }

    def __init__(self, seed: int, scale: str = "full", table2=TABLE2_REFERENCE):
        self.seed = seed
        self.table2 = table2
        if scale == "full":
            self.alphabets, self.samples = range(6, 11), 10**6
        else:
            self.alphabets, self.samples = range(6, 8), montecarlo.SHARD_SIZE
        self.n, self.k = 100, 1

    def _config(self, a: int) -> McConfig:
        return McConfig(
            alphabet_size=a,
            n=self.n,
            k=self.k,
            samples=self.samples,
            seed=self.seed + a,
            threads=MC_THREADS,
        )

    def _row(self, a: int):
        config = self._config(a)

        def call(tr):
            report = tr.call(
                "montecarlo.estimate_table", estimate_table, [config], method="mc"
            )[0]
            if report.method != "monte-carlo":
                raise AssertionError(f"row a={a} ran as {report.method}")
            return report

        return call

    def ops(self) -> list[Op]:
        ops = []
        for a in self.alphabets:
            want_x, want_y = self.table2[a]

            def check(out, a=a, want_x=want_x, want_y=want_y):
                tol = TABLE2_MC_TOLERANCE
                return _off(f"table2 mc a={a} I(x)", out.source_bits, want_x, tol) + _off(
                    f"table2 mc a={a} I(y)", out.shaped_bits, want_y, tol
                )

            ops.append(Op(f"table2.a{a}", self._row(a), check))
        return ops

    def work_done(self, outputs) -> int:
        """Strings sampled at n and at n+k, as the row reports state."""
        return sum(2 * out.samples for out in outputs if out is not None)

    def probe(self, tr) -> None:
        """Each row's two estimators on their own, then the sampler and the
        content calls over the same shards as the row, on one thread."""
        for a in self.alphabets:
            config = self._config(a)
            x = tr.call("montecarlo.estimate_average_info", estimate_average_info, config)
            tr.call(
                "montecarlo.estimate_shaped_average_info",
                estimate_shaped_average_info,
                config,
            )
            # The shaped estimate keeps only the strings below its cut, so
            # the strings drawn at n+k are counted from the sampler's rows.
            tr.count("montecarlo.samples", x.samples_used)
            sizes = montecarlo._shard_sizes(config.samples)
            for length in (config.n, config.n + config.k):
                for index, size in enumerate(sizes):
                    rng = shard_generator(config.seed, index)
                    counts = tr.call(
                        "montecarlo.sample", sample_compositions, rng, length, a, size
                    )
                    tr.call("montecarlo.info", info_from_counts, counts)
                    if length != config.n:
                        tr.count("montecarlo.samples", len(counts))


class StreamRoundtrip(Workload):
    """Seeded uniform blocks through shape -> encode -> decode -> unshape."""

    name = "stream-roundtrip"
    rate = "symbols_per_s"
    # Several passes per child, so one run measures more blocks than set-ups.
    passes = 3
    span_stats = {
        "compositions.build": ("sum",),
        "compositions.locate_string": ("p50",),
        "compositions.strings_before_class": ("p50",),
        "bijection.shape": ("p50", "p99"),
        "bijection.unshape": ("p50", "p99"),
        "bijection.string_rank": ("p50",),
        "bijection.string_unrank": ("p50",),
        "codec.encode": ("p50", "p99"),
        "codec.decode": ("p50", "p99"),
    }

    def __init__(self, seed: int, scale: str = "full"):
        # a=3 is the paper's headline example; a=5 is the largest alphabet
        # the default composition cap admits at n+k=101.
        self.alphabets = (3, 5)
        if scale == "full":
            self.n, self.blocks = 100, 1000
        else:
            self.n, self.blocks = 30, 10
        self.k = 1
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self.inputs = [
            (a, tuple(int(v) for v in rng.integers(0, a, size=self.n)))
            for a in self.alphabets
            for _ in range(self.blocks)
        ]
        self.orders = {}

    def setup(self, tr) -> None:
        for a in self.alphabets:
            for length in (self.n, self.n + self.k):
                self.orders[length, a] = _build(tr, length, a)

    def _block(self, a: int, x: tuple[int, ...]):
        params = ShapingParameters(a, self.n, self.k)

        def call(tr):
            y = tr.call("bijection.shape", shape, x, params)
            blob = tr.call("codec.encode", encode, y, a)
            z = tr.call("codec.decode", decode, blob, params.output_length, a)
            back = tr.call("bijection.unshape", unshape, z, params)
            return y, blob, z, back

        return call

    def _check(self, a: int, x: tuple[int, ...]):
        length = self.n + self.k

        def check(out):
            y, blob, z, back = out
            problems = []
            if back != x:
                problems.append(f"a={a} block did not round-trip")
            if z != y:
                problems.append(f"a={a} decode(encode(y)) != y")
            if len(y) != length:
                problems.append(f"a={a} shaped length {len(y)} != {length}")
            bits = encoded_bit_length(blob)
            limit = empirical_information_content(y, a) + redundancy_bound_bits(length, a)
            if bits > limit:
                problems.append(f"a={a} payload {bits} bits > bound {limit:.3f}")
            return problems

        return check

    def ops(self) -> list[Op]:
        return [
            Op(f"block.a{a}", self._block(a, x), self._check(a, x))
            for a, x in self.inputs
        ]

    def work_done(self, outputs) -> int:
        """Source symbols of the blocks that came back."""
        return sum(len(out[3]) for out in outputs if out is not None)

    def probe(self, tr) -> None:
        """Rank, unrank and the order's two queries for each block, warm."""
        length = self.n + self.k
        for a, x in self.inputs:
            counts = composition_of(x, a)
            rank = tr.call("bijection.string_rank", string_rank, x, a)
            tr.call("bijection.string_unrank", string_unrank, rank, length, a)
            tr.call(
                "compositions.strings_before_class",
                self.orders[self.n, a].strings_before_class,
                counts,
            )
            tr.call("compositions.locate_string", self.orders[length, a].locate_string, rank)

    def layer_metrics(self, outputs) -> dict[str, float]:
        """Compressed size and its excess over I(y), averaged over blocks."""
        bits, excess = [], []
        for (a, _), out in zip(self.inputs, outputs):
            if out is None:
                continue
            y, blob = out[0], out[1]
            payload = encoded_bit_length(blob)
            bits.append(payload)
            excess.append(payload - empirical_information_content(y, a))
        if not bits:
            return {}
        return {
            "codec.payload_bits_mean": math.fsum(bits) / len(bits),
            "codec.redundancy_bits_mean": math.fsum(excess) / len(excess),
        }


WORKLOADS = {w.name: w for w in (ExactTables, McTable, StreamRoundtrip)}


def _run_pass(ops: list[Op], tr, workload) -> tuple[list[float], list, list, list[float]]:
    """Run every operation once, timing each.  Between operations the
    workload's reference runs once per REFERENCE_EVERY of its own nominal
    time spent in operations (at least once a pass), so its samples weigh
    the slow and fast stretches of the pass as the work does."""
    timings, outputs, errors, references = [], [], [], []
    every, since = REFERENCE_EVERY * workload.reference_s, 0.0
    for op in ops:
        t0 = time.perf_counter()
        with tr.span("op." + op.label):
            try:
                out, err = op.call(tr), None
            except Exception as exc:  # a failed operation, counted below
                out, err = None, f"{op.label}: {exc!r}"
        timings.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
        since += timings[-1]
        while since >= every:
            references.append(workload.reference())
            since -= every
    if not references:
        references.append(workload.reference())
    return timings, outputs, errors, references


def _failures(ops: list[Op], outputs: list, errors: list[str | None]) -> list[str]:
    failures = []
    for op, out, err in zip(ops, outputs, errors):
        if err is None:
            try:
                problems = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure
                problems = [f"{op.label}: check raised {exc!r}"]
        else:
            problems = [err]
        if problems:
            failures.append("; ".join(problems))
    return failures


def execute(workload, tr, spawned_at: float) -> dict:
    """Set up, run the timed passes, check outputs; one child's result.

    `spawned_at` is the time.monotonic() reading taken just before the child
    was started, so setup_s covers interpreter start, imports and set-up.
    Each pass is one full job over the same inputs; every pass is checked.
    A pass's time is the sum of its operations' times, so the reference
    samples taken between operations are not in it.
    """
    tr.phase = "setup"
    workload.setup(tr)
    ops = workload.ops()
    setup_s = time.monotonic() - spawned_at

    tr.phase = "timed"
    walls, work, op_ms, failures, reference_s = [], [], [], [], []
    for _ in range(workload.passes):
        timings, outputs, errors, references = _run_pass(ops, tr, workload)
        walls.append(math.fsum(timings))
        work.append(workload.work_done(outputs))
        op_ms += [t * 1e3 for t in timings]
        failures += _failures(ops, outputs, errors)
        reference_s += references

    result = {
        "setup_s": setup_s,
        "reference_s": reference_s,
        "scale": workload.reference_s / statistics.fmean(reference_s),
        "wall_s": walls,
        "peak_rss_mb": max_rss_mb(),
        "attempted": len(ops) * workload.passes,
        "failed": len(failures),
        "failures": failures[:20],
        "rate": workload.rate,
        "work": work,
        "op_ms": op_ms,
    }
    if tr.enabled:
        tr.phase = "probe"
        workload.probe(tr)
        layers = workload.layer_metrics(outputs)
        layers.update(tr.counts)
        layers.update(span_metrics(tr.spans, workload.span_stats))
        for layer, seconds in layer_self_times(tr.spans).items():
            layers[f"{layer}.self_s"] = seconds / workload.passes
            layers[f"{layer}.self_pct"] = 100.0 * seconds / sum(walls)
        result["layers"] = layers
        result["spans"] = tr.spans
    return result
