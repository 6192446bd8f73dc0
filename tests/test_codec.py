"""Adaptive arithmetic codec: losslessness, code lengths, wire format."""

import hashlib
import math
import struct
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from setshaping import (
    CorruptStreamError,
    InvalidSymbolError,
    ShapingParameters,
    decode,
    empirical_information_content,
    encode,
    encoded_bit_length,
    redundancy_bound_bits,
    shaping_experiment,
)
from setshaping import codec
from setshaping.codec import FORMAT_VERSION, HEADER


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_exhaustive_binary(self, n):
        for s in product(range(2), repeat=n):
            assert decode(encode(s, 2), n=n, alphabet_size=2) == s

    def test_exhaustive_ternary_short(self):
        for n in range(0, 6):
            for s in product(range(3), repeat=n):
                assert decode(encode(s, 3)) == s

    def test_random_larger_alphabets(self):
        rng = np.random.default_rng(2)
        for a in (2, 3, 5, 17, 256):
            for _ in range(30):
                n = int(rng.integers(1, 200))
                s = rng.integers(0, a, size=n)
                assert decode(encode(s, a)) == tuple(int(v) for v in s)

    def test_empty_string(self):
        blob = encode([], 4)
        assert decode(blob) == ()
        assert encoded_bit_length(blob) == 0
        assert len(blob) == HEADER.size

    @settings(max_examples=100)
    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.lists(st.integers(min_value=0, max_value=a - 1), max_size=64),
            )
        )
    )
    def test_round_trip_property(self, case):
        a, s = case
        assert decode(encode(s, a)) == tuple(s)


class TestCodeLength:
    def test_constant_run_stays_tiny(self):
        blob = encode([0, 0, 0, 0], 2)
        assert encoded_bit_length(blob) == 3
        assert encoded_bit_length(blob) <= 4

    def test_length_tracks_adaptive_ideal(self):
        # arithmetic coding loses at most ~2 bits on top of the model's ideal
        rng = np.random.default_rng(5)
        for a in (2, 3, 5):
            for _ in range(40):
                n = int(rng.integers(1, 120))
                s = [int(v) for v in rng.integers(0, a, size=n)]
                payload = encoded_bit_length(encode(s, a))
                ideal = oracles.kt_ideal_bits(s, a)
                assert payload <= ideal + 3.0
                assert payload >= ideal - 1.0

    def test_frozen_ideal_lengths(self):
        cases = [
            ([0, 0, 0, 0], 2, 1.8707169830550336),
            ([0, 1, 0, 1, 1, 0], 2, 7.678071905112638),
            ([2, 0, 1], 3, 6.714245517666122),
            ([0] * 16, 2, 2.83701728740494),
        ]
        for s, a, ideal in cases:
            assert math.isclose(oracles.kt_ideal_bits(s, a), ideal, abs_tol=1e-9)
            assert encoded_bit_length(encode(s, a)) <= ideal + 3.0

    def test_redundancy_bound_form(self):
        assert redundancy_bound_bits(1, 5) == 4.0
        assert math.isclose(redundancy_bound_bits(1024, 3), math.log2(1024) + 4.0)

    @pytest.mark.parametrize("a,n", [(2, 64), (2, 1000), (3, 200), (5, 500)])
    def test_length_never_exceeds_info_plus_bound(self, a, n):
        rng = np.random.default_rng(a * 1000 + n)
        bound = redundancy_bound_bits(n, a)
        # include skewed strings, where info is far below n*log2(a)
        rows = [rng.integers(0, a, size=n) for _ in range(30)]
        rows.append(np.zeros(n, dtype=np.int64))
        rows.append(np.sort(rng.integers(0, a, size=n)))
        for s in rows:
            payload = encoded_bit_length(encode(s, a))
            info = empirical_information_content(s, a)
            assert payload - info <= bound


class TestWireFormat:
    def test_header_fields(self):
        s = [1, 0, 2, 2]
        blob = encode(s, 3)
        version, a, count, bits = HEADER.unpack(blob[: HEADER.size])
        assert version == FORMAT_VERSION
        assert a == 3
        assert count == 4
        assert bits == 8 * (len(blob) - HEADER.size) - (-bits % 8)
        assert math.ceil(bits / 8) == len(blob) - HEADER.size

    def test_truncated_container_detected(self):
        blob = encode([0, 1, 1, 0, 1], 2)
        for cut in range(len(blob)):
            with pytest.raises(CorruptStreamError):
                decode(blob[:cut])
            with pytest.raises(CorruptStreamError):
                encoded_bit_length(blob[:cut])

    def test_version_mismatch_detected(self):
        blob = bytearray(encode([0, 1], 2))
        blob[0] = 9
        with pytest.raises(CorruptStreamError):
            decode(bytes(blob))

    def test_declared_shape_must_match_header(self):
        blob = encode([0, 1, 1], 2)
        with pytest.raises(CorruptStreamError):
            decode(blob, n=4)
        with pytest.raises(CorruptStreamError):
            decode(blob, alphabet_size=3)

    def test_nonzero_padding_detected(self):
        blob = bytearray(encode([0, 1, 1, 0], 2))
        _, _, _, bits = HEADER.unpack(bytes(blob[: HEADER.size]))
        if bits % 8:
            blob[-1] |= 1  # flip a bit past the declared payload end
            with pytest.raises(CorruptStreamError):
                decode(bytes(blob))

    def test_zero_alphabet_detected(self):
        blob = HEADER.pack(FORMAT_VERSION, 0, 3, 0)
        with pytest.raises(CorruptStreamError):
            decode(blob)

    def test_block_past_the_coder_detected(self):
        # 2*count + a reaches 2**30, which no encoded block can
        blob = HEADER.pack(FORMAT_VERSION, 2, 2**29 - 1, 0)
        with pytest.raises(CorruptStreamError, match="cannot produce"):
            decode(blob)
        # one below the bound passes that check and fails on its missing payload
        with pytest.raises(CorruptStreamError, match="payload length"):
            decode(HEADER.pack(FORMAT_VERSION, 1, 2**29 - 1, 8))

    def test_bit_length_refuses_what_decode_refuses(self):
        # each of these once had a bit length (10, 1000, 0 and 10) though
        # decode refused it; now both refuse it with the same message
        blob = encode([0, 0, 0, 0, 1, 1, 1], 2)
        assert len(blob) == HEADER.size + 2 and encoded_bit_length(blob) == 10
        containers = [
            bytes([9]) + blob[1:],
            HEADER.pack(FORMAT_VERSION, 2, 5, 1000),
            HEADER.pack(FORMAT_VERSION, 0, 5, 0),
            blob[:-1],
        ]
        for container in containers:
            with pytest.raises(CorruptStreamError) as refused:
                decode(container)
            with pytest.raises(CorruptStreamError, match=str(refused.value)):
                encoded_bit_length(container)

    def test_encode_validates_input(self):
        with pytest.raises(InvalidSymbolError):
            encode([0, 5], 3)
        with pytest.raises(ValueError):
            encode([0, 1], 0x10000 + 1)


def _outcome(decoder, blob):
    try:
        return decoder(blob)
    except Exception as error:  # compared by type name and message
        return type(error).__name__, str(error)


@st.composite
def _strings(draw):
    a = draw(st.sampled_from([1, 2, 3, 5, 10, 300]))
    n = draw(st.integers(min_value=0, max_value=2000))
    # a skewed symbol law as well as the uniform one
    weights = draw(st.sampled_from([None, (8, 1), (1, 30, 1)]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if weights is None or a < len(weights):
        return a, rng.integers(0, a, size=n).tolist()
    p = np.array(weights + (1,) * (a - len(weights)), dtype=float)
    return a, rng.choice(a, size=n, p=p / p.sum()).tolist()


class TestReferenceCoder:
    """The coder against the one-bit-per-call reference in tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(_strings())
    def test_containers_equal_the_reference(self, case):
        a, s = case
        blob = encode(s, a)
        assert blob == oracles.reference_encode(s, a)
        assert decode(blob) == tuple(s)

    @settings(max_examples=60, deadline=None)
    @given(_strings(), st.data())
    def test_corrupt_payloads_fail_like_the_reference(self, case, data):
        a, s = case
        blob = bytearray(encode(s, a))
        payload_bits = 8 * (len(blob) - HEADER.size)
        # only payload bits: a flipped header count can declare 2**29 symbols
        if payload_bits:
            flips = st.integers(min_value=0, max_value=payload_bits - 1)
            for bit in data.draw(st.lists(flips, min_size=1, max_size=4)):
                bit += 8 * HEADER.size
                blob[bit >> 3] ^= 0x80 >> (bit & 7)
        cut = data.draw(st.integers(min_value=HEADER.size, max_value=len(blob)))
        for corrupt in (bytes(blob), bytes(blob[:cut])):
            assert _outcome(decode, corrupt) == _outcome(oracles.reference_decode, corrupt)


class TestGolden:
    # sha256 over the containers of 200 seeded blocks of 101 symbols each,
    # captured before the coder loops were rewritten
    HASHES = {
        3: "e337bcab6f92e90b761716cedb654e246edc91ad2125ffad8f04704f2e5e7ab6",
        5: "923e3c24d0520dffac233778831f95918a2ce3c641c6efdd1903031d25d66034",
    }

    @pytest.mark.parametrize("a", sorted(HASHES))
    def test_containers_unchanged(self, a):
        blocks = np.random.default_rng(a).integers(0, a, size=(200, 101))
        digest = hashlib.sha256()
        for block in blocks:
            blob = encode(block, a)
            assert decode(blob) == tuple(block.tolist())
            digest.update(blob)
        assert digest.hexdigest() == self.HASHES[a]


class TestScaling:
    def test_decode_time_is_linear_in_length(self):
        # a decoder that shifts the whole payload per symbol reads ~100x
        rng = np.random.default_rng(11)
        blobs = [encode(rng.integers(0, 3, size=n), 3) for n in (20_000, 200_000)]

        def best_time(blob):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                decode(blob)
                times.append(time.perf_counter() - start)
            return min(times)

        short, long = (best_time(blob) for blob in blobs)
        assert long <= 25 * short


class TestShapingExperiment:
    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="at least one sample"):
            shaping_experiment(ShapingParameters(3, 10, 1), samples=0)

    def test_report_is_deterministic(self):
        params = ShapingParameters(3, 10, 1)
        a = shaping_experiment(params, samples=100, seed=4)
        b = shaping_experiment(params, samples=100, seed=4)
        assert a == b

    def test_chunked_draws_give_the_whole_draw(self, monkeypatch):
        # The strings are drawn a few rows at a time from one stream; a chunk
        # of 3 rows, which does not divide the 20 samples, gives the report
        # of the default, here one whole draw.
        params = ShapingParameters(5, 12, 1)
        whole = shaping_experiment(params, samples=20, seed=3)
        monkeypatch.setattr(codec, "_DRAW_ROWS", 3)
        assert shaping_experiment(params, samples=20, seed=3).to_dict() == whole.to_dict()

    def test_seed_changes_report(self):
        params = ShapingParameters(3, 10, 1)
        a = shaping_experiment(params, samples=100, seed=4)
        b = shaping_experiment(params, samples=100, seed=5)
        assert a != b

    def test_shaping_lowers_empirical_info(self):
        params = ShapingParameters(3, 10, 1)
        report = shaping_experiment(params, samples=400, seed=0)
        assert report.mean_emp_info_shaped < report.mean_emp_info_raw
        assert report.samples == 400
        assert report.seed == 0
        assert report.alphabet_size == 3
        assert report.block_length == 10
        assert report.surplus == 1

    def test_bits_per_symbol_accounting(self):
        params = ShapingParameters(2, 8, 1)
        report = shaping_experiment(params, samples=200, seed=1)
        assert math.isclose(report.raw_bits_per_symbol, report.mean_bits_raw / 8)
        assert math.isclose(report.shaped_bits_per_symbol, report.mean_bits_shaped / 8)
        assert math.isclose(report.delta_bits, report.mean_bits_raw - report.mean_bits_shaped)

    def test_compressed_sizes_track_code_lengths(self):
        # per-sample accounting: the reported means are means of real encodings
        params = ShapingParameters(2, 6, 1)
        report = shaping_experiment(params, samples=50, seed=9)
        assert report.mean_bits_raw > 0
        assert report.mean_bits_shaped > 0
        bound = redundancy_bound_bits(6, 2)
        assert report.mean_bits_raw - report.mean_emp_info_raw <= bound
        bound_shaped = redundancy_bound_bits(7, 2)
        assert report.mean_bits_shaped - report.mean_emp_info_shaped <= bound_shaped

    @pytest.mark.parametrize(
        "args, means",
        [
            # float.hex of mean_bits_raw, mean_bits_shaped, mean_emp_info_raw
            # and mean_emp_info_shaped, as the reports held when every
            # per-sample value was kept in a list and summed by math.fsum.
            (
                (2, 6, 1, 3000, 0),
                ("0x1.0e3d70a3d70a4p+3", "0x1.1083126e978d5p+3",
                 "0x1.4cb71f552b952p+2", "0x1.61f0489722f86p+2"),
            ),
            (
                (5, 20, 2, 2500, 7),
                ("0x1.9d212d77318fcp+5", "0x1.920ebedfa43fep+5",
                 "0x1.5a206254493ecp+5", "0x1.4a5e9f11b4870p+5"),
            ),
            (
                (2, 8, 1, 50, 3),
                ("0x1.4ae147ae147aep+3", "0x1.5851eb851eb85p+3",
                 "0x1.c9eaa8a32386fp+2", "0x1.dca150002d4a4p+2"),
            ),
            ((4, 1, 1, 1, 0), ("0x1.0000000000000p+2", "0x1.4000000000000p+2", "0x0.0p+0", "0x0.0p+0")),
        ],
    )
    def test_means_keep_every_bit(self, args, means):
        a, n, k, samples, seed = args
        report = shaping_experiment(ShapingParameters(a, n, k), samples=samples, seed=seed)
        got = (
            report.mean_bits_raw,
            report.mean_bits_shaped,
            report.mean_emp_info_raw,
            report.mean_emp_info_shaped,
        )
        assert tuple(map(float.hex, got)) == means

    def test_memory_does_not_grow_with_samples(self):
        # Nothing is kept per sample: the traced peak at 5000 samples (about
        # 3 s under tracemalloc) stays near the peak at 1000.  Keeping four
        # values a sample would add about 320 kB.
        params = ShapingParameters(2, 6, 1)
        shaping_experiment(params, samples=10)
        peaks = []
        for samples in (1000, 5000):
            tracemalloc.start()
            try:
                shaping_experiment(params, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 50_000

