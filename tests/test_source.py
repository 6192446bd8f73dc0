"""Source ensemble validation and per-string information measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from setshaping import (
    InvalidSymbolError,
    ShapingParameters,
    SourceEnsemble,
    composition_of,
    decode,
    empirical_information_content,
    encode,
    information_content,
    shape,
    string_rank,
    unshape,
    validate_symbols,
)
from setshaping.source import _log_probability, literal_information_content


class TestEnsembleValidation:
    def test_uniform_constructor(self):
        ens = SourceEnsemble.uniform(4)
        assert ens.alphabet_size == 4
        assert ens.is_uniform
        assert math.isclose(sum(ens.probabilities), 1.0)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SourceEnsemble((0.5, 0.4))

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            SourceEnsemble((1.2, -0.2))

    @pytest.mark.parametrize(
        "probs",
        [
            (math.nan, 1.0),
            (0.5, math.nan, 0.5),
            (math.nan, math.nan),
            (math.nan, 0.25, math.nan, 0.75),
        ],
    )
    def test_nan_probability_rejected(self, probs):
        # every comparison with NaN is false, so a range check must not pass it
        with pytest.raises(ValueError, match="must lie in"):
            SourceEnsemble(probs)

    def test_single_symbol_alphabet_allowed(self):
        # degenerate but well defined: constant strings, zero entropy
        ens = SourceEnsemble((1.0,))
        assert ens.alphabet_size == 1
        assert ens.entropy_bits() == 0.0

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            SourceEnsemble(())
        for size in (0, -1):
            with pytest.raises(ValueError, match="at least one symbol"):
                SourceEnsemble.uniform(size)

    def test_tiny_sum_slack_accepted(self):
        # accumulation error well inside the documented tolerance
        probs = (0.1,) * 10
        ens = SourceEnsemble(probs)
        assert ens.alphabet_size == 10

    def test_entropy_of_uniform(self):
        for a in range(2, 9):
            assert math.isclose(SourceEnsemble.uniform(a).entropy_bits(), math.log2(a))

    def test_entropy_of_biased_pair(self):
        ens = SourceEnsemble((0.75, 0.25))
        expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert math.isclose(ens.entropy_bits(), expect)

    def test_zero_probability_symbol_allowed(self):
        ens = SourceEnsemble((1.0, 0.0))
        assert ens.alphabet_size == 2
        assert ens.entropy_bits() == 0.0


class TestSymbolValidation:
    def test_accepts_lists_and_arrays(self):
        out = validate_symbols([0, 1, 2], 3)
        assert out.dtype == np.int64
        assert list(out) == [0, 1, 2]

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSymbolError):
            validate_symbols([0, 3], 3)

    def test_rejects_negative(self):
        with pytest.raises(InvalidSymbolError):
            validate_symbols([-1, 0], 2)

    def test_rejects_fractional(self):
        with pytest.raises(InvalidSymbolError):
            validate_symbols(np.array([0.5, 1.0]), 2)

    def test_empty_string_is_valid(self):
        assert validate_symbols([], 2).size == 0

    def test_rejects_nested_and_non_numeric(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            validate_symbols([[0, 1]], 2)
        with pytest.raises(InvalidSymbolError, match="must be integers"):
            validate_symbols(["x"], 2)


def _outcome(call, *args):
    """What call(*args) returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args)
    except Exception as exc:  # compared whole below
        return type(exc), str(exc)


_A, _N, _K = 3, 4, 1


def _put(symbols, at, symbol):
    """symbols with the one at `at`, modulo their length, replaced by symbol."""
    at %= len(symbols)
    return [*symbols[:at], symbol, *symbols[at + 1 :]]


def _symbol_inputs():
    """Lists and tuples of in-range ints, alone or with bad symbols put in."""
    good = st.integers(0, _A - 1)
    bad = st.one_of(
        st.integers(-3, -1),
        st.integers(_A, _A + 3),
        st.just(2**70),
        st.booleans(),
        good.map(np.int64),
        good.map(float),
        st.sampled_from([0.5, 1.25, 2.75]),
        st.sampled_from(["0", "x"]),
        st.lists(good, max_size=2),
    )
    # lengths n and n + k reach shape and unshape past their length check
    lengths = st.sampled_from([0, 1, _N, _N + _K])
    strings = lengths.flatmap(lambda length: st.lists(good, min_size=length, max_size=length))
    one_bad = st.builds(_put, strings.filter(bool), st.integers(0, _N + _K), bad)
    mixed = lengths.flatmap(
        lambda length: st.lists(st.one_of(good, bad), min_size=length, max_size=length)
    )
    lists = st.one_of(strings, one_bad, mixed)
    return st.one_of(lists, lists.map(tuple))


class TestListRoute:
    """A list or tuple of ints in range skips numpy; every other input is the numpy route's."""

    @given(_symbol_inputs())
    @settings(max_examples=300, deadline=None)
    def test_block_calls_match_the_numpy_route(self, symbols):
        params = ShapingParameters(_A, _N, _K)
        calls = [
            lambda s: shape(s, params),
            lambda s: unshape(s, params),
            lambda s: string_rank(s, _A),
            lambda s: encode(s, _A),
        ]
        try:
            arr = validate_symbols(symbols, _A)
        except Exception as exc:
            refused = (type(exc), str(exc))
            for call in calls:
                assert _outcome(call, symbols) == refused
        else:
            for call in calls:
                assert _outcome(call, symbols) == _outcome(call, arr)

    def test_in_range_ints_skip_numpy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("numpy route taken")

        x = [2, 0, 1, 1]
        params = ShapingParameters(_A, _N, _K)
        rank = string_rank(np.array(x), _A)
        monkeypatch.setattr("setshaping.source.validate_symbols", refuse)
        for symbols in (x, tuple(x)):
            assert unshape(shape(symbols, params), params) == tuple(x)
            assert decode(encode(symbols, _A)) == tuple(x)
            assert string_rank(symbols, _A) == rank


class TestComposition:
    def test_counts_match_oracle(self):
        s = [0, 2, 2, 1, 0, 0]
        assert tuple(composition_of(s, 3)) == oracles.counts_of(s, 3)

    def test_counts_cover_unused_symbols(self):
        assert tuple(composition_of([0, 0], 4)) == (2, 0, 0, 0)


class TestInformationContent:
    def test_constant_string_has_zero_empirical_info(self):
        for a in (2, 5):
            assert empirical_information_content([0] * 7, a) == 0.0

    def test_empirical_matches_oracle_on_examples(self):
        cases = [([0, 1], 2), ([0, 1, 1], 2), ([2, 0, 1, 1, 2, 2], 3)]
        for s, a in cases:
            got = empirical_information_content(s, a)
            assert math.isclose(got, oracles.empirical_info(s, a), abs_tol=1e-12)

    def test_literal_uniform_is_length_times_log(self):
        ens = SourceEnsemble.uniform(3)
        assert math.isclose(literal_information_content(ens, [0, 1, 2, 1]), 4 * math.log2(3))

    def test_literal_matches_oracle_on_biased_source(self):
        ens = SourceEnsemble((0.5, 0.25, 0.25))
        s = [0, 1, 2, 0, 0]
        got = literal_information_content(ens, s)
        assert math.isclose(got, oracles.literal_info(s, ens.probabilities), abs_tol=1e-12)

    def test_literal_rejects_visited_zero_probability_symbol(self):
        ens = SourceEnsemble((1.0, 0.0))
        with pytest.raises(InvalidSymbolError):
            literal_information_content(ens, [0, 1])
        # unvisited zero-probability symbols are fine
        assert literal_information_content(ens, [0, 0]) == 0.0

    def test_empty_string_has_no_content(self):
        with pytest.raises(ValueError, match="nonempty"):
            literal_information_content(SourceEnsemble.uniform(2), [])
        with pytest.raises(ValueError, match="nonempty"):
            empirical_information_content([], 2)

    def test_dispatch_selects_interpretation(self):
        ens = SourceEnsemble((0.75, 0.25))
        s = [0, 0, 1]
        emp = information_content(ens, s, interpretation="empirical")
        lit = information_content(ens, s, interpretation="literal")
        assert math.isclose(emp, oracles.empirical_info(s, 2), abs_tol=1e-12)
        assert math.isclose(lit, oracles.literal_info(s, ens.probabilities), abs_tol=1e-12)
        with pytest.raises(ValueError, match="unknown interpretation 'typo'"):
            information_content(ens, s, interpretation="typo")

    def test_string_probability(self):
        # every string of a class is equally likely: one log-probability per class
        ens = SourceEnsemble((0.75, 0.25))
        s = [0, 0, 1]
        counts = composition_of(s, 2)
        got = math.exp(_log_probability(ens.probabilities, counts))
        assert math.isclose(got, 0.75 * 0.75 * 0.25)
        assert math.isclose(got, oracles.string_probability(ens.probabilities, s))

    def test_literal_content_keeps_the_bits_of_a_running_difference(self):
        # 0.0 less the summed bits is, bit for bit, each term taken from 0.0
        # in turn; a string of a probability-1 symbol gives 0.0, not -0.0.
        rng = np.random.default_rng(5)
        cases = [((1.0, 0.0), [0, 0, 0]), ((0.0, 1.0), [1])]
        for a in (2, 3, 5, 9):
            probs = tuple(rng.dirichlet(np.ones(a)).tolist())
            cases.append((probs, rng.integers(0, a, size=int(rng.integers(1, 40))).tolist()))
        for probs, s in cases:
            want = 0.0
            for p, c in zip(probs, composition_of(s, len(probs))):
                if c:
                    want -= c * math.log2(p)
            got = float(literal_information_content(SourceEnsemble(probs), s))
            assert got.hex() == want.hex()

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.lists(st.integers(min_value=0, max_value=a - 1), min_size=1, max_size=24),
            )
        )
    )
    def test_empirical_matches_oracle(self, case):
        a, s = case
        got = empirical_information_content(s, a)
        assert math.isclose(got, oracles.empirical_info(s, a), abs_tol=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_empirical_is_permutation_invariant(self, s, rnd):
        shuffled = list(s)
        rnd.shuffle(shuffled)
        assert math.isclose(
            empirical_information_content(s, 3),
            empirical_information_content(shuffled, 3),
            abs_tol=1e-9,
        )

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30))
    def test_empirical_bounded_by_literal_uniform(self, s):
        # a string described by its own frequencies never costs more than
        # the uniform-coding price n*log2(a)
        emp = empirical_information_content(s, 4)
        assert -1e-9 <= emp <= len(s) * math.log2(4) + 1e-9
