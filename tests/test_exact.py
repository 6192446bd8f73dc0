"""Exact mean information content, the shaping cut, and rank series."""

import hashlib
import math
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from setshaping import (
    AverageReport,
    ClassOrder,
    ResourceLimitError,
    SourceEnsemble,
    average_info_exact,
    class_order,
    multinomial,
    rank_info_series,
    shaped_average_info,
    shaped_average_info_exact,
)
from setshaping import compositions
from test_acceptance import TABLE2_REFERENCE
from test_compositions import classes, counted_walks, head, info_at

# brute-force means, frozen from full string enumeration (n = a, k = 1)
UNIFORM_GRID = {
    2: (1.0, 1.3774437510817341),
    3: (2.8932333352564163, 2.8845444425213618),
    4: (5.295958593344349, 5.049574215401134),
    5: (8.069813849123864, 7.70802116871702),
}

# brute-force means at a=3, n=10, k=1, frozen from 3**10 / 3**11 enumerations
SERIES_MEAN_X = 14.262958859199115
SERIES_MEAN_Y = 14.136160870893569


def _head_mean(n, a, count):
    """Plain mean content of the first count strings of the order of (n, a).

    The reference the uniform shaped mean is checked against: a sum over
    the tie groups of the complete order, not over symbol-count tallies.
    """
    infos, taken = head(n, a, count)
    # Past 2**960 strings, scale the counts by an exact power of two so that
    # strings*info stays in float range; binary scaling changes no bit of a
    # mean that is finite without it.
    scale = 1 << max(count.bit_length() - 960, 0)
    terms = [strings / scale * float(info) for strings, info in zip(taken, infos)]
    return math.fsum(terms) / (count / scale)


class TestAverageInfoExact:
    def test_block_length_checked(self):
        for interpretation in ("empirical", "literal"):
            with pytest.raises(ValueError, match="block length must be positive"):
                average_info_exact(SourceEnsemble.uniform(3), 0, interpretation)
            with pytest.raises(TypeError):
                average_info_exact(SourceEnsemble.uniform(3), 100.0, interpretation)

    def test_numpy_integer_sizes(self):
        # an int64 n once overflowed in the binomial weights and gave 769.6
        # bits; every size is read as a plain int, so the means are the same
        uniform, biased = SourceEnsemble.uniform(3), SourceEnsemble((0.6, 0.4))
        wide = np.int64
        assert average_info_exact(uniform, wide(100)) == average_info_exact(uniform, 100)
        assert shaped_average_info_exact(wide(3), wide(100), wide(1)) == (
            shaped_average_info_exact(3, 100, 1)
        )
        assert shaped_average_info(biased, wide(40), wide(1)) == shaped_average_info(biased, 40, 1)
        got, want = rank_info_series(wide(3), wide(8), wide(1)), rank_info_series(3, 8, 1)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        with pytest.raises(TypeError):
            shaped_average_info_exact(3, 10.0, 1)

    @pytest.mark.parametrize("a", sorted(UNIFORM_GRID))
    def test_uniform_grid_matches_brute_force(self, a):
        got = average_info_exact(SourceEnsemble.uniform(a), a)
        assert math.isclose(got, UNIFORM_GRID[a][0], abs_tol=1e-12)

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_uniform_matches_string_enumeration(self, a, n):
        got = average_info_exact(SourceEnsemble.uniform(a), n)
        want = oracles.mean_empirical_info(n, a)
        assert math.isclose(got, want, abs_tol=1e-9)

    def test_biased_source_matches_weighted_oracle(self):
        for probs, n in [((0.7, 0.3), 6), ((0.5, 0.25, 0.25), 5), ((0.9, 0.1), 4)]:
            ens = SourceEnsemble(probs)
            got = average_info_exact(ens, n)
            want = oracles.weighted_mean_info(n, probs, lambda s: oracles.empirical_info(s, len(probs)))
            assert math.isclose(got, want, abs_tol=1e-9)

    def test_literal_uniform_is_exact_constant(self):
        for a, n in [(2, 7), (3, 10), (5, 100)]:
            got = average_info_exact(SourceEnsemble.uniform(a), n, interpretation="literal")
            assert got == n * math.log2(a)

    def test_literal_biased_matches_weighted_oracle(self):
        probs = (0.7, 0.3)
        ens = SourceEnsemble(probs)
        got = average_info_exact(ens, 6, interpretation="literal")
        want = oracles.weighted_mean_info(6, probs, lambda s: oracles.literal_info(s, probs))
        assert math.isclose(got, want, abs_tol=1e-9)

    def test_cap_guards_the_walks_not_the_mean(self, monkeypatch):
        # A byte budget of 0 refuses every partition walk, while the mean, a
        # binomial sum, walks none
        sources = (SourceEnsemble.uniform(3), SourceEnsemble((0.5, 0.3, 0.2)))
        want = [average_info_exact(ens, 9) for ens in sources]
        monkeypatch.setattr(compositions, "WALK_BYTE_BUDGET", 0)
        monkeypatch.setattr(compositions, "_ORDER_CACHE", {})
        assert [average_info_exact(ens, 9) for ens in sources] == want
        with pytest.raises(ResourceLimitError):
            ClassOrder(9, 3)
        with pytest.raises(ResourceLimitError):
            compositions.top_tallies(9, 3, 1)

    def test_table2_source_column_past_the_cap_walks_no_partition(self, monkeypatch):
        # the source column of Table 2 is a binomial sum at every alphabet
        walks = counted_walks(monkeypatch)
        for a in range(6, 11):
            got = average_info_exact(SourceEnsemble.uniform(a), 100)
            assert abs(got - TABLE2_REFERENCE[a][0]) <= 0.05, a
        assert walks == []

    def test_interpretation_validated(self):
        with pytest.raises(ValueError):
            average_info_exact(SourceEnsemble.uniform(2), 3, interpretation="nope")

    def test_long_uniform_block(self):
        # frozen from an exact 40-digit binomial-marginal computation
        want = {
            2: 99.27499633579985,
            3: 157.0437100451718,
            4: 197.81730510127233,
            5: 229.27724700987961,
        }
        for a, value in want.items():
            got = average_info_exact(SourceEnsemble.uniform(a), 100)
            assert math.isclose(got, value, abs_tol=1e-9)

    def test_builds_no_class_order(self, monkeypatch):
        monkeypatch.setattr(compositions, "_ORDER_CACHE", {})
        for probs in ((0.2,) * 5, (0.1, 0.2, 0.3, 0.4)):
            for interpretation in ("empirical", "literal"):
                average_info_exact(SourceEnsemble(probs), 60, interpretation)
        assert compositions._ORDER_CACHE == {}

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4).filter(any),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["empirical", "literal"]),
    )
    def test_matches_class_walk(self, weights, n, interpretation):
        # integer weights give probability vectors with exact 0.0 and 1.0 entries
        probs = tuple(w / sum(weights) for w in weights)
        got = average_info_exact(SourceEnsemble(probs), n, interpretation)
        want = oracles.class_walk_mean(n, probs, interpretation)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_matches_class_walk_at_length_80(self):
        probs = (0.1, 0.2, 0.3, 0.4)
        got = average_info_exact(SourceEnsemble(probs), 80)
        assert math.isclose(got, oracles.class_walk_mean(80, probs), rel_tol=1e-12)

    def test_beyond_float_range(self):
        # 2**1101 strings: the binomial weights are exact integers, so the
        # mean stays finite where a**n does not fit a float
        got = average_info_exact(SourceEnsemble.uniform(2), 1101)
        assert 1100 < got < 1101


class TestShapedAverage:
    @pytest.mark.parametrize("a", sorted(UNIFORM_GRID))
    def test_uniform_grid_matches_brute_force(self, a):
        got = shaped_average_info_exact(a, a, 1)
        assert math.isclose(got, UNIFORM_GRID[a][1], abs_tol=1e-12)

    @pytest.mark.parametrize("a,n,k", [(2, 5, 1), (2, 4, 2), (3, 4, 1), (3, 3, 2), (4, 3, 1)])
    def test_matches_string_enumeration(self, a, n, k):
        got = shaped_average_info_exact(a, n, k)
        want = oracles.shaped_mean_info(n, a, k)
        assert math.isclose(got, want, abs_tol=1e-9)

    @pytest.mark.parametrize("a,n,k", [(2, 6, 1), (3, 5, 1), (4, 4, 2)])
    def test_general_route_agrees_on_uniform_sources(self, a, n, k):
        # the uniform source goes to shaped_average_info_exact; check it
        # against the exact-mass oracle and the sum over the full order's head
        got = shaped_average_info(SourceEnsemble.uniform(a), n, k)
        want = oracles.shaped_source_mean(n, k, (1 / a,) * a)
        assert math.isclose(got, want, rel_tol=1e-12)
        assert math.isclose(got, _head_mean(n + k, a, a**n), rel_tol=1e-14)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3),
    )
    def test_top_route_matches_the_head_of_the_full_order(self, a, n, k):
        got = shaped_average_info_exact(a, n, k)
        assert math.isclose(got, _head_mean(n + k, a, a**n), rel_tol=1e-14)
        if a ** (n + k) <= 3**9:
            assert math.isclose(got, oracles.shaped_mean_info(n, a, k), rel_tol=1e-12)

    # a**k up to 2**11 and blocks of one symbol, whose shaped mean is 0:
    # each mean takes one bounded walk and caches no class order.
    @pytest.mark.parametrize(
        "a, n, k",
        [
            (4, 3, 3),
            (6, 2, 3),
            (2, 6, 7),
            (4, 3, 4),
            (2, 4, 8),
            (32, 1, 2),
            (33, 1, 2),
            (2, 3, 11),
            (2, 12, 11),
        ],
    )
    def test_one_bounded_walk_and_no_cached_order(self, monkeypatch, a, n, k):
        monkeypatch.setattr(compositions, "_ORDER_CACHE", {})
        limits = []
        walk = compositions._partition_rows
        monkeypatch.setattr(
            compositions, "_partition_rows", lambda *args: limits.append(args[2:]) or walk(*args)
        )
        got = shaped_average_info_exact(a, n, k)
        assert len(limits) == 1 and limits[0] != ()
        assert compositions._ORDER_CACHE == {}
        if a ** (n + k) <= 2**16:
            want = oracles.shaped_mean_info(n, a, k)
            assert math.isclose(got, want, rel_tol=1e-12) and got >= 0.0
        assert math.isclose(got, _head_mean(n + k, a, a**n), rel_tol=1e-14)

    def test_long_binary_block_is_pinned(self):
        # one bounded walk at n+k = 5001, which keeps 59 rows and
        # tabulates no power or factorial of every count up to 5001
        assert shaped_average_info_exact(2, 5000, 1) == 4999.660094087761

    def test_table2_rows_build_no_class_order(self, monkeypatch):
        monkeypatch.setattr(compositions, "_ORDER_CACHE", {})
        for a in range(2, 6):
            shaped_average_info_exact(a, 100, 1)
        assert compositions._ORDER_CACHE == {}

    def test_top_route_work_is_bounded(self, monkeypatch):
        # rows kept by the bounded walks at n+k=101, a=5, against 48,006
        # partitions in the full order
        kept = []
        walk = compositions._partition_rows

        def counting_walk(n, a, limit=None):
            rows = walk(n, a, limit)
            kept.append(len(rows))
            return rows

        monkeypatch.setattr(compositions, "_partition_rows", counting_walk)
        shaped_average_info_exact(5, 100, 1)
        assert 0 < sum(kept) < 5000

    def test_table2_rows_take_one_walk(self, monkeypatch):
        # the first limit holds the left-out strings at every alphabet
        monkeypatch.setattr(compositions, "_ORDER_CACHE", {})
        limits = []
        walk = compositions._partition_rows
        monkeypatch.setattr(
            compositions, "_partition_rows", lambda *args: limits.append(args[2:]) or walk(*args)
        )
        for a in range(2, 11):
            limits.clear()
            shaped_average_info_exact(a, 100, 1)
            assert len(limits) == 1 and limits[0] != (), a
        assert compositions._ORDER_CACHE == {}

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [1, 2])
    def test_selection_never_beats_the_full_mean(self, a, n, k):
        # the selected strings are the lowest fraction of the longer blocks
        shaped = shaped_average_info_exact(a, n, k)
        full = average_info_exact(SourceEnsemble.uniform(a), n + k)
        assert shaped <= full + 1e-12

    def test_literal_shaped_mean_is_constant(self):
        ens = SourceEnsemble.uniform(3)
        got = shaped_average_info(ens, 4, 1, interpretation="literal")
        assert math.isclose(got, 5 * math.log2(3), abs_tol=1e-12)

    def test_literal_uniform_shaped_mean_walks_no_partition(self, monkeypatch):
        # a**(n+k) = 10**101 strings: the constant needs no order
        walks = []
        walk = compositions._partition_rows
        monkeypatch.setattr(
            compositions, "_partition_rows", lambda *args: walks.append(args) or walk(*args)
        )
        got = shaped_average_info(SourceEnsemble.uniform(10), 100, 1, interpretation="literal")
        assert got == 101 * math.log2(10)
        assert walks == []

    def test_beyond_float_range(self):
        # 2**1100 selected strings of 2**1101: the count is past float range
        got = shaped_average_info_exact(2, 1100, 1)
        assert math.isfinite(got)
        assert got <= average_info_exact(SourceEnsemble.uniform(2), 1101)

    # At n=1100 classes hold up to comb(1100, 550) ~ 2**1096 strings, past
    # float range, and string probabilities fall to 0.4**1100 ~ 2**-1454.
    @pytest.mark.parametrize(
        "probs, n, k",
        [((0.5, 0.3, 0.2), 6, 2), ((0.1, 0.2, 0.3, 0.4), 5, 1), ((0.6, 0.4), 1100, 1)],
    )
    @pytest.mark.parametrize("interpretation", ["empirical", "literal"])
    def test_source_matches_exact_oracle(self, probs, n, k, interpretation):
        got = shaped_average_info(SourceEnsemble(probs), n, k, interpretation)
        want = oracles.shaped_source_mean(n, k, probs, interpretation)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_scaling_changes_no_bit(self):
        # 2**1000 strings get scaled by 2**-40; every product stays in float
        # range unscaled too, and the two means agree bit for bit
        infos, taken = head(1001, 2, 2**1000)
        plain = math.fsum([float(s) * float(i) for s, i in zip(taken, infos)])
        assert math.isfinite(plain)
        assert _head_mean(1001, 2, 2**1000) == plain / float(2**1000)

    @pytest.mark.parametrize("n, k", [(0, 1), (3, 0)])
    def test_shape_parameters_validated_for_every_source(self, n, k):
        # the shaping instance is checked by ShapingParameters, with its messages
        message = "block length" if n < 1 else "length surplus"
        for ens in (SourceEnsemble.uniform(3), SourceEnsemble((0.5, 0.3, 0.2))):
            for interpretation in ("empirical", "literal"):
                with pytest.raises(ValueError, match=f"{message} must be positive"):
                    shaped_average_info(ens, n, k, interpretation)


class TestSelectionBoundary:
    """The cut after a**n strings of the length-(n+k) order, from rank queries and tie groups."""

    CASES = [(2, 3, 1), (2, 4, 2), (3, 2, 1), (3, 4, 1), (4, 2, 1)]

    def test_split_class_case(self):
        order = class_order(3, 2)
        counts, offset = order.locate_string(2**2 - 1)
        assert counts == (1, 2)
        assert offset + 1 == 2 < multinomial(counts)
        whole = takewhile(lambda pair: pair[0] != counts, classes(3, 2))
        assert [c for c, _ in whole] == [(0, 3), (3, 0)]
        assert math.isclose(info_at(3, 2, 3), 3 * math.log2(3) - 2, abs_tol=1e-12)
        assert math.isclose(info_at(3, 2, 4), 3 * math.log2(3) - 2, abs_tol=1e-12)

    def test_clean_cut_case(self):
        order = class_order(4, 3)
        counts, offset = order.locate_string(3**3 - 1)
        assert offset + 1 == multinomial(counts)
        whole = takewhile(lambda pair: pair[0] != counts, classes(4, 3))
        assert sum(size for _, size in whole) + multinomial(counts) == 27

    def test_selected_counts_add_up(self):
        for a, n, k in self.CASES:
            order = class_order(n + k, a)
            counts, offset = order.locate_string(a**n - 1)
            whole = takewhile(lambda pair: pair[0] != counts, classes(n + k, a))
            assert sum(size for _, size in whole) + offset + 1 == a**n

    def test_max_selected_never_exceeds_min_complement(self):
        for a, n, k in self.CASES:
            assert info_at(n + k, a, a**n - 1) <= info_at(n + k, a, a**n) + 1e-12

    def test_complement_min_matches_brute_force(self):
        cases = {
            (2, 2, 1): 2.7548875021634682,
            (3, 3, 1): 4.0,
            (2, 3, 1): 3.2451124978365318,
            (2, 4, 2): 5.5097750043269365,
        }
        for (a, n, k), want in cases.items():
            assert math.isclose(info_at(n + k, a, a**n), want, abs_tol=1e-12)
            assert math.isclose(oracles.complement_min_info(n, a, k), want, abs_tol=1e-12)


class TestRankSeries:
    def test_frozen_scenario_means(self):
        xs, ys = rank_info_series(3, 10, 1)
        assert xs.shape == ys.shape == (3**10,)
        assert math.isclose(float(xs.mean()), SERIES_MEAN_X, abs_tol=1e-9)
        assert math.isclose(float(ys.mean()), SERIES_MEAN_Y, abs_tol=1e-9)

    def test_both_series_nondecreasing(self):
        xs, ys = rank_info_series(3, 10, 1)
        assert np.all(np.diff(xs) >= -1e-12)
        assert np.all(np.diff(ys) >= -1e-12)

    def test_difference_changes_sign(self):
        xs, ys = rank_info_series(3, 10, 1)
        diff = ys - xs
        assert float(diff.min()) < 0 < float(diff.max())

    def test_values_match_string_enumeration(self):
        xs, ys = rank_info_series(2, 4, 1)
        x_strings = oracles.all_strings_sorted(4, 2)
        y_strings = oracles.all_strings_sorted(5, 2)[: 2**4]
        for r in range(2**4):
            assert math.isclose(float(xs[r]), oracles.empirical_info(x_strings[r], 2), abs_tol=1e-12)
            assert math.isclose(float(ys[r]), oracles.empirical_info(y_strings[r], 2), abs_tol=1e-12)

    def test_series_limit_enforced(self):
        with pytest.raises(ResourceLimitError):
            rank_info_series(10, 10, 1)


class TestAverageReport:
    def test_diff_and_round_trip(self):
        r = AverageReport(3, 100, 1, 157.05, 157.03, method="exact")
        assert math.isclose(r.diff_bits, 0.02)
        d = r.to_dict()
        assert d["alphabet_size"] == 3
        assert d["method"] == "exact"
        assert d["source_stderr"] is None
        assert math.isclose(d["diff_bits"], 0.02)


class TestGolden:
    """Exact values pinned to their reprs and array hashes.

    Series and non-uniform shaped means are pinned bit for bit.  The
    UNIFORM reprs are those of the former class-walk summation and of the
    full order's head, kept as reference values: the binomial sum agrees
    with them to a relative 1e-12 (measured: at most 1 ulp on UNIFORM, at
    most 10 ulps or 1.3e-15 relative on SOURCES), and so does the uniform
    shaped mean from the symbol-count tallies (measured: at most 1 ulp or
    1.6e-16 relative).
    """

    # (a, n) -> (average_info_exact, shaped_average_info_exact at k=1)
    UNIFORM = {
        (2, 2): ("1.0", "1.3774437510817341"),
        (3, 3): ("2.8932333352564163", "2.8845444425213618"),
        (4, 4): ("5.295958593344349", "5.049574215401134"),
        (5, 5): ("8.069813849123863", "7.70802116871702"),
        (6, 6): ("11.137216137988704", "10.222651001192737"),
        (7, 7): ("14.447856311950293", "13.387108465219288"),
        (2, 100): ("99.27499633579981", "99.65738146443685"),
        (3, 100): ("157.04371004517174", "157.0335905213672"),
        (4, 100): ("197.81730510127227", "197.3388921135029"),
        (5, 100): ("229.27724700987955", "228.32641401775854"),
    }
    # (a, n, k) -> sha256 of the two float64 series
    SERIES = {
        (3, 10, 1): (
            "12491fcfa21e53ac1753b039e91d52bc4d11d3d48fafd79540002b1536feb8fc",
            "79f25455ea775e610901d320d6bde525f3bc9eb2aa2fff88facef3afac2a6c0a",
        ),
        (2, 12, 2): (
            "30d2b5648903dbcd9e44931c2115bf092bf930f961bd388bf7a787f60d3e51cc",
            "6ebcd126764ff6465fb2a2e20d32f9a015a74b03aedd837058ff673ebd514a47",
        ),
        (4, 6, 3): (
            "f51b887a2fe79c83bb9aa513d4b33674670cfa1c0db86db79b4e454c52c93926",
            "ecb09d0e719ce232b09147211aee4d5471fbe9f720c4e05a785d686843e8cadb",
        ),
    }
    # (probabilities, interpretation) -> (average at n=9, shaped at n=6, k=2)
    SOURCES = {
        ((0.5, 0.3, 0.2), "empirical"): ("11.727932772114842", "6.948848070178815"),
        ((0.5, 0.3, 0.2), "literal"): ("13.36927767504601", "13.752781558953407"),
        ((0.7, 0.3, 0.0), "empirical"): ("7.133160586913857", "5.052144061394016"),
        ((0.7, 0.3, 0.0), "literal"): ("7.931618093076227", "inf"),
        ((0.1, 0.2, 0.3, 0.4), "empirical"): ("14.12626793538073", "8.000284266070606"),
        ((0.1, 0.2, 0.3, 0.4), "literal"): ("16.617954102039146", "16.670125314750493"),
    }

    @pytest.mark.parametrize("a, n", sorted(UNIFORM))
    def test_uniform_means(self, a, n):
        source, shaped = self.UNIFORM[a, n]
        got = average_info_exact(SourceEnsemble.uniform(a), n)
        assert math.isclose(got, float(source), rel_tol=1e-12)
        got = shaped_average_info_exact(a, n, 1)
        assert math.isclose(got, float(shaped), rel_tol=1e-12)

    @pytest.mark.parametrize("a, n, k", sorted(SERIES))
    def test_rank_series(self, a, n, k):
        xs, ys = rank_info_series(a, n, k)
        assert xs.dtype == ys.dtype == np.float64
        got = tuple(hashlib.sha256(v.tobytes()).hexdigest() for v in (xs, ys))
        assert got == self.SERIES[a, n, k]

    @pytest.mark.parametrize("probs, interpretation", sorted(SOURCES))
    def test_source_means(self, probs, interpretation):
        ens = SourceEnsemble(probs)
        source, shaped = self.SOURCES[probs, interpretation]
        got = average_info_exact(ens, 9, interpretation)
        assert math.isclose(got, float(source), rel_tol=1e-12)
        assert repr(shaped_average_info(ens, 6, 2, interpretation)) == shaped
