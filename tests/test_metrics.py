"""Balance, compression, trade-off, run-length, and error-rate metrics."""

import json
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitbpe import (
    ContractError,
    Distribution,
    MergeTable,
    TrainOptions,
    analyze,
    bit_increase,
    compression,
    corpus_run_length_mean,
    edge_case_probability,
    edit_distance,
    entropy,
    error_rate,
    normalized_entropy,
    read_corpus,
    reduction,
    run_length_stats,
    token_distribution,
    train,
)
from tests.conftest import random_corpus


class TestDistribution:
    def test_relative_frequencies(self):
        d = token_distribution([(0, 0, 1, 1)], vocab_size=2)
        assert d.mass == {0: 0.5, 1: 0.5}
        assert d.support_size == 2

    def test_zero_count_ids_carry_zero_mass(self):
        d = token_distribution([(0, 0, 0, 1)], vocab_size=3)
        assert d.mass == {0: 0.75, 1: 0.25}
        assert d.support_size == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            token_distribution([()], vocab_size=4)

    def test_vocab_size_must_cover_ids(self):
        with pytest.raises(ContractError):
            token_distribution([(5,)], vocab_size=5)

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ContractError):
            Distribution({0: 0.6, 1: 0.6}, 2)

    @pytest.mark.parametrize(
        "mass, support, message",
        [
            ({}, 0, "support_size must be positive"),
            ({0: 1.5, 1: -0.5}, 2, "negative probability for id 1"),
            ({0: 0.5, 2: 0.5}, 2, "id 2 outside support of size 2"),
            ({0: 0.6, 1: 0.6}, 2, "probabilities sum to 1.2, not 1"),
        ],
        ids=["empty-support", "negative-mass", "id-outside-support", "sum-not-1"],
    )
    def test_contract_error_text(self, mass, support, message):
        with pytest.raises(ContractError) as err:
            Distribution(mass, support)
        assert type(err.value) is ContractError
        assert str(err.value) == message


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        for k in (2, 4, 7, 64):
            d = Distribution({i: 1 / k for i in range(k)}, k)
            assert abs(normalized_entropy(d) - 1.0) <= 1e-12

    def test_point_mass_is_zero(self):
        d = Distribution({3: 1.0}, 8)
        assert normalized_entropy(d) == 0.0

    def test_hand_computed_value(self):
        d = Distribution({0: 0.5, 1: 0.25, 2: 0.25}, 3)
        assert entropy(d) == pytest.approx(1.5)
        assert normalized_entropy(d) == pytest.approx(1.5 / math.log2(3))

    def test_support_below_two_rejected(self):
        with pytest.raises(ContractError):
            normalized_entropy(Distribution({0: 1.0}, 1))

    @settings(max_examples=100)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=20), st.randoms(use_true_random=False))
    def test_bounded_and_permutation_invariant(self, weights, rng):
        total = sum(weights)
        probs = [w / total for w in weights]
        d = Distribution(dict(enumerate(probs)), len(probs))
        value = normalized_entropy(d)
        assert 0.0 <= value <= 1.0
        shuffled = probs[:]
        rng.shuffle(shuffled)
        d2 = Distribution(dict(enumerate(shuffled)), len(shuffled))
        assert normalized_entropy(d2) == pytest.approx(value, abs=1e-12)


class TestCompressionAccounting:
    def test_reduction_value(self):
        assert reduction(872, 300) == pytest.approx(2.9067, abs=1e-4)

    def test_reduction_identity_and_contract(self):
        assert reduction(5.0, 5.0) == 1.0
        with pytest.raises(ContractError):
            reduction(5.0, 0.0)

    def test_bit_increase_values(self):
        assert bit_increase(84, 2048) == pytest.approx(11 / math.log2(84))
        assert bit_increase(1003, 16384) == pytest.approx(14 / math.log2(1003))
        assert bit_increase(64, 64) == 1.0

    def test_bit_increase_contracts(self):
        with pytest.raises(ContractError):
            bit_increase(1, 8)
        with pytest.raises(ContractError):
            bit_increase(8, 4)

    def test_compression_is_quotient(self):
        assert compression(1.0, 1.0) == 1.0
        assert compression(2.90, bit_increase(84, 2048)) == pytest.approx(1.69, abs=0.01)
        assert compression(3.20, bit_increase(1003, 16384)) == pytest.approx(2.27, abs=0.01)
        with pytest.raises(ContractError):
            compression(0.0, 1.0)


class TestEdgeCaseProbability:
    def test_representative_operating_points(self):
        assert edge_case_probability(0.00097, 872) == pytest.approx(0.4290, abs=0.0015)
        assert edge_case_probability(0.0014, 300) == pytest.approx(0.6569, abs=0.0015)

    def test_endpoints(self):
        assert edge_case_probability(0.0, 10**9) == 1.0
        assert edge_case_probability(0.3, 0) == 1.0
        assert edge_case_probability(1.0, 1) == 0.0

    def test_large_n_stays_stable(self):
        p = edge_case_probability(1e-9, 10**9)
        assert p == pytest.approx(math.exp(-1.0000000005), rel=1e-9)
        # extreme exponents underflow cleanly to zero instead of erroring
        assert edge_case_probability(1e-9, 10**15) == 0.0

    @settings(max_examples=100)
    @given(st.floats(0, 1), st.integers(0, 10**6))
    def test_monotone_in_both_arguments(self, eps, n):
        p = edge_case_probability(eps, n)
        assert 0.0 <= p <= 1.0
        if eps < 0.999:
            assert edge_case_probability(min(1.0, eps + 0.001), n) <= p
        assert edge_case_probability(eps, n + 1) <= p

    def test_contracts(self):
        with pytest.raises(ContractError):
            edge_case_probability(-0.1, 5)
        with pytest.raises(ContractError):
            edge_case_probability(0.5, -1)


class TestRunLengths:
    def test_hand_enumeration(self):
        stats = run_length_stats((7, 7, 7, 8, 8, 9))
        assert stats.runs == ((7, 3), (8, 2), (9, 1))
        assert stats.mean_run == 2.0
        assert stats.max_run == 3
        assert stats.repetition_fraction == pytest.approx(0.5)

    def test_all_distinct(self):
        stats = run_length_stats((1, 2, 3, 4))
        assert stats.mean_run == 1.0
        assert stats.repetition_fraction == 0.0

    def test_repetition_heavy_shape(self):
        # runs of 3, 4, 5, 2 over four units
        seq = (0,) * 3 + (1,) * 4 + (2,) * 5 + (3,) * 2
        stats = run_length_stats(seq)
        assert [length for _, length in stats.runs] == [3, 4, 5, 2]
        assert stats.max_run == 5

    def test_empty_sequence(self):
        stats = run_length_stats(())
        assert stats.runs == ()
        assert stats.mean_run is None

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_run_lengths_partition_the_sequence(self, seq):
        stats = run_length_stats(seq)
        assert sum(length for _, length in stats.runs) == len(seq)

    def test_pooled_mean_over_sequences(self):
        assert corpus_run_length_mean([(1, 1), (2, 2, 3)]) == pytest.approx(5 / 3)
        assert corpus_run_length_mean([()]) is None


def brute_force_distance(a: tuple, b: tuple) -> int:
    @lru_cache(maxsize=None)
    def rec(x: tuple, y: tuple) -> int:
        if not x:
            return len(y)
        if not y:
            return len(x)
        return min(
            rec(x[1:], y[1:]) + (x[0] != y[0]),
            rec(x[1:], y) + 1,
            rec(x, y[1:]) + 1,
        )

    return rec(a, b)


class TestEditDistance:
    def test_identical_sequences(self):
        assert edit_distance("abc", "abc") == (0, 0, 0, 0)
        assert error_rate("abc", "abc") == 0.0

    def test_mixed_operations(self):
        d = edit_distance(["a", "b", "c", "d"], ["a", "x", "c"])
        assert d.distance == 2
        assert (d.substitutions, d.insertions, d.deletions) == (1, 0, 1)
        assert error_rate(["a", "b", "c", "d"], ["a", "x", "c"]) == 0.5

    def test_empty_hypothesis(self):
        d = edit_distance("abc", "")
        assert d == (3, 0, 0, 3)
        assert error_rate("abc", "") == 1.0

    def test_empty_reference_flagged_undefined(self):
        assert error_rate("", "xy") is None
        assert error_rate("", "") == 0.0

    def test_counts_always_sum_to_distance(self):
        rng = random.Random(17)
        for _ in range(200):
            a = [rng.randint(0, 3) for _ in range(rng.randint(0, 10))]
            b = [rng.randint(0, 3) for _ in range(rng.randint(0, 10))]
            d = edit_distance(a, b)
            assert d.distance == d.substitutions + d.insertions + d.deletions
            assert d.distance == brute_force_distance(tuple(a), tuple(b))

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(0, 3), max_size=8),
        st.lists(st.integers(0, 3), max_size=8),
        st.lists(st.integers(0, 3), max_size=8),
    )
    def test_metric_axioms(self, a, b, c):
        dab = edit_distance(a, b).distance
        assert dab == edit_distance(b, a).distance
        assert (dab == 0) == (a == b)
        assert dab <= edit_distance(a, c).distance + edit_distance(c, b).distance


class TestAnalyze:
    def test_identity_table_report(self):
        corpus = read_corpus(["0 1 2 0", "1 1"], "dau-int")
        table = MergeTable(corpus.vocabulary, ())
        report = analyze(corpus, table)
        assert report.reduction == 1.0
        assert report.bit_increase == 1.0
        assert report.compression == 1.0
        assert report.balance_before == report.balance_after
        assert report.base_vocab == report.token_vocab == len(corpus.vocabulary)

    def test_compression_identity_holds_exactly(self):
        rng = random.Random(41)
        for _ in range(10):
            corpus = random_corpus(rng, with_boundary=rng.random() < 0.5)
            if corpus.total_units == 0:
                continue
            table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 8))
            report = analyze(corpus, table)
            assert report.compression == report.reduction / report.bit_increase

    def test_json_field_names_are_stable(self):
        corpus = read_corpus(["0 1 0 1"], "dau-int")
        table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 1))
        payload = json.loads(analyze(corpus, table).to_json())
        assert list(payload) == [
            "n_hat",
            "k_hat",
            "reduction",
            "bit_increase",
            "compression",
            "balance_before",
            "balance_after",
            "run_length_mean",
            "base_vocab",
            "token_vocab",
        ]

    def test_empty_corpus_rejected(self):
        corpus = read_corpus([], "dau-int")
        table = MergeTable(corpus.vocabulary, ())
        with pytest.raises(ContractError):
            analyze(corpus, table)
