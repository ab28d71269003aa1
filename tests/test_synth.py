"""Seeded generators: pinned PRNG vectors, determinism, and statistical shape."""

import pytest

from unitbpe import (
    ContractError,
    RunLengthSpec,
    SplitMix64,
    ZipfSpec,
    corpus_run_length_mean,
    gen_runlength_corpus,
    gen_zipf_corpus,
    normalized_entropy,
    token_distribution,
)


ZIPF = dict(seed=1, vocab_size=4, num_sequences=1, mean_length=1, exponent=1.0)
RUNS = dict(seed=1, clusters=4, num_sequences=1, mean_length=1, mean_run=2.0)


@pytest.mark.parametrize(
    "make, fields, message",
    [
        (ZipfSpec, dict(ZIPF, vocab_size=1), "vocab_size must be at least 2"),
        (ZipfSpec, dict(ZIPF, exponent=-0.5), "exponent must be non-negative"),
        (ZipfSpec, dict(ZIPF, num_sequences=-1), "num_sequences and mean_length must be non-negative"),
        (ZipfSpec, dict(ZIPF, mean_length=-1), "num_sequences and mean_length must be non-negative"),
        (RunLengthSpec, dict(RUNS, clusters=1), "clusters must be at least 2"),
        (RunLengthSpec, dict(RUNS, mean_run=0.5), "mean_run must be at least 1"),
        (RunLengthSpec, dict(RUNS, transition_skew=-0.5), "transition_skew must be non-negative"),
        (RunLengthSpec, dict(RUNS, num_sequences=-1), "num_sequences and mean_length must be non-negative"),
        (RunLengthSpec, dict(RUNS, mean_length=-1), "num_sequences and mean_length must be non-negative"),
    ],
    ids=["zipf-vocab-size", "zipf-exponent", "zipf-sequences", "zipf-length", "runlength-clusters",
         "runlength-mean-run", "runlength-skew", "runlength-sequences", "runlength-length"],
)
def test_spec_contract_error_text(make, fields, message):
    with pytest.raises(ContractError) as err:
        make(**fields)
    assert type(err.value) is ContractError
    assert str(err.value) == message


class TestSplitMix64:
    def test_reference_vectors(self):
        # Standard splitmix64 output; any platform must reproduce these.
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]
        r = SplitMix64(42)
        assert r.next_u64() == 13679457532755275413

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()

    def test_random_unit_interval(self):
        r = SplitMix64(7)
        values = [r.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_randint_below(self):
        r = SplitMix64(9)
        assert all(0 <= r.randint_below(10) < 10 for _ in range(100))
        with pytest.raises(ContractError):
            r.randint_below(0)


class TestZipfGenerator:
    def test_fixed_seed_reproduces_exactly(self):
        spec = ZipfSpec(seed=5, vocab_size=20, num_sequences=8, mean_length=50, exponent=1.1)
        assert gen_zipf_corpus(spec) == gen_zipf_corpus(spec)

    def test_different_seeds_differ(self):
        a = gen_zipf_corpus(ZipfSpec(seed=1, vocab_size=20, num_sequences=4, mean_length=50, exponent=1.0))
        b = gen_zipf_corpus(ZipfSpec(seed=2, vocab_size=20, num_sequences=4, mean_length=50, exponent=1.0))
        assert a.sequences != b.sequences

    def test_corpus_validates_and_has_requested_shape(self):
        spec = ZipfSpec(seed=3, vocab_size=10, num_sequences=7, mean_length=25, exponent=0.8)
        corpus = gen_zipf_corpus(spec)
        assert len(corpus) == 7
        assert all(len(s) == 25 for s in corpus.sequences)
        assert len(corpus.vocabulary) == 13
        content = set(corpus.vocabulary.content_ids())
        assert all(u in content for s in corpus.sequences for u in s.units)

    def test_exponent_zero_approaches_uniform_balance(self):
        spec = ZipfSpec(seed=11, vocab_size=50, num_sequences=100, mean_length=2000, exponent=0.0)
        corpus = gen_zipf_corpus(spec)
        dist = token_distribution(corpus, len(corpus.vocabulary))
        # support includes the 3 never-drawn specials, hence not fully 1.0
        assert normalized_entropy(dist) > 0.97

    def test_positive_exponent_skews_distribution(self):
        spec = ZipfSpec(seed=11, vocab_size=84, num_sequences=100, mean_length=2000, exponent=1.1)
        corpus = gen_zipf_corpus(spec)
        dist = token_distribution(corpus, len(corpus.vocabulary))
        assert normalized_entropy(dist) < 0.85

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ContractError):
            ZipfSpec(seed=1, vocab_size=1, num_sequences=1, mean_length=1, exponent=1.0)
        with pytest.raises(ContractError):
            ZipfSpec(seed=1, vocab_size=4, num_sequences=1, mean_length=1, exponent=-0.5)


class TestRunLengthGenerator:
    def test_fixed_seed_reproduces_exactly(self):
        spec = RunLengthSpec(seed=5, clusters=30, num_sequences=6, mean_length=80, mean_run=4.0)
        assert gen_runlength_corpus(spec) == gen_runlength_corpus(spec)

    def test_mean_run_close_to_requested(self):
        spec = RunLengthSpec(
            seed=8, clusters=100, num_sequences=200, mean_length=1000, mean_run=4.0
        )
        corpus = gen_runlength_corpus(spec)
        observed = corpus_run_length_mean(s.units for s in corpus.sequences)
        assert observed == pytest.approx(4.0, rel=0.05)

    def test_mean_run_one_means_no_structure(self):
        spec = RunLengthSpec(seed=8, clusters=50, num_sequences=50, mean_length=500, mean_run=1.0)
        corpus = gen_runlength_corpus(spec)
        observed = corpus_run_length_mean(s.units for s in corpus.sequences)
        assert observed == 1.0

    def test_sequences_have_requested_length(self):
        spec = RunLengthSpec(seed=2, clusters=10, num_sequences=9, mean_length=64, mean_run=3.0)
        corpus = gen_runlength_corpus(spec)
        assert all(len(s) == 64 for s in corpus.sequences)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ContractError):
            RunLengthSpec(seed=1, clusters=10, num_sequences=1, mean_length=1, mean_run=0.5)
        with pytest.raises(ContractError):
            RunLengthSpec(seed=1, clusters=1, num_sequences=1, mean_length=1, mean_run=2.0)
