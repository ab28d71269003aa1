"""Encoding, decoding, and the lossless round-trip guarantee."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitbpe import (
    ContractError,
    Corpus,
    Merge,
    MergeTable,
    TokenSequence,
    TrainOptions,
    UnitSequence,
    ValidationError,
    decode,
    encode,
    encode_corpus,
    read_corpus,
    split_on_boundaries,
    symbolic_vocabulary,
    train,
)
from unitbpe.codec import read_token_lines, token_lines
from tests.conftest import random_corpus, random_sequence


def table_ab():
    vocab = symbolic_vocabulary(["a", "b", "c"], boundary_label=None)
    return MergeTable(vocab, (Merge(0, 0, 1, len(vocab)),))


class TestEncode:
    def test_applies_merge_everywhere(self):
        table = table_ab()
        seq = UnitSequence((0, 1, 0, 1, 2))
        assert encode(seq, table).tokens == (6, 6, 2)

    def test_empty_table_is_identity(self):
        vocab = symbolic_vocabulary(["a", "b"], boundary_label=None)
        table = MergeTable(vocab, ())
        seq = UnitSequence((0, 1, 0))
        assert encode(seq, table).tokens == seq.units

    def test_left_to_right_non_overlap(self):
        vocab = symbolic_vocabulary(["a"], boundary_label=None)
        table = MergeTable(vocab, (Merge(0, 0, 0, len(vocab)),))
        assert encode(UnitSequence((0, 0, 0)), table).tokens == (4, 0)

    def test_rank_order_beats_position_order(self):
        # Rule 0 = (b,c), rule 1 = (a,b): in "a b c" the lower rank wins
        # even though (a,b) sits further left.
        vocab = symbolic_vocabulary(["a", "b", "c"], boundary_label=None)
        n = len(vocab)
        table = MergeTable(vocab, (Merge(0, 1, 2, n), Merge(1, 0, 1, n + 1)))
        assert encode(UnitSequence((0, 1, 2)), table).tokens == (0, n)

    def test_invalid_unit_id_rejected(self):
        table = table_ab()
        with pytest.raises(ValidationError):
            encode(UnitSequence((0, 99)), table)
        with pytest.raises(ValidationError):
            # token ids beyond the base are not valid encoder input
            encode(UnitSequence((table.vocab_size - 1,)), table)

    def test_boundary_and_specials_pass_through(self):
        vocab = symbolic_vocabulary(["a", "b"])
        corpus = read_corpus(["a b _ a b", "a b a b"], "symbolic", vocab)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 1))
        b = vocab.boundary
        encoded = encode(UnitSequence((0, 1, b, 0, 1)), table)
        assert b in encoded.tokens
        (rule,) = table.merges
        assert (rule.left, rule.right) == (0, 1)
        assert encoded.tokens == (rule.result, b, rule.result)


class TestDecode:
    def test_decode_concatenates_surfaces(self):
        table = table_ab()
        assert decode(TokenSequence((6, 6, 2)), table).units == (0, 1, 0, 1, 2)

    def test_decode_empty(self):
        assert decode(TokenSequence(()), table_ab()).units == ()

    def test_unknown_token_rejected(self):
        table = table_ab()
        # The table has 7 tokens; -1 must not pass as a unit or wrap round.
        for token in (99, -1, table.vocab_size):
            with pytest.raises(ValidationError, match=rf"^token id {token} outside vocabulary of size 7$"):
                decode(TokenSequence((0, 6, token, 1)), table)


class TestEncodeCorpus:
    def test_mean_lengths(self):
        table = table_ab()
        corpus = Corpus(table.base, (UnitSequence((0, 1, 0, 1)), UnitSequence((2, 2))))
        encoded = encode_corpus(corpus, table)
        assert encoded.mean_units == 3.0
        assert encoded.mean_tokens == 2.0

    def test_empty_corpus(self):
        table = table_ab()
        encoded = encode_corpus(Corpus(table.base, ()), table)
        assert encoded.mean_units is None and encoded.mean_tokens is None

    def test_vocabulary_must_match_table(self):
        table = table_ab()
        other = symbolic_vocabulary(["x", "y", "z"], boundary_label=None)
        with pytest.raises(ValidationError):
            encode_corpus(Corpus(other, ()), table)

    def test_threads_below_1_rejected(self):
        corpus = read_corpus(["a b a b"], "symbolic", symbolic_vocabulary(["a", "b"]))
        table = train(corpus, TrainOptions(target_size=corpus.vocabulary.size + 1))
        with pytest.raises(ContractError) as err:
            encode_corpus(corpus, table, threads=0)
        assert type(err.value) is ContractError
        assert str(err.value) == "threads must be at least 1"

    def test_thread_count_does_not_change_output(self):
        rng = random.Random(5)
        corpus = random_corpus(rng, with_boundary=False, max_sequences=30)
        table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 6))
        baseline = encode_corpus(corpus, table, threads=1)
        for t in (2, 8):
            assert encode_corpus(corpus, table, threads=t).sequences == baseline.sequences

    def test_token_count_never_exceeds_unit_count(self):
        rng = random.Random(13)
        for _ in range(10):
            corpus = random_corpus(rng, with_boundary=rng.random() < 0.5)
            table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 10))
            encoded = encode_corpus(corpus, table)
            for seq, tok in zip(corpus.sequences, encoded.sequences):
                assert len(tok) <= len(seq)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decode_inverts_encode(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        corpus = random_corpus(rng, with_boundary=rng.random() < 0.5)
        table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 12))
        for _ in range(10):
            seq = random_sequence(rng, corpus.vocabulary)
            assert decode(encode(seq, table), table) == seq

    def test_encoded_chunks_align_with_word_boundaries(self):
        rng = random.Random(31)
        for _ in range(20):
            corpus = random_corpus(rng, with_boundary=True)
            vocab = corpus.vocabulary
            table = train(corpus, TrainOptions(target_size=len(vocab) + 10))
            for seq in corpus.sequences:
                tokens = encode(seq, table)
                restored = decode(tokens, table)
                assert split_on_boundaries(restored, vocab) == split_on_boundaries(seq, vocab)


class TestTokenLines:
    def test_id_rendering_and_parsing_round_trip(self):
        seqs = [TokenSequence((1, 2, 3)), TokenSequence(())]
        lines = list(token_lines(seqs))
        assert lines == ["1 2 3", ""]
        assert read_token_lines(lines) == seqs

    def test_surface_rendering(self):
        table = table_ab()
        lines = list(token_lines([TokenSequence((6, 2))], table, surfaces=True))
        assert lines == ["a+b c"]

    def test_surface_rendering_requires_table(self):
        with pytest.raises(ContractError):
            list(token_lines([TokenSequence(())], None, surfaces=True))
