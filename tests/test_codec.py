"""Encoding, decoding, and the lossless round-trip guarantee."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitbpe import (
    BaseVocabulary,
    ContractError,
    Corpus,
    Merge,
    MergeTable,
    SplitMix64,
    TokenSequence,
    TrainOptions,
    UnitSequence,
    ValidationError,
    ZipfSpec,
    decode,
    encode,
    encode_corpus,
    gen_zipf_corpus,
    naive_encode,
    read_corpus,
    symbolic_vocabulary,
    train,
)
from unitbpe.codec import read_token_lines, token_lines
from unitbpe.corpus import split_chunks
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

    def test_seam_floor_is_the_oldest_rule_at_its_junction(self):
        # X = b c and V = Y W = (a b)(c a) both join a unit b to a unit c, so
        # the junction's floor is X, the older. Across the seam of Y and c
        # only X fires: a b c encodes to a X, where a floor of V would
        # stop the seam check above X and accept Y c.
        vocab = symbolic_vocabulary(["a", "b", "c"], boundary_label=None)
        a, b, c, n = 0, 1, 2, len(vocab)
        x, y, w, v = n, n + 1, n + 2, n + 3
        table = MergeTable(vocab, (Merge(0, b, c, x), Merge(1, a, b, y), Merge(2, c, a, w), Merge(3, y, w, v)))
        assert encode(UnitSequence((a, b, c)), table).tokens == (a, x)
        for units in ((a, b, c), (a, b, c, a), (c, a, b, c, a), (a, b, a, b, c, c, a)):
            seq = UnitSequence(units)
            assert encode(seq, table) == naive_encode(seq, table)

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

    def test_threads_sharing_a_fresh_table_each_encode_as_one_thread_does(self):
        # The utterance-stream benchmark's shape: utterances of 8-200 units
        # under a 4096-token table trained on 10^5 Zipf units. Two threads
        # encode them in opposite orders, so while one grows the index to a
        # long utterance the other encodes short ones through it.
        table = train(gen_zipf_corpus(ZipfSpec(711, 84, 100, 1000, 1.1)), TrainOptions(target_size=4096))
        rng = SplitMix64(713)
        draws = gen_zipf_corpus(ZipfSpec(712, 84, 200, 200, 1.1)).sequences
        utterances = [UnitSequence(s.units[: 8 + rng.randint_below(193)]) for s in draws]
        expected = [encode(u, table) for u in utterances]
        orders = [utterances, utterances[::-1]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                fresh = MergeTable(table.base, table.merges)
                start = threading.Barrier(2)
                got = [None, None]

                def encode_all(i):
                    start.wait(timeout=10)
                    got[i] = [encode(u, fresh) for u in orders[i]]

                threads = [threading.Thread(target=encode_all, args=(i,)) for i in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert got == [expected, expected[::-1]]
        finally:
            sys.setswitchinterval(interval)


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
        for other in (symbolic_vocabulary(["x", "y", "z"], boundary_label=None), symbolic_vocabulary(["a", "b"])):
            with pytest.raises(ValidationError) as err:
                encode_corpus(Corpus(other, ()), table)
            assert str(err.value) == "corpus vocabulary does not match the merge table's base vocabulary"

    def test_the_table_boundary_applies_whatever_the_corpus_has(self):
        # Units a, _ and the specials; only the boundary differs.
        free, walled = BaseVocabulary(5, ("a", "_")), BaseVocabulary(5, ("a", "_"), 1)
        across = MergeTable(free, (Merge(0, 0, 1, 5),))
        corpus = read_corpus(["a _ a", "a a _ a a"], "symbolic", walled)
        assert [s.tokens for s in encode_corpus(corpus, across).sequences] == [(5, 0), (0, 5, 0, 0)]
        within = MergeTable(walled, (Merge(0, 0, 0, 5),))
        corpus = read_corpus(["a a _ a a"], "symbolic", free)
        assert encode_corpus(corpus, within).sequences[0].tokens == (5, 1, 5)

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

    @pytest.mark.parametrize("boundary_label", [None, "_"])
    def test_each_distinct_chunk_is_encoded_once(self, boundary_label):
        # One loop serves every table: without a boundary a chunk is a whole
        # sequence, so repeated sequences are encoded once too.
        vocab = symbolic_vocabulary(["a", "b", "c"], boundary_label=boundary_label)
        lines = ["a b a b c", "c a b a b"] if boundary_label is None else ["a b _ a b c _ a b", "c _ a b"]
        corpus = read_corpus([*lines, *lines, "", "c"], "symbolic", vocab)
        table = train(corpus, TrainOptions(target_size=vocab.size + 3))
        encoder, calls = table._encoder, []

        def counting(ids):
            calls.append(ids)
            return encoder(ids)

        table.__dict__["_encoder"] = counting
        encoded = encode_corpus(corpus, table)
        expected = [naive_encode(seq, table).tokens for seq in corpus.sequences]
        assert [seq.tokens for seq in encoded.sequences] == expected
        assert encoded.total_tokens == sum(map(len, expected))
        if boundary_label is None:
            chunks = {seq.units for seq in corpus.sequences}
        else:
            chunks = {c for seq in corpus.sequences for c in split_chunks(seq.units, {vocab.boundary})}
        assert sorted(calls) == sorted(chunks)

    def test_a_one_chunk_sequence_holds_the_memos_tuple(self):
        table = table_ab()
        corpus = Corpus(table.base, (UnitSequence((0, 1, 0, 1, 2)),) * 2)
        encoded = encode_corpus(corpus, table)
        assert encoded.sequences[0].tokens == (table.vocab_size - 1,) * 2 + (2,)
        assert encoded.sequences[0].tokens is encoded.sequences[1].tokens

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
            b = vocab.boundary
            for seq in corpus.sequences:
                runs = [encode(UnitSequence(run), table).tokens for run in split_chunks(seq.units, {b})]
                assert encode(seq, table).tokens == sum(((b, *run) for run in runs[1:]), runs[0])


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

    def test_surface_rendering_labels_each_distinct_token_once(self, monkeypatch):
        table, calls = table_ab(), []
        label = MergeTable.token_label
        monkeypatch.setattr(MergeTable, "token_label", lambda self, t: calls.append(t) or label(self, t))
        seqs = [TokenSequence((6, 2, 6, 0)), TokenSequence((2, 6))]
        assert list(token_lines(seqs, table, surfaces=True)) == ["a+b c a+b a", "c a+b"]
        assert sorted(calls) == [0, 2, 6]

    def test_surface_rendering_requires_table(self):
        with pytest.raises(ContractError):
            list(token_lines([TokenSequence(())], None, surfaces=True))
