"""The slow reference implementations define correctness; the fast trainer
and encoder must match them exactly on randomized inputs."""

import io
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
    UnitBpeError,
    UnitSequence,
    ValidationError,
    dau_vocabulary,
    decode,
    encode,
    encode_corpus,
    naive_encode,
    naive_train,
    parse_merge_table,
    read_corpus,
    save_merge_table,
    symbolic_vocabulary,
    train,
)
from unitbpe.codec import token_lines
from tests.conftest import random_corpus, random_sequence, untrained_tables


class TestReferenceBehavior:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: naive_train(read_corpus(["0 1"], "dau-int"), TrainOptions(5)), ContractError,
             "target_size 5 must exceed base vocabulary size 5"),
            (lambda: naive_encode(UnitSequence((0, 9)), MergeTable(dau_vocabulary(2), ())), ValidationError,
             "unit id 9 outside base vocabulary of size 5"),
            (lambda: naive_encode(UnitSequence((-1,)), MergeTable(dau_vocabulary(2), ())), ValidationError,
             "unit id -1 outside base vocabulary of size 5"),
        ],
        ids=["train-target-not-above-base", "encode-id-past-end", "encode-negative-id"],
    )
    def test_error_type_and_text(self, call, error, message):
        with pytest.raises(UnitBpeError) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_empty_corpus_trains_to_empty_table(self):
        corpus = read_corpus([], "dau-int")
        table = naive_train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 5))
        assert table.merges == ()

    def test_repeated_unit_hand_trace(self):
        # Six copies of one unit: first merge pairs them (3 tokens of 2),
        # second merge pairs the pairs (one token of 4 plus one of 2).
        corpus = read_corpus(["0 0 0 0 0 0"], "dau-int")
        base = len(corpus.vocabulary)
        table = naive_train(corpus, TrainOptions(target_size=base + 2))
        assert [(m.left, m.right) for m in table.merges] == [(0, 0), (base, base)]
        assert naive_encode(corpus.sequences[0], table).tokens == (base + 1, base)

    def test_reference_encode_hand_trace(self):
        vocab = read_corpus(["a b a b c"], "symbolic", boundary_label=None).vocabulary
        corpus = read_corpus(["a b a b c"], "symbolic", vocab, boundary_label=None)
        table = naive_train(corpus, TrainOptions(target_size=len(vocab) + 1))
        assert naive_encode(corpus.sequences[0], table).tokens == (len(vocab), len(vocab), 2)


def wide_id_corpus(rng: random.Random) -> tuple[Corpus, int]:
    """A dau-int corpus whose vocabulary size is within 3 of 256 or 1024,
    over its few highest content ids, plus that power of two. Training past
    it makes pair ids fill the trainer's packed pair keys."""
    power = rng.choice([256, 1024])
    vocab = dau_vocabulary(power + rng.randint(-3, 3) - 3)
    top = vocab.content_ids()[-rng.randint(1, 4):]
    sequences = (
        UnitSequence(tuple(rng.choice(top) for _ in range(rng.randint(0, 30))))
        for _ in range(rng.randint(0, 50))
    )
    return Corpus(vocab, tuple(sequences)), power


class TestEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_fast_trainer_matches_reference(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        if rng.random() < 0.3:
            corpus, power = wide_id_corpus(rng)
            size = max(len(corpus.vocabulary), power)
        else:
            corpus = random_corpus(rng, with_boundary=rng.random() < 0.5)
            size = len(corpus.vocabulary)
        options = TrainOptions(
            target_size=size + rng.randint(1, 20),
            respect_boundaries=rng.random() < 0.8,
            min_pair_count=rng.choice([1, 2, 3]),
        )
        fast = train(corpus, options)
        reference = naive_train(corpus, options)
        assert fast.merges == reference.merges
        assert fast.base == reference.base

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_fast_encoder_matches_reference(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        corpus = random_corpus(rng, with_boundary=rng.random() < 0.5)
        table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 15))
        for _ in range(8):
            seq = random_sequence(rng, corpus.vocabulary)
            assert encode(seq, table) == naive_encode(seq, table)


@st.composite
def chunked_corpora(draw):
    """Corpora heavy with duplicate chunks: either lines joined from a small
    drawn lexicon of chunks by the boundary, with special units sometimes
    mixed in, or whole dau-int lines drawn from a few distinct ones."""
    if draw(st.booleans()):
        content = draw(st.integers(1, 4))
        vocab = symbolic_vocabulary([f"u{i}" for i in range(content)])
        chunk = st.lists(st.integers(0, content - 1), max_size=6).map(tuple)
        specials = sorted(vocab.special)
        lexicon = draw(st.lists(chunk, min_size=1, max_size=5))
        sequences = []
        for _ in range(draw(st.integers(0, 25))):
            words = draw(st.lists(st.sampled_from(lexicon), min_size=1, max_size=6))
            units = list(words[0])
            for word in words[1:]:
                units.append(vocab.boundary)
                units += word
            if draw(st.integers(0, 3)) == 0:
                units.insert(draw(st.integers(0, len(units))), draw(st.sampled_from(specials)))
            sequences.append(UnitSequence(tuple(units)))
    else:
        vocab = dau_vocabulary(draw(st.integers(1, 4)))
        line = st.lists(st.integers(0, len(vocab) - 4), max_size=12).map(tuple)
        lines = draw(st.lists(line, min_size=1, max_size=4))
        sequences = [UnitSequence(draw(st.sampled_from(lines))) for _ in range(draw(st.integers(0, 25)))]
    return Corpus(vocab, tuple(sequences))


class TestDuplicateChunks:
    """The trainer counts each distinct chunk once with its frequency as a
    weight, and encode_corpus encodes each distinct chunk once; both must
    still match the reference, which sees every copy."""

    @settings(max_examples=300, deadline=None)
    @given(chunked_corpora(), st.booleans(), st.integers(1, 3), st.integers(1, 20))
    def test_train_and_encode_corpus_match_reference(self, corpus, respect, min_count, extra):
        options = TrainOptions(
            target_size=len(corpus.vocabulary) + extra,
            respect_boundaries=respect,
            min_pair_count=min_count,
        )
        table = train(corpus, options)
        assert table == naive_train(corpus, options)
        expected = [naive_encode(seq, table) for seq in corpus.sequences]
        assert list(encode_corpus(corpus, table).sequences) == expected

    def test_weights_decide_the_winner(self):
        # Distinct chunks "a b" and "c d" each hold their pair once; by
        # occurrence (a b) is seen 2 times and (c d) 3 times, so (c d) wins,
        # though the tie-break would pick (a b) if each chunk counted once.
        vocab = symbolic_vocabulary(["a", "b", "c", "d"])
        corpus = read_corpus(["a b _ c d", "c d _ a b _ c d"], "symbolic", vocab)
        a, b, c, d, bnd = (vocab.id_of(x) for x in "abcd_")
        base = len(vocab)
        table = train(corpus, TrainOptions(target_size=base + 2))
        assert [(m.left, m.right) for m in table.merges] == [(c, d), (a, b)]
        assert [s.tokens for s in encode_corpus(corpus, table).sequences] == [
            (base + 1, bnd, base),
            (base, bnd, base + 1, bnd, base),
        ]
        assert train(corpus, TrainOptions(target_size=base + 2, min_pair_count=3)).merges == table.merges[:1]

    @settings(max_examples=200, deadline=None)
    @given(chunked_corpora(), st.booleans(), st.integers(1, 3), st.integers(1, 20), st.integers(0, 20))
    def test_a_shorter_run_makes_the_first_merges_of_a_longer_one(self, corpus, respect, min_count, small, more):
        # The experiment scripts train once, to their largest size, and
        # analyse each smaller size with a prefix of that table.
        base = len(corpus.vocabulary)
        short, full = (
            train(corpus, TrainOptions(target_size=base + n, respect_boundaries=respect, min_pair_count=min_count))
            for n in (small, small + more)
        )
        assert short.merges == full.merges[:small]
        assert short == MergeTable(full.base, full.merges[:small])


class TestUntrainedTables:
    @settings(max_examples=300, deadline=None)
    @given(untrained_tables(), st.data())
    def test_codec_matches_reference_on_any_valid_table(self, table, data):
        # Sequences are runs of token surfaces (specials included), so that
        # rules over merged tokens have something to fire on.
        tokens = st.lists(st.integers(0, table.vocab_size - 1), max_size=12)
        drawn = data.draw(st.lists(tokens, min_size=1, max_size=12))
        sequences = (UnitSequence(tuple(u for t in ts for u in table.token_surface(t))) for ts in drawn)
        corpus = Corpus(table.base, tuple(sequences))
        expected = [naive_encode(seq, table) for seq in corpus.sequences]
        # One table object serves every call, so its cached index is reused.
        assert [encode(seq, table) for seq in corpus.sequences] == expected
        assert list(encode_corpus(corpus, table).sequences) == expected
        assert [decode(t, table) for t in expected] == list(corpus.sequences)
        # Any token stream decodes to its surface concatenation, not only
        # encoder output: specials and unencodable orders included.
        for ts in drawn:
            assert decode(TokenSequence(tuple(ts)), table).units == tuple(
                u for t in ts for u in table.token_surface(t)
            )
        # Surface rendering of encoder output and of any token stream.
        streams = [*expected, *(TokenSequence(tuple(ts)) for ts in drawn)]
        labels = [[table.token_label(t) for t in seq.tokens] for seq in streams]
        assert list(token_lines(streams, table, surfaces=True)) == [" ".join(row) for row in labels]

    @settings(max_examples=100, deadline=None)
    @given(untrained_tables())
    def test_merge_file_round_trip(self, table):
        buf = io.StringIO()
        save_merge_table(table, buf)
        assert parse_merge_table(buf.getvalue().splitlines(), table.base) == table


class TestBacktrackingEncoder:
    """The encoder takes the longest token whose seam with the previous one
    holds, and backtracks when none does. Only tokens whose surface encodes
    to themselves are candidates; over small alphabets many are not."""

    def test_token_that_does_not_encode_to_itself(self):
        vocab = symbolic_vocabulary(["a", "b", "c"], boundary_label=None)
        a, b, c = (vocab.id_of(x) for x in "abc")
        z, x, y, w = range(vocab.size, vocab.size + 4)
        rules = [(b, c), (a, b), (x, c), (a, z)]  # Z, X, Y, W in rank order
        table = MergeTable(vocab, tuple(Merge(i, *pair, vocab.size + i) for i, pair in enumerate(rules)))
        # Y and W both spell a b c, and a b c encodes to W.
        assert table.token_surface(y) == table.token_surface(w) == (a, b, c)
        for units, tokens in (((a, b, c), (w,)), ((a, b, a, b, c), (x, w))):
            seq = UnitSequence(units)
            assert naive_encode(seq, table).tokens == tokens
            assert encode(seq, table).tokens == tokens
        without_w = MergeTable(vocab, table.merges[:3])
        seq = UnitSequence((a, b, c))
        assert naive_encode(seq, without_w).tokens == encode(seq, without_w).tokens == (a, z)

    @settings(max_examples=400, deadline=None)
    @given(untrained_tables(max_content=3, max_merges=24), st.data())
    def test_matches_reference_over_small_alphabets(self, table, data):
        tokens = st.lists(st.integers(0, table.vocab_size - 1), max_size=10)
        surfaces = tokens.map(lambda ts: tuple(u for t in ts for u in table.token_surface(t)))
        units = st.lists(st.integers(0, table.base.size - 1), max_size=24).map(tuple)
        drawn = data.draw(st.lists(st.one_of(surfaces, units), min_size=1, max_size=8))
        corpus = Corpus(table.base, tuple(map(UnitSequence, drawn)))
        expected = [naive_encode(seq, table) for seq in corpus.sequences]
        assert [encode(seq, table) for seq in corpus.sequences] == expected
        assert list(encode_corpus(corpus, table).sequences) == expected

    def test_decode_builds_no_encoder_index(self):
        corpus = read_corpus(["0 1 0 1 2", "1 2 1 2"], "dau-int")
        table = train(corpus, TrainOptions(corpus.vocabulary.size + 3))
        back = decode(TokenSequence((table.vocab_size - 1, 0)), table)
        assert back.units == (*table.token_surface(table.vocab_size - 1), 0)
        assert "_encoder_index" not in vars(table)
        encode(corpus.sequences[0], table)
        assert "_encoder_index" in vars(table)
