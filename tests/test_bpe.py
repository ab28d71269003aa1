"""Training behavior, merge-table invariants, and the table file format."""

import io
import random
import sys
import threading

import pytest

from unitbpe import (
    BaseVocabulary,
    ContractError,
    Corpus,
    Merge,
    MergeTable,
    ParseError,
    TrainOptions,
    UnitBpeError,
    UnitSequence,
    ValidationError,
    dau_vocabulary,
    encode_corpus,
    load_merge_table,
    naive_train,
    pair_counts,
    parse_merge_table,
    read_corpus,
    save_merge_table,
    symbolic_vocabulary,
    train,
)
from tests.conftest import random_corpus


def letters(*labels, boundary=None):
    return symbolic_vocabulary(labels, boundary_label=boundary)


class TestPairCounts:
    def test_counts_all_adjacent_ordered_pairs(self):
        a, b, c = 0, 1, 2
        counts = pair_counts([(a, b, a, b, c)])
        assert counts == {(a, b): 2, (b, a): 1, (b, c): 1}

    def test_boundary_blocks_both_sides(self):
        counts = pair_counts([(0, 9, 1)], boundary=9)
        assert counts == {}

    def test_overlapping_positions_all_counted(self):
        assert pair_counts([(0, 0, 0)]) == {(0, 0): 2}

    def test_special_ids_excluded(self):
        counts = pair_counts([(0, 7, 0, 1)], special={7})
        assert counts == {(0, 1): 1}

    def test_pairs_never_span_sequences(self):
        assert pair_counts([(0,), (0,)]) == {}


class TestTraining:
    def test_single_merge_example(self):
        vocab = letters("a", "b", "c")
        corpus = read_corpus(["a b a b c"], "symbolic", vocab, boundary_label=None)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 1))
        assert [(m.left, m.right) for m in table.merges] == [(0, 1)]
        encoded = encode_corpus(corpus, table)
        assert encoded.sequences[0].tokens == (6, 6, 2)

    def test_early_stop_when_best_pair_below_threshold(self):
        vocab = letters("a", "b")
        corpus = read_corpus(["a b a b a b"], "symbolic", vocab, boundary_label=None)
        # After (a,b) and (ab,ab) the best pair occurs once: stop early even
        # though the target allows more merges.
        table = train(corpus, TrainOptions(target_size=len(vocab) + 10))
        assert [(m.left, m.right) for m in table.merges] == [(0, 1), (5, 5)]

    def test_fully_blocked_corpus_yields_no_merges(self):
        vocab = letters("x", "y", boundary="_")
        corpus = read_corpus(["x _ y"], "symbolic", vocab)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 5))
        assert table.merges == ()
        assert table.base == vocab

    def test_left_to_right_non_overlapping_replacement(self):
        vocab = letters("a")
        corpus = read_corpus(["a a a"], "symbolic", vocab, boundary_label=None)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 5, min_pair_count=2))
        assert [(m.left, m.right) for m in table.merges] == [(0, 0)]
        assert encode_corpus(corpus, table).sequences[0].tokens == (4, 0)

    def test_tie_breaks_to_smallest_pair(self):
        vocab = letters("a", "b", "c", "d")
        # (c,d) and (a,b) both occur twice; (a,b) must win the tie.
        corpus = read_corpus(["c d a b", "a b c d"], "symbolic", vocab, boundary_label=None)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 1))
        assert (table.merges[0].left, table.merges[0].right) == (0, 1)

    def test_target_size_must_exceed_base(self):
        vocab = letters("a")
        corpus = read_corpus(["a a"], "symbolic", vocab, boundary_label=None)
        with pytest.raises(ContractError):
            train(corpus, TrainOptions(target_size=len(vocab)))

    def test_token_count_decreases_by_replaced_occurrences(self):
        rng = random.Random(7)
        for _ in range(20):
            corpus = random_corpus(rng, with_boundary=rng.random() < 0.5)
            table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 10))
            total = corpus.total_units
            state = [list(s.units) for s in corpus.sequences]
            for merge in table.merges:
                replaced = 0
                for seq in state:
                    out, i = [], 0
                    while i < len(seq):
                        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == (merge.left, merge.right):
                            out.append(merge.result)
                            replaced += 1
                            i += 2
                        else:
                            out.append(seq[i])
                            i += 1
                    seq[:] = out
                assert replaced > 0
                total -= replaced
            assert total == sum(len(s) for s in state)

    def test_trained_table_reproduces_training_state(self):
        rng = random.Random(11)
        for _ in range(10):
            corpus = random_corpus(rng, with_boundary=False)
            table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 8))
            # Re-encoding the training corpus must land exactly on the
            # final training state: applying merges in rank order by full
            # scans is that state by definition.
            state = [list(s.units) for s in corpus.sequences]
            for m in table.merges:
                for seq in state:
                    out, i = [], 0
                    while i < len(seq):
                        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == (m.left, m.right):
                            out.append(m.result)
                            i += 2
                        else:
                            out.append(seq[i])
                            i += 1
                    seq[:] = out
            encoded = encode_corpus(corpus, table)
            assert [list(t.tokens) for t in encoded.sequences] == state

    def test_identical_inputs_identical_tables_any_thread_count(self):
        rng = random.Random(3)
        corpus = random_corpus(rng, with_boundary=True, max_sequences=40)
        options = TrainOptions(target_size=len(corpus.vocabulary) + 12)
        tables = [train(corpus, options, threads=t) for t in (1, 1, 4, 8)]
        assert all(t.merges == tables[0].merges for t in tables)

    def test_respect_boundaries_flag_off_merges_across(self):
        vocab = letters("a", "b", boundary="_")
        corpus = read_corpus(["a _ a", "a _ a"], "symbolic", vocab)
        constrained = train(corpus, TrainOptions(target_size=len(vocab) + 3))
        assert constrained.merges == ()
        free = train(corpus, TrainOptions(target_size=len(vocab) + 3, respect_boundaries=False))
        assert free.merges != ()
        assert free.base == BaseVocabulary(vocab.size, vocab.labels)
        assert free.base.boundary is None

    def test_specials_never_merged(self):
        vocab = letters("a", boundary=None)
        pad = min(vocab.special)
        padded = Corpus(vocab, (UnitSequence((pad, 0, 0, pad, pad)),))
        table = train(padded, TrainOptions(target_size=len(vocab) + 5, min_pair_count=1))
        assert [(m.left, m.right) for m in table.merges] == [(0, 0)]
        for m in table.merges:
            assert not vocab.is_special(m.left) and not vocab.is_special(m.right)


class TestMergeTableInvariants:
    def test_vocab_size_counts_base_plus_merges(self):
        vocab = letters("a", "b")
        table = MergeTable(vocab, (Merge(0, 0, 1, len(vocab)),))
        assert table.vocab_size == len(vocab) + 1

    def test_surfaces_concatenate(self):
        vocab = letters("a", "b", "c")
        n = len(vocab)
        table = MergeTable(vocab, (Merge(0, 0, 1, n), Merge(1, n, 2, n + 1)))
        assert table.token_surface(n + 1) == (0, 1, 2)
        assert table.token_label(n + 1) == "a+b+c"

    def test_threads_sharing_a_fresh_table_each_read_the_plain_expansion(self):
        # Fibonacci-shaped rules, so a walk meets merged ids many times over
        # and runs long enough for the two threads to interleave.
        vocab = letters("a", "b")
        n = vocab.size
        merges = [Merge(0, 0, 1, n), Merge(1, n, 0, n + 1)]
        merges += [Merge(r, n + r - 1, n + r - 2, n + r) for r in range(2, 22)]
        expected = {0: (0,), 1: (1,)}
        for _, a, b, t in merges:
            expected[t] = expected[a] + expected[b]
        # Both threads walk down from the longest token at once, over the
        # same ids; the second then reads each token after both its halves.
        orders = [list(range(n + 21, n - 1, -1)), [*range(n + 21, n - 1, -2), 0, 1, *range(n, n + 22)]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                table = MergeTable(vocab, tuple(merges))
                start = threading.Barrier(2)
                read = [None, None]

                def look_up(i):
                    start.wait(timeout=10)
                    read[i] = [table.token_surface(t) for t in orders[i]]

                threads = [threading.Thread(target=look_up, args=(i,)) for i in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert read == [[expected[t] for t in order] for order in orders]
        finally:
            sys.setswitchinterval(interval)

    def test_rule_index_is_built_with_the_table(self):
        vocab = letters("a", "b", "c")
        n = vocab.size
        table = MergeTable(vocab, (Merge(0, 0, 1, n), Merge(1, n, 2, n + 1)))
        rules, shift = vars(table)["packed_rules"]  # set by the constructor, not on first use
        assert rules == {(0 << shift) | 1: n, (n << shift) | 2: n + 1}
        assert shift == (n + 1).bit_length()

    def test_rules_must_be_merges(self):
        # A plain 4-tuple has no named fields: the table fails where it is
        # built, not on first use of the rules.
        vocab = letters("a", "b")
        with pytest.raises(AttributeError):
            MergeTable(vocab, ((0, 0, 1, len(vocab)),))

    def test_ranks_must_be_dense(self):
        vocab = letters("a", "b")
        with pytest.raises(ValidationError):
            MergeTable(vocab, (Merge(1, 0, 1, len(vocab)),))

    def test_result_ids_must_extend_base(self):
        vocab = letters("a", "b")
        with pytest.raises(ValidationError):
            MergeTable(vocab, (Merge(0, 0, 1, len(vocab) + 4),))

    def test_merge_may_not_use_undefined_token(self):
        vocab = letters("a", "b")
        with pytest.raises(ValidationError):
            MergeTable(vocab, (Merge(0, 99, 0, len(vocab)),))

    def test_boundary_and_specials_rejected_in_merges(self):
        vocab = letters("a", "b", boundary="_")
        pad = min(vocab.special)
        with pytest.raises(ValidationError):
            MergeTable(vocab, (Merge(0, pad, 0, len(vocab)),))
        with pytest.raises(ValidationError):
            MergeTable(vocab, (Merge(0, vocab.boundary, 0, len(vocab)),))

    def test_no_surface_mixes_boundary_with_other_units(self):
        rng = random.Random(23)
        for _ in range(30):
            corpus = random_corpus(rng, with_boundary=True)
            table = train(corpus, TrainOptions(target_size=len(corpus.vocabulary) + 10))
            b = corpus.vocabulary.boundary
            for tid in range(table.vocab_size):
                surface = table.token_surface(tid)
                if b in surface:
                    assert surface == (b,)


class TestMergeTableFile:
    def roundtrip(self, table, vocab=None):
        buf = io.StringIO()
        save_merge_table(table, buf)
        return parse_merge_table(buf.getvalue().splitlines(), vocab)

    def test_round_trip_without_boundary(self):
        vocab = dau_vocabulary(5)
        corpus = read_corpus(["0 1 0 1 2 0 1"], "dau-int", vocab)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 2, min_pair_count=1))
        again = self.roundtrip(table)
        assert again.merges == table.merges
        assert again.base.boundary is None
        assert again.base == vocab  # synthesized vocabulary matches

    def test_round_trip_with_boundary_needs_vocabulary(self):
        vocab = letters("a", "b", boundary="_")
        corpus = read_corpus(["a b _ a b"], "symbolic", vocab)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 1))
        buf = io.StringIO()
        save_merge_table(table, buf)
        lines = buf.getvalue().splitlines()
        with pytest.raises(ValidationError):
            parse_merge_table(lines)
        again = parse_merge_table(lines, vocab)
        assert again == table

    @pytest.mark.parametrize("line3", ["_", ""], ids=["file-has-boundary", "file-has-none"])
    def test_line_3_decides_the_boundary(self, line3):
        # The same labels with either boundary: the file's line 3 wins.
        labels = ("a", "b", "_")
        given = {"_": BaseVocabulary(6, labels), "": BaseVocabulary(6, labels, 2)}[line3]
        table = parse_merge_table(["unitbpe-v1", "6", line3, "0 0 1 6"], given)
        assert table.base == BaseVocabulary(6, labels, 2 if line3 else None)
        corpus = read_corpus(["a b _ a b"], "symbolic", given)
        assert encode_corpus(corpus, table).sequences[0].tokens == (6, 2, 6)

    @pytest.mark.parametrize(
        "given",
        [letters("a", "b"), letters("a", "b", "_"), letters("a", "b", boundary="_")],
        ids=["one-short-without-label", "holds-label", "holds-boundary"],
    )
    def test_line_3_resolves_against_the_vocabulary_as_given(self, given):
        # A vocabulary one unit short that lacks line 3's label gets it
        # appended last, as train does; one that holds it is used as given.
        vocab = letters("a", "b", boundary="_")
        table = train(read_corpus(["a b _ a b"], "symbolic", vocab), TrainOptions(target_size=len(vocab) + 1))
        assert self.roundtrip(table, given) == table

    def test_an_unlabelled_vocabulary_one_short_gets_the_next_id_as_boundary(self):
        table = parse_merge_table(["unitbpe-v1", "8", "4", "0 0 1 8"], dau_vocabulary(4))
        assert table.base == BaseVocabulary(8, None, 4)

    def test_unconstrained_table_round_trips_over_a_vocabulary_with_a_boundary(self):
        vocab = letters("a", "b", boundary="_")
        corpus = read_corpus(["a b _ a b", "a b"], "symbolic", vocab)
        table = train(corpus, TrainOptions(target_size=len(vocab) + 3, respect_boundaries=False))
        assert table.base == letters("a", "b", "_") and table.merges
        assert self.roundtrip(table, vocab) == table
        assert self.roundtrip(table, table.base) == table

    def test_magic_header_required(self):
        with pytest.raises(ParseError):
            parse_merge_table(["nope", "4", ""])

    def test_malformed_rows_report_line(self):
        lines = ["unitbpe-v1", "10", "", "0 1 2"]
        with pytest.raises(ParseError) as err:
            parse_merge_table(lines)
        assert "line 4" in str(err.value)

    def test_invalid_result_id_caught_on_load(self):
        lines = ["unitbpe-v1", "10", "", "0 1 2 99"]
        with pytest.raises(ValidationError):
            parse_merge_table(lines)

    def test_vocabulary_size_mismatch_rejected(self, tmp_path):
        vocab = dau_vocabulary(5)
        path = tmp_path / "m.bpe"
        path.write_text("unitbpe-v1\n9\n\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_merge_table(path, vocab)


# A valid file over a, b, c, boundary _ (id 3) and specials 4-6: base 7,
# three merges on lines 4-6. Each case replaces line 5 (rank 1).
_VALID_FILE = ["unitbpe-v1", "7", "_", "0 0 1 7", "1 7 2 8", "2 8 0 9"]


class TestMergeFileErrors:
    @pytest.mark.parametrize(
        "row, error, message, line",
        [
            ("", ParseError, "line 5: blank merge row", 5),
            ("1 7 2", ParseError, "line 5: expected 4 fields, got 3", 5),
            ("1 7 2 8 9", ParseError, "line 5: expected 4 fields, got 5", 5),
            ("1 7 x 8", ParseError, "line 5: non-integer token 'x'", 5),
            ("1 07 x 8", ParseError, "line 5: non-canonical integer token '07'", 5),
            ("2 7 2 8", ValidationError, "line 5: merge rank 2 at position 1: ranks must be dense", None),
            ("1 7 2 9", ValidationError, "line 5: merge 1: result 9 != base size 7 + rank 1", None),
            ("1 8 2 8", ValidationError, "line 5: merge 1: token id 8 not yet defined", None),
            ("1 -1 2 8", ValidationError, "line 5: merge 1: token id -1 not yet defined", None),
            ("1 5 2 8", ValidationError, "line 5: merge 1: special token 5 may not be merged", None),
            ("1 7 3 8", ValidationError, "line 5: merge 1: boundary unit 3 may not be merged", None),
            ("1 0 1 8", ValidationError, "line 5: merge 1: duplicate pair (0, 1)", None),
        ],
        ids=["blank", "3-fields", "5-fields", "non-integer", "first-bad-token-in-order", "rank-not-dense",
             "result-not-base-plus-rank", "undefined-side", "negative-side", "special-side", "boundary-side",
             "duplicate-pair"],
    )
    def test_bad_row_on_line_5(self, row, error, message, line):
        vocab = letters("a", "b", "c", boundary="_")
        parse_merge_table(_VALID_FILE, vocab)  # the file is valid without the bad row
        lines = [*_VALID_FILE[:4], row, *_VALID_FILE[5:]]
        with pytest.raises(UnitBpeError) as err:
            parse_merge_table(lines, vocab)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "line", None) == line

    @pytest.mark.parametrize(
        "lines, message, line",
        [
            (["unitbpe-v0", *_VALID_FILE[1:]], "line 1: missing magic header 'unitbpe-v1'", 1),
            (_VALID_FILE[:2], "line 2: truncated header: need base size and boundary label lines", 2),
            (["unitbpe-v1", "seven", *_VALID_FILE[2:]],
             "line 2: base vocabulary size must be an integer, got 'seven'", 2),
            (["unitbpe-v1", "-7", *_VALID_FILE[2:]], "line 2: base vocabulary size must be non-negative", 2),
        ],
        ids=["missing-magic", "truncated-header", "non-integer-base-size", "negative-base-size"],
    )
    def test_bad_header(self, lines, message, line):
        with pytest.raises(ParseError) as err:
            parse_merge_table(lines, letters("a", "b", "c", boundary="_"))
        assert str(err.value) == message
        assert err.value.line == line

    def test_first_malformed_row_is_named(self):
        lines = [*_VALID_FILE[:4], "1 7 x 8", "2 8 0", ""]
        with pytest.raises(ParseError) as err:
            parse_merge_table(lines, letters("a", "b", "c", boundary="_"))
        assert str(err.value) == "line 5: non-integer token 'x'"

    def test_a_parse_fault_comes_before_an_earlier_rule_fault(self):
        # Line 5 breaks a rule and line 7 does not parse: the parse fault is named.
        lines = [*_VALID_FILE[:4], "1 0 1 8", "2 8 0 9", "3 9 y 10"]
        with pytest.raises(ParseError) as err:
            parse_merge_table(lines, letters("a", "b", "c", boundary="_"))
        assert str(err.value) == "line 7: non-integer token 'y'"
        assert err.value.line == 7


class TestErrors:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: TrainOptions(8, min_pair_count=0), ContractError, "min_pair_count must be at least 1"),
            (lambda: TrainOptions(2**63 + 1), ContractError, "target_size must be at most 2^63"),
            (lambda: MergeTable(letters("a"), ()).token_surface(4), ValidationError,
             "token id 4 outside vocabulary of size 4"),
            (lambda: MergeTable(letters("a"), ()).token_surface(-1), ValidationError,
             "token id -1 outside vocabulary of size 4"),
            (lambda: parse_merge_table(["unitbpe-v1", "7", "<pad>"], letters("a", "b", "c", boundary="_")),
             ValidationError, "boundary must not be a special token"),
            (lambda: parse_merge_table(["unitbpe-v1", "6", "zz"], letters("a", "b", "_")),
             ValidationError, "line 3: unknown label 'zz'"),
            (lambda: parse_merge_table(["unitbpe-v1", "7", "zz"], letters("a", "b")),
             ValidationError, "line 3: unknown label 'zz'"),
            (lambda: parse_merge_table(["unitbpe-v1", "7", "9"], dau_vocabulary(4)),
             ValidationError, "line 3: unknown label '9'"),
            (lambda: parse_merge_table(["unitbpe-v1", "6", "a b"], letters("a", "b")),
             ValidationError, "line 3: unknown label 'a b'"),
            (lambda: train(read_corpus(["0 1 0 1"], "dau-int"), TrainOptions(8), threads=0), ContractError,
             "threads must be at least 1"),
        ],
        ids=["min-pair-count-0", "target-above-2^63", "surface-past-end", "surface-negative",
             "boundary-special-in-file", "unknown-label-in-file", "unknown-label-two-short",
             "unknown-label-dau", "label-with-space-one-short", "threads-0"],
    )
    def test_error_type_and_text(self, call, error, message):
        with pytest.raises(UnitBpeError) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_ids_up_to_2_63_train_exactly(self):
        # Base size 2^63 - 4 and target 2^63: every id stays below 2^63.
        top = 2**63 - 8
        corpus = read_corpus([f"{top} 1 {top} 1 {top} 1"], "dau-int")
        options = TrainOptions(2**63)
        table = train(corpus, options)
        assert table == naive_train(corpus, options)
        z = corpus.vocabulary.size
        assert table.merges == (Merge(0, top, 1, z), Merge(1, z, z, z + 1))
