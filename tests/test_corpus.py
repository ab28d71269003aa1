"""Vocabulary construction, corpus parsing, and boundary splitting."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitbpe import (
    BaseVocabulary,
    Corpus,
    ParseError,
    UnitSequence,
    ValidationError,
    corpus_stats,
    dau_vocabulary,
    join_chunks,
    load_corpus,
    load_vocabulary,
    read_corpus,
    save_corpus,
    save_vocabulary,
    split_on_boundaries,
    symbolic_vocabulary,
)
from unitbpe.codec import read_token_lines
from unitbpe.corpus import SPECIAL_LABELS, decode_lines, sequence_lines
from unitbpe.errors import ContractError, UnitBpeError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestVocabularies:
    def test_dau_vocabulary_size_and_specials(self):
        vocab = dau_vocabulary(1000)
        assert len(vocab) == 1003
        assert vocab.surface(0) == "0" and vocab.surface(999) == "999"
        assert [vocab.surface(i) for i in sorted(vocab.special)] == list(SPECIAL_LABELS)
        assert vocab.boundary is None
        assert len(vocab.content_ids()) == 1000

    def test_symbolic_vocabulary_appends_boundary_and_specials(self):
        vocab = symbolic_vocabulary(["K", "AE1", "T"])
        assert len(vocab) == 7  # 3 content + boundary + 3 specials
        assert vocab.boundary_surface == "_"
        assert vocab.id_of("_") == vocab.boundary
        assert not vocab.is_special(vocab.boundary)

    def test_symbolic_vocabulary_existing_boundary_not_duplicated(self):
        vocab = symbolic_vocabulary(["a", "_", "b"])
        assert len(vocab) == 6
        assert vocab.boundary == 1

    def test_reserved_labels_rejected(self):
        with pytest.raises(ValidationError):
            symbolic_vocabulary(["a", "<pad>"])

    def test_duplicate_surfaces_rejected(self):
        with pytest.raises(ValidationError):
            symbolic_vocabulary(["a", "a"])

    def test_unknown_label_lookup(self):
        vocab = symbolic_vocabulary(["a"])
        with pytest.raises(ValidationError):
            vocab.id_of("zz")

    def test_sidecar_round_trip(self, tmp_path):
        vocab = symbolic_vocabulary(["HH", "AH0", "L"], boundary_label="_")
        path = tmp_path / "v.txt"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\n<pad>\nb\n", "line 2: label '<pad>' is reserved"),
            ("a\nb\nc\nb\n", "line 4: duplicate surface label 'b', first on line 2"),
        ],
        ids=["reserved", "duplicate"],
    )
    def test_sidecar_rejected_label_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_vocabulary(path)
        assert str(err.value) == message

    def test_duplicate_label_found_in_linear_time(self, tmp_path):
        # A quadratic duplicate scan takes seconds on 20,001 labels.
        labels = [f"w{i}" for i in range(20000)] + ["w19999"]
        path = tmp_path / "v.txt"
        path.write_text("".join(label + "\n" for label in labels), encoding="utf-8")
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            load_vocabulary(path)
        with pytest.raises(ValidationError) as verr:
            symbolic_vocabulary(labels)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "line 20001: duplicate surface label 'w19999', first on line 20000"
        assert str(verr.value) == "duplicate surface label 'w19999'"

    def test_reserved_boundary_label_rejected(self):
        with pytest.raises(ValidationError) as err:
            symbolic_vocabulary(["a"], boundary_label="<eos>")
        assert str(err.value) == "label '<eos>' is reserved"

    def test_vocabulary_stores_no_per_id_state(self):
        vocab = dau_vocabulary(10**12)
        assert vocab._fields == ("size", "labels", "boundary")
        assert (vocab.size, vocab.labels, vocab.boundary) == (10**12 + 3, None, None)
        assert vocab.special == frozenset(range(10**12, 10**12 + 3))
        assert vocab.surface(10**12 - 1) == str(10**12 - 1) and vocab.id_of("<eos>") == 10**12 + 2


# Tokens a symbolic line may hold: decimal ids, some past the content ids,
# and near misses that int() accepts or that read as digits to str.isdigit.
TOKENS = st.one_of(
    st.integers(0, 45).map(str),
    st.sampled_from(["007", "00", "+1", "-1", "1_0", "\u0663", "\u00b2", "_", "a", *SPECIAL_LABELS]),
)


class TestUnlabelledVocabulary:
    """A DAU vocabulary stores no labels: content id i reads and prints as
    str(i). It must act exactly as an explicit label table does."""

    @given(st.integers(0, 40), st.lists(st.lists(TOKENS, max_size=6), max_size=4))
    def test_agrees_with_explicit_table(self, n, rows):
        vocab = dau_vocabulary(n)
        table = {str(i): i for i in range(n)}
        table.update((label, n + k) for k, label in enumerate(SPECIAL_LABELS))
        surfaces = {i: label for label, i in table.items()}

        explicit = symbolic_vocabulary([str(i) for i in range(n)], boundary_label=None)
        assert explicit == vocab and hash(explicit) == hash(vocab) and explicit.labels is None
        assert vocab != dau_vocabulary(n + 1)
        assert list(vocab.content_ids()) == list(range(n)) and vocab.special == set(range(n, n + 3))
        assert [vocab.surface(i) for i in range(n + 3)] == [surfaces[i] for i in range(n + 3)]
        for token in {t for row in rows for t in row}:
            if token in table:
                assert vocab.id_of(token) == table[token]
            else:
                with pytest.raises(ValidationError):
                    vocab.id_of(token)

        lines = [" ".join(row) for row in rows]
        # The first token that is not a content label, by line, as the parser reports it.
        bad = [(lineno, t) for lineno, row in enumerate(rows, start=1) for t in row if table.get(t, n) >= n]
        if bad:
            lineno, token = bad[0]
            reason = f"label {token!r} is a reserved special token" if token in table else f"unknown label {token!r}"
            with pytest.raises(ValidationError) as err:
                read_corpus(lines, "symbolic", vocab)
            assert str(err.value) == f"line {lineno}: {reason}"
        else:
            corpus = read_corpus(lines, "symbolic", vocab)
            assert [s.units for s in corpus.sequences] == [tuple(table[t] for t in row) for row in rows]
            assert list(sequence_lines(corpus.sequences, vocab, "symbolic")) == lines

        ids = [table[t] for row in rows for t in row if t in table]
        assert list(sequence_lines([UnitSequence(tuple(ids))], vocab, "symbolic")) == [
            " ".join(surfaces[i] for i in ids)
        ]

    def test_boundary_labelled_by_its_id(self):
        vocab = symbolic_vocabulary(["0", "1"], boundary_label="2")
        assert vocab == BaseVocabulary(6, None, 2)
        assert vocab.boundary_surface == "2" and vocab.id_of("2") == 2


class TestCorpusParsing:
    def test_dau_int_inferred_vocabulary(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 5 2\n\n7 7\n", encoding="utf-8")
        corpus = load_corpus(path, "dau-int")
        assert len(corpus.vocabulary) == 8 + 3
        assert [s.units for s in corpus.sequences] == [(0, 5, 2), (), (7, 7)]

    def test_dau_int_non_integer_token_reports_line(self):
        with pytest.raises(ParseError) as err:
            read_corpus(["1 2", "3 x"], "dau-int")
        assert "line 2" in str(err.value)

    def test_dau_int_rejects_out_of_range_and_special_ids(self):
        vocab = dau_vocabulary(4)
        with pytest.raises(ValidationError):
            read_corpus(["0 9"], "dau-int", vocab)
        with pytest.raises(ValidationError):
            read_corpus(["0 4"], "dau-int", vocab)  # id 4 is <pad>
        with pytest.raises(ValidationError):
            read_corpus(["-1"], "dau-int")

    def test_symbolic_inferred_first_appearance_order(self):
        corpus = read_corpus(["b a", "c a"], "symbolic", boundary_label=None)
        vocab = corpus.vocabulary
        assert [vocab.surface(i) for i in range(3)] == ["b", "a", "c"]
        assert corpus.sequences[0].units == (0, 1)

    def test_symbolic_unknown_label_with_fixed_vocabulary(self):
        vocab = symbolic_vocabulary(["a", "b"])
        with pytest.raises(ValidationError) as err:
            read_corpus(["a q"], "symbolic", vocab)
        assert "line 1" in str(err.value)

    def test_symbolic_reserved_label_rejected(self):
        with pytest.raises(ValidationError):
            read_corpus(["a <bos>"], "symbolic")

    def test_empty_file_yields_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        corpus = load_corpus(path, "dau-int")
        assert len(corpus) == 0 and corpus.total_units == 0

    def test_unknown_format_is_contract_error(self):
        with pytest.raises(ContractError):
            read_corpus([], "csv")

    def test_save_load_round_trip_both_formats(self, tmp_path):
        vocab = symbolic_vocabulary(["a", "b", "c"])
        corpus = read_corpus(["a b _ c", "", "c c"], "symbolic", vocab)
        for fmt in ("dau-int", "symbolic"):
            path = tmp_path / f"c.{fmt}"
            save_corpus(corpus, path, fmt)
            again = load_corpus(path, fmt, vocab)
            assert again.sequences == corpus.sequences

    def test_sequences_validated_against_vocabulary(self):
        vocab = symbolic_vocabulary(["a"], boundary_label=None)
        with pytest.raises(ValidationError):
            Corpus(vocab, (UnitSequence((99,)),))

    # Lines 1 and 2 are valid; the bad token is on line 3, after a good one.
    @pytest.mark.parametrize(
        "parse, bad, error, message",
        [
            (lambda lines: read_corpus(lines, "dau-int"), "x", ParseError, "line 3: non-integer token 'x'"),
            (lambda lines: read_corpus(lines, "dau-int"), "-2", ValidationError, "line 3: negative unit id -2"),
            (
                lambda lines: read_corpus(lines, "dau-int", dau_vocabulary(4)),
                "9", ValidationError, "line 3: unit id 9 outside vocabulary of size 7",
            ),
            (
                lambda lines: read_corpus(lines, "dau-int", dau_vocabulary(4)),
                "5", ValidationError, "line 3: id 5 is a reserved special token",
            ),
            (
                lambda lines: read_corpus(lines, "symbolic", symbolic_vocabulary(["0", "1", "2", "3"])),
                "q", ValidationError, "line 3: unknown label 'q'",
            ),
            (
                lambda lines: read_corpus(lines, "symbolic", symbolic_vocabulary(["0", "1", "2", "3"])),
                "<eos>", ValidationError, "line 3: label '<eos>' is a reserved special token",
            ),
            (lambda lines: read_corpus(lines, "symbolic"), "<bos>", ValidationError, "label '<bos>' is reserved"),
            (read_token_lines, "4.0", ParseError, "line 3: non-integer token '4.0'"),
        ],
        ids=[
            "non-integer", "negative", "out-of-range", "dau-special", "unknown-label", "special-label",
            "inferred-reserved-label", "token-line-non-integer",
        ],
    )
    def test_bad_token_on_line_3_message(self, parse, bad, error, message):
        with pytest.raises(error) as err:
            parse(["0 1", "", f"2 {bad} 3"])
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["5", "", "-1"], "line 1: id 5 is a reserved special token"),
            (["9", "", "x"], "line 1: unit id 9 outside vocabulary of size 7"),
            (["0 1", "4 -2", "x"], "line 2: negative unit id -2"),
        ],
        ids=["special-before-negative", "out-of-range-before-non-integer", "negative-before-special-in-line"],
    )
    def test_dau_int_reports_the_first_bad_line(self, lines, message):
        with pytest.raises(UnitBpeError) as err:
            read_corpus(lines, "dau-int", dau_vocabulary(4))
        assert str(err.value) == message


class TestLineEnds:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lf_crlf_and_cr_end_lines_alike(self, end):
        text = "0 1\n\n2 3\n"
        assert decode_lines(text.replace("\n", end).encode()) == ["0 1", "", "2 3"]
        assert decode_lines(text.replace("\n", end).encode()[:-len(end)]) == ["0 1", "", "2 3"]

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_other_line_separators_split_tokens_not_lines(self, sep):
        lines = decode_lines(f"0 1{sep}2\n3{sep}x\n".encode())
        assert lines == [f"0 1{sep}2", f"3{sep}x"]
        with pytest.raises(ParseError) as err:
            read_corpus(lines, "dau-int")
        assert str(err.value) == "line 2: non-integer token 'x'"
        assert read_corpus(lines[:1], "dau-int").sequences == (UnitSequence((0, 1, 2)),)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_invalid_utf8_line_counts_the_same_line_ends(self, end):
        data = f"0{end}1\x0c2{end}3 ".encode() + b"\xff"
        with pytest.raises(ParseError) as err:
            decode_lines(data)
        assert str(err.value) == "line 3: byte 0xff is not valid UTF-8"


class TestErrors:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda _: BaseVocabulary(5, ("a",)), ValidationError, "1 content labels do not fit a vocabulary of size 5"),
            (lambda _: BaseVocabulary(2), ValidationError, "base size too small for synthesized vocabulary"),
            (lambda _: BaseVocabulary(5, boundary=5), ValidationError, "boundary id 5 outside vocabulary"),
            (lambda _: BaseVocabulary(5, boundary=-1), ValidationError, "boundary id -1 outside vocabulary"),
            (lambda _: BaseVocabulary(5, boundary=2), ValidationError, "boundary must not be a special token"),
            (lambda _: BaseVocabulary(5).surface(5), ValidationError, "unit id 5 outside vocabulary of size 5"),
            (lambda _: BaseVocabulary(5).surface(-1), ValidationError, "unit id -1 outside vocabulary of size 5"),
            (lambda _: dau_vocabulary(-1), ContractError, "cluster count must be non-negative"),
            (lambda tmp: load_vocabulary(write(tmp / "v", "a\n\nb\n")), ParseError, "line 2: empty label"),
            (lambda _: list(sequence_lines([], dau_vocabulary(2), "csv")), ContractError,
             "unknown corpus format 'csv'"),
        ],
        ids=[
            "labels-do-not-fit", "size-too-small", "boundary-past-end", "boundary-negative",
            "boundary-special", "surface-past-end", "surface-negative", "negative-clusters",
            "empty-sidecar-label", "unknown-render-format",
        ],
    )
    def test_error_type_and_text(self, tmp_path, call, error, message):
        with pytest.raises(UnitBpeError) as err:
            call(tmp_path)
        assert type(err.value) is error
        assert str(err.value) == message


class TestBoundarySplitting:
    def test_split_and_join_inverse(self):
        vocab = symbolic_vocabulary(["a", "b"])
        b = vocab.boundary
        seq = UnitSequence((0, 1, b, b, 0, b))
        chunks = split_on_boundaries(seq, vocab)
        assert [c.units for c in chunks] == [(0, 1), (), (0,), ()]
        assert join_chunks(chunks, b) == seq

    def test_split_requires_boundary(self):
        vocab = symbolic_vocabulary(["a"], boundary_label=None)
        with pytest.raises(ContractError):
            split_on_boundaries(UnitSequence((0,)), vocab)

    def test_boundary_count_yields_one_more_chunk(self):
        vocab = symbolic_vocabulary(["a"])
        b = vocab.boundary
        for n in range(5):
            seq = UnitSequence(tuple([0] + [b] * n))
            assert len(split_on_boundaries(seq, vocab)) == n + 1


class TestCorpusStats:
    def test_stats_on_mixed_lengths(self):
        corpus = read_corpus(["1 2 3", "", "4"], "dau-int")
        stats = corpus_stats(corpus)
        assert stats.sequence_count == 3
        assert stats.total_units == 4
        assert stats.mean_length == pytest.approx(4 / 3)
        assert (stats.min_length, stats.max_length) == (0, 3)

    def test_stats_on_empty_corpus(self):
        corpus = read_corpus([], "dau-int")
        stats = corpus_stats(corpus)
        assert stats.sequence_count == 0
        assert stats.mean_length is None
