"""Vocabulary construction, corpus parsing, and boundary splitting."""

import io
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitbpe import (
    BaseVocabulary,
    Corpus,
    Merge,
    MergeTable,
    ParseError,
    TrainOptions,
    UnitSequence,
    ValidationError,
    corpus_stats,
    dau_vocabulary,
    load_corpus,
    load_vocabulary,
    parse_merge_table,
    read_corpus,
    save_corpus,
    save_merge_table,
    save_vocabulary,
    symbolic_vocabulary,
    train,
)
from unitbpe.codec import read_token_lines, token_lines
from unitbpe.corpus import FORMATS, SPECIAL_LABELS, corpus_lines, decode_lines, split_chunks
from unitbpe.errors import ContractError, UnitBpeError
from tests.conftest import untrained_tables


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

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.text(min_size=1, max_size=4), max_size=6, unique=True),
        boundary=st.none() | st.integers(0, 5),
        respect_boundaries=st.booleans(),
        min_pair_count=st.integers(1, 3),
        drop_boundary=st.booleans(),
    )
    def test_every_accepted_vocabulary_round_trips_through_files(
        self, tmp_path_factory, labels, boundary, respect_boundaries, min_pair_count, drop_boundary
    ):
        # Empty and repeated labels are left to TestErrors, so most draws build.
        if boundary is not None and boundary >= len(labels):
            boundary = None
        if drop_boundary and boundary is not None:
            boundary = len(labels) - 1  # the trailing label, left out of the saved sidecar below
        try:
            vocab = BaseVocabulary(len(labels) + 3, tuple(labels), boundary)
        except ValidationError:
            return  # a label that holds whitespace or is reserved
        sidecar = tmp_path_factory.mktemp("v") / "v.txt"
        save_vocabulary(vocab, sidecar)
        assert load_vocabulary(sidecar, boundary_label=vocab.boundary_surface) == vocab

        units = tuple(vocab.content_ids()) * 2
        options = TrainOptions(vocab.size + 3, respect_boundaries, min_pair_count)
        table = train(Corpus(vocab, (UnitSequence(units),)), options)
        out = io.StringIO()
        save_merge_table(table, out)
        lines = out.getvalue().splitlines()
        if drop_boundary and boundary is not None:
            # As train appends a boundary label its sidecar lacks, so the
            # table's line 3 appends it; a table without a boundary cannot.
            save_vocabulary(BaseVocabulary(vocab.size - 1, tuple(labels[:-1])), sidecar)
            if table.base.boundary is None:
                with pytest.raises(ValidationError, match="does not match recorded base size"):
                    parse_merge_table(lines, load_vocabulary(sidecar, boundary_label=None))
                return
        assert parse_merge_table(lines, load_vocabulary(sidecar, boundary_label=None)) == table


# Tokens a line may hold: decimal ids, some past the content ids, and near
# misses that int() accepts or that read as digits to str.isdigit.
TOKENS = st.one_of(
    st.integers(0, 45).map(str),
    st.sampled_from([
        "007", "00", "05", "+1", "-1", "-0", "-05", "1_0", "\u0663", "\u00b2", "_", "a", *SPECIAL_LABELS,
    ]),
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
            assert list(corpus_lines(corpus, "symbolic")) == lines

        ids = [table[t] for row in rows for t in row if t in table]
        assert list(corpus_lines(Corpus(vocab, (UnitSequence(tuple(ids)),)), "symbolic")) == [
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
            (
                lambda lines: read_corpus(lines, "symbolic"),
                "<bos>", ValidationError, "line 3: label '<bos>' is a reserved special token",
            ),
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


# The id spelling rule written out as a pattern, apart from the parsers'
# own test: ASCII 0, or [1-9][0-9]* after an optional minus sign.
ID_SPELLING = re.compile(r"0|-?[1-9][0-9]*")
LAX_SPELLINGS = ["+2", "1_0", "٣", "05", "-0", "-05"]
FAULTS = st.sampled_from(["x", "²", "q", "-2", "99", *LAX_SPELLINGS, *SPECIAL_LABELS])


def spelling_fault(text: str) -> str | None:
    """Why a token spells no id, in the parsers' words, or None if it does."""
    try:
        int(text)
    except ValueError:
        return f"non-integer token {text!r}"
    return None if ID_SPELLING.fullmatch(text) else f"non-canonical integer token {text!r}"


def reference_read(lines, fmt, vocab, boundary_label="_"):
    """read_corpus one token at a time, with nothing remembered between
    lines but inferred labels: the vocabulary and sequences, or the type
    and text of the first error."""
    labels: dict[str, int] = {}
    sequences = []
    try:
        for lineno, line in enumerate(lines, start=1):
            tokens, ids = line.split(), []
            if fmt == "dau-int":
                for token in tokens:
                    if spelling_fault(token):
                        raise ParseError(spelling_fault(token), line=lineno)
                ids = [int(token) for token in tokens]
                for i in ids:
                    if i < 0:
                        raise ValidationError(f"line {lineno}: negative unit id {i}")
                for i in ids if vocab is not None else []:
                    if i >= vocab.size:
                        raise ValidationError(f"line {lineno}: unit id {i} outside vocabulary of size {vocab.size}")
                    if i >= vocab.size - 3:
                        raise ValidationError(f"line {lineno}: id {i} is a reserved special token")
            for token in tokens if fmt == "symbolic" else []:
                content = [] if vocab is None else [vocab.surface(i) for i in vocab.content_ids()]
                if token in SPECIAL_LABELS:
                    raise ValidationError(f"line {lineno}: label {token!r} is a reserved special token")
                if vocab is None:
                    ids.append(labels.setdefault(token, len(labels)))
                elif token in content:
                    ids.append(content.index(token))
                else:
                    raise ValidationError(f"line {lineno}: unknown label {token!r}")
            sequences.append(tuple(ids))
    except UnitBpeError as err:
        return type(err), str(err)
    if vocab is None and fmt == "dau-int":
        vocab = dau_vocabulary(max((i for ids in sequences for i in ids), default=-1) + 1)
    elif vocab is None:
        vocab = symbolic_vocabulary(list(labels), boundary_label)
    return vocab, sequences


@st.composite
def corpus_inputs(draw):
    """A format, no vocabulary or an unlabelled or labelled one, and lines
    of repeated good tokens, with at most one fault on a random line."""
    fmt = draw(st.sampled_from(FORMATS))
    vocab = draw(st.one_of(
        st.none(),
        st.integers(0, 8).map(dau_vocabulary),
        st.lists(st.sampled_from(["a", "b", "_", "0", "1", "05", "+1"]), unique=True, max_size=5).map(
            lambda labels: symbolic_vocabulary(labels, boundary_label=None)
        ),
    ))
    if vocab is not None:
        good = [vocab.surface(i) for i in vocab.content_ids()] if fmt == "symbolic" else vocab.content_ids()
    else:
        good = ["a", "b", "_", "0", "7"] if fmt == "symbolic" else range(13)
    good = list(map(str, good))
    row = st.lists(st.sampled_from(good), max_size=6) if good else st.just([])
    rows = draw(st.lists(row, max_size=6))
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        rows[k].insert(draw(st.integers(0, len(rows[k]))), draw(st.one_of(FAULTS, TOKENS)))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    return fmt, vocab, [sep.join(row) for row in rows]


def reference_merge_parse(lines, vocab):
    """parse_merge_table's rows read one at a time: each row's field count,
    then its tokens in order, and the rules only once every row has parsed.
    The table, or the type, text, line and rule of the first error."""
    for lineno, row in enumerate(lines[3:], start=4):
        fields = row.split()
        if len(fields) != 4:
            fault = f"expected 4 fields, got {len(fields)}" if fields else "blank merge row"
            return ParseError, f"line {lineno}: {fault}", lineno, None
        for field in fields:
            if spelling_fault(field):
                return ParseError, f"line {lineno}: {spelling_fault(field)}", lineno, None
    merges = tuple(Merge(*map(int, row.split())) for row in lines[3:])
    try:
        return MergeTable(vocab, merges)
    except ValidationError as err:
        return ValidationError, f"line {err.rule + 4}: {err}", None, err.rule


ROW_FAULTS = st.sampled_from(["blank", "one-fewer", "one-more", "x", *LAX_SPELLINGS, "9" * 4301])


@st.composite
def faulted_merge_files(draw):
    """A saved valid table and its lines with up to 3 faults on random rows
    (a row may take two), and sometimes a rule broken on a row before the
    first faulted one."""
    table = draw(untrained_tables(vocabularies=lambda content: st.sampled_from([
        dau_vocabulary(content), symbolic_vocabulary([f"u{i}" for i in range(content)], "_"),
    ])))
    out = io.StringIO()
    save_merge_table(table, out)
    lines = out.getvalue().splitlines()
    body = range(3, len(lines))
    faulted = draw(st.lists(st.sampled_from(body), max_size=3)) if body else []
    for k in faulted:
        fields, fault = lines[k].split(), draw(ROW_FAULTS)
        j = draw(st.integers(0, max(len(fields) - 1, 0)))
        if fault == "blank":
            fields = []
        elif fault == "one-fewer":
            del fields[j:j + 1]
        elif fault == "one-more":
            fields.insert(j, draw(st.sampled_from(["0", "x", "05"])))
        else:
            fields[j:j + 1] = [fault]
        lines[k] = " ".join(fields)
    earlier = range(3, min(faulted, default=len(lines)))
    if earlier and draw(st.booleans()):
        k = draw(st.sampled_from(earlier))
        rank, left, right, result = lines[k].split()
        lines[k] = f"{int(rank) + 1} {left} {right} {result}"  # ranks must be dense
    return table, lines


class TestOneSpelling:
    """Every parser reads an id one way, each distinct token text once, and
    agrees with a per-token reference; what it accepts re-saves as read."""

    @settings(max_examples=300, deadline=None)
    @given(corpus_inputs())
    def test_read_corpus_matches_a_per_token_reference(self, inputs):
        fmt, vocab, lines = inputs
        try:
            corpus = read_corpus(lines, fmt, vocab)
        except UnitBpeError as err:
            got = type(err), str(err)
        else:
            got = corpus.vocabulary, [seq.units for seq in corpus.sequences]
            assert list(corpus_lines(corpus, fmt)) == [" ".join(line.split()) for line in lines]
        assert got == reference_read(lines, fmt, vocab)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.integers(-3, 9).map(str), TOKENS, FAULTS), max_size=6), max_size=6))
    def test_token_lines_match_a_per_token_reference(self, rows):
        lines = [" ".join(row) for row in rows]
        faults = [(k, spelling_fault(t)) for k, row in enumerate(rows, start=1) for t in row if spelling_fault(t)]
        if faults:
            with pytest.raises(ParseError) as err:
                read_token_lines(lines)
            assert str(err.value) == f"line {faults[0][0]}: {faults[0][1]}"
        else:
            sequences = read_token_lines(lines)
            assert [seq.tokens for seq in sequences] == [tuple(map(int, row)) for row in rows]
            assert list(token_lines(sequences)) == lines

    @settings(max_examples=200, deadline=None)
    @given(untrained_tables(vocabularies=lambda content: st.just(dau_vocabulary(content))), st.data())
    def test_merge_file_respelt_fails_on_its_line_or_resaves_as_read(self, table, data):
        out = io.StringIO()
        save_merge_table(table, out)
        lines = out.getvalue().splitlines()
        k = data.draw(st.sampled_from([1, *range(3, len(lines))]))
        cols = lines[k].split()
        j = data.draw(st.integers(0, len(cols) - 1))
        old = cols[j]
        cols[j] = data.draw(st.sampled_from([
            old, "0" + old, "+" + old, old[0] + "_" + old[1:] if old[1:] else "-" + old,
            old.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
            "x",
        ]))
        lines[k] = data.draw(st.sampled_from([" ", "\t", "  "])).join(cols)
        fault = spelling_fault(cols[j])
        if fault is None and cols[j] != old:  # "-" before a nonzero id: a negative base or side
            with pytest.raises(UnitBpeError):
                parse_merge_table(lines)
        elif fault is None:
            assert parse_merge_table(lines) == table
            again = io.StringIO()
            save_merge_table(parse_merge_table(lines), again)
            assert again.getvalue().splitlines() == [" ".join(line.split()) for line in lines]
        else:
            with pytest.raises(ParseError) as err:
                parse_merge_table(lines)
            if k == 1:
                spelt = "a canonical integer" if fault.startswith("non-canonical") else "an integer"
                assert str(err.value) == f"line 2: base vocabulary size must be {spelt}, got {lines[1]!r}"
            else:
                assert str(err.value) == f"line {k + 1}: {fault}"

    @pytest.mark.parametrize("text", LAX_SPELLINGS)
    def test_each_lax_spelling_is_no_id_to_any_parser(self, text):
        lines = ["1", f"1 {text}"]
        for parse, line in (
            (lambda: read_corpus(lines, "dau-int"), 2),
            (lambda: read_corpus(lines, "dau-int", dau_vocabulary(9)), 2),
            (lambda: read_token_lines(lines), 2),
            (lambda: parse_merge_table(["unitbpe-v1", "6", "", f"0 0 1 {text}"]), 4),
        ):
            with pytest.raises(ParseError) as err:
                parse()
            assert str(err.value) == f"line {line}: non-canonical integer token {text!r}"
        with pytest.raises(ValidationError) as err:
            read_corpus(lines, "symbolic", dau_vocabulary(9))
        assert str(err.value) == f"line 2: unknown label {text!r}"
        with pytest.raises(ValidationError):
            dau_vocabulary(9).id_of(text)
        with pytest.raises(ParseError) as err:
            parse_merge_table(["unitbpe-v1", text, ""])
        assert str(err.value) == f"line 2: base vocabulary size must be a canonical integer, got {text!r}"

    @settings(max_examples=300, deadline=None)
    @given(faulted_merge_files())
    def test_merge_file_faults_match_a_per_row_reference(self, inputs):
        table, lines = inputs
        try:
            got = parse_merge_table(lines, table.base)
        except UnitBpeError as err:
            got = type(err), str(err), getattr(err, "line", None), getattr(err, "rule", None)
        expected = reference_merge_parse(lines, table.base)
        assert got == expected
        if isinstance(expected, MergeTable):
            assert got == table

    def test_a_canonical_id_too_long_for_int_is_a_parse_fault(self):
        # int() refuses more than 4,300 digits, so such a token is no id.
        big = "9" * 4301
        for parse in (lambda lines: read_corpus(lines, "dau-int"), read_token_lines):
            with pytest.raises(ParseError) as err:
                parse(["0", f"1 {big}"])
            assert str(err.value) == f"line 2: non-integer token {big!r}"


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
            (lambda _: BaseVocabulary(5, ("a", "")), ValidationError,
             "label must be one token without whitespace, got ''"),
            (lambda _: BaseVocabulary(5, ("a b", "c")), ValidationError,
             "label must be one token without whitespace, got 'a b'"),
            (lambda _: symbolic_vocabulary(["a", "b"], boundary_label=" "), ValidationError,
             "label must be one token without whitespace, got ' '"),
            (lambda _: list(corpus_lines(Corpus(dau_vocabulary(2), ()), "csv")), ContractError,
             "unknown corpus format 'csv'"),
        ],
        ids=[
            "labels-do-not-fit", "size-too-small", "boundary-past-end", "boundary-negative",
            "boundary-special", "surface-past-end", "surface-negative", "negative-clusters",
            "empty-sidecar-label", "empty-label", "label-with-space", "whitespace-boundary-label",
            "unknown-render-format",
        ],
    )
    def test_error_type_and_text(self, tmp_path, call, error, message):
        with pytest.raises(UnitBpeError) as err:
            call(tmp_path)
        assert type(err.value) is error
        assert str(err.value) == message


class TestBoundarySplitting:
    def test_split_and_join_inverse(self):
        b = symbolic_vocabulary(["a", "b"]).boundary
        units = (0, 1, b, b, 0, b)
        runs = list(split_chunks(units, {b}))
        assert runs == [(0, 1), (), (0,), ()]
        assert sum(((b, *run) for run in runs[1:]), runs[0]) == units

    def test_boundary_count_yields_one_more_chunk(self):
        b = symbolic_vocabulary(["a"]).boundary
        for n in range(5):
            assert len(list(split_chunks((0,) + (b,) * n, {b}))) == n + 1

    # encode_corpus passes an empty set for a table without a boundary.
    @pytest.mark.parametrize("blocked", [set(), {7, 8}], ids=["empty-set", "disjoint-set"])
    def test_without_a_blocked_unit_the_one_run_is_the_input(self, blocked):
        units = (0, 1, 2, 0)
        runs = list(split_chunks(units, blocked))
        assert len(runs) == 1
        assert runs[0] is units

    def test_splits_at_each_of_several_blocked_ids(self):
        # bpe.train blocks the specials and the boundary together.
        vocab = symbolic_vocabulary(["a", "b"])
        pad, bos, eos = sorted(vocab.special)
        b = vocab.boundary
        units = (bos, 0, 1, b, 1, eos, pad, 0)
        assert list(split_chunks(units, vocab.special | {b})) == [(), (0, 1), (1,), (), (0,)]


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
