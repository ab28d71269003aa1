"""Command-line behavior: workflows, piping, exit codes, output formats."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitbpe
from unitbpe import (
    Corpus,
    MergeTable,
    TokenSequence,
    UnitBpeError,
    ValidationError,
    analyze,
    dau_vocabulary,
    decode,
    load_vocabulary,
    parse_merge_table,
    read_corpus,
    save_merge_table,
    save_vocabulary,
    symbolic_vocabulary,
)
from unitbpe.cli import build_parser, main
from unitbpe.corpus import FORMATS, corpus_lines, parse_id_line, read_lines
from tests.conftest import untrained_tables

LAZY_MODULES = {"unitbpe.metrics", "unitbpe.oracle", "unitbpe.synth"}
# Modules the package's records do without; loading them costs a child
# about 7 ms of its start-up.
STARTUP_FREE = {"dataclasses", "inspect"}


def stdin_of(text: str) -> io.TextIOWrapper:
    """A stand-in for sys.stdin with a byte buffer, as the real one has."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter over this package, where nothing is imported
    yet: in this process pytest has already imported every module."""
    path = [str(Path(unitbpe.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def symbolic_words() -> str:
    """60 lines of 2 to 8 words drawn with seed 3, with `_` between words."""
    rng = random.Random(3)
    words = ["k ae t", "d ao g", "k ae t s", "ae t", "t ae k", "g ao d", "d ae d"]
    return "".join(" _ ".join(rng.choice(words) for _ in range(rng.randint(2, 8))) + "\n" for _ in range(60))


def imported_modules(*args: str) -> set[str]:
    """The modules a fresh interpreter imports: -X importtime writes one
    stderr line per module."""
    proc = run_fresh("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


@pytest.fixture()
def dau_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("0 1 0 1 2\n2 0 1 0 1\n0 1 2 2\n", encoding="utf-8")
    return path


@pytest.fixture()
def trained(tmp_path, dau_corpus, capsys):
    merges = tmp_path / "m.bpe"
    code = main(
        ["train", "--input", str(dau_corpus), "--format", "dau-int",
         "--target-size", "8", "--out", str(merges)]
    )
    capsys.readouterr()
    assert code == 0
    return merges


class TestTrain:
    def test_writes_versioned_table(self, capsys, tmp_path, dau_corpus):
        out = tmp_path / "m.bpe"
        code, _, _ = run(capsys, "train", "--input", str(dau_corpus),
                         "--target-size", "8", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "unitbpe-v1"
        assert lines[1] == "6"
        assert len(lines) > 3

    def test_stdout_and_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("0 1 0 1\n0 1\n"))
        code, out, _ = run(capsys, "train", "--input", "-", "--target-size", "6")
        assert code == 0
        assert out.startswith("unitbpe-v1\n")

    # The trainer and the encoder against their reference versions, byte for
    # byte. Each case names its corpus, the target size, train's own flags
    # and what to encode: the corpus, or its first 10 lines twice, then an
    # empty line and a one-unit line. A symbolic case reads its sidecar from
    # v.vocab; the last one writes it without `_` first, so loading the
    # table appends line 3's label to it as training did.
    @pytest.mark.parametrize(
        "corpus, target, train_flags, repeats",
        [
            ("small", 8, (), False),
            ("zipf", 300, (), False),
            ("zipf", 300, (), True),
            ("words", 20, ("--save-vocab", "v.vocab"), False),
            ("words", 30, ("--no-boundary", "--save-vocab", "v.vocab"), False),
            ("words", 20, ("--vocab", "v.vocab"), False),
        ],
        ids=["dau-int-small", "dau-int", "dau-int-repeats", "symbolic", "symbolic-no-boundary",
             "sidecar-without-boundary"],
    )
    def test_oracle_flag_matches_fast_path(self, capsys, monkeypatch, tmp_path, corpus, target, train_flags, repeats):
        monkeypatch.chdir(tmp_path)
        if corpus == "zipf":
            assert run(capsys, "synth", "zipf", "--seed", "5", "--vocab-size", "40", "--sequences", "40",
                       "--length", "200", "--out", "c.txt")[0] == 0
        else:
            Path("c.txt").write_text("0 1 0 1 2\n2 0 1 0 1\n0 1 2 2\n" if corpus == "small" else symbolic_words())
        text = Path("c.txt").read_text()
        codec_flags = ("--format", "symbolic", "--vocab", "v.vocab") if corpus == "words" else ()
        if "--vocab" in train_flags:
            Path("v.vocab").write_text("".join(f"{label}\n" for label in dict.fromkeys(text.split()) if label != "_"))
        Path("e.txt").write_text("".join(text.splitlines(keepends=True)[:10] * 2) + "\n7\n" if repeats else text)
        for oracle, suffix in (((), ""), (("--oracle",), ".oracle")):
            assert run(capsys, "train", "--input", "c.txt", *codec_flags[:2], *train_flags,
                       "--target-size", str(target), *oracle, "--out", f"m{suffix}.bpe")[0] == 0
            assert run(capsys, "encode", "--input", "e.txt", "--merges", "m.bpe", *codec_flags, *oracle,
                       "--out", f"t{suffix}.txt")[0] == 0
        assert Path("m.bpe").read_bytes() == Path("m.oracle.bpe").read_bytes()
        assert Path("t.txt").read_bytes() == Path("t.oracle.txt").read_bytes()
        assert run(capsys, "decode", "--input", "t.txt", "--merges", "m.bpe", *codec_flags, "--out", "d.txt")[0] == 0
        assert Path("d.txt").read_bytes() == Path("e.txt").read_bytes()

    def test_save_vocab_sidecar(self, capsys, tmp_path):
        corpus = tmp_path / "p.txt"
        corpus.write_text("K AE1 T _ S AE1 T\n", encoding="utf-8")
        vocab_out = tmp_path / "p.vocab"
        code, _, _ = run(capsys, "train", "--input", str(corpus), "--format", "symbolic",
                         "--target-size", "12", "--save-vocab", str(vocab_out), "--out", str(tmp_path / "p.bpe"))
        assert code == 0
        # first-appearance order; "_" occurs in the corpus itself
        assert vocab_out.read_text().splitlines() == ["K", "AE1", "T", "_", "S"]


    def test_note_when_short_of_target(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("1 2 1 2 1 2\n"))
        code, out, err = run(capsys, "train", "--input", "-", "--target-size", "100")
        assert code == 0
        assert len(out.splitlines()) == 3 + 2
        assert err == (
            "unitbpe: note: stopped after 2 merges at |Z| = 8, short of --target-size 100:"
            " the best remaining pair has count 1, below --min-pair-count 2\n"
        )

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["fast", "oracle"])
    @pytest.mark.parametrize(
        "text, flags, note",
        [
            # (1, 2) merges into 6, which leaves a line of one token.
            ("1 2\n", ("--min-pair-count", "1"),
             "stopped after 1 merges at |Z| = 7, short of --target-size 100: no pair is left to merge"),
            # (1, 1) and (1, 2) occur twice each; the tie goes to (1, 1),
            # after which every pair occurs once.
            ("1 1 2 _ 1 2 1 1\n", ("--format", "symbolic", "--min-pair-count", "2"),
             "stopped after 1 merges at |Z| = 7, short of --target-size 100:"
             " the best remaining pair has count 1, below --min-pair-count 2"),
            # Pairs with "_" count too, and none occurs three times.
            ("1 1 2 _ 1 2 1 1\n", ("--format", "symbolic", "--no-boundary", "--min-pair-count", "3"),
             "stopped after 0 merges at |Z| = 6, short of --target-size 100:"
             " the best remaining pair has count 2, below --min-pair-count 3"),
            # Only pairs with the boundary are left, and it blocks them all.
            ("1 2 _ 1 2 _ 1 2\n", ("--format", "symbolic"),
             "stopped after 1 merges at |Z| = 7, short of --target-size 100: no pair is left to merge"),
        ],
        ids=["no-pairs", "below-count", "no-boundary", "boundary-only"],
    )
    def test_note_names_why_training_stopped(self, capsys, monkeypatch, text, flags, note, oracle):
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        code, _, err = run(capsys, "train", "--input", "-", "--target-size", "100", *flags, *oracle)
        assert code == 0
        assert err == f"unitbpe: note: {note}\n"

    def test_no_note_when_target_reached(self, capsys, dau_corpus):
        code, _, err = run(capsys, "train", "--input", str(dau_corpus), "--target-size", "7")
        assert code == 0
        assert err == ""


class TestEncodeDecode:
    def test_file_round_trip(self, capsys, tmp_path, dau_corpus, trained):
        tok = tmp_path / "tok.txt"
        back = tmp_path / "back.txt"
        assert run(capsys, "encode", "--input", str(dau_corpus), "--merges", str(trained),
                   "--out", str(tok))[0] == 0
        assert run(capsys, "decode", "--input", str(tok), "--merges", str(trained),
                   "--out", str(back))[0] == 0
        assert back.read_text() == dau_corpus.read_text()

    def test_piped_round_trip(self, capsys, monkeypatch, dau_corpus, trained):
        monkeypatch.setattr("sys.stdin", stdin_of(dau_corpus.read_text()))
        code, encoded, _ = run(capsys, "encode", "--input", "-", "--merges", str(trained))
        assert code == 0
        monkeypatch.setattr("sys.stdin", stdin_of(encoded))
        code, decoded, _ = run(capsys, "decode", "--input", "-", "--merges", str(trained))
        assert code == 0
        assert decoded == dau_corpus.read_text()

    def test_surfaces_rendering(self, capsys, tmp_path):
        corpus = tmp_path / "p.txt"
        corpus.write_text("K AE1 T _ K AE1 T\n", encoding="utf-8")
        vocab = tmp_path / "p.vocab"
        merges = tmp_path / "p.bpe"
        assert run(capsys, "train", "--input", str(corpus), "--format", "symbolic",
                   "--target-size", "12", "--save-vocab", str(vocab), "--out", str(merges))[0] == 0
        code, out, _ = run(capsys, "encode", "--input", str(corpus), "--format", "symbolic",
                           "--merges", str(merges), "--vocab", str(vocab), "--surfaces")
        assert code == 0
        assert out == "K+AE1+T _ K+AE1+T\n"

    def test_symbolic_decode_restores_labels(self, capsys, tmp_path):
        corpus = tmp_path / "p.txt"
        corpus.write_text("HH AH0 _ HH AH0\nAH0 HH\n", encoding="utf-8")
        vocab = tmp_path / "p.vocab"
        merges = tmp_path / "p.bpe"
        tok = tmp_path / "p.tok"
        assert run(capsys, "train", "--input", str(corpus), "--format", "symbolic",
                   "--target-size", "10", "--save-vocab", str(vocab), "--out", str(merges))[0] == 0
        assert run(capsys, "encode", "--input", str(corpus), "--format", "symbolic",
                   "--merges", str(merges), "--vocab", str(vocab), "--out", str(tok))[0] == 0
        code, out, _ = run(capsys, "decode", "--input", str(tok), "--format", "symbolic",
                           "--merges", str(merges), "--vocab", str(vocab))
        assert code == 0
        assert out == corpus.read_text()

    @pytest.mark.parametrize(
        "boundary_flags", [(), ("--boundary", "|"), ("--no-boundary",)], ids=["default", "pipe", "none"]
    )
    def test_sidecar_round_trip_under_any_boundary(self, capsys, tmp_path, boundary_flags):
        # The corpus has no "_", so the sidecar's size depends on the
        # boundary chosen at training; later commands read it from the table.
        corpus = tmp_path / "p.txt"
        corpus.write_text("K AE1 T S\nK AE1 T\nS K AE1 T\n", encoding="utf-8")
        vocab, merges = tmp_path / "p.vocab", tmp_path / "p.bpe"
        tok, back = tmp_path / "p.tok", tmp_path / "p.back"
        assert run(capsys, "train", "--input", str(corpus), "--format", "symbolic", *boundary_flags,
                   "--target-size", "10", "--save-vocab", str(vocab), "--out", str(merges))[0] == 0
        table_args = ("--format", "symbolic", "--merges", str(merges), "--vocab", str(vocab))
        assert run(capsys, "encode", "--input", str(corpus), *table_args, "--out", str(tok))[0] == 0
        assert run(capsys, "decode", "--input", str(tok), *table_args, "--out", str(back))[0] == 0
        assert back.read_bytes() == corpus.read_bytes()
        assert run(capsys, "analyze", "--input", str(corpus), *table_args)[0] == 0

    def test_encode_oracle_flag_matches(self, capsys, tmp_path, dau_corpus, trained):
        fast = run(capsys, "encode", "--input", str(dau_corpus), "--merges", str(trained))
        slow = run(capsys, "encode", "--input", str(dau_corpus), "--merges", str(trained), "--oracle")
        assert fast[0] == slow[0] == 0
        assert fast[1] == slow[1]


def cli_vocabularies(content: int):
    """Bases the CLI reads in two ways: a DAU vocabulary, which it infers
    from the merge file, and labels, with or without a boundary, which it
    reads from a sidecar."""
    labelled = st.sampled_from([None, "_"]).map(
        lambda boundary: symbolic_vocabulary([f"u{i}" for i in range(content)], boundary_label=boundary)
    )
    return st.one_of(st.just(dau_vocabulary(content)), labelled)


def id_texts(table: MergeTable):
    """Token texts, mostly of ids that decode: ids in and around the merged
    vocabulary, spelt canonically or as ``int`` would also read them
    (``05``, ``+5``, ``1_0``), which spell no id, and texts that int rejects."""
    decodable = [t for t in range(table.vocab_size) if not table.base.is_special(t)]
    ids = st.one_of(*[st.sampled_from(decodable)] * 4, st.integers(-2, table.vocab_size + 2)).map(str)
    spelt = ids.flatmap(
        lambda s: st.sampled_from([s, s, "0" + s, "+" + s, s[0] + "_" + s[1:] if len(s) > 1 else s])
    )
    return st.one_of(*[spelt] * 8, st.sampled_from(["x", "1.5", "\u0663", "_"]))


def reference_decode(lines: list[str], table: MergeTable, fmt: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``decode``, one line after another:
    parse the ids, decode them with the library, reject specials, and
    render the sequences once every line has decoded."""
    sequences = []
    for lineno, line in enumerate(lines, start=1):
        try:
            ids = parse_id_line(line, lineno)
            try:
                sequences.append(decode(TokenSequence(ids), table))
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            bad = [t for t in ids if t in table.base.special]
            if bad:
                raise ValidationError(f"line {lineno}: token id {bad[0]} is a reserved special token")
        except UnitBpeError as exc:
            return 1, "", f"unitbpe: error: {exc}\n"
    return 0, "".join(line + "\n" for line in corpus_lines(Corpus(table.base, tuple(sequences)), fmt)), ""


class TestDecodeMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(untrained_tables(max_content=4, vocabularies=cli_vocabularies), st.sampled_from(FORMATS), st.data())
    def test_cli_decode_matches_per_line_reference(self, tmp_path_factory, table, fmt, data):
        line = st.lists(id_texts(table), max_size=6).flatmap(
            lambda texts: st.sampled_from([" ", "\t", "  "]).map(lambda sep: sep.join(texts))
        )
        lines = data.draw(st.lists(line, max_size=6))
        tmp = tmp_path_factory.mktemp("decode")
        save_merge_table(table, tmp / "m.bpe")
        (tmp / "t.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        argv = ["decode", "--input", str(tmp / "t.txt"), "--merges", str(tmp / "m.bpe"), "--format", fmt]
        if table.base.labels is not None:
            save_vocabulary(table.base, tmp / "m.vocab")
            argv += ["--vocab", str(tmp / "m.vocab")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == reference_decode(lines, table, fmt)

    @settings(max_examples=200, deadline=None)
    @given(untrained_tables(vocabularies=cli_vocabularies, recent=3), st.data())
    def test_token_surface_expands_the_rules(self, table, data):
        base = table.base.size

        @cache  # the plain recursion, once per id: a surface may spell 2^17 units
        def expand(t):
            if t < base:
                return (t,)
            m = table.merges[t - base]
            return expand(m.left) + expand(m.right)

        # Lookups in any order, repeats included, each against a fresh
        # expansion. Some read a merged token's two halves just before it,
        # so its own lookup joins two stored surfaces instead of walking.
        order = []
        lookups = st.tuples(st.integers(0, table.vocab_size - 1), st.booleans())
        for t, halves_first in data.draw(st.lists(lookups, max_size=20)):
            if halves_first and t >= base:
                order += table.merges[t - base][1:3]
            order.append(t)
        assert [table.token_surface(t) for t in order] == [expand(t) for t in order]
        assert set(table._expansions) == set(order)
        lengths = table._expansions.lengths
        assert lengths == {m.result: len(expand(m.result)) for m in table.merges}


class TestReports:
    def test_analyze_json_schema_and_identity(self, capsys, dau_corpus, trained):
        code, out, _ = run(capsys, "analyze", "--input", str(dau_corpus),
                           "--merges", str(trained), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["compression"] == payload["reduction"] / payload["bit_increase"]
        assert payload["base_vocab"] == 6
        assert payload["token_vocab"] == 8

    def test_analyze_text_format(self, capsys, dau_corpus, trained):
        code, out, _ = run(capsys, "analyze", "--input", str(dau_corpus), "--merges", str(trained))
        keys = [line.split()[0] for line in out.splitlines()]
        assert code == 0
        assert keys[:3] == ["n_hat", "k_hat", "reduction"]

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("stats --json", """\
{
  "sequence_count": 3,
  "total_units": 14,
  "mean_length": 4.666666666666667,
  "min_length": 4,
  "max_length": 5,
  "run_length_mean": 1.0769230769230769
}
"""),
            ("stats", """\
sequence_count 3
total_units 14
mean_length 4.666666666666667
min_length 4
max_length 5
run_length_mean 1.0769230769230769
"""),
            ("analyze --json", """\
{
  "n_hat": 4.666666666666667,
  "k_hat": 2.3333333333333335,
  "reduction": 2.0,
  "bit_increase": 1.1605584217036249,
  "compression": 1.723308333814104,
  "balance_before": 0.6102240486708332,
  "balance_after": 0.5188855691542743,
  "run_length_mean": 1.0769230769230769,
  "base_vocab": 6,
  "token_vocab": 8
}
"""),
            ("analyze", """\
n_hat 4.666666666666667
k_hat 2.3333333333333335
reduction 2.0
bit_increase 1.1605584217036249
compression 1.723308333814104
balance_before 0.6102240486708332
balance_after 0.5188855691542743
run_length_mean 1.0769230769230769
base_vocab 6
token_vocab 8
"""),
        ],
        ids=["stats-json", "stats-text", "analyze-json", "analyze-text"],
    )
    def test_report_bytes_and_key_order(self, capsys, dau_corpus, trained, command, expected):
        name, *flags = command.split()
        table = ["--merges", str(trained)] if name == "analyze" else []
        assert run(capsys, name, "--input", str(dau_corpus), *table, *flags) == (0, expected, "")

    @pytest.mark.parametrize("rows", ["none", "one", "half", "all", "all-plus-5"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_analyze_reads_a_merge_file_prefix_as_the_shorter_table(self, capsys, tmp_path, fmt, rows):
        # A merge file's first 3 + r lines are the table a run to |X| + r
        # makes, so one training run serves a whole |Z| sweep (README,
        # "Experiments"). The symbolic table's line 3 names the boundary.
        rng = random.Random(5)
        dau = [" ".join(str(rng.randint(0, 9)) for _ in range(rng.randint(5, 40))) for _ in range(40)]
        text = symbolic_words() if fmt == "symbolic" else "".join(line + "\n" for line in dau)
        corpus_path, merges, prefix = tmp_path / "c.txt", tmp_path / "m.bpe", tmp_path / "p.bpe"
        corpus_path.write_text(text, encoding="utf-8")
        vocab = ["--vocab", str(tmp_path / "v.txt")] if fmt == "symbolic" else []
        argv = ["--input", str(corpus_path), "--format", fmt]
        save = ["--save-vocab", vocab[1]] if vocab else []
        assert run(capsys, "train", *argv, *save, "--target-size", "60", "--out", str(merges))[0] == 0
        lines = read_lines(merges)
        vocabulary = load_vocabulary(vocab[1], boundary_label=None) if vocab else None
        table = parse_merge_table(lines, vocabulary)
        assert (lines[2], len(table.merges) > 2) == ("_" if vocab else "", True)
        corpus = read_corpus(text.splitlines(), fmt, table.base, boundary_label=None)
        n = len(table.merges)
        r = {"none": 0, "one": 1, "half": n // 2, "all": n, "all-plus-5": n + 5}[rows]
        shorter = MergeTable(table.base, table.merges[:r])
        assert parse_merge_table(lines[: 3 + r], vocabulary) == shorter
        prefix.write_text("".join(line + "\n" for line in lines[: 3 + r]), encoding="utf-8")
        expected = "".join(f"{k} {v}\n" for k, v in analyze(corpus, shorter)._asdict().items())
        assert run(capsys, "analyze", *argv, *vocab, "--merges", str(prefix)) == (0, expected, "")

    def test_stats(self, capsys, dau_corpus):
        code, out, _ = run(capsys, "stats", "--input", str(dau_corpus), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sequence_count"] == 3
        assert payload["total_units"] == 14
        assert payload["run_length_mean"] == pytest.approx(14 / 13)

    def test_tradeoff_values(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--eps", "0.00097", "--n", "872")
        assert code == 0
        assert "p=0.429" in out
        code, out, _ = run(capsys, "tradeoff", "--eps", "0.0014", "--n", "300", "--json")
        rows = json.loads(out)
        assert code == 0
        assert rows[0]["probability"] == pytest.approx(0.6569, abs=0.0015)

    def test_tradeoff_cross_product(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--eps", "0.1", "0.2", "--n", "1", "2", "--json")
        assert code == 0
        assert len(json.loads(out)) == 4


class TestSynthCommand:
    def test_deterministic_output(self, capsys):
        args = ("synth", "zipf", "--seed", "9", "--vocab-size", "12",
                "--sequences", "5", "--length", "30", "--exponent", "1.0")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        assert len(first[1].splitlines()) == 5

    def test_runlength_kind(self, capsys):
        code, out, _ = run(capsys, "synth", "runlength", "--seed", "4", "--clusters", "10",
                           "--sequences", "3", "--length", "20", "--mean-run", "3.0")
        assert code == 0
        assert len(out.splitlines()) == 3


class TestOptionTables:
    """Each subcommand's options, defaults and required flags, as parsed."""

    @pytest.mark.parametrize(
        "argv, namespace, required",
        [
            (
                "train --input c.txt --target-size 8",
                {"command": "train", "input": "c.txt", "out": "-", "format": "dau-int", "vocab": None,
                 "boundary": "_", "no_boundary": False, "target_size": 8, "min_pair_count": 2, "threads": 1,
                 "oracle": False, "save_vocab": None},
                ["--input", "--target-size"],
            ),
            (
                "encode --input c.txt --merges m.bpe",
                {"command": "encode", "input": "c.txt", "out": "-", "format": "dau-int", "merges": "m.bpe",
                 "vocab": None, "surfaces": False, "threads": 1, "oracle": False},
                ["--input", "--merges"],
            ),
            (
                "decode --input t.txt --merges m.bpe",
                {"command": "decode", "input": "t.txt", "out": "-", "format": "dau-int", "merges": "m.bpe",
                 "vocab": None},
                ["--input", "--merges"],
            ),
            (
                "stats --input c.txt",
                {"command": "stats", "input": "c.txt", "out": "-", "format": "dau-int", "vocab": None,
                 "boundary": "_", "no_boundary": False, "json": False},
                ["--input"],
            ),
            (
                "analyze --input c.txt --merges m.bpe",
                {"command": "analyze", "input": "c.txt", "out": "-", "format": "dau-int", "merges": "m.bpe",
                 "vocab": None, "json": False, "threads": 1},
                ["--input", "--merges"],
            ),
            (
                "tradeoff --eps 0.1 --n 10",
                {"command": "tradeoff", "eps": [0.1], "n": [10], "json": False, "out": "-"},
                ["--eps", "--n"],
            ),
            (
                "synth zipf --seed 1 --vocab-size 4 --sequences 2 --length 3",
                {"command": "synth", "kind": "zipf", "seed": 1, "vocab_size": 4, "num_sequences": 2,
                 "mean_length": 3, "exponent": 1.0, "out": "-"},
                ["--seed", "--vocab-size", "--sequences", "--length"],
            ),
            (
                "synth runlength --seed 1 --clusters 4 --sequences 2 --length 3",
                {"command": "synth", "kind": "runlength", "seed": 1, "clusters": 4, "num_sequences": 2,
                 "mean_length": 3, "mean_run": 1.0, "transition_skew": 0.0, "out": "-"},
                ["--seed", "--clusters", "--sequences", "--length"],
            ),
        ],
        ids=["train", "encode", "decode", "stats", "analyze", "tradeoff", "synth-zipf", "synth-runlength"],
    )
    def test_defaults_and_required_options(self, capsys, argv, namespace, required):
        argv = argv.split()
        parsed = vars(build_parser().parse_args(argv))
        del parsed["run"]
        assert parsed == namespace
        for option in required:  # each takes one value in argv
            i = argv.index(option)
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv[:i] + argv[i + 2:])
            assert exc.value.code == 2
            assert f"required: {option}" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys, dau_corpus):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--input", str(dau_corpus)])  # missing --target-size
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compress"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_parse_error_is_1_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n3 four\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--input", str(bad), "--target-size", "9")
        assert code == 1
        assert "line 2" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, "train", "--input", "nope.txt", "--target-size", "9")
        assert code == 1
        assert "error" in err

    def test_contract_violation_is_1(self, capsys, dau_corpus):
        code, _, err = run(capsys, "train", "--input", str(dau_corpus), "--target-size", "2")
        assert code == 1
        assert "target_size" in err

    @pytest.mark.parametrize("bad_input", ["corpus", "vocab", "merges", "stdin"])
    def test_invalid_utf8_is_1_with_line(self, capsys, monkeypatch, tmp_path, dau_corpus, trained, bad_input):
        bad = tmp_path / "bad"
        bad.write_bytes(b"unitbpe-v1\n\xff6\n\n" if bad_input == "merges" else b"1 2\n3 \xff4\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8"))
        argv = {
            "corpus": ["--input", str(bad), "--merges", str(trained)],
            "vocab": ["--input", str(dau_corpus), "--merges", str(trained), "--vocab", str(bad)],
            "merges": ["--input", str(dau_corpus), "--merges", str(bad)],
            "stdin": ["--input", "-", "--merges", str(trained)],
        }[bad_input]
        code, _, err = run(capsys, "encode", *argv)
        assert code == 1
        assert "line 2" in err and "not valid UTF-8" in err
        assert "Traceback" not in err

    def test_decode_out_of_range_id_names_line(self, capsys, monkeypatch, trained):
        monkeypatch.setattr("sys.stdin", stdin_of("0 1\n99\n"))
        code, out, err = run(capsys, "decode", "--input", "-", "--merges", str(trained))
        assert code == 1
        assert err == "unitbpe: error: line 2: token id 99 outside vocabulary of size 8\n"
        assert out == ""

    def test_decode_names_the_first_bad_line(self, capsys, monkeypatch, trained):
        # Lines are checked in order, and nothing is written before the last.
        monkeypatch.setattr("sys.stdin", stdin_of("99\n0 1\nx\n"))
        code, out, err = run(capsys, "decode", "--input", "-", "--merges", str(trained))
        assert (code, out, err) == (1, "", "unitbpe: error: line 1: token id 99 outside vocabulary of size 8\n")

    @pytest.mark.parametrize(
        "tokens, fault",
        [
            ("4 99", "token id 99 outside vocabulary of size 8"),
            ("99 x", "non-integer token 'x'"),
            ("4 -1 x", "non-integer token 'x'"),
            ("1 2 99", "token id 99 outside vocabulary of size 8"),
            ("2 4 3", "token id 4 is a reserved special token"),
            ("1 +4 99", "non-canonical integer token '+4'"),
            ("01 4 3", "non-canonical integer token '01'"),
        ],
        ids=[
            "special-then-range", "range-then-parse", "special-range-parse", "known-new-then-range",
            "first-special-in-line-order", "plus-sign", "leading-zero",
        ],
    )
    def test_decode_names_a_lines_faults_in_check_order(self, capsys, monkeypatch, trained, tokens, fault):
        # The specials of the 8-token table are 3-5. A line is parsed, then
        # range-checked, then checked for specials, whatever its token order;
        # the valid first line has filled the token texts "0" and "1" first.
        # An id has one spelling, so "+4" and "01" fail to parse.
        monkeypatch.setattr("sys.stdin", stdin_of(f"0 1\n{tokens}\n"))
        code, out, err = run(capsys, "decode", "--input", "-", "--merges", str(trained))
        assert (code, out, err) == (1, "", f"unitbpe: error: line 2: {fault}\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files_read_as_lf(self, capsys, monkeypatch, end):
        text = "0 1 0 1\n2 0\n\n1 1\n"
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        expected = run(capsys, "stats", "--input", "-", "--json")
        monkeypatch.setattr("sys.stdin", stdin_of(text.replace("\n", end)))
        assert run(capsys, "stats", "--input", "-", "--json") == expected
        assert '"sequence_count": 4' in expected[1]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"], ids=["FF", "NEL", "LS"])
    def test_other_line_separators_stay_inside_a_line(self, capsys, monkeypatch, sep):
        monkeypatch.setattr("sys.stdin", stdin_of(f"0 1{sep}2\n"))
        code, out, _ = run(capsys, "stats", "--input", "-")
        assert code == 0
        assert out.startswith("sequence_count 1\ntotal_units 3\n")
        monkeypatch.setattr("sys.stdin", stdin_of(f"0 1{sep}x\n"))
        assert run(capsys, "stats", "--input", "-") == (1, "", "unitbpe: error: line 1: non-integer token 'x'\n")

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("0\n1_0 +2 \u0663 05\n", "line 2: non-canonical integer token '1_0'"),
            (f"0\n1 {'9' * 4301}\n", f"line 2: non-integer token '{'9' * 4301}'"),
        ],
        ids=["lax-spellings", "over-4300-digits"],
    )
    def test_a_token_that_spells_no_id_is_1_with_line(self, capsys, monkeypatch, text, fault):
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        assert run(capsys, "stats", "--input", "-") == (1, "", f"unitbpe: error: {fault}\n")

    @pytest.mark.parametrize("fmt", ["dau-int", "symbolic"])
    def test_decode_special_id_is_1_with_line(self, capsys, monkeypatch, tmp_path, fmt):
        # Library decode accepts specials, but decode's output is a corpus
        # file, which encode would reject; id 5 is <eos> in both tables.
        corpus, vocab, merges = tmp_path / "c.txt", tmp_path / "c.vocab", tmp_path / "c.bpe"
        corpus.write_text("0 1 0 1 2\n" if fmt == "dau-int" else "HH AH0 _ HH AH0\n", encoding="utf-8")
        table_args = ["--format", fmt, "--merges", str(merges)]
        train_args = ["--target-size", "7", "--out", str(merges)]
        if fmt == "symbolic":
            table_args += ["--vocab", str(vocab)]
            train_args += ["--save-vocab", str(vocab)]
        assert run(capsys, "train", "--input", str(corpus), "--format", fmt, *train_args)[0] == 0
        monkeypatch.setattr("sys.stdin", stdin_of("0 1\n0 5\n"))
        code, out, err = run(capsys, "decode", "--input", "-", *table_args)
        assert code == 1
        assert err == "unitbpe: error: line 2: token id 5 is a reserved special token\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["train", "train --oracle", "encode", "encode --oracle", "analyze"])
    def test_threads_below_1_is_1(self, capsys, dau_corpus, trained, command):
        name, *flags = command.split()
        args = ["--target-size", "8"] if name == "train" else ["--merges", str(trained)]
        code, out, err = run(capsys, name, "--input", str(dau_corpus), *args, *flags, "--threads", "0")
        assert (code, out, err) == (1, "", "unitbpe: error: threads must be at least 1\n")

    def test_boundary_flags_rejected_for_dau(self, capsys, dau_corpus):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--input", str(dau_corpus), "--target-size", "9", "--no-boundary"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "stats"])
    @pytest.mark.parametrize("label", ["", " ", "a b"])
    def test_boundary_label_must_be_one_token(self, capsys, tmp_path, command, label):
        corpus = tmp_path / "c.txt"
        corpus.write_text("K AE1 T S\n", encoding="utf-8")
        out, vocab = tmp_path / "out.txt", tmp_path / "vocab.txt"
        argv = [command, "--input", str(corpus), "--format", "symbolic", "--boundary", label, "--out", str(out)]
        if command == "train":
            argv += ["--target-size", "20", "--save-vocab", str(vocab)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--boundary" in capsys.readouterr().err
        assert not out.exists() and not vocab.exists()

    @pytest.mark.parametrize("command", ["train", "stats"])
    @pytest.mark.parametrize("sidecar", [False, True], ids=["inferred", "sidecar"])
    def test_reserved_boundary_label_is_1(self, capsys, tmp_path, command, sidecar):
        corpus, vocab, out = tmp_path / "c.txt", tmp_path / "c.vocab", tmp_path / "out.txt"
        corpus.write_text("K AE1 T S\n", encoding="utf-8")
        vocab.write_text("K\nAE1\nT\nS\n", encoding="utf-8")
        argv = [command, "--input", str(corpus), "--format", "symbolic", "--boundary", "<eos>", "--out", str(out)]
        if command == "train":
            argv += ["--target-size", "20"]
        if sidecar:
            argv += ["--vocab", str(vocab)]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (1, "unitbpe: error: label '<eos>' is reserved\n")
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", [False, True], ids=["inferred", "sidecar"])
    def test_reserved_corpus_label_is_1_with_line(self, capsys, tmp_path, sidecar):
        corpus, vocab = tmp_path / "r.txt", tmp_path / "v.txt"
        corpus.write_text("a b\nc <bos>\n", encoding="utf-8")
        vocab.write_text("a\nb\nc\n", encoding="utf-8")
        argv = ["stats", "--input", str(corpus), "--format", "symbolic", *(["--vocab", str(vocab)] if sidecar else [])]
        err = "unitbpe: error: line 2: label '<bos>' is a reserved special token\n"
        assert run(capsys, *argv) == (1, "", err)

    def test_sidecar_label_with_whitespace_is_1_with_line(self, capsys, tmp_path):
        # Corpus tokens are split on whitespace, so the label "b c" could
        # never occur in a corpus, and decode could not write it readably.
        corpus, vocab, out = tmp_path / "c.txt", tmp_path / "c.vocab", tmp_path / "c.bpe"
        corpus.write_text("a a _ a a\n", encoding="utf-8")
        vocab.write_text("a\nb c\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--input", str(corpus), "--format", "symbolic",
                           "--vocab", str(vocab), "--target-size", "8", "--out", str(out))
        assert code == 1
        assert err == "unitbpe: error: line 2: label must be one token without whitespace, got 'b c'\n"
        assert not out.exists()


class TestFreshInterpreter:
    def test_train_encode_decode_never_load_lazy_modules(self, tmp_path, dau_corpus):
        merges, tok, back = tmp_path / "m.bpe", tmp_path / "tok.txt", tmp_path / "back.txt"
        for argv in (
            ["train", "--input", str(dau_corpus), "--target-size", "8", "--out", str(merges)],
            ["encode", "--input", str(dau_corpus), "--merges", str(merges), "--out", str(tok)],
            ["decode", "--input", str(tok), "--merges", str(merges), "--out", str(back)],
        ):
            loaded = imported_modules("-m", "unitbpe", *argv)
            assert "unitbpe.cli" in loaded
            assert not loaded & LAZY_MODULES, argv[0]
        assert back.read_bytes() == dau_corpus.read_bytes()

    @pytest.mark.parametrize("target, short", [("8", False), ("100", True)], ids=["reached", "short"])
    def test_only_a_short_stop_loads_the_oracle(self, tmp_path, dau_corpus, target, short):
        # The note on why training stopped counts pairs with oracle.pair_counts.
        argv = ["train", "--input", str(dau_corpus), "--target-size", target, "--out", str(tmp_path / "m.bpe")]
        assert ("unitbpe.oracle" in imported_modules("-m", "unitbpe", *argv)) is short

    def test_no_dataclasses_at_start_up(self, tmp_path, dau_corpus):
        merges, tok = tmp_path / "m.bpe", tmp_path / "tok.txt"
        for argv in (
            ["train", "--input", str(dau_corpus), "--target-size", "8", "--out", str(merges)],
            ["encode", "--input", str(dau_corpus), "--merges", str(merges), "--out", str(tok)],
            ["decode", "--input", str(tok), "--merges", str(merges), "--out", str(tmp_path / "back.txt")],
            ["analyze", "--input", str(dau_corpus), "--merges", str(merges), "--json"],
            ["synth", "zipf", "--seed", "3", "--vocab-size", "4", "--sequences", "2", "--length", "6"],
        ):
            loaded = imported_modules("-m", "unitbpe", *argv)
            assert "unitbpe.cli" in loaded
            assert not loaded & STARTUP_FREE, argv[:2]
        loaded = imported_modules("-c", "import unitbpe")
        assert "unitbpe.bpe" in loaded
        assert not loaded & STARTUP_FREE

    @pytest.mark.parametrize(
        "command",
        ["train --oracle", "encode --oracle", "stats --json", "analyze --json", "tradeoff --json", "synth runlength"],
    )
    def test_commands_that_load_lazy_modules(self, capsys, tmp_path, dau_corpus, trained, command):
        argv = {
            "train --oracle": ["train", "--input", str(dau_corpus), "--target-size", "8", "--oracle"],
            "encode --oracle": ["encode", "--input", str(dau_corpus), "--merges", str(trained), "--oracle"],
            "stats --json": ["stats", "--input", str(dau_corpus), "--json"],
            "analyze --json": ["analyze", "--input", str(dau_corpus), "--merges", str(trained), "--json"],
            "tradeoff --json": ["tradeoff", "--eps", "0.1", "--n", "10", "--json"],
            "synth runlength": ["synth", "runlength", "--seed", "3", "--clusters", "4", "--sequences", "2",
                                "--length", "6"],
        }[command]
        proc = run_fresh("-m", "unitbpe", *argv)
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == run(capsys, *argv)[1:]

    def test_public_names_resolve_on_first_use(self):
        script = f"""
            import sys
            import unitbpe
            lazy = {sorted(LAZY_MODULES)!r}
            assert not set(lazy) & set(sys.modules), "loaded with the package"
            assert [n for n in unitbpe.__all__ if n not in dir(unitbpe)] == []
            for name in unitbpe.__all__:
                getattr(unitbpe, name)
            assert set(lazy) <= set(sys.modules)
            try:
                unitbpe.no_such_name
            except AttributeError as exc:
                print(exc)
        """
        proc = run_fresh("-c", textwrap.dedent(script))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "module 'unitbpe' has no attribute 'no_such_name'\n"
