"""Command-line front end: train, encode, decode, stats, analyze, tradeoff,
and synth subcommands composing the library modules.

Exit codes are stable for scripting: 0 on success, 1 on data or validation
failures (messages name the offending line or id), 2 on usage errors.
``--input -`` reads stdin, ``--out -`` writes stdout. encode, decode and
analyze take the boundary label from the merge file, so only train and
stats accept --boundary/--no-boundary. No subcommand draws hidden
randomness; generators require an explicit --seed.

The analysis, reference and generator modules (and json) are imported
inside the subcommands that use them, so train, encode and decode start
without them. The package's records are plain classes rather than
dataclasses, so no subcommand imports ``dataclasses`` (or the ``inspect``
it pulls in) or builds methods with ``exec`` as it starts.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import IO

from . import bpe, codec
from .corpus import (
    DEFAULT_BOUNDARY_LABEL,
    FORMAT_DAU,
    FORMATS,
    BaseVocabulary,
    Corpus,
    corpus_lines,
    corpus_stats,
    decode_lines,
    load_vocabulary,
    parse_id_line,
    read_corpus,
    read_lines,
    save_vocabulary,
    sequence_lines,
)
from .errors import ContractError, UnitBpeError, ValidationError


def _read_lines(path: str) -> list[str]:
    return decode_lines(sys.stdin.buffer.read()) if path == "-" else read_lines(path)


@contextmanager
def _out_stream(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_lines(out: IO[str], lines) -> None:
    for line in lines:
        out.write(line + "\n")


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input file, or - for stdin")
    p.add_argument("--out", default="-", help="output file, or - for stdout (default)")
    p.add_argument(
        "--format",
        choices=FORMATS,
        default=FORMAT_DAU,
        help=f"corpus layout (default {FORMAT_DAU})",
    )


def _add_vocab_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", help="vocabulary sidecar file (one label per line)")
    p.add_argument(
        "--boundary",
        default=DEFAULT_BOUNDARY_LABEL,
        help=f"word-boundary label for symbolic corpora (default {DEFAULT_BOUNDARY_LABEL!r})",
    )
    p.add_argument(
        "--no-boundary",
        action="store_true",
        help="treat no label as a boundary and merge freely across words",
    )


def _add_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--merges", required=True, help="merge-table file from train")
    p.add_argument("--vocab", help="vocabulary sidecar file; its boundary label is the table's line 3")


_THREADS_HELP = "accepted for compatibility; output is identical for any count"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitbpe",
        description="Train and apply pair-merge tokenizers over discrete unit corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="learn a merge table from a corpus")
    _add_io_args(p)
    _add_vocab_args(p)
    p.add_argument("--target-size", type=int, required=True, help="desired merged vocabulary size")
    p.add_argument("--min-pair-count", type=int, default=2, help="stop once the best pair is rarer than this")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--oracle", action="store_true", help="use the slow reference trainer")
    p.add_argument("--save-vocab", help="also write the (possibly inferred) vocabulary sidecar here")

    p = sub.add_parser("encode", help="tokenize a corpus with a merge table")
    _add_io_args(p)
    _add_table_args(p)
    p.add_argument("--surfaces", action="store_true", help="print unit labels joined by + instead of token ids")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--oracle", action="store_true", help="use the slow reference encoder")

    p = sub.add_parser("decode", help="restore unit sequences from token ids")
    _add_io_args(p)
    _add_table_args(p)

    p = sub.add_parser("stats", help="length and run-length statistics of a corpus")
    _add_io_args(p)
    _add_vocab_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="compression and balance report for a corpus under a table")
    _add_io_args(p)
    _add_table_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p = sub.add_parser("tradeoff", help="whole-sequence success probability (1-eps)^n")
    p.add_argument("--eps", type=float, nargs="+", required=True, help="per-token error rate(s)")
    p.add_argument("--n", type=int, nargs="+", required=True, help="sequence length(s)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="-")

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    kinds = p.add_subparsers(dest="kind", required=True)

    z = kinds.add_parser("zipf", help="i.i.d. Zipf-weighted unit draws")
    z.add_argument("--seed", type=int, required=True)
    z.add_argument("--vocab-size", type=int, required=True, help="content units (specials are added)")
    z.add_argument("--sequences", type=int, required=True)
    z.add_argument("--length", type=int, required=True, help="units per sequence")
    z.add_argument("--exponent", type=float, default=1.0, help="Zipf exponent (0 = uniform)")
    z.add_argument("--out", default="-")

    r = kinds.add_parser("runlength", help="repeated-unit runs with geometric lengths")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--clusters", type=int, required=True, help="content units (specials are added)")
    r.add_argument("--sequences", type=int, required=True)
    r.add_argument("--length", type=int, required=True, help="units per sequence")
    r.add_argument("--mean-run", type=float, default=1.0)
    r.add_argument("--transition-skew", type=float, default=0.0)
    r.add_argument("--out", default="-")

    return parser


def _read_corpus(args, vocabulary: BaseVocabulary | None = None) -> Corpus:
    """The --input corpus. encode and analyze pass the table's base
    vocabulary; train and stats read --vocab, or infer the vocabulary, with
    the label that --boundary/--no-boundary select."""
    label = None
    if vocabulary is None:
        label = None if args.no_boundary else args.boundary
        if args.vocab is not None:
            vocabulary = load_vocabulary(args.vocab, boundary_label=label)
    return read_corpus(_read_lines(args.input), args.format, vocabulary, boundary_label=label, source=args.input)


def _load_table(args) -> bpe.MergeTable:
    """The --merges table over the --vocab sidecar, if any. The merge file is
    read once: its line 3 is the boundary label the sidecar is loaded with."""
    lines = read_lines(args.merges)
    label = bpe.header_boundary_label(lines)
    vocab = None if args.vocab is None else load_vocabulary(args.vocab, boundary_label=label)
    return bpe.parse_merge_table(lines, vocab)


def _stop_reason(corpus: Corpus, table: bpe.MergeTable, min_pair_count: int) -> str:
    """Why training stopped short of its target. Encoding the training
    corpus with the finished table reproduces the trainer's last state
    (README, "Semantics"), so these are the pair counts it stopped on."""
    encoded = codec.encode_corpus(corpus, table).sequences
    counts = bpe.pair_counts(encoded, table.boundary, table.base.special)
    if not counts:
        return "no pair is left to merge"
    return f"the best remaining pair has count {max(counts.values())}, below --min-pair-count {min_pair_count}"


def _cmd_train(args) -> int:
    corpus = _read_corpus(args)
    options = bpe.TrainOptions(
        target_size=args.target_size,
        respect_boundaries=not args.no_boundary,
        min_pair_count=args.min_pair_count,
    )
    if args.oracle:
        from .oracle import naive_train
        table = naive_train(corpus, options)
    else:
        table = bpe.train(corpus, options, threads=args.threads)
    if args.save_vocab:
        save_vocabulary(corpus.vocabulary, args.save_vocab)
    with _out_stream(args.out) as out:
        bpe.save_merge_table(table, out)
    if table.vocab_size < args.target_size:
        print(
            f"unitbpe: note: stopped after {len(table.merges)} merges at |Z| = {table.vocab_size},"
            f" short of --target-size {args.target_size}: {_stop_reason(corpus, table, args.min_pair_count)}",
            file=sys.stderr,
        )
    return 0


def _cmd_encode(args) -> int:
    table = _load_table(args)
    corpus = _read_corpus(args, table.base)
    if args.oracle:
        from .oracle import naive_encode
        sequences = tuple(naive_encode(seq, table) for seq in corpus.sequences)
    else:
        sequences = codec.encode_corpus(corpus, table, threads=args.threads).sequences
    with _out_stream(args.out) as out:
        _write_lines(out, codec.token_lines(sequences, table, surfaces=args.surfaces))
    return 0


def _cmd_decode(args) -> int:
    """Decode token lines. Unlike library decode, a special id is an error:
    the output must be a corpus file, and those never hold specials. Each
    line is parsed, decoded and checked in turn; no Corpus is built."""
    table = _load_table(args)
    special = table.base.special
    sequences = []
    for lineno, line in enumerate(_read_lines(args.input), start=1):
        ids = parse_id_line(line, lineno)
        try:
            sequences.append(codec.decode(codec.TokenSequence(ids), table))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        if not special.isdisjoint(ids):
            bad = next(t for t in ids if t in special)
            raise ValidationError(f"line {lineno}: token id {bad} is a reserved special token")
    with _out_stream(args.out) as out:
        _write_lines(out, sequence_lines(sequences, table.base, args.format))
    return 0


def _cmd_stats(args) -> int:
    import json

    from .metrics import corpus_run_length_mean

    corpus = _read_corpus(args)
    cs = corpus_stats(corpus)
    run_mean = corpus_run_length_mean(s.units for s in corpus.sequences)
    record = dict(cs._asdict(), run_length_mean=run_mean)
    with _out_stream(args.out) as out:
        if args.json:
            out.write(json.dumps(record, indent=2) + "\n")
        else:
            _write_lines(out, (f"{k} {v}" for k, v in record.items()))
    return 0


def _cmd_analyze(args) -> int:
    from .metrics import analyze

    table = _load_table(args)
    report = analyze(_read_corpus(args, table.base), table)
    with _out_stream(args.out) as out:
        out.write(report.to_json() + "\n" if args.json else report.to_text())
    return 0


def _cmd_tradeoff(args) -> int:
    import json

    from .metrics import edge_case_probability

    rows = [
        {"eps": eps, "n": n, "probability": edge_case_probability(eps, n)}
        for eps in args.eps
        for n in args.n
    ]
    with _out_stream(args.out) as out:
        if args.json:
            out.write(json.dumps(rows, indent=2) + "\n")
        else:
            _write_lines(out, (f"eps={r['eps']:g} n={r['n']} p={r['probability']:.6f}" for r in rows))
    return 0


def _cmd_synth(args) -> int:
    from . import synth

    if args.kind == "zipf":
        spec = synth.ZipfSpec(
            seed=args.seed,
            vocab_size=args.vocab_size,
            num_sequences=args.sequences,
            mean_length=args.length,
            exponent=args.exponent,
        )
        corpus = synth.gen_zipf_corpus(spec)
    else:
        spec = synth.RunLengthSpec(
            seed=args.seed,
            clusters=args.clusters,
            num_sequences=args.sequences,
            mean_length=args.length,
            mean_run=args.mean_run,
            transition_skew=args.transition_skew,
        )
        corpus = synth.gen_runlength_corpus(spec)
    with _out_stream(args.out) as out:
        _write_lines(out, corpus_lines(corpus, FORMAT_DAU))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "stats": _cmd_stats,
    "analyze": _cmd_analyze,
    "tradeoff": _cmd_tradeoff,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("train", "stats"):
        if args.format == FORMAT_DAU and (args.boundary != DEFAULT_BOUNDARY_LABEL or args.no_boundary):
            parser.error("--boundary/--no-boundary apply to symbolic corpora only")
        if args.boundary.split() != [args.boundary]:
            parser.error(f"--boundary must be one label without whitespace, got {args.boundary!r}")
    try:
        # train, encode and analyze accept --threads; --oracle never reads it.
        if getattr(args, "threads", 1) < 1:
            raise ContractError("threads must be at least 1")
        return _COMMANDS[args.command](args)
    except (UnitBpeError, OSError) as exc:
        print(f"unitbpe: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
