"""Command-line front end: train, encode, decode, stats, analyze, tradeoff,
and synth subcommands composing the library modules.

Exit codes are stable for scripting: 0 on success, 1 on data or validation
failures (messages name the offending line or id), 2 on usage errors.
``--input -`` reads stdin, ``--out -`` writes stdout. encode, decode and
analyze take the boundary label from the merge file, so only train and
stats accept --boundary/--no-boundary. No subcommand draws hidden
randomness; generators require an explicit --seed.

The analysis, reference and generator modules are imported inside the
subcommands that use them, and json only under --json, so train, encode
and decode start without them. The package's records are plain classes rather than
dataclasses, so no subcommand imports ``dataclasses`` (or the ``inspect``
it pulls in) or builds methods with ``exec`` as it starts.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

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
    unit_label,
    write_lines,
)
from .errors import ContractError, UnitBpeError, ValidationError


def _read_lines(path: str) -> list[str]:
    return decode_lines(sys.stdin.buffer.read()) if path == "-" else read_lines(path)


def _out(path: str):
    """An --out path as write_lines takes it: ``-`` is stdout."""
    return sys.stdout if path == "-" else path


def _parent() -> argparse.ArgumentParser:
    """A parser that only holds options, for subcommands to share as a parent."""
    return argparse.ArgumentParser(add_help=False)


def build_parser() -> argparse.ArgumentParser:
    io = _parent()
    io.add_argument("--input", required=True, help="input file, or - for stdin")
    io.add_argument("--out", default="-", help="output file, or - for stdout (default)")
    io.add_argument(
        "--format",
        choices=FORMATS,
        default=FORMAT_DAU,
        help=f"corpus layout (default {FORMAT_DAU})",
    )

    corpus_vocab = _parent()
    corpus_vocab.add_argument("--vocab", help="vocabulary sidecar file (one label per line)")
    corpus_vocab.add_argument(
        "--boundary",
        default=DEFAULT_BOUNDARY_LABEL,
        help=f"word-boundary label for symbolic corpora (default {DEFAULT_BOUNDARY_LABEL!r})",
    )
    corpus_vocab.add_argument(
        "--no-boundary",
        action="store_true",
        help="treat no label as a boundary and merge freely across words",
    )

    table = _parent()
    table.add_argument("--merges", required=True, help="merge-table file from train")
    table.add_argument("--vocab", help="vocabulary sidecar file; its boundary label is the table's line 3")

    threads = _parent()
    threads.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; output is identical for any count"
    )

    as_json = _parent()
    as_json.add_argument("--json", action="store_true")

    out = _parent()
    out.add_argument("--out", default="-")

    # Every synth option's dest is a field of ZipfSpec or RunLengthSpec.
    spec = _parent()
    spec.add_argument("--seed", type=int, required=True)
    spec.add_argument("--sequences", dest="num_sequences", metavar="SEQUENCES", type=int, required=True)
    spec.add_argument(
        "--length", dest="mean_length", metavar="LENGTH", type=int, required=True, help="units per sequence"
    )

    parser = argparse.ArgumentParser(
        prog="unitbpe",
        description="Train and apply pair-merge tokenizers over discrete unit corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[io, corpus_vocab, threads], help="learn a merge table from a corpus")
    p.add_argument("--target-size", type=int, required=True, help="desired merged vocabulary size")
    p.add_argument("--min-pair-count", type=int, default=2, help="stop once the best pair is rarer than this")
    p.add_argument("--oracle", action="store_true", help="use the slow reference trainer")
    p.add_argument("--save-vocab", help="also write the (possibly inferred) vocabulary sidecar here")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("encode", parents=[io, table, threads], help="tokenize a corpus with a merge table")
    p.add_argument("--surfaces", action="store_true", help="print unit labels joined by + instead of token ids")
    p.add_argument("--oracle", action="store_true", help="use the slow reference encoder")
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser("decode", parents=[io, table], help="restore unit sequences from token ids")
    p.set_defaults(run=_cmd_decode)

    p = sub.add_parser(
        "stats", parents=[io, corpus_vocab, as_json], help="length and run-length statistics of a corpus"
    )
    p.set_defaults(run=_cmd_stats)

    p = sub.add_parser(
        "analyze",
        parents=[io, table, as_json, threads],
        help="compression and balance report for a corpus under a table",
    )
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("tradeoff", parents=[as_json, out], help="whole-sequence success probability (1-eps)^n")
    p.add_argument("--eps", type=float, nargs="+", required=True, help="per-token error rate(s)")
    p.add_argument("--n", type=int, nargs="+", required=True, help="sequence length(s)")
    p.set_defaults(run=_cmd_tradeoff)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    kinds = p.add_subparsers(dest="kind", required=True)

    p = kinds.add_parser("zipf", parents=[spec, out], help="i.i.d. Zipf-weighted unit draws")
    p.add_argument("--vocab-size", type=int, required=True, help="content units (specials are added)")
    p.add_argument("--exponent", type=float, default=1.0, help="Zipf exponent (0 = uniform)")
    p.set_defaults(run=_cmd_synth)

    p = kinds.add_parser("runlength", parents=[spec, out], help="repeated-unit runs with geometric lengths")
    p.add_argument("--clusters", type=int, required=True, help="content units (specials are added)")
    p.add_argument("--mean-run", type=float, default=1.0)
    p.add_argument("--transition-skew", type=float, default=0.0)
    p.set_defaults(run=_cmd_synth)

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
    from .oracle import pair_counts

    encoded = codec.encode_corpus(corpus, table).sequences
    counts = pair_counts(encoded, table.base.boundary, table.base.special)
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
    bpe.save_merge_table(table, _out(args.out))
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
    write_lines(_out(args.out), codec.token_lines(sequences, table, surfaces=args.surfaces))
    return 0


def _token_ids(line: str, lineno: int, table: bpe.MergeTable) -> tuple[int, ...]:
    """The ids of a line of tokens that decode. Otherwise the line's first
    fault is raised, in the order of a whole-line check: a non-integer
    token, then an id outside the merged vocabulary, then a special id."""
    ids = parse_id_line(line, lineno)
    size, special = table.vocab_size, table.base.special
    if ids and (min(ids) < 0 or max(ids) >= size):
        bad = next(t for t in ids if not 0 <= t < size)
        raise ValidationError(f"line {lineno}: token id {bad} outside vocabulary of size {size}")
    if not special.isdisjoint(ids):
        bad = next(t for t in ids if t in special)
        raise ValidationError(f"line {lineno}: token id {bad} is a reserved special token")
    return ids


def _cmd_decode(args) -> int:
    """Decode token lines. Unlike library decode, a special id is an error:
    the output must be a corpus file, and those never hold specials.

    A line costs one lookup per token in a map from a token's text (``5``
    and ``05`` apart) to its rendered units. When a line holds texts the map
    lacks, only those can be faulty, so they are checked together first; if
    one is, the whole line is checked to name its first fault. Either way no
    surface is built before the line is known to decode. Nothing is written
    unless every line decodes. No Corpus is built."""
    table = _load_table(args)
    label, surface = unit_label(table.base, args.format), table._expansions.__getitem__
    rendered: dict[str, str] = {}
    lines = []
    for lineno, line in enumerate(_read_lines(args.input), start=1):
        texts = line.split()
        try:
            lines.append(" ".join(map(rendered.__getitem__, texts)))
        except KeyError:
            new = list(set(texts).difference(rendered))
            try:
                ids = _token_ids(" ".join(new), lineno, table)
            except UnitBpeError:
                _token_ids(line, lineno, table)  # raises the fault first in the line
                raise
            for text, token_id in zip(new, ids):
                rendered[text] = " ".join(map(label, surface(token_id)))
            lines.append(" ".join(map(rendered.__getitem__, texts)))
    write_lines(_out(args.out), lines)
    return 0


def _write_report(args, data, lines: Iterable[str]) -> None:
    """A report to --out: indented JSON of data with --json, else the text lines."""
    if args.json:
        import json

        lines = [json.dumps(data, indent=2)]
    write_lines(_out(args.out), lines)


def _cmd_stats(args) -> int:
    from .metrics import corpus_run_length_mean

    corpus = _read_corpus(args)
    run_mean = corpus_run_length_mean(s.units for s in corpus.sequences)
    fields = dict(corpus_stats(corpus)._asdict(), run_length_mean=run_mean)
    _write_report(args, fields, (f"{k} {v}" for k, v in fields.items()))
    return 0


def _cmd_analyze(args) -> int:
    from .metrics import analyze

    table = _load_table(args)
    fields = analyze(_read_corpus(args, table.base), table)._asdict()
    _write_report(args, fields, (f"{k} {v}" for k, v in fields.items()))
    return 0


def _cmd_tradeoff(args) -> int:
    from .metrics import edge_case_probability

    rows = [
        {"eps": eps, "n": n, "probability": edge_case_probability(eps, n)}
        for eps in args.eps
        for n in args.n
    ]
    _write_report(args, rows, (f"eps={r['eps']:g} n={r['n']} p={r['probability']:.6f}" for r in rows))
    return 0


def _cmd_synth(args) -> int:
    from . import synth

    if args.kind == "zipf":
        spec, generate = synth.ZipfSpec, synth.gen_zipf_corpus
    else:
        spec, generate = synth.RunLengthSpec, synth.gen_runlength_corpus
    corpus = generate(spec(**{f: getattr(args, f) for f in spec._fields}))
    write_lines(_out(args.out), corpus_lines(corpus, FORMAT_DAU))
    return 0


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
        return args.run(args)
    except (UnitBpeError, OSError) as exc:
        print(f"unitbpe: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
