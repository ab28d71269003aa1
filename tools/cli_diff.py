#!/usr/bin/env python3
"""Run one fixed table of CLI cases against another revision and against
this working tree, and report every case whose results differ.

Usage:
    python3 tools/cli_diff.py REV [--expect CASE ...]

REV is unpacked with ``git archive REV | tar -x`` into a temporary
directory, so no network is needed. The inputs are written once from fixed
seeds; the merge tables, sidecars and token files among them come from this
tree's CLI, so both trees read identical bytes. Each case then runs twice,
against REV's ``src/`` and against this tree's, each time in a fresh child
in a fresh copy of the inputs, under a wall-clock limit and an
address-space limit. The exit code, stdout, stderr and every file the child
writes are compared byte for byte. Each case that differs is printed as a
unified diff. The exit status is 1 if a case differs that no ``--expect``
names, else 0; a case named with ``--expect`` may differ.
"""

from __future__ import annotations

import argparse
import difflib
import os
import random
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 256 << 20  # bytes of address space for each child
TIMEOUT = 30  # seconds for each child

PHONEMES = "AA AE AH AO B D EH ER G HH IH IY K L M N P R S T UW Z".split()

# (name, arguments, file given as stdin or None). Paths are relative to the
# case's directory, which holds the inputs that write_inputs makes.
CASES: tuple[tuple[str, str, str | None], ...] = (
    # train
    ("train", "train --input z.txt --target-size 120 --out m.bpe", None),
    ("train-stdin-stdout", "train --input - --target-size 100", "z.txt"),
    ("train-oracle", "train --input z.txt --target-size 120 --oracle --out m.bpe", None),
    ("train-min-pair-count", "train --input z.txt --target-size 400 --min-pair-count 5 --out m.bpe", None),
    ("train-symbolic", "train --input s.txt --format symbolic --target-size 60 --save-vocab v.txt --out m.bpe", None),
    ("train-symbolic-oracle", "train --input s.txt --format symbolic --target-size 60 --oracle", None),
    ("train-symbolic-sidecar", "train --input s.txt --format symbolic --vocab s.vocab --target-size 60", None),
    # a sidecar without `_`: train appends it, and the table's line 3 appends it again on load
    ("train-sidecar-without-boundary",
     "train --input k.txt --format symbolic --vocab k.vocab --target-size 11 --min-pair-count 1", None),
    ("train-no-boundary",
     "train --input s.txt --format symbolic --no-boundary --target-size 60 --save-vocab v.txt", None),
    ("train-boundary", "train --input b.txt --format symbolic --boundary '|' --target-size 60 --save-vocab v.txt",
     None),
    ("train-threads", "train --input z.txt --target-size 90 --threads 4", None),
    # train notes when it stops short of its target
    ("train-short-count", "train --input - --target-size 100", "short.txt"),
    ("train-short-count-oracle", "train --input - --target-size 100 --oracle", "short.txt"),
    ("train-short-exhausted", "train --input - --target-size 100 --min-pair-count 1", "pair.txt"),
    ("train-short-exhausted-oracle", "train --input - --target-size 100 --min-pair-count 1 --oracle", "pair.txt"),
    ("train-short-symbolic", "train --input - --format symbolic --target-size 100", "tie.txt"),
    ("train-short-no-boundary",
     "train --input - --format symbolic --no-boundary --min-pair-count 3 --target-size 100", "tie.txt"),
    ("train-short-boundary-only", "train --input - --format symbolic --target-size 100", "blocked.txt"),
    ("train-short-boundary-only-oracle", "train --input - --format symbolic --target-size 100 --oracle",
     "blocked.txt"),
    # encode
    ("encode", "encode --input z.txt --merges z.bpe --out o.tok", None),
    ("encode-stdin", "encode --input - --merges z.bpe", "z.txt"),
    ("encode-oracle", "encode --input z.txt --merges z.bpe --oracle", None),
    ("encode-surfaces", "encode --input z.txt --merges z.bpe --surfaces", None),
    ("encode-symbolic", "encode --input s.txt --format symbolic --vocab s.vocab --merges s.bpe", None),
    ("encode-symbolic-oracle", "encode --input s.txt --format symbolic --vocab s.vocab --merges s.bpe --oracle", None),
    ("encode-symbolic-surfaces",
     "encode --input s.txt --format symbolic --vocab s.vocab --merges s.bpe --surfaces", None),
    ("encode-sidecar-without-boundary",
     "encode --input k.txt --format symbolic --vocab k.vocab --merges k.bpe", None),
    ("encode-no-boundary", "encode --input s.txt --format symbolic --vocab n.vocab --merges n.bpe", None),
    ("encode-no-boundary-oracle",
     "encode --input s.txt --format symbolic --vocab n.vocab --merges n.bpe --oracle", None),
    # a 464-byte table whose 40 tokens spell 2^41 units together
    ("encode-doubling", "encode --input zeros.txt --merges doubling.bpe", None),
    # repeated lines, an empty one and a one-unit one through a boundary-free table
    ("encode-repeated", "encode --input repeated.txt --merges z.bpe", None),
    ("encode-repeated-oracle", "encode --input repeated.txt --merges z.bpe --oracle", None),
    # two rules join unit 1 to unit 2: 6 = 1 2 and the newer 9 = (0 1)(2 0)
    ("encode-shared-junction", "encode --input junction.txt --merges junction.bpe", None),
    # decode
    ("decode", "decode --input z.tok --merges z.bpe --out back.txt", None),
    ("decode-stdin", "decode --input - --merges z.bpe", "z.tok"),
    ("decode-symbolic", "decode --input s.tok --format symbolic --vocab s.vocab --merges s.bpe", None),
    ("decode-sidecar-without-boundary",
     "decode --input k.tok --format symbolic --vocab k.vocab --merges k.bpe", None),
    ("decode-no-boundary", "decode --input n.tok --format symbolic --vocab n.vocab --merges n.bpe", None),
    # token 20 of a table whose lengths grow as Fibonacci numbers spells 4,181 units
    ("decode-fibonacci", "decode --input - --merges fibonacci.bpe", "fibonacci.tok"),
    # lines that read a token's halves before the token, so its surface joins two stored ones
    ("decode-doubling-halves-first", "decode --input - --merges doubling.bpe", "halves.tok"),
    ("decode-fibonacci-halves-first", "decode --input - --merges fibonacci.bpe", "fibonacci-halves.tok"),
    # reports
    ("stats", "stats --input z.txt", None),
    ("stats-json", "stats --input z.txt --json", None),
    ("stats-out", "stats --input z.txt --out r.txt", None),
    ("stats-json-out", "stats --input z.txt --json --out r.json", None),
    ("stats-symbolic", "stats --input s.txt --format symbolic --json", None),
    ("stats-crlf", "stats --input crlf.txt --json", None),
    ("analyze", "analyze --input z.txt --merges z.bpe", None),
    ("analyze-json", "analyze --input z.txt --merges z.bpe --json", None),
    ("analyze-out", "analyze --input z.txt --merges z.bpe --out r.txt", None),
    ("analyze-json-out", "analyze --input z.txt --merges z.bpe --json --out r.json", None),
    ("analyze-symbolic", "analyze --input s.txt --format symbolic --vocab s.vocab --merges s.bpe --json", None),
    ("analyze-shared-junction", "analyze --input junction.txt --merges junction.bpe", None),
    ("analyze-doubling", "analyze --input zeros.txt --merges doubling.bpe", None),
    # the first 3 + r lines of a merge file, as a |Z| sweep reads them with head
    ("analyze-prefix", "analyze --input z.txt --merges z-prefix.bpe", None),
    ("analyze-prefix-symbolic", "analyze --input s.txt --format symbolic --vocab s.vocab --merges s-prefix.bpe",
     None),
    ("tradeoff", "tradeoff --eps 0.00097 0.0014 --n 300 872", None),
    ("tradeoff-json", "tradeoff --eps 0.1 0.2 --n 1 2 --json", None),
    ("tradeoff-out", "tradeoff --eps 0.01 --n 50 --out r.txt", None),
    # synth
    ("synth-zipf", "synth zipf --seed 9 --vocab-size 12 --sequences 5 --length 30 --exponent 1.0", None),
    ("synth-zipf-out", "synth zipf --seed 3 --vocab-size 40 --sequences 20 --length 100 --out y.txt", None),
    ("synth-runlength",
     "synth runlength --seed 4 --clusters 10 --sequences 3 --length 20 --mean-run 3.0 --transition-skew 1.0",
     None),
    # help
    ("help", "--help", None),
    *((f"help-{command.replace(' ', '-')}", f"{command} --help", None) for command in (
        "train", "encode", "decode", "stats", "analyze", "tradeoff", "synth", "synth zipf", "synth runlength",
    )),
    # usage errors (exit 2)
    ("usage-no-command", "", None),
    ("usage-unknown-command", "compress", None),
    ("usage-train-missing-target", "train --input z.txt", None),
    ("usage-encode-missing-merges", "encode --input z.txt", None),
    ("usage-tradeoff-missing-n", "tradeoff --eps 0.1", None),
    ("usage-synth-zipf-missing", "synth zipf --seed 1", None),
    ("usage-synth-runlength-missing", "synth runlength --seed 1", None),
    ("usage-bad-format", "stats --input z.txt --format csv", None),
    ("usage-boundary-for-dau", "train --input z.txt --target-size 90 --no-boundary", None),
    ("usage-boundary-with-space", "stats --input k.txt --format symbolic --boundary 'a b'", None),
    ("usage-boundary-empty", "train --input k.txt --format symbolic --boundary '' --target-size 20", None),
    # data errors (exit 1)
    ("error-missing-file", "train --input nope.txt --target-size 9", None),
    ("error-non-integer", "train --input bad.txt --target-size 9", None),
    ("error-target-too-small", "train --input c.txt --target-size 2", None),
    ("error-utf8-corpus", "encode --input utf8.txt --merges t.bpe", None),
    ("error-utf8-vocab", "encode --input c.txt --merges t.bpe --vocab utf8.txt", None),
    ("error-utf8-merges", "encode --input c.txt --merges utf8.bpe", None),
    ("error-utf8-stdin", "encode --input - --merges t.bpe", "utf8.txt"),
    ("error-separator-in-line", "stats --input ff.txt", None),
    # an id has one spelling: each of these tokens int() would read
    ("error-lax-spellings", "stats --input lax.txt", None),
    ("error-plus-sign-base", "encode --input c.txt --merges plus.bpe", None),
    ("error-plus-sign-row", "encode --input c.txt --merges plus-row.bpe", None),
    ("error-leading-zero-symbolic", "encode --input zero.txt --format symbolic --merges t.bpe", None),
    # a merge row's field count is named before its tokens, and a row that
    # does not parse before an earlier row's broken rule
    ("error-row-fields-before-token", "encode --input c.txt --merges short-row.bpe", None),
    ("error-row-parse-before-rule", "encode --input c.txt --merges parse-after-rule.bpe", None),
    ("error-row-huge-field", "encode --input c.txt --merges huge-field.bpe", None),
    *((f"error-threads-{command.replace(' --', '-')}", f"{command} --input c.txt {args} --threads 0", None)
      for command, args in (
          ("train", "--target-size 8"), ("train --oracle", "--target-size 8"), ("encode", "--merges t.bpe"),
          ("encode --oracle", "--merges t.bpe"), ("analyze", "--merges t.bpe"),
      )),
    ("error-reserved-boundary", "train --input k.txt --format symbolic --boundary '<eos>' --target-size 20", None),
    ("error-reserved-boundary-sidecar",
     "stats --input k.txt --format symbolic --vocab k.vocab --boundary '<eos>'", None),
    ("error-reserved-label", "stats --input r.txt --format symbolic", None),
    ("error-reserved-label-sidecar", "stats --input r.txt --format symbolic --vocab r.vocab", None),
    ("error-label-with-space",
     "train --input ws.txt --format symbolic --vocab ws.vocab --target-size 8 --out m.bpe", None),
    ("error-vocab-mismatch", "encode --input z.txt --merges t.bpe", None),
    # line 3 names a label that k.vocab, of the table's base size, lacks
    ("error-line3-unknown-label", "encode --input k.txt --format symbolic --vocab k.vocab --merges zz.bpe", None),
    ("error-line3-reserved-label", "encode --input k.txt --format symbolic --vocab k.vocab --merges pad.bpe", None),
    # decode faults over t.bpe, an 8-token table whose specials are 3-5
    *((f"error-decode-{name}", "decode --input - --merges t.bpe", f"{name}.tok") for name in (
        "range", "first-bad-line", "special-then-range", "range-then-parse", "special-range-parse",
        "plus-sign", "leading-zero",
    )),
    ("error-decode-special-dau", "decode --input - --merges t.bpe", "special.tok"),
    ("error-decode-special-symbolic", "decode --input - --format symbolic --vocab h.vocab --merges h.bpe",
     "special.tok"),
    ("error-decode-doubling-huge", "decode --input - --merges doubling.bpe", "huge.tok"),
    ("error-decode-fibonacci-huge", "decode --input - --merges fibonacci.bpe", "fibonacci-huge.tok"),
    ("error-synth-huge-vocab", "synth zipf --seed 1 --vocab-size 1000000000000 --sequences 1 --length 1", None),
)

# Files the cases read that are written directly rather than generated.
FIXED = {
    "c.txt": b"0 1 0 1 2\n2 0 1 0 1\n0 1 2 2\n",
    "repeated.txt": b"0 1 0 1 2 0 1 3\n4 0 1 2 0 0 1\n0 1 0 1 2 0 1 3\n4 0 1 2 0 0 1\n\n5\n",
    "h.txt": b"HH AH0 _ HH AH0\n",
    "short.txt": b"1 2 1 2 1 2\n",
    "pair.txt": b"1 2\n",
    "tie.txt": b"1 1 2 _ 1 2 1 1\n",
    "blocked.txt": b"1 2 _ 1 2 _ 1 2\n",
    "crlf.txt": b"0 1 0 1\r\n2 0\r\n\r\n1 1\r\n",
    "ff.txt": b"0 1\x0cx\n",
    "lax.txt": "0 1\n1_0 +2 \u0663 05\n".encode(),
    "plus.bpe": b"unitbpe-v1\n+6\n\n0 0 +1 6\n",
    "plus-row.bpe": b"unitbpe-v1\n6\n\n0 0 +1 6\n",
    "short-row.bpe": b"unitbpe-v1\n6\n\n0 0 1 6\n1 6 x\n",
    "parse-after-rule.bpe": b"unitbpe-v1\n6\n\n0 0 1 6\n1 0 1 7\n2 6 2 8\n3 8 y 9\n",
    "huge-field.bpe": b"unitbpe-v1\n6\n\n0 0 1 6\n1 6 2 7\n2 7 0 " + b"9" * 4301 + b"\n",
    "zero.txt": b"0 1\n05\n",
    "bad.txt": b"1 2\n3 four\n",
    "utf8.txt": b"1 2\n3 \xff4\n",
    "utf8.bpe": b"unitbpe-v1\n\xff6\n\n",
    "k.txt": b"K AE1 T S\n",
    "k.vocab": b"K\nAE1\nT\nS\n",
    "zz.bpe": b"unitbpe-v1\n7\nzz\n",
    "pad.bpe": b"unitbpe-v1\n7\n<pad>\n",
    "r.txt": b"a b\nc <bos>\n",
    "r.vocab": b"a\nb\nc\n",
    "ws.txt": b"a a _ a a\n",
    "ws.vocab": b"a\nb c\n",
    "range.tok": b"0 1\n99\n",
    "first-bad-line.tok": b"99\n0 1\nx\n",
    "special-then-range.tok": b"0 1\n4 99\n",
    "range-then-parse.tok": b"0 1\n99 x\n",
    "special-range-parse.tok": b"0 1\n4 -1 x\n",
    "plus-sign.tok": b"0 1\n1 +4 99\n",
    "leading-zero.tok": b"0 1\n01 4 3\n",
    "special.tok": b"0 1\n0 5\n",
    # Token 4 + k spells 2^(k + 1) copies of unit 0.
    "doubling.bpe": b"unitbpe-v1\n4\n\n0 0 0 4\n"
    + b"".join(b"%d %d %d %d\n" % (r, r + 3, r + 3, r + 4) for r in range(1, 40)),
    "zeros.txt": b"0 0 0\n",
    # 6 = 1 2, 7 = 0 1, 8 = 2 0 and 9 = 7 8: rules 6 and 9 share the junction of units 1 and 2.
    "junction.bpe": b"unitbpe-v1\n6\n\n0 1 2 6\n1 0 1 7\n2 2 0 8\n3 7 8 9\n",
    "junction.txt": b"0 1 2\n0 1 2 0\n2 0 1 2 0\n0 1 0 1 2 2 0\n0 1 2 0 1 2 0\n",
    "huge.tok": b"43\n",
    "halves.tok": b"13 14\n4 0 5\n",
    # From token 6 on, token k is token k - 1 then token k - 2; token k spells
    # F(k - 1) copies of unit 0.
    "fibonacci.bpe": b"unitbpe-v1\n4\n\n0 0 0 4\n1 4 0 5\n"
    + b"".join(b"%d %d %d %d\n" % (r, r + 3, r + 2, r + 4) for r in range(2, 62)),
    "fibonacci.tok": b"20\n",
    "fibonacci-halves.tok": b"19 20 21\n",
    "fibonacci-huge.tok": b"63\n",
}

# CLI runs, against this tree, that write the tables, sidecars and token
# files the cases read; write_inputs then cuts each of z.bpe and s.bpe to its
# header and first PREFIX_ROWS rows.
PREFIX_ROWS = 20
SETUP = (
    "train --input z.txt --target-size 120 --out z.bpe",
    "encode --input z.txt --merges z.bpe --out z.tok",
    "train --input s.txt --format symbolic --target-size 60 --save-vocab s.vocab --out s.bpe",
    "encode --input s.txt --format symbolic --vocab s.vocab --merges s.bpe --out s.tok",
    "train --input s.txt --format symbolic --no-boundary --target-size 60 --save-vocab n.vocab --out n.bpe",
    "encode --input s.txt --format symbolic --vocab n.vocab --merges n.bpe --out n.tok",
    "train --input c.txt --target-size 8 --out t.bpe",
    "train --input h.txt --format symbolic --target-size 7 --save-vocab h.vocab --out h.bpe",
    "train --input k.txt --format symbolic --vocab k.vocab --target-size 11 --min-pair-count 1 --out k.bpe",
    "encode --input k.txt --format symbolic --vocab k.vocab --merges k.bpe --out k.tok",
)


class Result(NamedTuple):
    """What one child did: its exit code (None on timeout), its output
    streams, and each file it wrote or changed, by name."""

    code: int | None
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def run_case(src: Path, directory: Path, argv: str, stdin: str | None) -> Result:
    """Run ``python -m unitbpe`` with the package under src, in directory,
    under the limits."""
    before = _snapshot(directory)
    # One hash seed for every child, so both trees iterate sets alike.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    try:
        with open(directory / stdin, "rb") if stdin else open(os.devnull, "rb") as stream:
            proc = subprocess.run(
                [sys.executable, "-m", "unitbpe", *shlex.split(argv)], cwd=directory, env=env, stdin=stream,
                capture_output=True, timeout=TIMEOUT, preexec_fn=_limit_child,
            )
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = None, exc.stdout or b"", exc.stderr or b""
    written = {name: data for name, data in _snapshot(directory).items() if before.get(name) != data}
    return Result(code, stdout, stderr, written)


def write_inputs(src: Path, directory: Path) -> Path:
    """Write every input the cases read into directory, from fixed seeds,
    and the SETUP files with the package under src."""
    directory.mkdir(parents=True)
    rng = random.Random(15)
    weights = [1 / (rank + 1) for rank in range(40)]
    lines = [rng.choices(range(40), weights, k=rng.randint(20, 150)) for _ in range(30)]
    (directory / "z.txt").write_text("".join(" ".join(map(str, line)) + "\n" for line in lines))
    words = [" ".join(rng.choices(PHONEMES, k=rng.randint(1, 5))) for _ in range(40)]
    utterances = [rng.choices(words, k=rng.randint(2, 8)) for _ in range(60)]
    for name, separator in (("s.txt", " _ "), ("b.txt", " | ")):
        (directory / name).write_text("".join(separator.join(u) + "\n" for u in utterances))
    for name, data in FIXED.items():
        (directory / name).write_bytes(data)
    for argv in SETUP:
        result = run_case(src, directory, argv, None)
        if result.code != 0:
            raise RuntimeError(f"setup {argv!r} exited {result.code}: {result.stderr.decode(errors='replace')}")
    for name in ("z", "s"):
        table = (directory / f"{name}.bpe").read_bytes()
        (directory / f"{name}-prefix.bpe").write_bytes(b"".join(table.splitlines(keepends=True)[: 3 + PREFIX_ROWS]))
    return directory


def run_table(src: Path, inputs: Path, scratch: Path) -> dict[str, Result]:
    """Every case against the package under src, each in its own copy of
    inputs under scratch."""
    results = {}
    for name, argv, stdin in CASES:
        directory = scratch / name
        shutil.copytree(inputs, directory)
        results[name] = run_case(src, directory, argv, stdin)
        shutil.rmtree(directory)
    return results


def _render(result: Result) -> list[str]:
    lines = [f"exit {'timeout' if result.code is None else result.code}"]
    for name, data in (("stdout", result.stdout), ("stderr", result.stderr), *sorted(result.files.items())):
        lines.append(f"=== {name}")
        lines += data.decode("utf-8", "backslashreplace").split("\n")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare with the working tree, e.g. HEAD^")
    parser.add_argument("--expect", action="append", default=[], metavar="CASE", help="a case that may differ")
    args = parser.parse_args(argv)
    commands = {name: argv for name, argv, _ in CASES}
    names = list(commands)
    unknown = sorted(set(args.expect).difference(names))
    if unknown:
        parser.error(f"no such case: {', '.join(unknown)}")

    with tempfile.TemporaryDirectory(prefix="cli_diff.") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            parser.error(f"git archive {args.rev}: {archive.stderr.decode(errors='replace').strip()}")
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout, check=True)
        inputs = write_inputs(ROOT / "src", tmp / "inputs")
        before = run_table(tmp / "rev" / "src", inputs, tmp)
        after = run_table(ROOT / "src", inputs, tmp)

    differ = [name for name in names if before[name] != after[name]]
    for name in differ:
        print(f"## {name}{' (expected)' if name in args.expect else ''}: unitbpe {commands[name]}")
        diff = difflib.unified_diff(
            _render(before[name]), _render(after[name]), args.rev, "working tree", lineterm="", n=2
        )
        print("\n".join(diff))
    unexpected = [name for name in differ if name not in args.expect]
    print(f"{len(names)} cases, {len(differ)} differ, {len(unexpected)} of them not expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
