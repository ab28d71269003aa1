"""Every CLI run is bounded by the size of its input, never by an id written
inside it. Each case runs in a child process under an address-space limit
set on that child only, with a timeout: a run sized by an id fails there,
within seconds, instead of exhausting the machine."""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitbpe

LIMIT = 256 << 20  # bytes of address space for each child
TIMEOUT = 5  # seconds for each child
BIG = 2_000_000

# Runs each argv in the list given as JSON, in-process, and prints their
# exit codes as JSON; an uncaught exception shows as a traceback.
CHILD = "import json, sys; from unitbpe.cli import main; print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))"


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def run_limited(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter over this package in cwd, under the limits."""
    path = [str(Path(unitbpe.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=TIMEOUT, preexec_fn=_limit_child,
    )


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "big.txt").write_text(f"1 {BIG}\n", encoding="utf-8")
    (tmp_path / "small.txt").write_text("1 2\n", encoding="utf-8")
    (tmp_path / "big.bpe").write_text(f"unitbpe-v1\n{BIG}\n\n", encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize(
    "argv, out",
    [
        ("stats --input big.txt", "sequence_count 1\ntotal_units 2\n"),
        (f"train --input big.txt --target-size {BIG + 10}", f"unitbpe-v1\n{BIG + 4}\n\n"),
        ("encode --input small.txt --merges big.bpe", "1 2\n"),
        ("decode --input small.txt --merges big.bpe", "1 2\n"),
        ("decode --input small.txt --merges big.bpe --format symbolic", "1 2\n"),
        ("encode --input small.txt --merges big.bpe --format symbolic", "1 2\n"),
        ("analyze --input small.txt --merges big.bpe --json", "{\n"),
    ],
    ids=["stats", "train", "encode", "decode", "decode-symbolic", "encode-symbolic", "analyze"],
)
def test_large_id_costs_what_a_small_one_does(files, argv, out):
    proc = run_limited(files, "-m", "unitbpe", *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(out)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", [2**63 - 4, 2**63, 2**64], ids=["2^63-4", "2^63", "2^64"])
def test_ids_and_sizes_past_int64_exit_cleanly(tmp_path, n):
    # c.txt holds id n, m.bpe records base size n, and t.txt token id n.
    (tmp_path / "c.txt").write_text(f"1 {n}\n{n} 1 {n} 1 {n} 1\n", encoding="utf-8")
    (tmp_path / "s.txt").write_text("1 2\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text(f"1 {n}\n", encoding="utf-8")
    (tmp_path / "m.bpe").write_text(f"unitbpe-v1\n{n}\n\n", encoding="utf-8")
    table = ["--merges", "m.bpe", "--out", "o.txt"]
    cases = [
        (["stats", "--input", "c.txt", "--out", "o.txt"], 0),
        # The base of c.txt is n + 4 > 2^63 - 1, so no target may exceed it.
        (["train", "--input", "c.txt", "--target-size", str(n + 10), "--out", "o.txt"], 1),
        (["train", "--input", "c.txt", "--target-size", str(2**63), "--out", "o.txt"], 1),
        (["train", "--input", "c.txt", "--target-size", str(2**63), "--oracle", "--out", "o.txt"], 1),
        (["encode", "--input", "s.txt", *table], 0),
        (["encode", "--input", "s.txt", "--oracle", *table], 0),
        (["encode", "--input", "c.txt", *table], 1),
        (["decode", "--input", "s.txt", *table], 0),
        (["decode", "--input", "s.txt", "--format", "symbolic", *table], 0),
        (["decode", "--input", "t.txt", *table], 1),
        (["analyze", "--input", "s.txt", "--json", *table], 0),
        (["analyze", "--input", "c.txt", *table], 1),
    ]
    proc = run_limited(tmp_path, "-c", CHILD, json.dumps([argv for argv, _ in cases]))
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code for _, code in cases]


IDS = st.one_of(st.integers(0, 20), st.integers(0, 10**12), st.integers(0, 2**65))
LINES = st.lists(st.lists(IDS, max_size=6).map(lambda ids: " ".join(map(str, ids))), max_size=4)


@settings(max_examples=25, deadline=None)
@given(
    corpus=LINES,
    tokens=LINES,
    base=IDS,
    rows=st.lists(st.tuples(IDS, IDS, IDS, IDS), max_size=3),
    target=st.one_of(st.integers(1, 10**12 + 10), st.integers(1, 2**65)),
)
def test_small_inputs_with_large_ids_exit_cleanly(corpus, tokens, base, rows, target):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "c.txt").write_text("".join(line + "\n" for line in corpus), encoding="utf-8")
        (cwd / "t.txt").write_text("".join(line + "\n" for line in tokens), encoding="utf-8")
        merges = [f"{rank} {left} {right} {result}" for rank, left, right, result in rows]
        (cwd / "m.bpe").write_text("".join(f"{line}\n" for line in ["unitbpe-v1", base, "", *merges]), encoding="utf-8")
        table = ["--merges", "m.bpe", "--out", "o.txt"]
        argvs = [
            ["stats", "--input", "c.txt", "--out", "o.txt"],
            ["train", "--input", "c.txt", "--target-size", str(target), "--out", "o.txt"],
            ["encode", "--input", "c.txt", *table],
            ["encode", "--input", "c.txt", "--format", "symbolic", *table],
            ["decode", "--input", "t.txt", *table],
            ["decode", "--input", "t.txt", "--format", "symbolic", *table],
            ["analyze", "--input", "c.txt", *table],
        ]
        proc = run_limited(cwd, "-c", CHILD, json.dumps(argvs))
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {0, 1}
