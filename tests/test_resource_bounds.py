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
HUGE = 1 << 40  # a base size that no structure with one entry per id fits under LIMIT

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
    (tmp_path / "merged.bpe").write_text(f"unitbpe-v1\n{HUGE}\n\n0 1 2 {HUGE}\n", encoding="utf-8")
    # Rules 0 and 2 both join unit 2 to unit 3; 1 2 3 encodes to 1 and rule 0.
    rules = f"0 2 3 {HUGE}\n1 1 2 {HUGE + 1}\n2 {HUGE + 1} 3 {HUGE + 2}\n"
    (tmp_path / "junction.bpe").write_text(f"unitbpe-v1\n{HUGE}\n\n{rules}", encoding="utf-8")
    (tmp_path / "seam.txt").write_text("1 2 3\n", encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize(
    "argv, out",
    [
        ("stats --input big.txt", "sequence_count 1\ntotal_units 2\n"),
        (f"train --input big.txt --target-size {BIG + 10}", f"unitbpe-v1\n{BIG + 4}\n\n"),
        ("encode --input small.txt --merges big.bpe", "1 2\n"),
        # The encoder's index holds the merged tokens only, none of the base.
        ("encode --input small.txt --merges merged.bpe", f"{HUGE}\n"),
        # The seam floors hold one entry per junction of a rule, none per base id.
        ("encode --input seam.txt --merges junction.bpe", f"1 {HUGE}\n"),
        ("decode --input small.txt --merges big.bpe", "1 2\n"),
        ("decode --input small.txt --merges big.bpe --format symbolic", "1 2\n"),
        ("encode --input small.txt --merges big.bpe --format symbolic", "1 2\n"),
        ("analyze --input small.txt --merges big.bpe --json", "{\n"),
    ],
    ids=[
        "stats", "train", "encode", "encode-merged", "encode-shared-junction", "decode", "decode-symbolic",
        "encode-symbolic", "analyze",
    ],
)
def test_large_id_costs_what_a_small_one_does(files, argv, out):
    proc = run_limited(files, "-m", "unitbpe", *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(out)
    assert "Traceback" not in proc.stderr


# Forty doubling rules over one content unit: token 4 + k spells 2^(k + 1)
# copies of unit 0, so all surfaces together hold 2^41 units.
DOUBLING = "unitbpe-v1\n4\n\n0 0 0 4\n" + "".join(f"{r} {r + 3} {r + 3} {r + 4}\n" for r in range(1, 40))
# Sixty-two rules whose lengths grow as Fibonacci numbers: from token 6 on,
# token k is token k - 1 then token k - 2, two unequal halves, and every
# token k spells F(k - 1) copies of unit 0.
FIBONACCI = "unitbpe-v1\n4\n\n0 0 0 4\n1 4 0 5\n" + "".join(f"{r} {r + 3} {r + 2} {r + 4}\n" for r in range(2, 62))


@pytest.mark.parametrize(
    "table, tokens, out",
    [
        (DOUBLING, "0\n", "0\n"),
        (DOUBLING, "13\n", " ".join(["0"] * 2**10) + "\n"),
        (DOUBLING, "0 13 0\n8\n", " ".join(["0"] * (2**10 + 2)) + "\n" + " ".join(["0"] * 2**5) + "\n"),
        (FIBONACCI, "31\n", " ".join(["0"] * 832_040) + "\n"),
        # Every unit of the rendered token shares one string, so its 2^22
        # units cost 8 bytes each on top of the surface's 8.
        (DOUBLING, "25\n", " ".join(["0"] * 2**22) + "\n"),
    ],
    ids=["base-id", "2^10-unit-token", "lines", "fibonacci-832040-unit-token", "2^22-unit-token"],
)
def test_decode_stores_only_the_surfaces_it_reads(tmp_path, table, tokens, out):
    (tmp_path / "m.bpe").write_text(table, encoding="utf-8")
    (tmp_path / "t.txt").write_text(tokens, encoding="utf-8")
    proc = run_limited(tmp_path, "-m", "unitbpe", "decode", "--input", "t.txt", "--merges", "m.bpe")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == out


@pytest.mark.parametrize(
    "tokens, fault",
    [
        ("43 x\n", "non-integer token 'x'"),
        ("43 44\n", "token id 44 outside vocabulary of size 44"),
        ("43 1\n", "token id 1 is a reserved special token"),
    ],
    ids=["non-integer", "past-end", "special"],
)
def test_decode_names_a_fault_before_it_builds_a_surface(tmp_path, tokens, fault):
    # Token 43 spells 2^40 units: the line's fault must be found first.
    (tmp_path / "doubling.bpe").write_text(DOUBLING, encoding="utf-8")
    (tmp_path / "t.txt").write_text(tokens, encoding="utf-8")
    proc = run_limited(tmp_path, "-m", "unitbpe", "decode", "--input", "t.txt", "--merges", "doubling.bpe")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"unitbpe: error: line 1: {fault}\n")


def test_decode_of_a_token_too_long_for_memory_names_its_line(tmp_path):
    (tmp_path / "doubling.bpe").write_text(DOUBLING, encoding="utf-8")
    (tmp_path / "t.txt").write_text("0 13\n43\n", encoding="utf-8")
    proc = run_limited(tmp_path, "-m", "unitbpe", "decode", "--input", "t.txt", "--merges", "doubling.bpe")
    fault = "unitbpe: error: line 2: token id 43 is too long to decode\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", fault)


def test_decode_of_a_token_whose_stored_halves_do_not_fit_names_its_line(tmp_path):
    # Lines 1-3 store tokens 24-26 (2^21-2^23 units), so token 27's halves
    # are both stored and its surface is their two joined: with the surfaces
    # and lines already held, that 2^24-unit join is what fails. Symbolic
    # labels render without a new string per unit, so lines 1-3 fit.
    (tmp_path / "doubling.bpe").write_text(DOUBLING, encoding="utf-8")
    (tmp_path / "v.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("24\n25\n26\n27\n", encoding="utf-8")
    argv = ["decode", "--input", "t.txt", "--merges", "doubling.bpe", "--format", "symbolic", "--vocab", "v.txt"]
    proc = run_limited(tmp_path, "-m", "unitbpe", *argv)
    fault = "unitbpe: error: line 4: token id 27 is too long to decode\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", fault)


@pytest.mark.parametrize(
    "argv, fault",
    [
        # Token 63 spells F(62), about 4 * 10^12 units.
        ("decode --input t.txt --merges fibonacci.bpe", "line 1: token id 63 is too long to decode"),
        ("synth zipf --seed 1 --vocab-size 1000000000000 --sequences 1 --length 1",
         "--vocab-size 1000000000000, --sequences 1 and --length 1 are too large to generate"),
        ("synth runlength --seed 1 --clusters 1000000000000 --sequences 1 --length 1",
         "--clusters 1000000000000, --sequences 1 and --length 1 are too large to generate"),
    ],
    ids=["decode-fibonacci", "synth-zipf", "synth-runlength"],
)
def test_a_run_too_large_for_memory_exits_naming_its_cause(tmp_path, argv, fault):
    (tmp_path / "fibonacci.bpe").write_text(FIBONACCI, encoding="utf-8")
    (tmp_path / "t.txt").write_text("63\n", encoding="utf-8")
    proc = run_limited(tmp_path, "-m", "unitbpe", *argv.split())
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"unitbpe: error: {fault}\n")


@pytest.mark.parametrize("length", [3, 5000])
@pytest.mark.parametrize("command", ["encode", "analyze"])
def test_encoder_index_holds_only_tokens_its_input_can_hold(tmp_path, command, length):
    # Every doubling token is kept; the index holds those no longer than the
    # input, so its size follows the input, not the surfaces the table spells.
    (tmp_path / "doubling.bpe").write_text(DOUBLING, encoding="utf-8")
    (tmp_path / "zeros.txt").write_text(" ".join(["0"] * length) + "\n", encoding="utf-8")
    argv = ["-m", "unitbpe", command, "--input", "zeros.txt", "--merges", "doubling.bpe"]
    proc = run_limited(tmp_path, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    oracle = run_limited(tmp_path, "-m", "unitbpe", "encode", *argv[3:], "--oracle")
    assert oracle.stdout == {3: "4 0\n", 5000: "15 12 11 10 6\n"}[length]
    if command == "encode":
        assert proc.stdout == oracle.stdout
    else:
        k_hat = len(oracle.stdout.split())
        assert proc.stdout.startswith(f"n_hat {length}.0\nk_hat {k_hat}.0\n")


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
# Id texts, and now and then a spelling that int() reads but that is no id.
TEXTS = st.one_of(*[IDS.map(str)] * 4, st.sampled_from(["+2", "1_0", "\u0663", "05", "-0", "-05"]))
LINES = st.lists(st.lists(TEXTS, max_size=6).map(" ".join), max_size=4)
# Sidecar lines: labels that a corpus of ids can hold, the boundary, blank
# lines, specials, labels with whitespace; repeats come from the draw itself.
LABELS = st.one_of(IDS.map(str), st.sampled_from(["a", "_", "", "<pad>", "<bos>", "<eos>", "a b", " c"]))
SIDECAR = st.lists(st.one_of(LABELS.map(str.encode), st.just(b"x\xff")), max_size=6)


@settings(max_examples=25, deadline=None)
@given(
    corpus=LINES,
    tokens=LINES,
    base=TEXTS,
    rows=st.lists(st.tuples(TEXTS, TEXTS, TEXTS, TEXTS), max_size=3),
    target=st.one_of(st.integers(1, 10**12 + 10), st.integers(1, 2**65)),
    sidecar=SIDECAR,
    label=st.one_of(st.just(""), LABELS),
)
def test_small_inputs_with_large_ids_exit_cleanly(corpus, tokens, base, rows, target, sidecar, label):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "c.txt").write_text("".join(line + "\n" for line in corpus), encoding="utf-8")
        (cwd / "t.txt").write_text("".join(line + "\n" for line in tokens), encoding="utf-8")
        merges = [f"{rank} {left} {right} {result}" for rank, left, right, result in rows]
        (cwd / "v.txt").write_bytes(b"".join(line + b"\n" for line in sidecar))
        header = ["unitbpe-v1", base, label]
        (cwd / "m.bpe").write_text("".join(f"{line}\n" for line in [*header, *merges]), encoding="utf-8")
        table = ["--merges", "m.bpe", "--out", "o.txt"]
        symbolic = ["--format", "symbolic", "--vocab", "v.txt"]
        argvs = [
            ["stats", "--input", "c.txt", "--out", "o.txt"],
            ["train", "--input", "c.txt", "--target-size", str(target), "--out", "o.txt"],
            ["encode", "--input", "c.txt", *table],
            ["encode", "--input", "c.txt", "--format", "symbolic", *table],
            ["decode", "--input", "t.txt", *table],
            ["decode", "--input", "t.txt", "--format", "symbolic", *table],
            ["analyze", "--input", "c.txt", *table],
            ["stats", "--input", "c.txt", *symbolic, "--out", "o.txt"],
            ["train", "--input", "c.txt", "--format", "symbolic", "--target-size", str(target),
             "--save-vocab", "s.txt", "--out", "o.txt"],
            ["encode", "--input", "c.txt", *symbolic, *table],
            ["decode", "--input", "t.txt", *symbolic, *table],
            ["analyze", "--input", "c.txt", *symbolic, *table],
        ]
        proc = run_limited(cwd, "-c", CHILD, json.dumps(argvs))
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {0, 1}
