"""Benchmark of unitbpe: seeded workloads through the CLI and the library.

    python3 perfbench/run.py --workload zipf-train --seed 0 --seconds 20 --trace 0

Run it from the repository root. It imports the package from ./src and
starts the CLI as ``python -m unitbpe`` child processes, one at a time: the
load is one closed-loop client and nothing runs concurrently. A child's
wall time comes from perf_counter, its CPU time and peak RSS from os.wait4.

Set-up writes the workload's inputs (and the merge table, when training is
not a measured stage) several times and reports the median. The measured
stages then repeat until --seconds is used up. Each timed part (a CLI
stage, or a block of the utterance loop) is paired with a timing of the
fixed reference work in reference.py taken just before it; a part counts
with the median over repetitions of its wall time over its reference
time, in "ref" units, and pipeline_ref is the sum of those parts. The
wall-clock figures are printed beside them for reading. Every stage's exit
status, every round trip and every output digest is checked, and an
untimed probe compares train and encode with the reference oracle on a
small slice.

With --trace 0 the last line of output holds the end-to-end metrics named
in BENCHMARK.json; with --trace 1 it holds the per-layer metrics of the
in-process traced mirror in sweep.py, and the spans go to
.perfbench_spans/. Scratch files live in .perfbench_work/ and are removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# The package under test is the checkout's src/, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))
try:
    import reference
    import sweep
    from unitbpe import (
        TrainOptions, encode, load_merge_table, load_vocabulary, naive_encode, naive_train, read_corpus, train,
    )
    from workloads import WORKLOADS, Files, digest, write_lines
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: {exc}; run from the root of a unitbpe checkout")

SETUP_REPS = 5
MIN_PASSES = 3
STARTUP_PROBES = 5
STAGE_TIMEOUT_S = 90
MEASURE_LIMIT_S = 100  # no new repetition starts after this; runs must end within 180 s
DEFAULT_SEED = 0  # the seed whose output digests are recorded in digests.json
# Printed for reading, not in the result line: BENCHMARK.json declares a
# metric only if every workload has it.
EXTRA_UNITS = {
    "pipeline_s": "s", "encode_units_per_s": "1/s", "decode_units_per_s": "1/s", "ref_s": "s",
    "train_s": "s", "analyze_s": "s", "utt_per_s": "1/s", "utt_latency_p50_ms": "ms", "utt_latency_p99_ms": "ms",
    "wait_s": "s", "passes": "count", "sweeps": "count",
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Starts child processes one at a time and counts operations and failures."""

    def __init__(self, work: Path):
        self.work = work
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: failed: {what}", file=sys.stderr)
        return ok

    def guarded(self, what: str, fn, *args):
        """Call fn, counting an exception as one failed operation."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.check(False, f"{what} raised")
            return None

    def spawn(self, args: list[str], stdout: Path | None = None) -> Child:
        err = self.work / "stderr.txt"
        wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout or os.devnull), wr, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), wr, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(STAGE_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
        wall = perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(err.read_text(encoding="utf-8", errors="replace")[-2000:])
        self.check(code == 0, f"{' '.join(args[:3])} exited with {code}")
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code == 0)

    def cli(self, *args: str) -> Child:
        return self.spawn(["-m", "unitbpe", *args])


def stage_args(w, stage: str, f) -> list[str]:
    """CLI arguments of one stage, as a user would type them."""
    fmt = ["--format", w.fmt]
    vocab = ["--vocab", str(f.vocab)] if w.symbolic else []
    if stage == "train":
        save = ["--save-vocab", str(f.vocab)] if w.symbolic else []
        return ["train", "--input", str(f.train), "--out", str(f.merges),
                "--target-size", str(w.target_size), *fmt, *save]
    if stage == "encode":
        return ["encode", "--input", str(f.corpus), "--merges", str(f.merges), "--out", str(f.tokens), *fmt, *vocab]
    if stage == "decode":
        return ["decode", "--input", str(f.tokens), "--merges", str(f.merges), "--out", str(f.decoded), *fmt, *vocab]
    if stage == "analyze":
        return ["analyze", "--input", str(f.corpus), "--merges", str(f.merges), "--out", str(f.report),
                "--json", *fmt, *vocab]
    raise ValueError(stage)


def setup(w, runner: Runner, f, seed: int) -> tuple[float, float | None, dict]:
    """Write the inputs, and the merge table when training is not measured.

    Returns the set-up seconds, the CLI train wall time if training ran,
    and the digests of what set-up wrote.
    """
    start = perf_counter()
    for source, path in ((w.train, f.train), (w.corpus, f.corpus)):
        if source is None:
            continue
        args = source.cli_args(seed, str(path))
        if args:
            runner.cli(*args)
        else:
            write_lines(path, source.lines(seed))
    train_s = None
    if w.train_in_setup:
        train_s = runner.cli(*stage_args(w, "train", f)).wall_s
    seconds = perf_counter() - start
    files = {"train": f.train, "merges": f.merges}
    if w.corpus:
        files["corpus"] = f.corpus
    return seconds, train_s, {k: digest(p) for k, p in files.items() if p.exists()}


def run_pass(w, runner: Runner, f) -> tuple[dict[str, tuple[float, float]], dict, dict]:
    """Run the measured stages once.

    Returns the wall seconds of each timed part (a CLI stage, or a block of
    the utterance loop and the calls in it) with the seconds of the
    reference work timed just before it, the output digests, and other
    figures of the pass.
    """
    parts: dict[str, tuple[float, float]] = {}
    rss, waits = [], []
    out, other = {}, {}
    for stage in w.stages:
        if stage == "utterances":
            report = runner.work / "client.json"
            child = runner.spawn([str(HERE / "client.py"), str(f.merges), str(f.corpus)], stdout=report)
            rss.append(child.rss_mb)
            waits.append(child.wall_s - child.cpu_s)
            if not child.ok:
                continue
            r = json.loads(report.read_text(encoding="utf-8"))
            runner.attempted += r["utterances"]
            runner.failed += r["mismatches"]
            for key in ("loop", "encode", "decode"):
                parts.update({f"{key}.{b}": (t, ref) for b, (t, ref) in enumerate(zip(r[f"{key}_s"], r["ref_s"]))})
            other.update(utt_latency_p50_ms=r["latency_p50_ms"], utt_latency_p99_ms=r["latency_p99_ms"])
            out["tokens"] = r["tokens_digest"]
            continue
        ref = reference.seconds()
        child = runner.cli(*stage_args(w, stage, f))
        parts[stage] = (child.wall_s, ref)
        rss.append(child.rss_mb)
        waits.append(child.wall_s - child.cpu_s)
    if "decode" in w.stages:
        same = f.decoded.exists() and f.decoded.read_bytes() == f.corpus.read_bytes()
        runner.check(same, "decode output is not byte-identical to the encoded corpus")
        out["tokens"] = digest(f.tokens)
    other.update(peak_rss_mb=max(rss), wait_s=sum(waits))
    out["merges"] = digest(f.merges)
    return parts, out, other


def oracle_probe(w, runner: Runner, f) -> None:
    """Untimed: train and encode against the reference oracle on a small slice."""
    lines = f.train.read_text(encoding="utf-8").splitlines()[:30]
    small = read_corpus([" ".join(line.split()[:40]) for line in lines], w.fmt)
    options = TrainOptions(target_size=len(small.vocabulary) + 40)
    runner.check(train(small, options) == naive_train(small, options), "train differs from naive_train")
    base = load_vocabulary(f.vocab, boundary_label="_") if w.symbolic else None
    table = load_merge_table(f.merges, base)
    lines = f.corpus.read_text(encoding="utf-8").splitlines()[:3]
    probe = read_corpus([" ".join(line.split()[:12]) for line in lines], w.fmt, table.base)
    for seq in probe.sequences:
        runner.check(encode(seq, table) == naive_encode(seq, table), "encode differs from naive_encode")


def check_digests(runner: Runner, what: str, seen: list[dict], recorded: dict | None) -> None:
    """Digests must repeat across repetitions and, at the default seed,
    equal the recorded ones."""
    for later in seen[1:]:
        runner.check(later == seen[0], f"{what} digests differ between repetitions")
    if recorded is not None and seen:
        for key, value in seen[0].items():
            runner.check(recorded.get(key) == value, f"{what} {key} digest differs from digests.json")


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "unitbpe").glob("*.py"))


def untraced(w, runner: Runner, f, seed: int, seconds: float, recorded: dict | None) -> tuple[dict, dict]:
    setups = [setup(w, runner, f, seed) for _ in range(SETUP_REPS)]
    check_digests(runner, "set-up", [d for _, _, d in setups], recorded)
    lines = f.corpus.read_text(encoding="utf-8").splitlines()
    units = sum(len(line.split()) for line in lines)

    passes, outs, others = [], [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or (
        (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
        and perf_counter() - start < MEASURE_LIMIT_S
    ):
        parts, out, other = run_pass(w, runner, f)
        if not parts or (passes and parts.keys() != passes[0].keys()):
            break  # a stage failed; it is counted, and its metrics do not exist
        passes.append(parts)
        outs.append(out)
        others.append(other)
    check_digests(runner, "output", outs, recorded)
    runner.guarded("oracle probe", oracle_probe, w, runner, f)
    if not passes:
        return {}, {}

    # The host's speed swings by up to 1.6x for minutes at a time, which
    # moves every wall time of a run alike; a part's time over the
    # reference time taken just before it does not follow the swings. The
    # blocks of one utterance loop are summed first, over their mean
    # reference time, so that a block's short calls are not timed alone.
    def part(p: dict, name: str, ref: bool) -> float:
        times = [v for k, v in p.items() if k.split(".")[0] == name]
        wall = sum(t for t, _ in times)
        return wall / statistics.mean(r for _, r in times) if ref else wall

    names = {k.split(".")[0] for k in passes[0]}
    ratio = {n: statistics.median(part(p, n, True) for p in passes) for n in names}
    wall = {n: statistics.median(part(p, n, False) for p in passes) for n in names}
    pipeline = {"loop"} if "utterances" in w.stages else set(w.stages)

    def total(parts: dict[str, float], prefix: set[str]) -> float:
        return sum(t for k, t in parts.items() if k in prefix)

    metrics = {
        "setup_s": statistics.median(s for s, _, _ in setups),
        "pipeline_ref": total(ratio, pipeline),
        "encode_units_per_ref": units / total(ratio, {"encode"}),
        "decode_units_per_ref": units / total(ratio, {"decode"}),
    }
    metrics.update({k: statistics.median(o[k] for o in others) for k in others[0]})
    metrics.update({
        "pipeline_s": total(wall, pipeline),
        "encode_units_per_s": units / total(wall, {"encode"}),
        "decode_units_per_s": units / total(wall, {"decode"}),
        "ref_s": statistics.median(ref for p in passes for _, ref in p.values()),
    })
    metrics.update({f"{k}_s": wall[k] for k in ("train", "analyze") if k in wall})
    if w.train_in_setup:
        metrics["train_s"] = statistics.median(t for _, t, _ in setups)
    if "utterances" in w.stages:
        metrics["utt_per_s"] = len(lines) / metrics["pipeline_s"]
    metrics["passes"] = len(passes)
    return metrics, {**setups[0][2], **outs[0]}


def traced(w, runner: Runner, f, seed: int, seconds: float, recorded: dict | None) -> tuple[dict, dict]:
    _, _, inputs = setup(w, runner, f, seed)
    _, cli_out, cli_pass = run_pass(w, runner, f)
    digests = {**inputs, **cli_out}
    check_digests(runner, "output", [digests], recorded)
    startup = statistics.median(runner.cli("tradeoff", "--eps", "0.1", "--n", "1").wall_s for _ in range(STARTUP_PROBES))

    work = runner.work / "sweep"
    work.mkdir()
    traces = []
    start = perf_counter()
    while not traces or (perf_counter() - start) * (len(traces) + 1) / len(traces) <= seconds:
        tr = sweep.Tracer(f"{w.name}-seed{seed}-{len(traces)}")
        res = runner.guarded("traced sweep", sweep.sweep, w, seed, work, tr)
        if res is None:
            break
        traces.append((tr, res))
    mem = runner.guarded("memory pass", sweep.memory_pass, w, work) if traces else None

    for _, res in traces:
        runner.check(res.mismatches == 0, f"{res.mismatches} round trips differ in the sweep")
        runner.check(res.digests == {k: cli_out.get(k) for k in res.digests}, "sweep outputs differ from the CLI's")
    runner.guarded("oracle probe", oracle_probe, w, runner, f)

    spans_dir = ROOT / ".perfbench_spans"
    spans_dir.mkdir(exist_ok=True)
    with open(spans_dir / f"{w.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for tr in [t for t, _ in traces] + [mem] * (mem is not None):
            for s in tr.spans:
                fh.write(json.dumps(s) + "\n")

    if mem is None:
        return {}, digests
    per_sweep = [sweep.layer_metrics(tr.spans, res) for tr, res in traces]
    metrics = {k: statistics.median(m[k] for m in per_sweep) for k in per_sweep[0]}
    metrics.update(sweep.peak_metrics(mem.spans))
    metrics["cli.startup_s"] = startup
    metrics["cli.wait_s"] = cli_pass["wait_s"]
    metrics["trace.overhead_s"] = sweep.span_cost() * statistics.median(len(tr.spans) for tr, _ in traces)
    metrics["src.lines"] = src_lines()
    metrics["sweeps"] = len(traces)
    return metrics, digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    w = WORKLOADS[args.workload]
    recorded = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(w.name, {})

    work = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        measure = traced if args.trace else untraced
        metrics, digests = measure(w, runner, Files.under(work, w), args.seed, args.seconds, recorded)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"python {platform.python_version()}")
    print(f"nproc {os.cpu_count()}")
    print(f"commit {commit()}")
    print(f"src_lines {src_lines()} count")
    for key, value in digests.items():
        print(f"digest {key} {value}")
    units = {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name) or EXTRA_UNITS[name]}")
    share = runner.failed / max(runner.attempted, 1)
    print(f"failed_op_share {share:.6g} ({runner.failed}/{runner.attempted})")
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
