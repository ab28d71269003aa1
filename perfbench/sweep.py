"""In-process traced mirror of a workload, for the per-layer metrics.

A sweep makes the same public calls as the CLI stages, in the same order
and on the same inputs: set-up, train, encode, decode and analyze, then a
closed loop of ``encode``/``decode`` calls on utterances. Every workload
runs the whole sweep, so every layer is measured on every workload's data;
which stages a workload's end-to-end run measures is listed in its stage
tuple. Spans are recorded only here, from outside the package.
"""

from __future__ import annotations

import itertools
import statistics
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from unitbpe import (
    Corpus,
    TrainOptions,
    UnitSequence,
    analyze,
    corpus_run_length_mean,
    decode,
    encode,
    encode_corpus,
    load_merge_table,
    load_vocabulary,
    read_corpus,
    save_merge_table,
    save_vocabulary,
    token_distribution,
    train,
)
from unitbpe.codec import read_token_lines, token_lines
from unitbpe.corpus import corpus_lines

from workloads import UTTERANCE_CAP, Files, NullTracer, Workload, digest, write_lines

LAYERS = ("bpe", "codec", "corpus", "metrics", "synth", "cli")
UTTERANCE_CALLS = 1000  # enough for 10 samples beyond the 99th percentile


class Tracer:
    """Records a span around each call: name, start, end, parent, run id.

    With ``memory`` set, each span also gets the peak of traced Python
    allocations above what was live when it began, from ``tracemalloc``.
    """

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        if self.memory:
            rec["_base"] = tracemalloc.get_traced_memory()[0]
            rec["_peak"] = 0
            tracemalloc.reset_peak()
        rec["start"] = perf_counter()
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            if self.memory:
                # A child resets the peak counter, so fold the child's
                # absolute peak into the parent before the parent goes on.
                peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["peak_mb"] = (peak - rec.pop("_base")) / 2**20
                if self._stack:
                    self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
                tracemalloc.reset_peak()


def span_cost(n: int = 20_000) -> float:
    """Seconds one recorded span adds over a NullTracer span, from empty spans.

    Times n of each in one loop each; a span's cost does not depend on the
    work inside it, and this estimate does not carry the host's swings the
    way a difference of two whole sweeps does.
    """
    null, tr = NullTracer(), Tracer("calibration")
    t0 = perf_counter()
    for _ in range(n):
        with null.span("x"):
            pass
    t1 = perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


@dataclass
class SweepResult:
    merges: int
    requested: int
    units: int
    tokens: int
    digests: dict[str, str]
    mismatches: int


def _read_lines(tr, path: Path) -> list[str]:
    with tr.span("cli.read_lines"):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()


def _write_lines(tr, path: Path, lines: list[str]) -> None:
    with tr.span("cli.write_lines"):
        write_lines(path, lines)


def _load_table(tr, w: Workload, merges: Path, vocab: Path):
    base = None
    if w.symbolic:
        with tr.span("corpus.load_vocabulary"):
            base = load_vocabulary(vocab, boundary_label="_")
    with tr.span("bpe.load_merge_table"):
        return load_merge_table(merges, base)


def _read(tr, w: Workload, path: Path, base=None) -> Corpus:
    lines = _read_lines(tr, path)
    with tr.span("corpus.read_corpus"):
        return read_corpus(lines, w.fmt, base, boundary_label="_", source=str(path))


def sweep(w: Workload, seed: int, work: Path, tr=NullTracer()) -> SweepResult:
    """One pass over every layer; ``tr`` is a Tracer or a NullTracer."""
    f = Files.under(work, w)

    with tr.span("stage.setup"):
        _write_lines(tr, f.train, w.train.lines(seed, tr))
        if w.corpus:
            _write_lines(tr, f.corpus, w.corpus.lines(seed, tr))

    with tr.span("stage.train"):
        corpus = _read(tr, w, f.train)
        base_size = len(corpus.vocabulary)
        with tr.span("bpe.train.index"):
            train(corpus, TrainOptions(target_size=base_size + 1))
        with tr.span("bpe.train"):
            table = train(corpus, TrainOptions(target_size=w.target_size))
        if w.symbolic:
            with tr.span("corpus.save_vocabulary"):
                save_vocabulary(corpus.vocabulary, f.vocab)
        with tr.span("bpe.save_merge_table"):
            save_merge_table(table, f.merges)
        del corpus

    with tr.span("stage.encode"):
        table = _load_table(tr, w, f.merges, f.vocab)
        corpus = _read(tr, w, f.corpus, table.base)
        with tr.span("codec.encode_corpus"):
            encoded = encode_corpus(corpus, table)
        with tr.span("codec.token_lines"):
            lines = list(token_lines(encoded.sequences, table))
        _write_lines(tr, f.tokens, lines)
        units, n_tokens = encoded.total_units, encoded.total_tokens
        del corpus, encoded, lines

    with tr.span("stage.decode"):
        table = _load_table(tr, w, f.merges, f.vocab)
        lines = _read_lines(tr, f.tokens)
        with tr.span("codec.read_token_lines"):
            token_seqs = read_token_lines(lines)
        out = []
        for seq in token_seqs:
            with tr.span("codec.decode"):
                out.append(decode(seq, table))
        with tr.span("corpus.Corpus"):
            restored = Corpus(table.base, tuple(out), source=str(f.tokens))
        with tr.span("corpus.corpus_lines"):
            lines = list(corpus_lines(restored, w.fmt))
        _write_lines(tr, f.decoded, lines)
        del token_seqs, out, restored, lines
    mismatches = int(f.decoded.read_bytes() != f.corpus.read_bytes())

    with tr.span("stage.analyze"):
        table = _load_table(tr, w, f.merges, f.vocab)
        corpus = _read(tr, w, f.corpus, table.base)
        with tr.span("metrics.analyze"):
            analyze(corpus, table)
        # The two analyze steps that can be called on their own.
        with tr.span("metrics.token_distribution"):
            token_distribution(corpus, len(table.base))
        with tr.span("metrics.corpus_run_length_mean"):
            corpus_run_length_mean(s.units for s in corpus.sequences)
        del corpus

    with tr.span("stage.utterances"):
        table = _load_table(tr, w, f.merges, f.vocab)
        corpus = _read(tr, w, f.corpus, table.base)
        # Long sequences are cut into utterance-sized pieces.
        pieces = (
            UnitSequence(s.units[i : i + UTTERANCE_CAP])
            for s in corpus.sequences
            for i in range(0, len(s), UTTERANCE_CAP)
        )
        for seq in itertools.islice(pieces, UTTERANCE_CALLS):
            with tr.span("codec.encode"):
                toks = encode(seq, table)
            with tr.span("codec.decode"):
                back = decode(toks, table)
            mismatches += back != seq

    if not w.symbolic:
        # dau-int runs never read a sidecar; time one for the base vocabulary.
        with tr.span("stage.vocabulary"):
            save_vocabulary(table.base, f.vocab)
            with tr.span("corpus.load_vocabulary"):
                load_vocabulary(f.vocab, boundary_label=None)

    return SweepResult(
        merges=len(table.merges),
        requested=w.target_size - len(table.base),
        units=units,
        tokens=n_tokens,
        digests={"merges": digest(f.merges), "tokens": digest(f.tokens)},
        mismatches=mismatches,
    )


def _durations(spans: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Durations of the spans below each stage span, by stage and name."""
    by_id = {s["id"]: s for s in spans}
    out: dict[str, dict[str, list[float]]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None or not parent["name"].startswith("stage."):
            continue
        stage = parent["name"][len("stage."):]
        out.setdefault(stage, {}).setdefault(s["name"], []).append(s["end"] - s["start"])
    return out


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer, each span counted minus the time of its children."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".")[0]
        if layer in out:
            out[layer] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
    return out


def layer_metrics(spans: list[dict], res: SweepResult) -> dict[str, float]:
    """Per-layer metrics of one traced sweep."""
    d = _durations(spans)
    train_s = d["train"]["bpe.train"][0]
    index_s = d["train"]["bpe.train.index"][0]
    encode_s = d["encode"]["codec.encode_corpus"][0]
    read_s = d["encode"]["corpus.read_corpus"][0]
    enc_calls = d["utterances"]["codec.encode"]
    dec_calls = d["utterances"]["codec.decode"]
    roundtrip = sorted(a + b for a, b in zip(enc_calls, dec_calls))
    loads = [t for stage in d.values() for t in stage.get("bpe.load_merge_table", [])]
    vocab_loads = [t for stage in d.values() for t in stage.get("corpus.load_vocabulary", [])]
    m = {
        "bpe.train.s": train_s,
        "bpe.train.index_s": index_s,
        "bpe.train.merge_loop_s": train_s - index_s,
        "bpe.train.merges": res.merges,
        "bpe.train.merge_yield": res.merges / res.requested,
        "bpe.train.merges_per_s": res.merges / max(train_s - index_s, 1e-9),
        "bpe.save_merge_table.s": d["train"]["bpe.save_merge_table"][0],
        "bpe.load_merge_table.s": statistics.median(loads),
        "codec.encode_corpus.s": encode_s,
        "codec.encode_corpus.units_per_s": res.units / encode_s,
        "codec.encode_corpus.tokens_per_unit": res.tokens / res.units,
        "codec.encode.call_us": statistics.median(enc_calls) * 1e6,
        "codec.decode.call_us": statistics.median(dec_calls) * 1e6,
        "codec.roundtrip.p99_us": roundtrip[-(-99 * len(roundtrip) // 100) - 1] * 1e6,
        "codec.decode.s": sum(d["decode"]["codec.decode"]),
        "codec.read_token_lines.s": d["decode"]["codec.read_token_lines"][0],
        "codec.token_lines.s": d["encode"]["codec.token_lines"][0],
        "corpus.read_corpus.s": read_s,
        "corpus.read_corpus.units_per_s": res.units / read_s,
        "corpus.corpus_lines.s": d["decode"]["corpus.corpus_lines"][0],
        "corpus.load_vocabulary.s": statistics.median(vocab_loads),
        "metrics.analyze.s": d["analyze"]["metrics.analyze"][0],
        "metrics.token_distribution.s": d["analyze"]["metrics.token_distribution"][0],
        "metrics.corpus_run_length_mean.s": d["analyze"]["metrics.corpus_run_length_mean"][0],
        "synth.gen_zipf_corpus.s": sum(d["setup"]["synth.gen_zipf_corpus"]),
    }
    m.update({f"{layer}.self_s": t for layer, t in _self_times(spans).items()})
    return m


def memory_pass(w: Workload, work: Path) -> Tracer:
    """Trace allocation peaks of the calls that hold whole corpora, on the
    files a sweep left in ``work``. This is a pass of its own because
    tracemalloc slows every allocation."""
    f = Files.under(work, w)
    tr = Tracer(f"{work.name}-memory", memory=True)
    tracemalloc.start()
    try:
        corpus = _read(tr, w, f.train)
        with tr.span("bpe.train"):
            train(corpus, TrainOptions(target_size=w.target_size))
        table = _load_table(tr, w, f.merges, f.vocab)
        corpus = _read(tr, w, f.corpus, table.base)
        with tr.span("codec.encode_corpus"):
            encode_corpus(corpus, table)
    finally:
        tracemalloc.stop()
    return tr


def peak_metrics(spans: list[dict]) -> dict[str, float]:
    """Largest allocation peak of each call a memory pass traced."""
    out: dict[str, float] = {}
    for s in spans:
        if s["name"] in ("bpe.train", "codec.encode_corpus", "corpus.read_corpus"):
            key = s["name"] + ".peak_mb"
            out[key] = max(out.get(key, 0.0), s["peak_mb"])
    return out
