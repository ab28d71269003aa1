"""Seeded inputs and stage lists of the benchmark workloads.

Every generator seed is derived from the benchmark's ``--seed``. At seed 0
the Zipf corpora start with the same draws as the acceptance gate's corpora
(seeds 711, 99 and 100); they are cut to sizes that let one run repeat its
stages several times within the run budget.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from unitbpe import SplitMix64, ZipfSpec, gen_zipf_corpus
from unitbpe.corpus import corpus_lines

SEED_STRIDE = 1_000_003
UTTERANCE_CAP = 200  # longest utterance, in units


class NullTracer:
    """Tracer with the span interface that records nothing."""

    def span(self, name: str):
        return nullcontext()


def digest(path: Path) -> str | None:
    """SHA-256 of a file's bytes, or None when the file does not exist."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def write_lines(path: Path, lines: list[str]) -> None:
    """Write lines as the CLI does: UTF-8, each ended by a newline."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="\n")


def derive(base: int, seed: int) -> int:
    """Generator seed for one input of a run; equals ``base`` at seed 0."""
    return base + SEED_STRIDE * seed


@dataclass(frozen=True)
class ZipfCorpus:
    """I.i.d. Zipf draws, written by the CLI's own ``synth zipf``."""

    base_seed: int
    clusters: int
    sequences: int
    length: int
    exponent: float = 1.1

    def spec(self, seed: int) -> ZipfSpec:
        return ZipfSpec(derive(self.base_seed, seed), self.clusters, self.sequences, self.length, self.exponent)

    def cli_args(self, seed: int, out: str) -> list[str] | None:
        s = self.spec(seed)
        return [
            "synth", "zipf", "--seed", str(s.seed), "--vocab-size", str(s.vocab_size),
            "--sequences", str(s.num_sequences), "--length", str(s.mean_length),
            "--exponent", repr(s.exponent), "--out", out,
        ]

    def lines(self, seed: int, tr=NullTracer()) -> list[str]:
        with tr.span("synth.gen_zipf_corpus"):
            corpus = gen_zipf_corpus(self.spec(seed))
        with tr.span("corpus.corpus_lines"):
            return list(corpus_lines(corpus, "dau-int"))


# ARPAbet: 15 vowels with three stress marks plus 24 consonants, 69 labels.
_VOWELS = "AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split()
_CONSONANTS = "B CH D DH F G HH JH K L M N NG P R S SH T TH V W Y Z ZH".split()
PHONES = [v + s for v in _VOWELS for s in "012"] + _CONSONANTS


@dataclass(frozen=True)
class PhonemeCorpus:
    """Phoneme-style lines: words from a seeded lexicon joined by ``_``.

    Phones are drawn Zipf 1.0 over PHONES, word types have 2-9 phones (the
    length cycles with the type's frequency rank, so that the frequent
    words, and with them the corpus size, are alike across seeds), words
    are drawn Zipf 1.0 over the lexicon and each line has 5-30 words.
    Generated here with the package's portable SplitMix64 and Zipf sampler.
    """

    base_seed: int
    word_types: int
    lines_count: int
    min_words: int = 5
    max_words: int = 30

    def cli_args(self, seed: int, out: str) -> list[str] | None:
        return None

    def lines(self, seed: int, tr=NullTracer()) -> list[str]:
        rng = SplitMix64(derive(self.base_seed, seed))
        cum = list(itertools.accumulate((k + 1) ** -1.0 for k in range(len(PHONES))))
        lexicon: dict[str, None] = {}
        while len(lexicon) < self.word_types:
            n = 2 + len(lexicon) % 8
            word = " ".join(PHONES[bisect.bisect_left(cum, rng.random() * cum[-1])] for _ in range(n))
            lexicon.setdefault(word)
        words = list(lexicon)
        spec = ZipfSpec(derive(self.base_seed + 1, seed), self.word_types, self.lines_count, self.max_words, 1.0)
        with tr.span("synth.gen_zipf_corpus"):
            draws = gen_zipf_corpus(spec)
        span = self.max_words - self.min_words + 1
        return [
            " _ ".join(words[w] for w in seq.units[: self.min_words + rng.randint_below(span)])
            for seq in draws.sequences
        ]


@dataclass(frozen=True)
class UtteranceCorpus:
    """Short dau-int utterances of 8-200 units from a Zipf distribution."""

    base_seed: int
    clusters: int
    utterances: int
    min_units: int = 8
    exponent: float = 1.1

    def cli_args(self, seed: int, out: str) -> list[str] | None:
        return None

    def lines(self, seed: int, tr=NullTracer()) -> list[str]:
        spec = ZipfSpec(derive(self.base_seed, seed), self.clusters, self.utterances, UTTERANCE_CAP, self.exponent)
        with tr.span("synth.gen_zipf_corpus"):
            draws = gen_zipf_corpus(spec)
        rng = SplitMix64(derive(self.base_seed + 1, seed))
        span = UTTERANCE_CAP - self.min_units + 1
        return [
            " ".join(map(str, seq.units[: self.min_units + rng.randint_below(span)]))
            for seq in draws.sequences
        ]


@dataclass(frozen=True)
class Workload:
    """A training corpus, an optional separate corpus to encode, the merge
    table size, and the stages a run measures, in order. Training that is
    not a measured stage happens in set-up."""

    name: str
    fmt: str
    train: ZipfCorpus | PhonemeCorpus
    target_size: int
    stages: tuple[str, ...]
    corpus: ZipfCorpus | UtteranceCorpus | None = None

    @property
    def symbolic(self) -> bool:
        return self.fmt == "symbolic"

    @property
    def train_in_setup(self) -> bool:
        return "train" not in self.stages


# The gate's 10^6-unit corpus is 1000 x 1000 units; its first tenth keeps
# each CLI stage of zipf-train under 0.5 s, so that a run repeats its
# stages about fifteen times and their median is steady.
ZIPF_GATE = ZipfCorpus(711, 84, 100, 1000)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("zipf-train", "dau-int", ZIPF_GATE, 2048, ("train", "encode", "decode", "analyze")),
        Workload(
            "phoneme-words", "symbolic", PhonemeCorpus(2024, 3000, 1000), 4096,
            ("train", "encode", "decode", "analyze"),
        ),
        Workload(
            "utterance-stream", "dau-int", ZIPF_GATE, 4096, ("utterances",),
            corpus=UtteranceCorpus(712, 84, 2000),
        ),
    )
}


@dataclass(frozen=True)
class Files:
    """Where one workload's inputs and outputs live in a work directory."""

    train: Path
    corpus: Path
    merges: Path
    vocab: Path
    tokens: Path
    decoded: Path
    report: Path

    @classmethod
    def under(cls, work: Path, w: Workload) -> Files:
        train = work / "train.txt"
        return cls(
            train=train,
            corpus=work / "corpus.txt" if w.corpus else train,
            merges=work / "merges.txt",
            vocab=work / "vocab.txt",
            tokens=work / "tokens.txt",
            decoded=work / "decoded.txt",
            report=work / "report.json",
        )
