"""Quantitative analyses for unit corpora and their tokenizations.

Covers distribution balance (normalized entropy), sequence-length
compression accounting, the accuracy/length trade-off probability,
run-length structure, and edit-distance error rates. All entropies use
base-2 logarithms with the 0*log(0)=0 convention, and the balance support
is always the full vocabulary size, so unused tokens lower the score.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .bpe import MergeTable
from .codec import encode_corpus
from .corpus import Corpus, Record, UnitSequence
from .errors import ContractError


class Distribution(Record):
    """Relative frequencies over token ids, with an explicit support size.

    support_size counts the whole vocabulary, including ids that never
    occur; those contribute zero mass (and zero entropy).
    """

    __slots__ = _fields = ("mass", "support_size")

    def __init__(self, mass: dict[int, float], support_size: int):
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "support_size", support_size)
        if self.support_size < 1:
            raise ContractError("support_size must be positive")
        total = 0.0
        for tid, p in self.mass.items():
            if p < 0:
                raise ContractError(f"negative probability for id {tid}")
            if not 0 <= tid < self.support_size:
                raise ContractError(f"id {tid} outside support of size {self.support_size}")
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ContractError(f"probabilities sum to {total!r}, not 1")


def token_distribution(sequences, vocab_size: int) -> Distribution:
    """Empirical distribution of ids across all sequences.

    Accepts a Corpus, an EncodedCorpus, or any iterable of id sequences.
    vocab_size must cover every observed id and fixes the support size.
    """
    if hasattr(sequences, "sequences"):
        sequences = sequences.sequences
    counts: Counter[int] = Counter()
    for seq in sequences:
        counts.update(seq)
    total = sum(counts.values())
    if total == 0:
        raise ContractError("cannot form a distribution over an empty corpus")
    top = max(counts)
    if top >= vocab_size:
        raise ContractError(f"observed id {top} requires vocab_size > {top}, got {vocab_size}")
    mass = {tid: c / total for tid, c in sorted(counts.items())}
    return Distribution(mass, vocab_size)


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits."""
    return -sum(p * math.log2(p) for p in dist.mass.values() if p > 0)


def normalized_entropy(dist: Distribution) -> float:
    """Entropy divided by log2(support size): 1 is perfectly balanced, 0 is
    a point mass. Undefined for support sizes below 2."""
    if dist.support_size < 2:
        raise ContractError("normalized entropy needs a support of at least 2")
    value = entropy(dist) / math.log2(dist.support_size)
    # Clamp float fuzz just outside [0, 1].
    return min(1.0, max(0.0, value))


def reduction(n_hat: float, k_hat: float) -> float:
    """Sequence-length reduction: mean units per sequence over mean tokens."""
    if k_hat <= 0:
        raise ContractError("mean token length must be positive")
    return n_hat / k_hat


def bit_increase(base_size: int, token_size: int) -> float:
    """Relative growth in bits per symbol when moving to the larger
    vocabulary: log2(token_size) / log2(base_size)."""
    if base_size < 2 or token_size < 2:
        raise ContractError("vocabulary sizes must be at least 2")
    if token_size < base_size:
        raise ContractError("token vocabulary cannot be smaller than the base vocabulary")
    return math.log2(token_size) / math.log2(base_size)


def compression(reduction_value: float, bit_increase_value: float) -> float:
    """Net compression: length reduction discounted by the bit growth."""
    if reduction_value <= 0 or bit_increase_value <= 0:
        raise ContractError("reduction and bit increase must be positive")
    return reduction_value / bit_increase_value


def edge_case_probability(eps: float, n: int) -> float:
    """Probability (1-eps)^n that n independent steps all avoid an
    eps-likely error, evaluated in log space for stability at large n."""
    if not 0 <= eps <= 1:
        raise ContractError("eps must lie in [0, 1]")
    if n < 0:
        raise ContractError("n must be non-negative")
    if n == 0:
        return 1.0
    if eps == 1:
        return 0.0
    return math.exp(n * math.log1p(-eps))


class RunLengthStats(Record):
    """Maximal runs of identical units: the runs themselves as (unit,
    length) pairs, their mean and max length, and the fraction of units
    that merely repeat their predecessor. Empty input yields None for the
    derived values."""

    __slots__ = _fields = ("runs", "mean_run", "max_run", "repetition_fraction")

    def __init__(
        self,
        runs: tuple[tuple[int, int], ...],
        mean_run: float | None,
        max_run: int | None,
        repetition_fraction: float | None,
    ):
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "mean_run", mean_run)
        object.__setattr__(self, "max_run", max_run)
        object.__setattr__(self, "repetition_fraction", repetition_fraction)


def run_length_stats(seq: UnitSequence | Sequence[int]) -> RunLengthStats:
    """Decompose a sequence into maximal runs of identical units."""
    units = tuple(seq)
    if not units:
        return RunLengthStats((), None, None, None)
    runs: list[tuple[int, int]] = []
    current = units[0]
    length = 1
    for uid in units[1:]:
        if uid == current:
            length += 1
        else:
            runs.append((current, length))
            current, length = uid, 1
    runs.append((current, length))
    n = len(units)
    return RunLengthStats(
        tuple(runs), n / len(runs), max(r[1] for r in runs), (n - len(runs)) / n
    )


def corpus_run_length_mean(sequences: Iterable[Sequence[int]]) -> float | None:
    """Mean run length pooled over many sequences (total units / total
    runs); None when there are no units at all."""
    total_units = 0
    total_runs = 0
    for seq in sequences:
        units = tuple(seq)
        if not units:
            continue
        total_units += len(units)
        total_runs += 1 + sum(1 for a, b in zip(units, units[1:]) if a != b)
    if total_runs == 0:
        return None
    return total_units / total_runs


class EditDistance(NamedTuple):
    """Unit-cost Levenshtein distance split into operation counts."""

    distance: int
    substitutions: int
    insertions: int
    deletions: int


def edit_distance(ref: Sequence, hyp: Sequence) -> EditDistance:
    """Minimal-cost alignment of hyp against ref with unit costs.

    Insertions are symbols present only in hyp, deletions symbols present
    only in ref. Ties between minimal alignments resolve match/substitute
    first, then deletion, then insertion, so the decomposition is
    deterministic; distance = substitutions + insertions + deletions.
    """
    r, h = list(ref), list(hyp)
    # row[j] = (cost, subs, ins, dels) for aligning r[:i] with h[:j]
    row: list[tuple[int, int, int, int]] = [(j, 0, j, 0) for j in range(len(h) + 1)]
    for i in range(1, len(r) + 1):
        prev = row
        row = [(i, 0, 0, i)] + [(0, 0, 0, 0)] * len(h)
        for j in range(1, len(h) + 1):
            if r[i - 1] == h[j - 1]:
                row[j] = prev[j - 1]
                continue
            dc, ds, di, dd = prev[j - 1]
            sub = (dc + 1, ds + 1, di, dd)
            dc, ds, di, dd = prev[j]
            dele = (dc + 1, ds, di, dd + 1)
            dc, ds, di, dd = row[j - 1]
            ins = (dc + 1, ds, di + 1, dd)
            best = sub
            if dele[0] < best[0]:
                best = dele
            if ins[0] < best[0]:
                best = ins
            row[j] = best
    return EditDistance(*row[len(h)])


def error_rate(ref: Sequence, hyp: Sequence) -> float | None:
    """Edit distance normalized by reference length (WER over words, CER
    over unit labels). None when the reference is empty but the hypothesis
    is not; 0.0 when both are empty."""
    d = edit_distance(ref, hyp).distance
    if len(ref) == 0:
        return 0.0 if len(hyp) == 0 else None
    return d / len(ref)


class AnalysisReport(Record):
    """Compression and balance summary of one corpus under one merge table.

    compression equals reduction / bit_increase exactly, by construction.
    """

    __slots__ = _fields = (
        "n_hat", "k_hat", "reduction", "bit_increase", "compression",
        "balance_before", "balance_after", "run_length_mean", "base_vocab", "token_vocab",
    )

    def __init__(
        self,
        n_hat: float,
        k_hat: float,
        reduction: float,
        bit_increase: float,
        compression: float,
        balance_before: float,
        balance_after: float,
        run_length_mean: float,
        base_vocab: int,
        token_vocab: int,
    ):
        object.__setattr__(self, "n_hat", n_hat)
        object.__setattr__(self, "k_hat", k_hat)
        object.__setattr__(self, "reduction", reduction)
        object.__setattr__(self, "bit_increase", bit_increase)
        object.__setattr__(self, "compression", compression)
        object.__setattr__(self, "balance_before", balance_before)
        object.__setattr__(self, "balance_after", balance_after)
        object.__setattr__(self, "run_length_mean", run_length_mean)
        object.__setattr__(self, "base_vocab", base_vocab)
        object.__setattr__(self, "token_vocab", token_vocab)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        return "".join(f"{key} {value}\n" for key, value in self._asdict().items())


def analyze(corpus: Corpus, table: MergeTable) -> AnalysisReport:
    """Run the full before/after analysis of a corpus under a merge table:
    encode it, then compare lengths and balance before and after."""
    base_size = table.base.size
    token_size = table.vocab_size
    encoded = encode_corpus(corpus, table)
    if not corpus.sequences or encoded.mean_tokens is None:
        raise ContractError("cannot analyze an empty corpus")
    n_hat = encoded.mean_units
    k_hat = encoded.mean_tokens
    red = reduction(n_hat, k_hat)
    bits = bit_increase(base_size, token_size)
    before = normalized_entropy(token_distribution(corpus, base_size))
    after = normalized_entropy(token_distribution(encoded, token_size))
    run_mean = corpus_run_length_mean(s.units for s in corpus.sequences)
    return AnalysisReport(
        n_hat=n_hat,
        k_hat=k_hat,
        reduction=red,
        bit_increase=bits,
        compression=compression(red, bits),
        balance_before=before,
        balance_after=after,
        run_length_mean=run_mean if run_mean is not None else 0.0,
        base_vocab=base_size,
        token_vocab=token_size,
    )
