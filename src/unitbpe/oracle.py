"""Reference implementations of training and merge application.

Everything here is deliberately naive: each training iteration rescans the
whole corpus to count pairs and rewrites it by full scan, and the reference
encoder repeatedly searches for the lowest-rank applicable rule and applies
one occurrence at a time. These definitions are the ground truth that the
optimized trainer and encoder must match exactly; they share only the data
types with the fast path, never its bookkeeping.
"""

from __future__ import annotations

from .bpe import Merge, MergeTable, TrainOptions
from .codec import TokenSequence
from .corpus import Corpus, UnitSequence
from .errors import ContractError, ValidationError


def _scan_counts(sequences: list[list[int]], blocked: set[int]) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for seq in sequences:
        for x, y in zip(seq, seq[1:]):
            if x in blocked or y in blocked:
                continue
            counts[(x, y)] = counts.get((x, y), 0) + 1
    return counts


def _replace_pair(seq: list[int], a: int, b: int, z: int) -> list[int]:
    # Left-to-right greedy, non-overlapping.
    out: list[int] = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(z)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def naive_train(corpus: Corpus, options: TrainOptions) -> MergeTable:
    """Train by full rescans: count all pairs, merge the most frequent
    (ties to smallest (left, right)), rewrite the corpus, repeat."""
    vocab = corpus.vocabulary
    base_size = vocab.size
    if options.target_size <= base_size:
        raise ContractError(
            f"target_size {options.target_size} must exceed base vocabulary size {base_size}"
        )
    blocked = set(vocab.special)
    boundary = vocab.boundary if options.respect_boundaries else None
    if boundary is not None:
        blocked.add(boundary)

    state = [list(seq.units) for seq in corpus.sequences]
    merges: list[Merge] = []
    while base_size + len(merges) < options.target_size:
        counts = _scan_counts(state, blocked)
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), count = best
        if count < options.min_pair_count:
            break
        z = base_size + len(merges)
        state = [_replace_pair(seq, a, b, z) for seq in state]
        merges.append(Merge(len(merges), a, b, z))
    return MergeTable(vocab, tuple(merges), boundary=boundary)


def naive_encode(seq: UnitSequence, table: MergeTable) -> TokenSequence:
    """Encode by repeatedly applying the lowest-rank applicable merge at its
    leftmost occurrence until no rule applies."""
    base_size = table.base.size
    for uid in seq.units:
        if not 0 <= uid < base_size:
            raise ValidationError(f"unit id {uid} outside base vocabulary of size {base_size}")
    ids = list(seq.units)
    while True:
        applied = False
        for m in table.merges:
            hit = -1
            for i in range(len(ids) - 1):
                if ids[i] == m.left and ids[i + 1] == m.right:
                    hit = i
                    break
            if hit >= 0:
                ids[hit : hit + 2] = [m.result]
                applied = True
                break
        if not applied:
            return TokenSequence(tuple(ids))
