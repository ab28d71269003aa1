"""Seeded synthetic corpus generators.

Two shapes of data: i.i.d. draws from a Zipf-weighted inventory (skewed
unit histograms) and run-length structured streams (units repeated in
geometric-length runs, the signature of quantized acoustic sequences).

Randomness comes from a self-contained splitmix64 generator pinned in this
file, never from a platform default, so a fixed seed yields byte-identical
corpora on any machine. Generated corpora use a cluster-style vocabulary
(ids 0..K-1 plus the three specials) and contain no boundary unit.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate

from .corpus import Corpus, Record, UnitSequence, dau_vocabulary
from .errors import ContractError

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state advanced by a fixed odd constant, output
    mixed by two xor-multiply rounds. Small, fast, and fully portable."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n) (rejection-free scaling is fine here;
        n is tiny relative to 2^53)."""
        if n <= 0:
            raise ContractError("randint_below needs a positive bound")
        return int(self.random() * n)


def _zipf_cumulative(vocab_size: int, exponent: float) -> list[float]:
    # Weight of id i is (i+1)^-exponent; cumulative sums for bisection.
    return list(accumulate(rank**-exponent for rank in range(1, vocab_size + 1)))


class ZipfSpec(Record):
    """Zipf-weighted i.i.d. corpus: unit id i drawn with weight (i+1)^-s.

    vocab_size counts content units only (the built vocabulary adds the
    three specials). Every sequence has exactly mean_length units.
    """

    __slots__ = _fields = ("seed", "vocab_size", "num_sequences", "mean_length", "exponent")

    def _check(self) -> None:
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be at least 2")
        if self.exponent < 0:
            raise ContractError("exponent must be non-negative")
        if self.num_sequences < 0 or self.mean_length < 0:
            raise ContractError("num_sequences and mean_length must be non-negative")


def gen_zipf_corpus(spec: ZipfSpec) -> Corpus:
    """Generate a corpus of i.i.d. Zipf draws; deterministic per seed."""
    rng = SplitMix64(spec.seed)
    cum = _zipf_cumulative(spec.vocab_size, spec.exponent)
    total = cum[-1]
    pool = list(range(spec.vocab_size))  # reuse one int object per id
    sequences = []
    for _ in range(spec.num_sequences):
        seq = [pool[bisect.bisect_left(cum, rng.random() * total)] for _ in range(spec.mean_length)]
        sequences.append(UnitSequence(tuple(seq)))
    return Corpus(dau_vocabulary(spec.vocab_size), tuple(sequences), source="synth:zipf")


class RunLengthSpec(Record):
    """Run-structured corpus: pick a unit, repeat it for a geometric run
    (mean mean_run), then pick a different unit, until mean_length units.

    transition_skew is the Zipf exponent of the unit choice (0 = uniform).
    Consecutive runs always use different units so realized run lengths
    match the drawn ones, up to truncation at the sequence end.
    """

    __slots__ = _fields = ("seed", "clusters", "num_sequences", "mean_length", "mean_run", "transition_skew")
    _defaults = {"transition_skew": 0.0}

    def _check(self) -> None:
        if self.clusters < 2:
            raise ContractError("clusters must be at least 2")
        if self.mean_run < 1:
            raise ContractError("mean_run must be at least 1")
        if self.transition_skew < 0:
            raise ContractError("transition_skew must be non-negative")
        if self.num_sequences < 0 or self.mean_length < 0:
            raise ContractError("num_sequences and mean_length must be non-negative")


def gen_runlength_corpus(spec: RunLengthSpec) -> Corpus:
    """Generate run-length structured sequences; deterministic per seed."""
    rng = SplitMix64(spec.seed)
    cum = _zipf_cumulative(spec.clusters, spec.transition_skew)
    total = cum[-1]
    pool = list(range(spec.clusters))
    p = 1.0 / spec.mean_run
    log_q = math.log1p(-p) if p < 1 else None
    sequences = []
    for _ in range(spec.num_sequences):
        seq: list[int] = []
        prev = -1
        while len(seq) < spec.mean_length:
            unit = pool[bisect.bisect_left(cum, rng.random() * total)]
            while unit == prev:
                unit = pool[bisect.bisect_left(cum, rng.random() * total)]
            if log_q is None:
                run = 1
            else:
                run = 1 + int(math.log1p(-rng.random()) / log_q)
            run = min(run, spec.mean_length - len(seq))
            seq.extend([unit] * run)
            prev = unit
        sequences.append(UnitSequence(tuple(seq)))
    return Corpus(dau_vocabulary(spec.clusters), tuple(sequences), source="synth:runlength")
