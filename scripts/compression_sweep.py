#!/usr/bin/env python3
"""Reduction, bit increase, and net compression across vocabulary sizes.

Trains one merge table, to the largest of a sweep of target sizes, on one
seeded corpus and prints the three compression quantities per size;
reduction should grow monotonically with the vocabulary while bit increase
discounts it. The first r merges of a run are the merges a run to r makes,
so each smaller size is analysed with a prefix of the one table.

Usage:
    python3 scripts/compression_sweep.py [--seed 711] [--multipliers 2 4 8 16]
"""

from __future__ import annotations

import argparse

from unitbpe import MergeTable, TrainOptions, ZipfSpec, analyze, gen_zipf_corpus, train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=711)
    parser.add_argument("--vocab-size", type=int, default=84, help="content clusters")
    parser.add_argument("--sequences", type=int, default=1000)
    parser.add_argument("--length", type=int, default=1000)
    parser.add_argument("--exponent", type=float, default=1.1)
    parser.add_argument("--multipliers", type=int, nargs="+", default=[2, 4, 8])
    args = parser.parse_args()
    if min(args.multipliers) < 2:
        parser.error("each of --multipliers must be at least 2")

    corpus = gen_zipf_corpus(
        ZipfSpec(seed=args.seed, vocab_size=args.vocab_size,
                 num_sequences=args.sequences, mean_length=args.length,
                 exponent=args.exponent)
    )
    base = len(corpus.vocabulary)
    print(f"corpus: {corpus.total_units} units, |X|={base}")
    print(f"{'|Z|':>7}  {'n_hat':>8}  {'k_hat':>8}  {'reduction':>9}  {'bit_incr':>8}  {'compression':>11}")
    full = train(corpus, TrainOptions(target_size=max(args.multipliers) * base))
    for mult in args.multipliers:
        rep = analyze(corpus, MergeTable(full.base, full.merges[: mult * base - base]))
        print(
            f"{rep.token_vocab:>7}  {rep.n_hat:>8.1f}  {rep.k_hat:>8.1f}"
            f"  {rep.reduction:>9.4f}  {rep.bit_increase:>8.4f}  {rep.compression:>11.4f}"
        )


if __name__ == "__main__":
    main()
