#!/usr/bin/env python3
"""How does merge training change distribution balance?

Generates two seeded corpora (a skewed i.i.d. draw and a run-structured
stream), trains one merge table per corpus to the largest of several
vocabulary sizes, and prints the normalized entropy before and after
re-tokenization at each size. The first r merges of a run are the merges a
run to r makes, so each smaller size is analysed with a prefix of the table.

Usage:
    python3 scripts/balance_experiment.py [--seed 711] [--units 1000000]
"""

from __future__ import annotations

import argparse

from unitbpe import (
    MergeTable,
    RunLengthSpec,
    TrainOptions,
    ZipfSpec,
    analyze,
    gen_runlength_corpus,
    gen_zipf_corpus,
    train,
)


def run_case(name: str, corpus, targets: list[int]) -> None:
    base = len(corpus.vocabulary)
    print(f"\n{name}: |X|={base}, units={corpus.total_units}")
    print(f"  {'|Z|':>6}  {'balance_before':>14}  {'balance_after':>13}  {'reduction':>9}")
    full = train(corpus, TrainOptions(target_size=max(targets)))
    for target in targets:
        rep = analyze(corpus, MergeTable(full.base, full.merges[: target - base]))
        print(
            f"  {rep.token_vocab:>6}  {rep.balance_before:>14.4f}"
            f"  {rep.balance_after:>13.4f}  {rep.reduction:>9.3f}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=711)
    parser.add_argument("--units", type=int, default=1_000_000, help="units per corpus")
    parser.add_argument("--length", type=int, default=1000, help="units per sequence")
    args = parser.parse_args()
    sequences = max(1, args.units // args.length)

    zipf = gen_zipf_corpus(
        ZipfSpec(seed=args.seed, vocab_size=84, num_sequences=sequences,
                 mean_length=args.length, exponent=1.1)
    )
    run_case("skewed i.i.d. corpus (Zipf 1.1, 84 clusters)", zipf, [128, 256, 512])

    runs = gen_runlength_corpus(
        RunLengthSpec(seed=args.seed + 1, clusters=100, num_sequences=sequences,
                      mean_length=args.length, mean_run=4.0, transition_skew=1.0)
    )
    base = len(runs.vocabulary)
    run_case("run-structured corpus (100 clusters, mean run 4)", runs, [2 * base, 4 * base])


if __name__ == "__main__":
    main()
