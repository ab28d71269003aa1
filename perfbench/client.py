"""Closed-loop utterance client of the utterance-stream workload.

    python3 perfbench/client.py MERGES UTTERANCES

Loads the merge table once, then sends one utterance at a time through
``unitbpe.encode`` and ``unitbpe.decode`` and checks that each round trip
returns the utterance. Before each block of utterances it times the
reference work of reference.py. Prints one JSON object: for each block
the reference time, the loop time and the time spent in each call,
per-utterance latency percentiles, units, mismatches and a digest of the
token stream.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from time import perf_counter

import reference
from unitbpe import decode, encode, load_corpus, load_merge_table

BLOCK = 200  # utterances per timed block, about 0.2 s


def main(merges: str, utterances: str) -> int:
    table = load_merge_table(merges)
    corpus = load_corpus(utterances, "dau-int", table.base)
    latencies, streams = [], []
    ref_s, loop_s, encode_s, decode_s = [], [], [], []
    mismatches = 0
    seqs = corpus.sequences
    for first in range(0, len(seqs), BLOCK):
        enc = dec = 0.0
        ref_s.append(reference.seconds())
        block_start = perf_counter()
        for seq in seqs[first : first + BLOCK]:
            t0 = perf_counter()
            tokens = encode(seq, table)
            t1 = perf_counter()
            back = decode(tokens, table)
            t2 = perf_counter()
            enc += t1 - t0
            dec += t2 - t1
            latencies.append(t2 - t0)
            streams.append(tokens.tokens)
            mismatches += back != seq
        loop_s.append(perf_counter() - block_start)
        encode_s.append(enc)
        decode_s.append(dec)
    latencies.sort()
    digest = hashlib.sha256("".join(" ".join(map(str, t)) + "\n" for t in streams).encode()).hexdigest()
    print(json.dumps({
        "ref_s": ref_s,
        "loop_s": loop_s,
        "encode_s": encode_s,
        "decode_s": decode_s,
        "utterances": len(latencies),
        "units": corpus.total_units,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        # Nearest rank: 2,000 utterances leave 20 samples beyond it.
        "latency_p99_ms": latencies[-(-99 * len(latencies) // 100) - 1] * 1e3,
        "mismatches": mismatches,
        "tokens_digest": digest,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
