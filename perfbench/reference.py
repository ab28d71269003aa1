"""Fixed reference work that measures how fast the host runs Python right now.

The shared host this benchmark targets runs the same CPU-bound code up to
1.6x slower for minutes at a time, and process CPU time slows with it, so
no run length or minimum over repetitions removes the swing from a wall
time. Each timed part of a run is therefore paired with one timing of
this reference, taken just before it, and the end-to-end metrics are the
part's wall time divided by its reference time: a figure in "ref" units
that host speed cancels out of.

The work is of the kind the package does (integers drawn from a seeded
generator, adjacent pairs counted in a dict, lines joined and split), but
it imports nothing from the package, so no change to the package moves it.
One call takes about 40 ms on a 2-vCPU cloud VM.
"""

from __future__ import annotations

from time import perf_counter

LENGTH = 60_000
EXPECTED = 9392  # distinct adjacent pairs of the fixed sequence


def work() -> int:
    x, seq = 12345, []
    for _ in range(LENGTH):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq.append(x % 97)
    counts: dict[tuple[int, int], int] = {}
    for pair in zip(seq, seq[1:]):
        counts[pair] = counts.get(pair, 0) + 1
    text = " ".join(map(str, seq))
    return len(counts) * (len(text.split()) == LENGTH)


def seconds() -> float:
    """Wall time of one call of the reference work."""
    start = perf_counter()
    result = work()
    elapsed = perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"reference work returned {result}, not {EXPECTED}")
    return elapsed
