"""Byte-pair-encoding vocabulary induction over unit corpora.

Training repeatedly merges the most frequent adjacent token pair into a new
token until a target vocabulary size is reached or no pair occurs at least
``min_pair_count`` times. Pairs that straddle the word-boundary unit (when
respected) or touch a special token are never merged. Ties on count break
toward the lexicographically smallest (left id, right id), which makes
training fully deterministic.

The trainer here is the fast path. It splits every sequence at the blocked
units (specials, and the boundary when respected) and keeps one copy of each
distinct chunk, weighted by how often it occurs. This is exact because no
merge crosses a blocked unit, so every copy of a chunk is rewritten the same
way. Over those chunks it keeps a linked list, a weighted count per pair,
append-only arrays of the positions where each pair was seen (re-checked
when used), and a lazy max-heap. Each pair is one packed int, the left id in
its high bits, so keys compare as the pairs do. The pairs a merge creates are
counted in a table local to its pass; only those that reach
``min_pair_count`` enter the shared counts, position arrays and heap. Its
contract is defined by equivalence with the reference implementation that
rescans the corpus every iteration (see the oracle module).

A merge table's validating walk over its rules also builds the encoder's index.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

from .corpus import BaseVocabulary, Corpus, Record, read_lines, split_chunks
from .errors import ContractError, ParseError, ValidationError

MERGE_FILE_MAGIC = "unitbpe-v1"


class Merge(NamedTuple):
    """One merge rule: adjacent (left, right) becomes the token ``result``.

    Ranks are dense 0-based creation order; result ids extend the base
    vocabulary, so rule ``rank`` always produces token ``base_size + rank``.
    A named tuple, so it also unpacks and compares as ``(rank, left, right,
    result)``.
    """

    rank: int
    left: int
    right: int
    result: int


class TrainOptions(Record):
    """Knobs for vocabulary induction.

    target_size is the desired |Z| (base units plus merges). When
    respect_boundaries is set and the vocabulary defines a boundary unit,
    no merge may span it. Pairs occurring fewer than min_pair_count times
    stop training early; a pair seen once cannot generalize. The tie policy
    is fixed: equal counts resolve to the smallest (left, right) id pair.
    """

    __slots__ = _fields = ("target_size", "respect_boundaries", "min_pair_count")

    def __init__(self, target_size: int, respect_boundaries: bool = True, min_pair_count: int = 2):
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "respect_boundaries", respect_boundaries)
        object.__setattr__(self, "min_pair_count", min_pair_count)
        if self.min_pair_count < 1:
            raise ContractError("min_pair_count must be at least 1")
        if self.target_size > 1 << 63:  # so every id a trainer stores fits an int64
            raise ContractError("target_size must be at most 2^63")


class MergeTable(Record):
    """An ordered list of merges over a base vocabulary.

    ``boundary`` records the barrier actually enforced when the table was
    built (None when training was unconstrained); every rule is checked to
    keep boundary and special units out of merged tokens, so token surfaces
    never mix the boundary with other units. The same walk builds
    ``packed_rules``: ``((left << shift) | right -> (rank, result), shift)``.
    """

    _fields = ("base", "merges", "boundary")

    def __init__(self, base: BaseVocabulary, merges: tuple[Merge, ...], boundary: int | None = None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "merges", merges)
        object.__setattr__(self, "boundary", boundary)
        base_size = self.base.size
        blocked = self.base.special if self.boundary is None else self.base.special | {self.boundary}
        # Each side is checked to be below vocab_size, so a key is one pair.
        shift = max(1, (self.vocab_size - 1).bit_length())
        rules: dict[int, tuple[int, int]] = {}
        for i, m in enumerate(self.merges):
            if m.rank != i:
                raise ValidationError(f"merge rank {m.rank} at position {i}: ranks must be dense")
            if m.result != base_size + i:
                raise ValidationError(
                    f"merge {i}: result {m.result} != base size {base_size} + rank {i}"
                )
            for side in (m.left, m.right):
                if not 0 <= side < m.result:
                    raise ValidationError(f"merge {i}: token id {side} not yet defined")
                if side in blocked:
                    if self.base.is_special(side):
                        raise ValidationError(f"merge {i}: special token {side} may not be merged")
                    raise ValidationError(f"merge {i}: boundary unit {side} may not be merged")
            key = (m.left << shift) | m.right
            if key in rules:
                raise ValidationError(f"merge {i}: duplicate pair ({m.left}, {m.right})")
            rules[key] = (m.rank, m.result)
        object.__setattr__(self, "packed_rules", (rules, shift))

    @property
    def vocab_size(self) -> int:
        """|Z| = |base| + number of merges."""
        return self.base.size + len(self.merges)

    @cached_property
    def _expansions(self) -> dict[int, tuple[int, ...]]:
        # Merged token id -> its surface as base unit ids. Base ids are not
        # keys: their surface is themselves, and the base may be large.
        out: dict[int, tuple[int, ...]] = {}
        for m in self.merges:
            out[m.result] = out.get(m.left, (m.left,)) + out.get(m.right, (m.right,))
        return out

    def token_surface(self, token_id: int) -> tuple[int, ...]:
        """Constituent base unit ids of a token, in order."""
        if not 0 <= token_id < self.vocab_size:
            raise ValidationError(
                f"token id {token_id} outside vocabulary of size {self.vocab_size}"
            )
        return self._expansions.get(token_id, (token_id,))

    def token_label(self, token_id: int) -> str:
        """Human-readable token surface: unit labels joined by ``+``."""
        return "+".join(self.base.surface(u) for u in self.token_surface(token_id))


def pair_counts(
    sequences: Iterable[Sequence[int]],
    boundary: int | None = None,
    special: Collection[int] = (),
) -> Counter[tuple[int, int]]:
    """Count every adjacent ordered pair across sequences.

    All adjacent positions are counted ("a a a" gives (a,a) -> 2); the
    non-overlapping semantics of replacement only show up in the recount
    after a merge is applied. Pairs touching the boundary or a special id
    are excluded. Pairs never span sequences.
    """
    blocked = set(special)
    if boundary is not None:
        blocked.add(boundary)
    counts: Counter[tuple[int, int]] = Counter()
    for seq in sequences:
        prev = None
        for cur in seq:
            if prev is not None and prev not in blocked and cur not in blocked:
                counts[(prev, cur)] += 1
            prev = cur
    return counts


def train(corpus: Corpus, options: TrainOptions, threads: int = 1) -> MergeTable:
    """Learn a MergeTable from a corpus (the fast trainer).

    Produces at most target_size - |base| merges, stopping early once the
    best pair occurs fewer than min_pair_count times. Training runs in one
    thread; ``threads`` must be at least 1 and changes nothing else.
    """
    vocab = corpus.vocabulary
    base_size = vocab.size
    if options.target_size <= base_size:
        raise ContractError(
            f"target_size {options.target_size} must exceed base vocabulary size {base_size}"
        )
    if threads < 1:
        raise ContractError("threads must be at least 1")
    boundary = vocab.boundary if options.respect_boundaries else None
    blocked = vocab.special if boundary is None else vocab.special | {boundary}

    # Each distinct chunk of two or more units, weighted by its occurrences.
    chunks: Counter[tuple[int, ...]] = Counter(
        chunk for seq in corpus.sequences for chunk in split_chunks(seq.units, blocked) if len(chunk) > 1
    )

    # Each pair is keyed by one int, left << shift | right. Every id is below
    # target_size, so keys order exactly as (left, right) pairs do.
    shift = max(1, (options.target_size - 1).bit_length())
    min_count = options.min_pair_count

    # Flattened doubly linked list over the distinct chunks, with the chunk's
    # weight at every node; val -1 marks dead nodes. cnt holds each live
    # pair's weighted count; where lists the left-node positions the pair was
    # ever seen at, so entries go stale and are re-checked when used.
    val, nxt, prv, wt = array("q"), array("q"), array("q"), array("q")
    cnt: dict[int, int] = {}
    where: dict[int, array] = {}
    for chunk, w in chunks.items():
        start = len(val)
        end = start + len(chunk)
        val.extend(chunk)
        nxt.extend(range(start + 1, end))
        nxt.append(-1)
        prv.append(-1)
        prv.extend(range(start, end - 1))
        wt.extend([w] * len(chunk))
        for i, (x, y) in enumerate(zip(chunk, chunk[1:]), start):
            key = x << shift | y
            cnt[key] = cnt.get(key, 0) + w
            sites = where.get(key)
            if sites is None:
                where[key] = array("q", (i,))
            else:
                sites.append(i)

    # Lazy max-heap of (-count, key); stale entries are dropped or refreshed
    # on pop. Counts of existing pairs only ever decrease, and a merge only
    # creates pairs that contain its new token, so one push per new key plus
    # refresh-on-pop keeps the top exact. A pair rarer than min_pair_count
    # can never be chosen, so it is kept out of cnt, and later decrements of
    # it are skipped.
    heap = [(-c, key) for key, c in cnt.items()]
    heapq.heapify(heap)

    merges: list[Merge] = []
    while base_size + len(merges) < options.target_size:
        best = None
        while heap:
            neg, key = heapq.heappop(heap)
            actual = cnt.get(key, 0)
            if actual != -neg:
                if actual >= min_count:
                    heapq.heappush(heap, (-actual, key))
                continue
            if actual >= min_count:
                best = key
            break
        if best is None:
            break
        a, b = divmod(best, 1 << shift)
        z = base_size + len(merges)
        zkey = z << shift
        # The pairs this pass creates all contain z, so none is in cnt yet.
        # new maps each to [weighted count, positions...]; only those that
        # reach min_count join cnt, where and the heap after the pass.
        new: dict[int, list[int]] = {}
        # A position array is filled in one phase only, the index build or
        # the pass that created its pair, and both append positions left to
        # right; nodes never move, so the array is already in sequence order.
        for i in where.pop(best):
            j = nxt[i]
            # Skip stale entries and overlap victims: the node died or was
            # rewritten, possibly by the previous replacement in this pass.
            if val[i] != a or j == -1 or val[j] != b:
                continue
            w = wt[i]
            p, q = prv[i], nxt[j]
            val[i] = z
            val[j] = -1
            nxt[i] = q
            nxt[j] = prv[j] = -1
            if p != -1:
                x = val[p]
                key = x << shift | a
                if x == z:
                    # (z, a) was made by the previous replacement, as in a b a b.
                    new[key][0] -= w
                elif key in cnt:
                    cnt[key] -= w
                key = x << shift | z
                entry = new.get(key)
                if entry is None:
                    new[key] = [w, p]
                else:
                    entry[0] += w
                    entry.append(p)
            if q != -1:
                prv[q] = i
                y = val[q]
                key = b << shift | y
                if key in cnt:
                    cnt[key] -= w
                key = zkey | y
                entry = new.get(key)
                if entry is None:
                    new[key] = [w, i]
                else:
                    entry[0] += w
                    entry.append(i)
        del cnt[best]
        for key, entry in new.items():
            c = entry[0]
            if c >= min_count:
                cnt[key] = c
                where[key] = array("q", entry[1:])
                heapq.heappush(heap, (-c, key))
        merges.append(Merge(len(merges), a, b, z))

    return MergeTable(vocab, tuple(merges), boundary=boundary)


def save_merge_table(table: MergeTable, dest) -> None:
    """Write the versioned merge-table format.

    Line 1 is the magic string, line 2 the base vocabulary size, line 3 the
    boundary label (empty when unconstrained), then one ``rank left right
    result`` row per merge.
    """
    label = "" if table.boundary is None else table.base.surface(table.boundary)
    lines = [MERGE_FILE_MAGIC, str(table.base.size), label]
    lines += (f"{m.rank} {m.left} {m.right} {m.result}" for m in table.merges)
    text = "".join(line + "\n" for line in lines)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8", newline="\n")


def header_boundary_label(rows: Sequence[str]) -> str | None:
    """Line 3 of merge-file rows, or None if it is blank or the header is bad."""
    if len(rows) < 3 or rows[0] != MERGE_FILE_MAGIC:
        return None
    return rows[2].strip() or None


def parse_merge_table(lines: Sequence[str], vocabulary: BaseVocabulary | None = None) -> MergeTable:
    """Build a MergeTable from merge-file lines, validating every invariant.

    The rows are parsed with one ``int`` pass over all their fields; only a
    file with a malformed row is walked row by row, to name the first one.
    When no vocabulary is supplied a boundary-free table gets the unlabelled
    one of its base size (numeric labels plus the standard specials);
    tables that record a boundary label need the real vocabulary.
    """
    rows = [ln.rstrip("\n").rstrip("\r") for ln in lines]
    if not rows or rows[0] != MERGE_FILE_MAGIC:
        raise ParseError(f"missing magic header {MERGE_FILE_MAGIC!r}", line=1)
    if len(rows) < 3:
        raise ParseError("truncated header: need base size and boundary label lines", line=len(rows))
    try:
        base_size = int(rows[1], 10)
    except ValueError:
        raise ParseError(f"base vocabulary size must be an integer, got {rows[1]!r}", line=2) from None
    if base_size < 0:
        raise ParseError("base vocabulary size must be non-negative", line=2)
    boundary_label = header_boundary_label(rows)

    if vocabulary is None:
        if boundary_label is not None:
            raise ValidationError(
                f"table records boundary label {boundary_label!r}; a vocabulary is required to resolve it"
            )
        vocabulary = BaseVocabulary(base_size)
    elif vocabulary.size != base_size:
        raise ValidationError(
            f"vocabulary size {vocabulary.size} does not match recorded base size {base_size}"
        )
    boundary = None
    if boundary_label is not None:
        boundary = vocabulary.id_of(boundary_label)

    fields = list(map(str.split, rows[3:]))
    if set(map(len, fields)) <= {4}:
        try:
            nums = list(map(int, chain.from_iterable(fields)))
        except ValueError:
            pass  # the loop below names the row
        else:
            columns = zip(nums[0::4], nums[1::4], nums[2::4], nums[3::4])
            return MergeTable(vocabulary, tuple(map(Merge._make, columns)), boundary=boundary)
    # Some row has other than 4 fields, or a field that int rejects.
    for lineno, (row, cols) in enumerate(zip(rows[3:], fields), start=4):
        if not cols:
            raise ParseError("blank merge row", line=lineno)
        if len(cols) != 4:
            raise ParseError(f"expected 4 fields, got {len(cols)}", line=lineno)
        try:
            list(map(int, cols))
        except ValueError:
            raise ParseError(f"non-integer field in merge row {row!r}", line=lineno) from None
    raise AssertionError("unreachable: every row parsed")


def load_merge_table(path: str | Path, vocabulary: BaseVocabulary | None = None) -> MergeTable:
    """Read a merge-table file saved by save_merge_table."""
    return parse_merge_table(read_lines(path), vocabulary)
