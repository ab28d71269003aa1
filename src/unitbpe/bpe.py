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

A merge table's validating walk builds its packed rule index. Its surface
map sums each merged token's length once, then builds surfaces on lookup:
a token whose halves are both base ids or stored is the two joined, and only
the others are walked through the rules.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import index
from pathlib import Path
from typing import IO, NamedTuple, Sequence

from .corpus import BaseVocabulary, Corpus, Record, _ids_of, parse_id_line, read_lines, split_chunks
from .corpus import symbolic_vocabulary, write_lines
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
    no merge may span it; when it is not, the table's base has the same
    units and no boundary. Pairs occurring fewer than min_pair_count times
    stop training early; a pair seen once cannot generalize. The tie policy
    is fixed: equal counts resolve to the smallest (left, right) id pair.
    """

    __slots__ = _fields = ("target_size", "respect_boundaries", "min_pair_count")
    _defaults = {"respect_boundaries": True, "min_pair_count": 2}

    def _check(self) -> None:
        if self.min_pair_count < 1:
            raise ContractError("min_pair_count must be at least 1")
        if self.target_size > 1 << 63:  # so every id a trainer stores fits an int64
            raise ContractError("target_size must be at most 2^63")


class MergeTable(Record):
    """An ordered list of merges over a base vocabulary.

    ``base.boundary`` is the barrier the table enforces: a content unit, or
    None when training was unconstrained. Every rule is checked to keep
    boundary and special units out of merged tokens, so token surfaces
    never mix the boundary with other units. The same walk builds
    ``packed_rules``: ``((left << shift) | right -> result, shift)``.
    Its surface map holds each merged token's length and looked-up surfaces.
    """

    _fields = ("base", "merges")

    def _check(self) -> None:
        base, base_size = self.base, self.base.size
        blocked = base.special if base.boundary is None else base.special | {base.boundary}
        # Each side is checked to be below vocab_size, so a key is one pair.
        shift = max(1, (self.vocab_size - 1).bit_length())
        rules: dict[int, int] = {}
        for i, m in enumerate(self.merges):
            if m.rank != i:
                raise ValidationError(f"merge rank {m.rank} at position {i}: ranks must be dense", rule=i)
            if m.result != base_size + i:
                raise ValidationError(f"merge {i}: result {m.result} != base size {base_size} + rank {i}", rule=i)
            for side in (m.left, m.right):
                if not 0 <= side < m.result:
                    raise ValidationError(f"merge {i}: token id {side} not yet defined", rule=i)
                if side in blocked:
                    if base.is_special(side):
                        raise ValidationError(f"merge {i}: special token {side} may not be merged", rule=i)
                    raise ValidationError(f"merge {i}: boundary unit {side} may not be merged", rule=i)
            key = (m.left << shift) | m.right
            if key in rules:
                raise ValidationError(f"merge {i}: duplicate pair ({m.left}, {m.right})", rule=i)
            rules[key] = m.result
        object.__setattr__(self, "packed_rules", (rules, shift))

    @property
    def vocab_size(self) -> int:
        """|Z| = |base| + number of merges."""
        return self.base.size + len(self.merges)

    @cached_property
    def _expansions(self) -> _Surfaces:
        return _Surfaces(self.merges, self.base.size, self.vocab_size)

    @cached_property
    def _encoder(self):
        # codec's encoder for this table, built on the first encode so a
        # table that only decodes never pays for it.
        from .codec import _build_encoder  # codec imports this module

        return _build_encoder(self)

    def token_surface(self, token_id: int) -> tuple[int, ...]:
        """Constituent base unit ids of a token, in order."""
        return self._expansions[token_id]

    def token_label(self, token_id: int) -> str:
        """Human-readable token surface: unit labels joined by ``+``."""
        return "+".join(self.base.surface(u) for u in self.token_surface(token_id))


class _Surfaces(dict):
    """Token id -> its surface as base unit ids, filled on first lookup.

    ``lengths`` maps each merged token to its surface length, summed from
    its halves'. A miss range-checks the id. A merged token whose halves are
    both base ids or stored is their two surfaces joined; any other walks the
    rules depth first, taking whole a stored surface and copying the span
    first written for a merged id met again. Only looked-up ids are stored,
    none per base id, and a miss keeps no state for the next one.
    """

    __slots__ = ("merges", "base", "size", "lengths")

    def __init__(self, merges: Sequence[Merge], base: int, size: int):
        self.merges, self.base, self.size = merges, base, size
        self.lengths = lengths = {}
        for _, a, b, t in merges:
            lengths[t] = lengths.get(a, 1) + lengths.get(b, 1)

    def __missing__(self, token_id: int) -> tuple[int, ...]:
        token_id = index(token_id)  # an int is stored, never an equal float or bool
        if not 0 <= token_id < self.size:
            raise ValidationError(f"token id {token_id} outside vocabulary of size {self.size}")
        base, merges, lengths, get = self.base, self.merges, self.lengths, self.get
        stack = [token_id]
        if token_id >= base:
            _, a, b, _ = merges[token_id - base]
            left = (a,) if a < base else get(a)
            right = (b,) if b < base else get(b)
            if left is not None and right is not None:
                surface = self[token_id] = left + right
                return surface
            stack = [b, a]
        units: list[int] = []
        written: dict[int, int] = {}  # merged id -> where this walk first wrote it
        while stack:
            t = stack.pop()
            if t < base:
                units.append(t)
            elif (known := get(t)) is not None:
                units += known
            elif t in written:
                units += units[written[t]:written[t] + lengths[t]]
            else:
                written[t] = len(units)
                _, a, b, _ = merges[t - base]
                stack += (b, a)
        surface = self[token_id] = tuple(units)
        return surface


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
    if not options.respect_boundaries:
        vocab = BaseVocabulary(base_size, vocab.labels)  # the same units, no boundary
    blocked = vocab.special if vocab.boundary is None else vocab.special | {vocab.boundary}

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

    return MergeTable(vocab, tuple(merges))


def save_merge_table(table: MergeTable, dest: str | Path | IO[str]) -> None:
    """Write the versioned merge-table format to a path or text stream.

    Line 1 is the magic string, line 2 the base vocabulary size, line 3 the
    base's boundary label (empty when it has none), then one ``rank left
    right result`` row per merge.
    """
    header = [MERGE_FILE_MAGIC, str(table.base.size), table.base.boundary_surface or ""]
    write_lines(dest, chain(header, (f"{m.rank} {m.left} {m.right} {m.result}" for m in table.merges)))


def parse_merge_table(lines: Sequence[str], vocabulary: BaseVocabulary | None = None) -> MergeTable:
    """Build a MergeTable from merge-file lines, validating every invariant.

    One spelling check reads every field of the rows at once. Only when it
    fails, or a row has other than 4 fields, does a walk run, to name the
    first bad row: a wrong field count, else its first token that spells no
    id, reported as a token line's is (see parse_id_line). The rules are
    checked once every row has parsed, and a broken rule names its line.
    When no vocabulary is supplied a boundary-free table gets the unlabelled
    one of its base size (numeric labels plus the standard specials); tables
    that record a boundary label need the real vocabulary. The table's base
    takes line 3's boundary, whatever the given vocabulary's is, so a table
    reads back equal to the one saved. The label is looked up in the
    vocabulary as given; one it lacks is appended last if the vocabulary is
    one unit short, as ``train --vocab`` appends it to a sidecar without it,
    and is otherwise a ValidationError naming line 3.
    """
    rows = [ln.rstrip("\n").rstrip("\r") for ln in lines]
    if not rows or rows[0] != MERGE_FILE_MAGIC:
        raise ParseError(f"missing magic header {MERGE_FILE_MAGIC!r}", line=1)
    if len(rows) < 3:
        raise ParseError("truncated header: need base size and boundary label lines", line=len(rows))
    spelt = _ids_of([rows[1].strip()])
    if spelt is None:
        try:
            int(rows[1])
        except ValueError:
            raise ParseError(f"base vocabulary size must be an integer, got {rows[1]!r}", line=2) from None
        raise ParseError(f"base vocabulary size must be a canonical integer, got {rows[1]!r}", line=2)
    (base_size,) = spelt
    if base_size < 0:
        raise ParseError("base vocabulary size must be non-negative", line=2)
    label = rows[2].strip() or None

    if vocabulary is None:
        if label is not None:
            raise ValidationError(
                f"table records boundary label {label!r}; a vocabulary is required to resolve it"
            )
        vocabulary = BaseVocabulary(base_size)
    elif label is not None and vocabulary._lookup(label) is None:
        if vocabulary.size != base_size - 1 or len(label.split()) != 1:
            raise ValidationError(f"line 3: unknown label {label!r}")
        vocabulary = symbolic_vocabulary(map(vocabulary.surface, vocabulary.content_ids()), label)
    if vocabulary.size != base_size:
        raise ValidationError(f"vocabulary size {vocabulary.size} does not match recorded base size {base_size}")
    boundary = None if label is None else vocabulary.id_of(label)
    if boundary != vocabulary.boundary:
        vocabulary = BaseVocabulary(base_size, vocabulary.labels, boundary)

    body = rows[3:]
    ids = _ids_of(" ".join(body).split())
    if ids is None or not set(map(len, map(str.split, body))) <= {4}:
        for lineno, row in enumerate(body, start=4):  # name the first bad row
            fields = len(row.split())
            if fields != 4:
                raise ParseError(f"expected 4 fields, got {fields}" if fields else "blank merge row", line=lineno)
            parse_id_line(row, lineno)
    try:
        return MergeTable(vocabulary, tuple(map(Merge._make, zip(*[iter(ids)] * 4))))
    except ValidationError as err:
        if err.rule is None:
            raise
        # Rule i is on line i + 4.
        raise ValidationError(f"line {err.rule + 4}: {err}", rule=err.rule) from None


def load_merge_table(path: str | Path, vocabulary: BaseVocabulary | None = None) -> MergeTable:
    """Read a merge-table file saved by save_merge_table."""
    return parse_merge_table(read_lines(path), vocabulary)
