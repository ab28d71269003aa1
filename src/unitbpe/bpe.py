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

A merge table's validating walk over its rules also builds its packed rule
index; the encoder's trie over token surfaces is built on the first encode,
and a token's surface the first time that token is looked up.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import index
from pathlib import Path
from typing import IO, Callable, NamedTuple, Sequence

from .corpus import BaseVocabulary, Corpus, Record, read_lines, split_chunks, write_lines
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
    ``packed_rules``: ``((left << shift) | right -> result, shift)``. The
    encoder's index is built on first use, so a table that only decodes
    never pays for it, and decoding stores the surfaces of the ids it looks
    up only.
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
        # Token id -> its surface as base unit ids, filled on first lookup.
        return _Surfaces(self.merges, self.base.size, self.vocab_size)

    @cached_property
    def _encoder_index(self) -> tuple:
        # The backtracking encoder's index, over the kept tokens: those whose
        # surface encodes to themselves. Every base id is kept; a merged
        # token is kept when both halves are and their seam holds below it.
        # The trie holds kept surfaces only: it maps node << shift | unit to
        # a child, which is a kept token or a negative id for a prefix that
        # is none, and each base id is its own root. shorter maps each kept
        # merged token to the longest kept proper prefix, with its length.
        # Nothing here is per base id. The tuple ends with shift and |Z|,
        # the seam check's limit for two adjacent output tokens.
        base = self.base.size
        rules, shift = self.packed_rules
        left: dict[int, int] = {}
        right: dict[int, int] = {}
        fits = _seam_check(left, right, rules, shift, base)
        surface: dict[int, tuple[int, ...]] = {}  # of each kept merged token
        for _, a, b, t in self.merges:
            if (a < base or a in surface) and (b < base or b in surface) and fits(a, b, t):
                left[t], right[t] = a, b
                surface[t] = surface.get(a, (a,)) + surface.get(b, (b,))
        trie: dict[int, int] = {}
        shorter: dict[int, tuple[int, int]] = {}
        fresh = -1
        # Shortest surface first, so each walk from the left half's node
        # meets every shorter kept prefix and ends on a new node.
        for t in sorted(surface, key=lambda t: len(surface[t])):
            node = a = left[t]
            depth = len(surface.get(a, (a,)))
            best = (a, depth)
            *middle, last = surface.get(right[t], (right[t],))
            for u in middle:
                key = node << shift | u
                node = trie.get(key)
                if node is None:
                    node = trie[key] = fresh
                    fresh -= 1
                depth += 1
                if node >= 0:
                    best = (node, depth)
            trie[node << shift | last] = t
            shorter[t] = best
        return trie, shorter, fits, shift, self.vocab_size

    def token_surface(self, token_id: int) -> tuple[int, ...]:
        """Constituent base unit ids of a token, in order."""
        return self._expansions[token_id]

    def token_label(self, token_id: int) -> str:
        """Human-readable token surface: unit labels joined by ``+``."""
        return "+".join(self.base.surface(u) for u in self.token_surface(token_id))


class _Surfaces(dict):
    """Token id -> its surface as base unit ids, filled on first lookup.

    A miss range-checks the id, then walks the rules depth first from it,
    taking whole any surface already stored. Only the looked-up id is
    stored, so the map holds the surfaces asked for: never every merged
    token's, and nothing per base id.
    """

    __slots__ = ("merges", "base", "size")

    def __init__(self, merges: Sequence[Merge], base: int, size: int):
        super().__init__()
        self.merges, self.base, self.size = merges, base, size

    def __missing__(self, token_id: int) -> tuple[int, ...]:
        token_id = index(token_id)  # an int is stored, never an equal float or bool
        if not 0 <= token_id < self.size:
            raise ValidationError(f"token id {token_id} outside vocabulary of size {self.size}")
        base, merges, get = self.base, self.merges, self.get
        units: list[int] = []
        stack = [token_id]
        while stack:
            t = stack.pop()
            known = get(t)
            if known is not None:
                units += known
            elif t < base:
                units.append(t)
            else:
                m = merges[t - base]
                stack += (m.right, m.left)
        surface = self[token_id] = tuple(units)
        return surface


def _seam_check(
    left: dict[int, int], right: dict[int, int], rules: dict[int, int], shift: int, base: int
) -> Callable[[int, int, int], bool]:
    """The seam check over kept tokens split by ``left`` and ``right``.

    ``fits(t1, t2, limit)`` tells whether encoding the two surfaces together
    reaches the pair ``(t1, t2)`` before any rule across the seam with a
    result below ``limit`` fires. Each step undoes the merge made last: the
    larger id, or the right one of two equal ids, because the leftmost
    occurrence of a rule applies first. For that reason a seam rule equal to
    a right-hand token still fires before it, and one equal to a left-hand
    token does not. With ``limit`` the vocabulary size, it holds exactly
    when the two surfaces encode to ``t1 t2``.
    """
    get = rules.get

    def fits(t1: int, t2: int, limit: int) -> bool:
        while True:
            if get(t1 << shift | t2, limit) < limit:
                return False
            if t1 > t2:
                if t1 < base:
                    return True
                limit = t1
                t1 = right[t1]
            else:
                if t2 < base:
                    return True
                limit = t2 + 1
                t2 = left[t2]

    return fits


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
    tables that record a boundary label need the real vocabulary. The
    table's base takes line 3's boundary, whatever the given vocabulary's
    is, so a table reads back equal to the one saved.
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
    boundary = None if boundary_label is None else vocabulary.id_of(boundary_label)
    if boundary != vocabulary.boundary:
        vocabulary = BaseVocabulary(base_size, vocabulary.labels, boundary)

    fields = list(map(str.split, rows[3:]))
    if set(map(len, fields)) <= {4}:
        try:
            nums = list(map(int, chain.from_iterable(fields)))
        except ValueError:
            pass  # the loop below names the row
        else:
            columns = zip(nums[0::4], nums[1::4], nums[2::4], nums[3::4])
            try:
                return MergeTable(vocabulary, tuple(map(Merge._make, columns)))
            except ValidationError as err:
                if err.rule is None:
                    raise
                # Rule i is on line i + 4.
                raise ValidationError(f"line {err.rule + 4}: {err}", rule=err.rule) from None
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
