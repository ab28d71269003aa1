"""Apply merge tables to unit sequences (encode) and invert them (decode).

Encoding gives what applying the merges in rank order gives (at every step
the lowest-rank rule with an occurrence, at its leftmost position) without
replaying them. A tokenization is that one exactly when each token encodes
its own surface and each adjacent pair passes the seam check: the two
surfaces together encode to that pair. So the encoder takes the longest
such token at each position, falls back to shorter ones when the seam with
the previous token fails, and backtracks when none fits (the backtracking
encoder of GitHub's ``bpe`` crate). Because no rule involves the boundary
or a special token, those units pass through untouched and merged tokens
never span a word boundary. ``_build_encoder`` builds the index, which
grows to the longest input encoded so far by the token lengths the table
holds, and the search over it; ``MergeTable._encoder`` caches them on the
first encode, so a table that only decodes never builds them.

Each seam check is bounded by a floor read from the table: the oldest rule
whose junction, its left half's last unit and its right half's first unit,
is the two units on either side of the seam. Any rule the check can find
firing joins a suffix of the left token to a prefix of the right one, so it
has that junction and a result at or above the floor; the check stops as
soon as its limit is at or below it, and a seam no rule joins needs no walk.

Decoding concatenates token surfaces, which makes the round trip lossless
by construction: each id is one lookup in the table's surface map, which
range-checks an id and builds its surface the first time it is seen.
"""

from __future__ import annotations

import sys
import threading
from functools import cache
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .bpe import MergeTable
from .corpus import Corpus, Record, UnitSequence, _map_lines, parse_id_line, split_chunks
from .errors import ContractError, ValidationError


class TokenSequence(Record):
    """A unit sequence after merge application; ids live in the merged
    vocabulary, and the token count never exceeds the source unit count."""

    __slots__ = _fields = ("tokens",)

    def __init__(self, tokens: tuple[int, ...]):
        object.__setattr__(self, "tokens", tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def _build_encoder(table: MergeTable) -> Callable[[Sequence[int]], list[int]]:
    """The table's encoder, a function from base unit ids to token ids,
    with its index over the kept tokens: those whose surface encodes to
    themselves. Every base id is kept; a merged token is kept when both
    halves are and their seam holds below it. The same pass in rank order
    records each merged token's first and last base unit, and for each
    junction ``last << shift | first`` of a rule's halves the oldest rule
    with it: the floor of every seam check across those two units. The trie
    holds kept surfaces only: it maps node << shift | unit to a child, which
    is a kept token or a negative id for a prefix that is none, and each
    base id is its own root. shorter maps each indexed token to the longest
    kept proper prefix, with its length. A call on n units first indexes
    the kept tokens whose length in the table's surface map is at most n,
    reading a right half's units from that map. Only one thread grows the
    index at a time, under a lock; a call on no more units than the index
    already covers reads it without the lock, and the floors are read-only
    after the build, so threads may encode through one table. Nothing here
    is per base id: the floors hold at most one entry per merge.
    """
    base, size = table.base.size, table.vocab_size  # |Z|, the seam limit for two output tokens
    rules, shift = table.packed_rules
    rule = rules.get
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    junctions: dict[int, int] = {}
    oldest = junctions.get

    def fits(t1: int, t2: int, limit: int, low: int) -> bool:
        """The seam check over kept tokens split by ``left`` and ``right``.

        ``fits(t1, t2, limit, low)`` tells whether encoding the two surfaces
        together reaches the pair ``(t1, t2)`` before any rule across the
        seam with a result below ``limit`` fires. Each step undoes the merge
        made last: the larger id, or the right one of two equal ids, because
        the leftmost occurrence of a rule applies first. For that reason a
        seam rule equal to a right-hand token still fires before it, and one
        equal to a left-hand token does not. ``low`` is the floor: no rule
        at the seam's junction is older, so once the limit, which only
        falls, is at or below it, no rule the walk could meet fires. A base
        id is below every floor, which ends the walk at the base units. With
        ``limit`` the vocabulary size, it holds exactly when the two
        surfaces encode to ``t1 t2``.
        """
        while limit > low:
            if rule(t1 << shift | t2, limit) < limit:
                return False
            if t1 > t2:
                limit = t1
                if t1 > low:
                    t1 = right[t1]
            else:
                limit = t2 + 1
                if t2 >= low:
                    t2 = left[t2]
        return True

    first: list[int] = []  # each merged token's first and last base unit, by rank
    last: list[int] = []
    for _, a, b, t in table.merges:
        if a < base:
            a_first = a_last = a
        else:
            a_first, a_last = first[a - base], last[a - base]
        if b < base:
            b_first = b_last = b
        else:
            b_first, b_last = first[b - base], last[b - base]
        first.append(a_first)
        last.append(b_last)
        # Rules come in rank order, so the first one at a junction is its oldest.
        low = junctions.setdefault(a_last << shift | b_first, t)
        if (a < base or a in left) and (b < base or b in left) and fits(a, b, t, low):
            left[t], right[t] = a, b
    surfaces = table._expansions  # bound here, so the encoder the table caches holds no cycle
    length = surfaces.lengths
    trie: dict[int, int] = {}
    get = trie.get
    shorter: dict[int, tuple[int, int]] = {}
    # Kept tokens not yet in the trie, longest first, so each pop is a
    # shortest one and its walk meets every shorter kept prefix. A new prefix
    # node's id, ~len(trie), is one no node has, since the trie only grows.
    pending = sorted(left, key=length.__getitem__, reverse=True)
    lock = threading.Lock()
    indexed = 0  # every kept token of at most this many units is in the trie

    def grow(n: int) -> None:
        """Index the kept tokens of at most n units, one thread at a time;
        ``indexed`` moves only once they are all in the trie."""
        nonlocal indexed
        with lock:
            while pending and length[pending[-1]] <= n:
                t = pending.pop()
                node = a = left[t]
                depth = length.get(a, 1)
                best = (a, depth)
                *middle, last = surfaces[right[t]]
                for u in middle:
                    key = node << shift | u
                    node = get(key)
                    if node is None:
                        node = trie[key] = ~len(trie)
                    depth += 1
                    if node >= 0:
                        best = (node, depth)
                trie[node << shift | last] = t
                shorter[t] = best
            indexed = length[pending[-1]] - 1 if pending else sys.maxsize

    def encode_ids(
        ids: Sequence[int], get=get, shift=shift, shorter=shorter, rule=rule, left=left, right=right,
        oldest=oldest, size=size,
    ):
        n = len(ids)
        if n > indexed:  # a longer token could match, so the index grows first
            grow(n)
        # Backtracking search for the one tokenization into kept tokens whose
        # every adjacent pair passes the seam check: the rank-order encoding.
        # At each position it tries the longest kept token first, then each
        # shorter kept prefix. The tokens before a position are always the one
        # such tokenization of the text before it, so a position where no
        # candidate is left is dead for good: it is marked, the previous token
        # is popped and its shorter prefixes are tried. A position's floor is
        # read once and kept across its shorter prefixes; the first position
        # has no seam, so its floor is size and every candidate passes. The
        # index is bound as defaults, so the hot loop reads it from locals.
        tokens: list[int] = []
        starts: list[int] = []
        dead = bytearray(n + 1)
        pos = 0
        prev = -1  # the last token, or -1 before the first
        while pos < n:
            t = node = ids[pos]
            end = i = pos + 1
            while i < n:
                node = get(node << shift | ids[i])
                if node is None:
                    break
                i += 1
                if node >= 0:
                    t, end = node, i
            low = oldest(ids[pos - 1] << shift | ids[pos], size) if pos else size
            while True:
                if not dead[end]:
                    # fits(prev, t, size, low), inlined: a call per check costs
                    # about half of what the floor saves.
                    t1, t2, limit = prev, t, size
                    while limit > low:
                        if rule(t1 << shift | t2, limit) < limit:
                            break
                        if t1 > t2:
                            limit = t1
                            if t1 > low:
                                t1 = right[t1]
                        else:
                            limit = t2 + 1
                            if t2 >= low:
                                t2 = left[t2]
                    else:
                        tokens.append(t)
                        starts.append(pos)
                        prev = t
                        pos = end
                        break
                prefix = shorter.get(t)
                if prefix is not None:
                    t, k = prefix
                    end = pos + k
                else:
                    dead[pos] = 1
                    end = pos
                    t = tokens.pop()
                    pos = starts.pop()
                    prev = tokens[-1] if tokens else -1
                    low = oldest(ids[pos - 1] << shift | ids[pos], size) if pos else size
        return tokens

    return encode_ids


def encode(seq: UnitSequence, table: MergeTable) -> TokenSequence:
    """Tokenize one unit sequence with a merge table."""
    units = seq.units
    base_size = table.base.size
    if units and (min(units) < 0 or max(units) >= base_size):
        bad = next(u for u in units if not 0 <= u < base_size)
        raise ValidationError(f"unit id {bad} outside base vocabulary of size {base_size}")
    return TokenSequence(tuple(table._encoder(units)))


def decode(tokens: TokenSequence, table: MergeTable) -> UnitSequence:
    """Invert encode by concatenating token surfaces. Any id of the merged
    vocabulary decodes, specials included."""
    return UnitSequence(tuple(chain.from_iterable(map(table._expansions.__getitem__, tokens.tokens))))


class EncodedCorpus(Record):
    """Tokenized corpus plus the mean lengths before and after merging.

    mean_units is n-hat (average source length), mean_tokens is k-hat
    (average tokenized length); both are None for an empty corpus.
    """

    __slots__ = _fields = ("sequences", "total_units", "total_tokens")

    @property
    def mean_units(self) -> float | None:
        return self.total_units / len(self.sequences) if self.sequences else None

    @property
    def mean_tokens(self) -> float | None:
        return self.total_tokens / len(self.sequences) if self.sequences else None


def encode_corpus(corpus: Corpus, table: MergeTable, threads: int = 1) -> EncodedCorpus:
    """Encode every sequence in order, in one thread; ``threads`` must be at
    least 1 and changes nothing else.

    The corpus must have the table's units: its vocabulary's size and
    labels. Its boundary may differ, since the table's is the one that
    applies. Each sequence is split at the table's boundary and every
    distinct chunk is encoded once: no rule involves the boundary, so a
    chunk's tokens do not depend on its neighbours. A table without a
    boundary makes each whole sequence one chunk."""
    vocab, base = corpus.vocabulary, table.base
    if (vocab.size, vocab.labels) != (base.size, base.labels):
        raise ValidationError("corpus vocabulary does not match the merge table's base vocabulary")
    if threads < 1:
        raise ContractError("threads must be at least 1")
    encode_ids = table._encoder
    boundary = base.boundary
    blocked = set() if boundary is None else {boundary}
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}
    sequences = []
    total_tokens = 0
    for s in corpus.sequences:
        out: list[int] = []
        for chunk in split_chunks(s.units, blocked):
            tokens = memo.get(chunk)
            if tokens is None:
                tokens = memo[chunk] = tuple(encode_ids(chunk))
            out += tokens
            out.append(boundary)
        out.pop()
        # A sequence of one chunk, with no boundary in out, holds the memo's tuple.
        tokens = tokens if len(out) == len(tokens) else tuple(out)
        total_tokens += len(tokens)
        sequences.append(TokenSequence(tokens))
    return EncodedCorpus(tuple(sequences), corpus.total_units, total_tokens)


def token_lines(
    sequences: Iterable[TokenSequence], table: MergeTable | None = None, surfaces: bool = False
) -> Iterator[str]:
    """Render token sequences, one per line: ids, or `+`-joined unit labels
    per token when surfaces is set (requires the table), each built once."""
    if surfaces and table is None:
        raise ContractError("surface rendering requires a merge table")
    label = cache(table.token_label) if surfaces else str
    for seq in sequences:
        yield " ".join(map(label, seq.tokens))


def read_token_lines(lines: Iterable[str]) -> list[TokenSequence]:
    """Parse whitespace-separated token ids, one sequence per line, in the
    corpus reader's one pass; decode range-checks the ids."""
    return list(map(TokenSequence, _map_lines(lines, parse_id_line, {})))
