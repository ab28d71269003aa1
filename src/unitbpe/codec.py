"""Apply merge tables to unit sequences (encode) and invert them (decode).

Encoding applies merges in rank order: at every step the lowest-rank rule
with an occurrence is applied at its leftmost position. Because no rule
involves the boundary or a special token, those units pass through
untouched and merged tokens never span a word boundary. Decoding
concatenates token surfaces, which makes the round trip lossless by
construction: one range check per sequence, then base ids stand for
themselves and merged ids expand through the table.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .bpe import MergeTable
from .corpus import Corpus, Record, UnitSequence, parse_id_line, split_chunks
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


def _encode_ids(ids: Sequence[int], rules: dict[int, tuple[int, int]], shift: int) -> list[int]:
    n = len(ids)
    if n < 2 or not rules:
        return list(ids)
    val = list(ids)
    nxt = list(range(1, n)) + [-1]
    prv = [-1] + list(range(n - 1))
    get = rules.get
    heap = []
    for i in range(n - 1):
        r = get((val[i] << shift) | val[i + 1])
        if r is not None:
            heap.append((r[0], i))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        rank, i = pop(heap)
        if val[i] == -1:
            continue
        j = nxt[i]
        if j == -1:
            continue
        r = get((val[i] << shift) | val[j])
        if r is None:
            continue
        if r[0] != rank:
            # The pair at i changed since this entry was queued; requeue at
            # its current rank so ordering stays exact.
            push(heap, (r[0], i))
            continue
        z = r[1]
        val[i] = z
        val[j] = -1
        q = nxt[j]
        nxt[i] = q
        if q != -1:
            prv[q] = i
            rr = get((z << shift) | val[q])
            if rr is not None:
                push(heap, (rr[0], i))
        p = prv[i]
        if p != -1:
            rl = get((val[p] << shift) | z)
            if rl is not None:
                push(heap, (rl[0], p))
    out = []
    i = 0
    while i != -1:
        out.append(val[i])
        i = nxt[i]
    return out


def encode(seq: UnitSequence, table: MergeTable) -> TokenSequence:
    """Tokenize one unit sequence with a merge table."""
    units = seq.units
    base_size = table.base.size
    if units and (min(units) < 0 or max(units) >= base_size):
        bad = next(u for u in units if not 0 <= u < base_size)
        raise ValidationError(f"unit id {bad} outside base vocabulary of size {base_size}")
    rules, shift = table.packed_rules
    return TokenSequence(tuple(_encode_ids(units, rules, shift)))


def decode(tokens: TokenSequence, table: MergeTable) -> UnitSequence:
    """Invert encode by concatenating token surfaces. Any id of the merged
    vocabulary decodes, specials included."""
    ids = tokens.tokens
    size = table.vocab_size
    if ids and (min(ids) < 0 or max(ids) >= size):
        bad = next(t for t in ids if not 0 <= t < size)
        raise ValidationError(f"token id {bad} outside vocabulary of size {size}")
    # zip(ids) yields each id as a 1-tuple: the surface of a base id.
    return UnitSequence(tuple(chain.from_iterable(map(table._expansions.get, ids, zip(ids)))))


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

    When the table has a boundary, each sequence is split at it and every
    distinct chunk is encoded once: no rule involves the boundary, so a
    chunk's tokens do not depend on its neighbours."""
    if corpus.vocabulary != table.base:
        raise ValidationError("corpus vocabulary does not match the merge table's base vocabulary")
    if threads < 1:
        raise ContractError("threads must be at least 1")
    rules, shift = table.packed_rules
    boundary = table.boundary
    if boundary is None:
        encoded = [tuple(_encode_ids(s.units, rules, shift)) for s in corpus.sequences]
    else:
        memo: dict[tuple[int, ...], list[int]] = {}
        separator = {boundary}
        encoded = []
        for s in corpus.sequences:
            out: list[int] = []
            for chunk in split_chunks(s.units, separator):
                tokens = memo.get(chunk)
                if tokens is None:
                    tokens = memo[chunk] = _encode_ids(chunk, rules, shift)
                out += tokens
                out.append(boundary)
            out.pop()
            encoded.append(tuple(out))
    total_units = sum(len(s) for s in corpus.sequences)
    total_tokens = sum(len(t) for t in encoded)
    return EncodedCorpus(tuple(TokenSequence(t) for t in encoded), total_units, total_tokens)


def token_lines(
    sequences: Iterable[TokenSequence], table: MergeTable | None = None, surfaces: bool = False
) -> Iterator[str]:
    """Render token sequences, one per line: ids, or `+`-joined unit labels
    per token when surfaces is set (requires the table)."""
    if surfaces and table is None:
        raise ContractError("surface rendering requires a merge table")
    label = table.token_label if surfaces else str
    for seq in sequences:
        yield " ".join(map(label, seq.tokens))


def read_token_lines(lines: Iterable[str]) -> list[TokenSequence]:
    """Parse whitespace-separated token ids, one sequence per line; ids are
    not range-checked here (decode does that)."""
    return [TokenSequence(parse_id_line(line, lineno)) for lineno, line in enumerate(lines, start=1)]
