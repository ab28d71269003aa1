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
never span a word boundary.

Decoding concatenates token surfaces, which makes the round trip lossless
by construction: each id is one lookup in the table's surface map, which
range-checks an id and builds its surface the first time it is seen.
"""

from __future__ import annotations

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


def _encode_ids(ids: Sequence[int], index: tuple) -> list[int]:
    # Backtracking search for the one tokenization into kept tokens whose
    # every adjacent pair passes the seam check: the rank-order encoding.
    # At each position it tries the longest kept token first, then each
    # shorter kept prefix. The tokens before a position are always the one
    # such tokenization of the text before it, so a position where no
    # candidate is left is dead for good: it is marked, the previous token
    # is popped and its shorter prefixes are tried.
    trie, shorter, fits, shift, size = index
    n = len(ids)
    if n < 2 or not trie:
        return list(ids)
    get = trie.get
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
        while True:
            if not dead[end] and (prev < 0 or fits(prev, t, size)):
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
    return tokens


def encode(seq: UnitSequence, table: MergeTable) -> TokenSequence:
    """Tokenize one unit sequence with a merge table."""
    units = seq.units
    base_size = table.base.size
    if units and (min(units) < 0 or max(units) >= base_size):
        bad = next(u for u in units if not 0 <= u < base_size)
        raise ValidationError(f"unit id {bad} outside base vocabulary of size {base_size}")
    return TokenSequence(tuple(_encode_ids(units, table._encoder_index)))


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
    applies. When the table has a boundary, each sequence is split at it
    and every distinct chunk is encoded once: no rule involves the boundary,
    so a chunk's tokens do not depend on its neighbours."""
    vocab, base = corpus.vocabulary, table.base
    if (vocab.size, vocab.labels) != (base.size, base.labels):
        raise ValidationError("corpus vocabulary does not match the merge table's base vocabulary")
    if threads < 1:
        raise ContractError("threads must be at least 1")
    index = table._encoder_index
    boundary = base.boundary
    if boundary is None:
        encoded = [tuple(_encode_ids(s.units, index)) for s in corpus.sequences]
    else:
        memo: dict[tuple[int, ...], list[int]] = {}
        separator = {boundary}
        encoded = []
        for s in corpus.sequences:
            out: list[int] = []
            for chunk in split_chunks(s.units, separator):
                tokens = memo.get(chunk)
                if tokens is None:
                    tokens = memo[chunk] = _encode_ids(chunk, index)
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
