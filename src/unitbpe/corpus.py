"""Data model, validation, and file I/O for discrete unit corpora.

A corpus is a list of unit sequences over a closed base vocabulary. Two
on-disk layouts are supported, both one sequence per line with
whitespace-separated tokens:

* ``dau-int``: base-10 unit ids (discrete acoustic unit streams),
* ``symbolic``: free-form non-whitespace labels (phoneme streams), with a
  configurable word-boundary label (default ``_``).

Vocabularies reserve the last three ids for the specials PAD/BOS/EOS, so a
DAU inventory with K clusters has size K+3. Its labels are the ids' decimal
strings and are never stored, so no run is sized by an id in its input.
Corpus files carry content units only; special ids never appear in files.

Parsing and rendering make one C-level pass per line: ``int`` or the label
lookup mapped over its tokens, then ``min``/``max`` and a disjointness test
against the specials. Only a line that fails is walked token by token, to
name the offending token and line.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, count
from operator import attrgetter
from pathlib import Path
from typing import IO, AbstractSet, Iterable, Iterator

from .errors import ContractError, ParseError, ValidationError

PAD_LABEL = "<pad>"
BOS_LABEL = "<bos>"
EOS_LABEL = "<eos>"
SPECIAL_LABELS = (PAD_LABEL, BOS_LABEL, EOS_LABEL)
_RESERVED = frozenset(SPECIAL_LABELS)

DEFAULT_BOUNDARY_LABEL = "_"

FORMAT_DAU = "dau-int"
FORMAT_SYMBOLIC = "symbolic"
FORMATS = (FORMAT_DAU, FORMAT_SYMBOLIC)


class Record:
    """Base of the package's immutable records.

    ``_fields`` names a record's fields in constructor order, as a named
    tuple's does. A record equals only a record of its own class with equal
    fields, hashes and prints by its fields, and refuses assignment and
    deletion: its ``__init__`` sets each field with ``object.__setattr__``.
    Records with cached properties keep an instance ``__dict__``; the others
    store their fields in ``__slots__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A C-level getter, so comparing and hashing run no Python frame per
        # field: a round-trip check compares every decoded sequence.
        cls._key = attrgetter(*cls._fields)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BaseVocabulary(Record):
    """Closed inventory of ``size`` units: the content units, then the
    specials PAD/BOS/EOS as the last three ids. ``boundary``, when set, is a
    content unit that merges must never span.

    ``labels`` holds the content labels in id order, or is None when content
    id ``i`` is labelled ``str(i)``, as in a DAU vocabulary. Labels that are
    exactly ``"0", "1", ...`` are stored as None, so equal labels make equal
    vocabularies. Nothing is stored per id of an unlabelled vocabulary.
    """

    _fields = ("size", "labels", "boundary")

    def __init__(self, size: int, labels: tuple[str, ...] | None = None, boundary: int | None = None):
        if labels is not None:
            if len(labels) != size - 3:
                raise ValidationError(f"{len(labels)} content labels do not fit a vocabulary of size {size}")
            if not _RESERVED.isdisjoint(labels):
                raise ValidationError(f"label {next(filter(_RESERVED.__contains__, labels))!r} is reserved")
            last = dict(zip(labels, count()))  # each label's last id
            if len(last) != len(labels):
                dup = next(label for i, label in enumerate(labels) if last[label] != i)
                raise ValidationError(f"duplicate surface label {dup!r}")
            if all(map(str.__eq__, labels, map(str, count()))):
                labels = None
        elif size < 3:
            raise ValidationError("base size too small for synthesized vocabulary")
        if boundary is not None:
            if not 0 <= boundary < size:
                raise ValidationError(f"boundary id {boundary} outside vocabulary")
            if boundary >= size - 3:
                raise ValidationError("boundary must not be a special token")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "boundary", boundary)

    def __len__(self) -> int:
        return self.size

    @property
    def special(self) -> frozenset[int]:
        """The ids of PAD, BOS and EOS: always the last three."""
        return frozenset(range(self.size - 3, self.size))

    @cached_property
    def _surface_to_id(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels + SPECIAL_LABELS)}

    def _lookup(self, labels: Iterable[str]) -> dict[str, int]:
        """Label -> id for at least those of ``labels`` that name a unit: a
        labelled vocabulary's whole table, or else the specials and those of
        ``labels`` that are the decimal string of a content id."""
        if self.labels is not None:
            return self._surface_to_id
        content = self.size - 3
        digits = len(str(content))  # a longer label names no content id
        ids = {s: i for s in set(labels) if s.isascii() and s.isdigit() and len(s) <= digits
               and (i := int(s)) < content and str(i) == s}
        ids.update(zip(SPECIAL_LABELS, range(content, self.size)))
        return ids

    def surface(self, unit_id: int) -> str:
        if not 0 <= unit_id < self.size:
            raise ValidationError(f"unit id {unit_id} outside vocabulary of size {self.size}")
        if unit_id >= self.size - 3:
            return SPECIAL_LABELS[unit_id - self.size]
        return str(unit_id) if self.labels is None else self.labels[unit_id]

    def id_of(self, label: str) -> int:
        uid = self._lookup((label,)).get(label)
        if uid is None:
            raise ValidationError(f"unknown label {label!r}")
        return uid

    def is_special(self, unit_id: int) -> bool:
        return self.size - 3 <= unit_id < self.size

    @property
    def boundary_surface(self) -> str | None:
        return None if self.boundary is None else self.surface(self.boundary)

    def content_ids(self) -> range:
        """Ids that may appear in corpus files (everything but specials)."""
        return range(self.size - 3)


def dau_vocabulary(clusters: int) -> BaseVocabulary:
    """DAU vocabulary: ids 0..clusters-1, labelled by their decimal strings
    without storing them, plus PAD/BOS/EOS. Size is clusters + 3; no boundary."""
    if clusters < 0:
        raise ContractError("cluster count must be non-negative")
    return BaseVocabulary(clusters + 3)


def symbolic_vocabulary(
    labels: Iterable[str], boundary_label: str | None = DEFAULT_BOUNDARY_LABEL
) -> BaseVocabulary:
    """Vocabulary from content labels in order, appending the boundary label
    (when configured and absent) and the three specials. A reserved or
    repeated label, the boundary label included, is a ValidationError."""
    content = tuple(labels)
    if boundary_label is not None and boundary_label not in content:
        content += (boundary_label,)
    boundary = None if boundary_label is None else content.index(boundary_label)
    return BaseVocabulary(len(content) + 3, content, boundary)


def _split_lines(text: str) -> list[str]:
    # LF, CRLF and CR only: str.splitlines also splits at FF, NEL, LS and more.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]  # a final line end starts no line


def decode_lines(data: bytes) -> list[str]:
    """Split UTF-8 bytes into lines without their line ends; only LF, CRLF
    and CR end a line. A byte that is not UTF-8 raises ParseError naming its
    line, numbered as every parser here numbers lines."""
    try:
        return _split_lines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[: exc.start].decode("utf-8") + "x"))
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not valid UTF-8", line=line) from None


def read_lines(path: str | Path) -> list[str]:
    """Lines of a UTF-8 file; see decode_lines."""
    return decode_lines(Path(path).read_bytes())


def load_vocabulary(
    path: str | Path, boundary_label: str | None = DEFAULT_BOUNDARY_LABEL
) -> BaseVocabulary:
    """Read a sidecar vocabulary file: one content label per line, line
    number = unit id. A label that is empty, reserved, repeated or holds
    whitespace (no corpus token could match it) is a ParseError with its line."""
    lines: dict[str, int] = {}  # label -> its line, in file order
    for i, line in enumerate(read_lines(path), start=1):
        label = line.strip()
        if not label:
            raise ParseError("empty label", line=i)
        if label.split() != [label]:
            raise ParseError(f"label must be one token without whitespace, got {label!r}", line=i)
        if label in _RESERVED:
            raise ParseError(f"label {label!r} is reserved", line=i)
        if label in lines:
            raise ParseError(f"duplicate surface label {label!r}, first on line {lines[label]}", line=i)
        lines[label] = i
    return symbolic_vocabulary(lines, boundary_label)


def save_vocabulary(vocabulary: BaseVocabulary, path: str | Path) -> None:
    """Write the content labels of a vocabulary, one per line."""
    lines = map(vocabulary.surface, vocabulary.content_ids())
    Path(path).write_text("".join(s + "\n" for s in lines), encoding="utf-8")


class UnitSequence(Record):
    """One utterance: a sequence of unit ids over a base vocabulary."""

    __slots__ = _fields = ("units",)

    def __init__(self, units: tuple[int, ...]):
        object.__setattr__(self, "units", units)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)


class Corpus(Record):
    """Immutable bundle of validated unit sequences plus their vocabulary."""

    __slots__ = _fields = ("vocabulary", "sequences", "source")

    def __init__(self, vocabulary: BaseVocabulary, sequences: tuple[UnitSequence, ...], source: str = ""):
        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "sequences", sequences)
        object.__setattr__(self, "source", source)
        size = self.vocabulary.size
        for seq in self.sequences:
            ids = seq.units
            if ids and (min(ids) < 0 or max(ids) >= size):
                bad = next(i for i in ids if not 0 <= i < size)
                raise ValidationError(f"unit id {bad} outside vocabulary of size {size}")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def total_units(self) -> int:
        return sum(len(s) for s in self.sequences)


def parse_id_line(line: str, lineno: int) -> tuple[int, ...]:
    """The whitespace-separated base-10 integers of one line. A token that
    is not one raises ParseError naming it and the line."""
    try:
        return tuple(map(int, line.split()))
    except ValueError:
        for tok in line.split():
            try:
                int(tok, 10)
            except ValueError:
                raise ParseError(f"non-integer token {tok!r}", line=lineno) from None
        raise


def _parse_dau_lines(lines: Iterable[str], vocabulary: BaseVocabulary | None):
    # Each line is checked as it is parsed, so the first bad line is named.
    size = None if vocabulary is None else vocabulary.size
    top = -1  # the largest id, which sizes an inferred vocabulary
    raw: list[tuple[int, ...]] = []
    for lineno, line in enumerate(lines, start=1):
        ids = parse_id_line(line, lineno)
        if ids:
            if min(ids) < 0:
                bad = next(i for i in ids if i < 0)
                raise ValidationError(f"line {lineno}: negative unit id {bad}")
            high = max(ids)
            if size is None:
                top = max(top, high)
            elif high >= size - 3:  # the specials are the last three ids
                for i in ids:
                    if i >= size:
                        raise ValidationError(f"line {lineno}: unit id {i} outside vocabulary of size {size}")
                    if i >= size - 3:
                        raise ValidationError(f"line {lineno}: id {i} is a reserved special token")
        raw.append(ids)
    if vocabulary is None:
        vocabulary = dau_vocabulary(top + 1)
    return raw, vocabulary


def _parse_symbolic_lines(
    lines: Iterable[str], vocabulary: BaseVocabulary | None, boundary_label: str | None
):
    unlabelled = vocabulary is None or vocabulary.labels is None
    # A list when the labels are read before parsing, to infer or to map them.
    rows = [line.split() for line in lines] if unlabelled else map(str.split, lines)
    if vocabulary is None:
        # Labels in first-appearance order; symbolic_vocabulary rejects the
        # first reserved one, so the inferred vocabulary has every label.
        vocabulary = symbolic_vocabulary(dict.fromkeys(chain.from_iterable(rows)), boundary_label)
    to_id, special = vocabulary._lookup(chain.from_iterable(rows)), vocabulary.special
    raw = []
    for lineno, row in enumerate(rows, start=1):
        try:
            ids = tuple(map(to_id.__getitem__, row))
        except KeyError:
            ids = None
        if ids is None or not special.isdisjoint(ids):
            for label in row:
                uid = to_id.get(label)
                if uid is None:
                    raise ValidationError(f"line {lineno}: unknown label {label!r}")
                if uid in special:
                    raise ValidationError(f"line {lineno}: label {label!r} is a reserved special token")
        raw.append(ids)
    return raw, vocabulary


def read_corpus(
    lines: Iterable[str],
    format: str,
    vocabulary: BaseVocabulary | None = None,
    boundary_label: str | None = DEFAULT_BOUNDARY_LABEL,
    source: str = "",
) -> Corpus:
    """Parse corpus lines (one sequence each). See load_corpus."""
    if format not in FORMATS:
        raise ContractError(f"unknown corpus format {format!r}")
    if format == FORMAT_DAU:
        raw, vocab = _parse_dau_lines(lines, vocabulary)
    else:
        raw, vocab = _parse_symbolic_lines(lines, vocabulary, boundary_label)
    return Corpus(vocab, tuple(UnitSequence(ids) for ids in raw), source=source)


def load_corpus(
    path: str | Path,
    format: str,
    vocabulary: BaseVocabulary | None = None,
    boundary_label: str | None = DEFAULT_BOUNDARY_LABEL,
) -> Corpus:
    """Load and validate a corpus file.

    For ``dau-int`` without a supplied vocabulary the base vocabulary is
    {0..max_id} plus the three specials; for ``symbolic`` it is inferred in
    first-appearance order. An empty file yields an empty corpus. Malformed
    tokens and bytes that are not UTF-8 raise ParseError with the line
    number; out-of-range or reserved ids raise ValidationError.
    """
    return read_corpus(read_lines(path), format, vocabulary, boundary_label, source=str(path))


def corpus_lines(corpus: Corpus, format: str) -> Iterator[str]:
    """Render corpus sequences back to file lines (without newlines)."""
    return sequence_lines(corpus.sequences, corpus.vocabulary, format)


def sequence_lines(
    sequences: Iterable[UnitSequence], vocabulary: BaseVocabulary, format: str
) -> Iterator[str]:
    """Render unit sequences as corpus file lines (without newlines). Ids
    are not checked here: the caller has checked them against the
    vocabulary, as Corpus does."""
    if format not in FORMATS:
        raise ContractError(f"unknown corpus format {format!r}")
    if format == FORMAT_DAU:
        label = str
    elif vocabulary.labels is None:
        label = vocabulary.surface
    else:
        label = (vocabulary.labels + SPECIAL_LABELS).__getitem__
    for seq in sequences:
        yield " ".join(map(label, seq.units))


def save_corpus(corpus: Corpus, dest: str | Path | IO[str], format: str) -> None:
    """Write a corpus in the given format, one sequence per line, LF endings."""
    if hasattr(dest, "write"):
        for line in corpus_lines(corpus, format):
            dest.write(line + "\n")
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            for line in corpus_lines(corpus, format):
                fh.write(line + "\n")


def split_chunks(units: tuple[int, ...], blocked: AbstractSet[int]) -> Iterator[tuple[int, ...]]:
    """The runs of units between blocked ids, in order, empty runs included:
    a sequence with n blocked units yields n + 1 chunks."""
    if blocked.isdisjoint(units):
        yield units
        return
    start = 0
    for k, uid in enumerate(units):
        if uid in blocked:
            yield units[start:k]
            start = k + 1
    yield units[start:]


def split_on_boundaries(seq: UnitSequence, vocabulary: BaseVocabulary) -> list[UnitSequence]:
    """Split a sequence at every boundary unit, dropping the boundaries.

    Empty chunks are preserved, so n boundaries always yield n+1 chunks and
    join_chunks inverts the split exactly.
    """
    if vocabulary.boundary is None:
        raise ContractError("vocabulary has no boundary unit")
    return list(map(UnitSequence, split_chunks(seq.units, {vocabulary.boundary})))


def join_chunks(chunks: Iterable[UnitSequence], boundary: int) -> UnitSequence:
    """Inverse of split_on_boundaries: interleave chunks with the boundary."""
    out: list[int] = []
    for i, chunk in enumerate(chunks):
        if i:
            out.append(boundary)
        out.extend(chunk.units)
    return UnitSequence(tuple(out))


class CorpusStats(Record):
    """Length summary of a corpus; mean/min/max are None when empty."""

    __slots__ = _fields = ("sequence_count", "total_units", "mean_length", "min_length", "max_length")

    def __init__(
        self,
        sequence_count: int,
        total_units: int,
        mean_length: float | None,
        min_length: int | None,
        max_length: int | None,
    ):
        object.__setattr__(self, "sequence_count", sequence_count)
        object.__setattr__(self, "total_units", total_units)
        object.__setattr__(self, "mean_length", mean_length)
        object.__setattr__(self, "min_length", min_length)
        object.__setattr__(self, "max_length", max_length)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Sequence count, total units, and mean/min/max sequence length."""
    n = len(corpus.sequences)
    if n == 0:
        return CorpusStats(0, 0, None, None, None)
    lengths = [len(s) for s in corpus.sequences]
    total = sum(lengths)
    return CorpusStats(n, total, total / n, min(lengths), max(lengths))
