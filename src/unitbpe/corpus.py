"""Data model, validation, and file I/O for discrete unit corpora.

A corpus is a list of unit sequences over a closed base vocabulary. Two
on-disk layouts are supported, both one sequence per line with
whitespace-separated tokens:

* ``dau-int``: unit ids in canonical decimal (discrete acoustic unit streams),
* ``symbolic``: free-form non-whitespace labels (phoneme streams), with a
  configurable word-boundary label (default ``_``).

Vocabularies reserve the last three ids for the specials PAD/BOS/EOS, so a
DAU inventory with K clusters has size K+3. Its labels are the ids' decimal
strings and are never stored, so no run is sized by an id in its input.
Corpus files carry content units only; special ids never appear in files.

Parsing maps each line's token texts to ids through one dict, one C-level
pass per line in either format. Only texts the dict lacks are checked, to
name the line's first fault, and then join it, so each distinct text is
checked once, where it first appears. Rendering is one map per line.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import count, filterfalse
from operator import attrgetter, eq
from pathlib import Path
from typing import IO, AbstractSet, Callable, Iterable, Iterator

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
    tuple's does. The one constructor takes the fields by position or
    keyword, fills those not given from the class's ``_defaults``, sets each
    once and then calls ``_check``, where a record validates itself. A
    missing field, a field given twice, an unknown keyword or too many
    positional arguments raise TypeError. A record equals only a record of
    its own class with equal fields, hashes and prints by its fields, and
    refuses assignment and deletion. Records with cached properties keep an
    instance ``__dict__``; the others store their fields in ``__slots__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        unknown = cls._defaults.keys() - set(cls._fields)
        if unknown:
            raise TypeError(f"{cls.__name__} has defaults for unknown fields {sorted(unknown)}")
        # A C-level getter, so comparing and hashing run no Python frame per
        # field: a round-trip check compares every decoded sequence.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in fields[:len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing required argument {field!r}")
            object.__setattr__(self, field, values[field])
        self._check()

    def _check(self) -> None:
        """Validate the fields once they are set; a record overrides it."""

    def __reduce__(self):
        # pickle and copy rebuild a record through its constructor, which
        # checks it again; cached indexes are left to be rebuilt on use.
        return type(self), tuple(getattr(self, name) for name in self._fields)

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
    id ``i`` is labelled ``str(i)``, as in a DAU vocabulary. Each label is
    one token without whitespace, so files can hold it. Labels that are
    exactly ``"0", "1", ...`` are stored as None, so equal labels make equal
    vocabularies. Nothing is stored per id of an unlabelled vocabulary.
    """

    _fields = ("size", "labels", "boundary")

    def __init__(self, size: int, labels: tuple[str, ...] | None = None, boundary: int | None = None):
        if labels is not None:
            if len(labels) != size - 3:
                raise ValidationError(f"{len(labels)} content labels do not fit a vocabulary of size {size}")
            if " ".join(labels).split() != list(labels):  # no file could hold such a label
                bad = next(label for label in labels if label.split() != [label])
                raise ValidationError(f"label must be one token without whitespace, got {bad!r}")
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
        super().__init__(size, labels, boundary)

    def __len__(self) -> int:
        return self.size

    @property
    def special(self) -> frozenset[int]:
        """The ids of PAD, BOS and EOS: always the last three."""
        return frozenset(range(self.size - 3, self.size))

    @cached_property
    def _surface_to_id(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels + SPECIAL_LABELS)}

    def _lookup(self, label: str) -> int | None:
        """The id ``label`` names, or None: a labelled vocabulary's table
        entry, or else a special's id or a content id spelt as an id."""
        if self.labels is not None:
            return self._surface_to_id.get(label)
        if label in _RESERVED:
            return self.size - 3 + SPECIAL_LABELS.index(label)
        ids = _ids_of([label])
        return ids[0] if ids and 0 <= ids[0] < self.size - 3 else None

    def surface(self, unit_id: int) -> str:
        if not 0 <= unit_id < self.size:
            raise ValidationError(f"unit id {unit_id} outside vocabulary of size {self.size}")
        if unit_id >= self.size - 3:
            return SPECIAL_LABELS[unit_id - self.size]
        return str(unit_id) if self.labels is None else self.labels[unit_id]

    def id_of(self, label: str) -> int:
        uid = self._lookup(label)
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
    (when configured and absent) and the three specials. An empty, reserved
    or repeated label, or one that holds whitespace, the boundary label
    included, is a ValidationError."""
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


def write_lines(dest: str | Path | IO[str], lines: Iterable[str]) -> None:
    """Write each line plus LF to a text stream, or to a UTF-8 file at a path."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            return write_lines(fh, lines)
    for line in lines:
        dest.write(line + "\n")


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


def save_vocabulary(vocabulary: BaseVocabulary, path: str | Path | IO[str]) -> None:
    """Write the content labels of a vocabulary, one per line."""
    write_lines(path, map(vocabulary.surface, vocabulary.content_ids()))


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
    _defaults = {"source": ""}

    def _check(self) -> None:
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


def _ids_of(texts: list[str]) -> tuple[int, ...] | None:
    """The ids ``texts`` spell, or None if one spells no id. An id is spelt
    as ``str`` prints it: ASCII ``0`` or ``[1-9][0-9]*``, after a ``-`` if
    nonzero. So ``+2``, ``1_0``, ``\u0663``, ``05``, ``-0``, ``-05`` and a
    text that ``int`` rejects spell no id."""
    try:
        ids = tuple(map(int, texts))
    except ValueError:
        return None
    return ids if all(map(eq, map(str, ids), texts)) else None


def parse_id_line(line: str, lineno: int) -> tuple[int, ...]:
    """The ids of one line's whitespace-separated tokens (see _ids_of). The
    first token that spells no id raises ParseError naming it and the line."""
    texts = line.split()
    ids = _ids_of(texts)
    for tok in texts if ids is None else ():  # name the first token that spells no id
        try:
            int(tok)
        except ValueError:
            raise ParseError(f"non-integer token {tok!r}", line=lineno) from None
        if _ids_of([tok]) is None:
            raise ParseError(f"non-canonical integer token {tok!r}", line=lineno)
    return ids


def _map_lines(lines: Iterable[str], check: Callable, known: dict[str, object]) -> Iterator[tuple]:
    """Each line's token texts mapped through ``known``. The texts it lacks
    go, as one line in the order they first appear, to ``check(line,
    lineno)``, which returns their values to join ``known`` or raises the
    first fault; it judges each text alone, so that is the line's first."""
    for lineno, line in enumerate(lines, start=1):
        texts = line.split()
        try:
            row = tuple(map(known.__getitem__, texts))
        except KeyError:
            new = list(dict.fromkeys(filterfalse(known.__contains__, texts)))
            known.update(zip(new, check(" ".join(new), lineno)))
            row = tuple(map(known.__getitem__, texts))
        yield row


def _dau_ids(line: str, lineno: int, size: int | None) -> tuple[int, ...]:
    """The ids of one ``dau-int`` line, or its first fault: a token that
    spells no id, then a negative id, then an id past ``size`` or special."""
    ids = parse_id_line(line, lineno)
    for i in ids:
        if i < 0:
            raise ValidationError(f"line {lineno}: negative unit id {i}")
    for i in ids if size is not None else ():
        if i >= size:
            raise ValidationError(f"line {lineno}: unit id {i} outside vocabulary of size {size}")
        if i >= size - 3:  # the specials are the last three ids
            raise ValidationError(f"line {lineno}: id {i} is a reserved special token")
    return ids


def _symbolic_ids(line: str, lineno: int, lookup: Callable[[str], int | None]) -> tuple[int, ...]:
    """The ids of one ``symbolic`` line, or its first label that is reserved
    or that ``lookup`` does not know."""
    ids = []
    for label in line.split():
        if label in _RESERVED:
            raise ValidationError(f"line {lineno}: label {label!r} is a reserved special token")
        if (uid := lookup(label)) is None:
            raise ValidationError(f"line {lineno}: unknown label {label!r}")
        ids.append(uid)
    return tuple(ids)


def read_corpus(
    lines: Iterable[str],
    format: str,
    vocabulary: BaseVocabulary | None = None,
    boundary_label: str | None = DEFAULT_BOUNDARY_LABEL,
    source: str = "",
) -> Corpus:
    """Parse corpus lines (one sequence each) in one pass. See load_corpus."""
    if format not in FORMATS:
        raise ContractError(f"unknown corpus format {format!r}")
    to_id: dict[str, int] = {}
    if format == FORMAT_DAU:
        check = partial(_dau_ids, size=None if vocabulary is None else vocabulary.size)
    elif vocabulary is None:  # each new label takes the next id
        check = partial(_symbolic_ids, lookup=lambda label: to_id.setdefault(label, len(to_id)))
    else:
        if vocabulary.labels is not None:  # the content labels only: a special's must be checked
            to_id.update(zip(vocabulary.labels, count()))
        check = partial(_symbolic_ids, lookup=vocabulary._lookup)
    sequences = tuple(map(UnitSequence, _map_lines(lines, check, to_id)))
    if vocabulary is None and format == FORMAT_DAU:
        vocabulary = dau_vocabulary(max(to_id.values(), default=-1) + 1)
    elif vocabulary is None:  # the labels, in first-appearance order
        vocabulary = symbolic_vocabulary(to_id, boundary_label)
    return Corpus(vocabulary, sequences, source=source)


def load_corpus(
    path: str | Path,
    format: str,
    vocabulary: BaseVocabulary | None = None,
    boundary_label: str | None = DEFAULT_BOUNDARY_LABEL,
) -> Corpus:
    """Load and validate a corpus file.

    For ``dau-int`` without a supplied vocabulary the base vocabulary is
    {0..max_id} plus the three specials; for ``symbolic`` it is inferred in
    first-appearance order. An empty file yields an empty corpus. The first
    bad line is named: a token that spells no id (see _ids_of) or bytes
    that are not UTF-8 raise ParseError; a negative, out-of-range or
    reserved id, or an unknown or reserved label, raise ValidationError.
    """
    return read_corpus(read_lines(path), format, vocabulary, boundary_label, source=str(path))


def unit_label(vocabulary: BaseVocabulary, format: str) -> Callable[[int], str]:
    """The function that renders one unit id of ``vocabulary`` in ``format``:
    a new one per call, which renders all occurrences of an id as one string."""
    if format not in FORMATS:
        raise ContractError(f"unknown corpus format {format!r}")
    if format == FORMAT_DAU:
        return cache(str)
    if vocabulary.labels is None:
        return cache(vocabulary.surface)
    return (vocabulary.labels + SPECIAL_LABELS).__getitem__


def corpus_lines(corpus: Corpus, format: str) -> Iterator[str]:
    """Render corpus sequences back to file lines (without newlines). Ids
    are not checked here: Corpus has checked them against the vocabulary."""
    label = unit_label(corpus.vocabulary, format)
    for seq in corpus.sequences:
        yield " ".join(map(label, seq.units))


def save_corpus(corpus: Corpus, dest: str | Path | IO[str], format: str) -> None:
    """Write a corpus in the given format, one sequence per line, LF endings."""
    write_lines(dest, corpus_lines(corpus, format))


def split_chunks(units: tuple[int, ...], blocked: AbstractSet[int]) -> Iterator[tuple[int, ...]]:
    """The n + 1 runs between the n blocked ids in ``units``, empty runs
    included; interleaved with a lone blocked id, they give ``units`` back."""
    if not blocked or blocked.isdisjoint(units):
        yield units
        return
    start = 0
    for k, uid in enumerate(units):
        if uid in blocked:
            yield units[start:k]
            start = k + 1
    yield units[start:]


class CorpusStats(Record):
    """Length summary of a corpus; mean/min/max are None when empty."""

    __slots__ = _fields = ("sequence_count", "total_units", "mean_length", "min_length", "max_length")


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Sequence count, total units, and mean/min/max sequence length."""
    n = len(corpus.sequences)
    if n == 0:
        return CorpusStats(0, 0, None, None, None)
    lengths = [len(s) for s in corpus.sequences]
    total = sum(lengths)
    return CorpusStats(n, total, total / n, min(lengths), max(lengths))
