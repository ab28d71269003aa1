"""The public records: immutable plain classes that compare, hash and print
by their fields, constructed by position or keyword with fixed defaults."""

import copy
import pickle

import pytest

import unitbpe
from unitbpe import Merge, TokenSequence, UnitSequence, dau_vocabulary, encode
from unitbpe.corpus import Record

VOCAB = dau_vocabulary(2)  # units 0 and 1, specials 2-4
REPORT = dict(
    n_hat=3.0, k_hat=2.0, reduction=1.5, bit_increase=1.2, compression=1.25,
    balance_before=0.5, balance_after=0.4, run_length_mean=1.0, base_vocab=5, token_vocab=6,
)

# name: (required fields, defaulted fields with their defaults, one field
# changed to another valid value), every dict in constructor order.
RECORDS = {
    "BaseVocabulary": ({"size": 5}, {"labels": None, "boundary": None}, {"boundary": 1}),
    "UnitSequence": ({"units": (0, 1, 0)}, {}, {"units": (1,)}),
    "Corpus": (
        {"vocabulary": VOCAB, "sequences": (UnitSequence((0, 1, 0)),)}, {"source": ""}, {"source": "c.txt"}
    ),
    "CorpusStats": (
        {"sequence_count": 1, "total_units": 3, "mean_length": 3.0, "min_length": 3, "max_length": 3},
        {},
        {"max_length": 4},
    ),
    "TrainOptions": ({"target_size": 9}, {"respect_boundaries": True, "min_pair_count": 2}, {"min_pair_count": 3}),
    "MergeTable": ({"base": VOCAB, "merges": (Merge(0, 0, 1, 5),)}, {}, {"merges": ()}),
    "TokenSequence": ({"tokens": (5, 0)}, {}, {"tokens": (5,)}),
    "EncodedCorpus": (
        {"sequences": (TokenSequence((5, 0)),), "total_units": 3, "total_tokens": 2}, {}, {"total_tokens": 3}
    ),
    "Distribution": ({"mass": {0: 0.5, 1: 0.5}, "support_size": 5}, {}, {"support_size": 6}),
    "AnalysisReport": (REPORT, {}, {"token_vocab": 7}),
    "ZipfSpec": (
        {"seed": 1, "vocab_size": 4, "num_sequences": 2, "mean_length": 3, "exponent": 1.0}, {}, {"seed": 2}
    ),
    "RunLengthSpec": (
        {"seed": 1, "clusters": 4, "num_sequences": 2, "mean_length": 3, "mean_run": 2.0},
        {"transition_skew": 0.0},
        {"transition_skew": 1.0},
    ),
}


def test_every_public_record_is_covered():
    public = {n for n in unitbpe.__all__ if isinstance(getattr(unitbpe, n), type)}
    assert {n for n in public if issubclass(getattr(unitbpe, n), Record)} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    # getattr also resolves the records of the modules loaded on first use.
    cls = getattr(unitbpe, name)
    required, defaults, changed = RECORDS[name]
    fields = {**required, **defaults}
    assert cls._fields == tuple(fields)

    # By keyword with the defaults, and by position in field order.
    record = cls(**required)
    assert {f: getattr(record, f) for f in fields} == fields
    same = cls(*fields.values())
    assert record == same and not record != same
    assert record._asdict() == fields
    try:
        hash(tuple(fields.values()))
    except TypeError:
        # A dict field (Distribution.mass) makes the record unhashable.
        pytest.raises(TypeError, hash, record)
    else:
        assert hash(record) == hash(same)
    assert record != cls(**{**fields, **changed})

    # Never equal to another class with the same values, a subclass included.
    twin = type(name, (cls,), {})(**required)
    assert record != twin and twin != record
    assert record.__eq__(twin) is NotImplemented
    assert record != tuple(fields.values())

    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == same

    assert repr(record) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_wrong_arguments_raise_type_error(name):
    # The records with their own __init__ get the interpreter's wording,
    # which names the class and the argument too.
    cls = getattr(unitbpe, name)
    required, defaults, _ = RECORDS[name]
    fields = {**required, **defaults}
    first = next(iter(required))
    for args, kwargs, text in (
        ((*fields.values(), 0), {}, "arguments but"),
        ((required[first],), {**required}, f"multiple values for argument {first!r}"),
        ((), {f: v for f, v in required.items() if f != first}, f"missing .*argument:? {first!r}"),
        ((), {**required, "other": 0}, "unexpected keyword argument 'other'"),
    ):
        with pytest.raises(TypeError, match=rf"^{name}(\.__init__)?\(\) .*{text}"):
            cls(*args, **kwargs)


def test_defaults_must_name_fields():
    with pytest.raises(TypeError, match="Bad has defaults for unknown fields"):
        type("Bad", (Record,), {"_fields": ("a",), "_defaults": {"b": 1}})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_copy_round_trip(name):
    cls = getattr(unitbpe, name)
    required, _, changed = RECORDS[name]
    for record in (cls(**required), cls(**{**required, **changed})):
        for back in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(back) is cls
            assert back == record


def test_pickled_table_rebuilds_its_cached_indexes():
    table = unitbpe.MergeTable(VOCAB, (Merge(0, 0, 1, 5),))
    tokens = encode(UnitSequence((0, 1, 0)), table)
    for back in (pickle.loads(pickle.dumps(table)), copy.copy(table), copy.deepcopy(table)):
        assert "_encoder" not in vars(back) and "_expansions" not in vars(back)
        assert encode(UnitSequence((0, 1, 0)), back) == tokens
