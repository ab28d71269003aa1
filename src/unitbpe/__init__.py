"""Pair-merge tokenization for discrete unit corpora.

Train byte-pair-style merge vocabularies over quantized acoustic unit or
phoneme sequences, apply and invert them losslessly, and measure what the
re-tokenization does to sequence length, distribution balance, and
downstream error trade-offs.

The tokenizer core (``bpe``, ``codec``, ``corpus``, ``errors``) loads with
the package. The analyses (``metrics``), the reference implementations
(``oracle``) and the synthetic generators (``synth``) load on first use of
one of their names, so a process that only trains or applies tables never
pays for them.
"""

from importlib import import_module

from .bpe import (
    Merge,
    MergeTable,
    TrainOptions,
    load_merge_table,
    parse_merge_table,
    save_merge_table,
    train,
)
from .codec import EncodedCorpus, TokenSequence, decode, encode, encode_corpus
from .corpus import (
    BaseVocabulary,
    Corpus,
    CorpusStats,
    UnitSequence,
    corpus_stats,
    dau_vocabulary,
    load_corpus,
    load_vocabulary,
    read_corpus,
    save_corpus,
    save_vocabulary,
    symbolic_vocabulary,
)
from .errors import ContractError, ParseError, UnitBpeError, ValidationError

__version__ = "0.1.0"

# Public names of the modules loaded on first use, by module.
_LAZY = {
    "metrics": (
        "AnalysisReport", "Distribution", "EditDistance", "analyze", "bit_increase",
        "compression", "corpus_run_length_mean", "edge_case_probability", "edit_distance",
        "entropy", "error_rate", "normalized_entropy", "reduction", "token_distribution",
    ),
    "oracle": ("naive_encode", "naive_train", "pair_counts"),
    "synth": ("RunLengthSpec", "SplitMix64", "ZipfSpec", "gen_runlength_corpus", "gen_zipf_corpus"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULE})


# The public names: every name imported above from a submodule, and the lazy ones.
__all__ = [
    *sorted(name for name, value in globals().items() if getattr(value, "__module__", "").startswith("unitbpe.")),
    *_LAZY_MODULE,
]
