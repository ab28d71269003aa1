"""Shared builders for randomized corpora and merge tables, plus the
acceptance summary hook."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from unitbpe import BaseVocabulary, Corpus, Merge, MergeTable, UnitSequence, symbolic_vocabulary

_acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance gate's one-line-per-criterion results."""
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture()
def acceptance_report():
    """Collector for the acceptance gate's PASS lines."""
    return _acceptance_lines.append


def random_corpus(
    rng: random.Random,
    with_boundary: bool,
    max_sequences: int = 50,
    max_length: int = 30,
    max_content: int = 9,
) -> Corpus:
    """A small corpus over a letter vocabulary, optionally with a boundary
    unit mixed into the sequences."""
    n_content = rng.randint(2, max_content)
    labels = [f"u{i}" for i in range(n_content)]
    vocab = symbolic_vocabulary(labels, boundary_label="_" if with_boundary else None)
    content = vocab.content_ids()
    sequences = []
    for _ in range(rng.randint(0, max_sequences)):
        length = rng.randint(0, max_length)
        sequences.append(UnitSequence(tuple(rng.choice(content) for _ in range(length))))
    return Corpus(vocab, tuple(sequences))


def random_sequence(rng: random.Random, vocab: BaseVocabulary, max_length: int = 30) -> UnitSequence:
    content = vocab.content_ids()
    return UnitSequence(tuple(rng.choice(content) for _ in range(rng.randint(0, max_length))))


@st.composite
def untrained_tables(draw, max_content=5, max_merges=16, vocabularies=None, recent=0):
    """Any valid MergeTable: dense ranks, both sides defined before the
    result, no special or boundary unit merged, no pair twice. Most of these
    are tables no training run would produce. ``vocabularies`` maps the
    number of content units to a strategy for the base; by default it is
    labelled u0, u1, ... and has no boundary. With ``recent``, a half is
    also often one of the last ``recent`` results, so deep surfaces spell
    the same merged id many times, as the doubling and Fibonacci shapes do."""
    content = draw(st.integers(1, max_content))
    if vocabularies is None:
        vocab = symbolic_vocabulary([f"u{i}" for i in range(content)], boundary_label=None)
    else:
        vocab = draw(vocabularies(content))
    base = len(vocab)
    merges: list[Merge] = []
    for _ in range(draw(st.integers(0, max_merges))):
        results = list(range(base, base + len(merges)))
        usable = st.sampled_from(list(range(content)) + results)
        if recent and results:
            usable = st.one_of(usable, st.sampled_from(results[-recent:]))
        pair = (draw(usable), draw(usable))
        if pair not in {(m.left, m.right) for m in merges}:
            merges.append(Merge(len(merges), pair[0], pair[1], base + len(merges)))
    return MergeTable(vocab, tuple(merges))
