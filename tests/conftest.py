"""Shared corpus of input functions used across the test modules."""

from __future__ import annotations

import copy
import signal
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from loopsing.cli import parse_function
from loopsing.loopfun import InputFunction


@dataclass(frozen=True)
class CorpusEntry:
    source: str
    d: int
    delta: int
    mu: int


# Homogeneous polynomials with isolated singularity at the origin; mu is the
# Milnor number (delta-1)^d.
CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("z^2", d=1, delta=2, mu=1),
    CorpusEntry("z^3", d=1, delta=3, mu=2),
    CorpusEntry("z^5", d=1, delta=5, mu=4),
    CorpusEntry("x^2 + y^2", d=2, delta=2, mu=1),
    CorpusEntry("x^3 + y^3", d=2, delta=3, mu=4),
    CorpusEntry("x^4 + y^4", d=2, delta=4, mu=9),
    CorpusEntry("x^2 + y^2 + w^2", d=3, delta=2, mu=1),
    CorpusEntry("x^3 + y^3 + w^3", d=3, delta=3, mu=8),
)

# Homogeneous but with positive-dimensional singular locus.
NON_ISOLATED_SOURCES: tuple[str, ...] = (
    "x^2*y",
    "x^3*y + x^2*y^2",
)

_FERMAT_NAMES = ("x", "y", "w")


def fermat_source(d: int, delta: int) -> str:
    if d == 1:
        return f"z^{delta}"
    return " + ".join(f"{name}^{delta}" for name in _FERMAT_NAMES[:d])


def build(source: str) -> InputFunction:
    return parse_function(source)


@pytest.fixture(params=CORPUS, ids=lambda entry: entry.source)
def corpus_entry(request) -> CorpusEntry:
    return request.param


@pytest.fixture
def corpus_function(corpus_entry) -> InputFunction:
    return build(corpus_entry.source)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError inside the block once `seconds` have passed.

    Guards tests of inputs that used to run without bound; it relies on
    SIGALRM, so it works in the main thread of a Unix process.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


DELETE = object()


def edited(document, path, value):
    """A deep copy of `document` with the entry at `path` set to `value`.

    The last step of `path` may be a key, an index or a slice; `value` DELETE
    removes the entry.
    """
    document = copy.deepcopy(document)
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return document
