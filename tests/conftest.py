"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.baselines.naive import naive_search

#: The paper's running example target (Sec. III, Fig. 1): s = acagaca.
PAPER_TARGET = "acagaca"

#: The paper's Sec. IV pattern searched with k = 2 (Fig. 3).
PAPER_PATTERN = "tcaca"

#: The paper's Sec. I example.
INTRO_TARGET = "ccacacagaagcc"
INTRO_PATTERN = "aaaaacaaac"


def random_dna(rng: random.Random, length: int, alphabet: str = "acgt") -> str:
    """A uniform random string over ``alphabet``."""
    return "".join(rng.choice(alphabet) for _ in range(length))


def reference_occurrences(text: str, pattern: str, k: int):
    """Ground-truth ``(start, mismatches)`` pairs from the naive scan."""
    return [(o.start, o.mismatches) for o in naive_search(text, pattern, k)]


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for randomized tests."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def repeat_text() -> str:
    """A repeat-heavy DNA string that exercises Algorithm A's reuse path."""
    rnd = random.Random(99)
    unit = random_dna(rnd, 20)
    parts = []
    for _ in range(40):
        copy = list(unit)
        for i in range(len(copy)):
            if rnd.random() < 0.05:
                copy[i] = rnd.choice("acgt")
        parts.append("".join(copy))
    return "".join(parts)


@pytest.fixture
def force_pool(monkeypatch):
    """Send every ``workers > 1`` batch of two or more items to the
    process pool, on ``min(workers, items)`` workers.

    Pool tests use batches too small for the break-even rule; here one
    item per worker suffices, and the host's CPU count does not cap the
    pool, so the tests drive the same pool on any host.
    """
    from repro.engine import executor

    monkeypatch.setattr(executor, "MIN_ITEMS_PER_WORKER", 1)
    monkeypatch.setattr(executor, "usable_cpus", lambda: 1 << 10)
