"""Building binary acceptability corpora from correction data.

Correction pairs are mined for labeled instances (source sentences that
needed edits are unacceptable, their references acceptable), merged with
other corpora under an exact-duplicate policy, and split deterministically.
Instances mined from correction data never enter the test split.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import ConfigError
from .textcore import (
    ORIGIN_GEC_SOURCE,
    ORIGIN_GEC_TARGET,
    ORIGIN_LINGUISTICS,
    ORIGIN_SYNTHETIC,
    AnnotatedPair,
    ColaInstance,
)

# Origins that may appear in the test split.
_TEST_SAFE_ORIGINS = frozenset({ORIGIN_LINGUISTICS, ORIGIN_SYNTHETIC})


@dataclass(frozen=True, slots=True)
class FilterConfig:
    """Length and edit-count gates for mining correction pairs."""

    min_len: int = 3
    max_len: int = 80
    max_edits: int = 10

    def __post_init__(self) -> None:
        if not (1 <= self.min_len <= self.max_len):
            raise ConfigError(f"need 1 <= min_len <= max_len, got ({self.min_len}, {self.max_len})")
        if self.max_edits < 1:
            raise ConfigError(f"max_edits must be >= 1, got {self.max_edits}")


@dataclass(frozen=True, slots=True)
class SplitConfig:
    """Dev and test fractions of the merged corpus; train takes the rest."""

    dev: float = 0.1
    test: float = 0.1

    def __post_init__(self) -> None:
        for name in ("dev", "test"):
            value = getattr(self, name)
            if not value >= 0:  # also rejects NaN
                raise ConfigError(f"split fraction {name} must be >= 0, got {value}")
        if self.dev + self.test > 1.0:
            raise ConfigError(f"dev and test fractions sum to {self.dev + self.test} > 1")


@dataclass(frozen=True, slots=True)
class Corpus:
    train: tuple[ColaInstance, ...]
    dev: tuple[ColaInstance, ...]
    test: tuple[ColaInstance, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.train) + len(self.dev) + len(self.test)

    def split(self, name: str) -> tuple[ColaInstance, ...]:
        if name not in ("train", "dev", "test"):
            raise ConfigError(f"unknown split {name!r}")
        return getattr(self, name)


def build_cola_from_gec(pairs: Iterable[AnnotatedPair], filters: FilterConfig) -> list[ColaInstance]:
    """Mine labeled instances from correction pairs.

    Each pair that passes the gates and carries at least one canonical gold
    edit yields its source labeled 0 and its target labeled 1. Pairs whose
    reference equals the source teach nothing about the boundary and are
    dropped entirely.
    """
    instances: list[ColaInstance] = []
    for pair in pairs:
        edits = pair.canonical_edits
        if not edits:
            continue
        if not (filters.min_len <= len(pair.source) <= filters.max_len):
            continue
        if len(edits) > filters.max_edits:
            continue
        instances.append(ColaInstance(pair.source, 0, ORIGIN_GEC_SOURCE))
        instances.append(ColaInstance(pair.target, 1, ORIGIN_GEC_TARGET))
    return instances


def _dedupe(
    instances: Sequence[ColaInstance],
) -> tuple[list[ColaInstance], int, int]:
    """Exact-duplicate removal keeping the first occurrence.

    A duplicate whose label differs from the kept one counts as a conflict.
    """
    kept: dict[str, ColaInstance] = {}
    removed = 0
    conflicts = 0
    for inst in instances:
        key = inst.sentence.text
        existing = kept.get(key)
        if existing is None:
            kept[key] = inst
            continue
        removed += 1
        conflicts += existing.label != inst.label
    return list(kept.values()), removed, conflicts


def _balance(instances: list[ColaInstance], rng: random.Random) -> list[ColaInstance]:
    by_label = {0: [], 1: []}
    for inst in instances:
        by_label[inst.label].append(inst)
    n = min(len(by_label[0]), len(by_label[1]))
    out: list[ColaInstance] = []
    for label in (0, 1):
        group = by_label[label]
        if len(group) > n:
            keep = set(rng.sample(range(len(group)), n))
            group = [inst for i, inst in enumerate(group) if i in keep]
        out.extend(group)
    return out


def merge_corpora(
    parts: Mapping[str, Sequence[ColaInstance]],
    split: SplitConfig,
    seed: int = 0,
    dedupe: bool = True,
    balance: bool = False,
) -> Corpus:
    """Merge named instance lists and split them deterministically.

    GEC-origin instances are confined to train/dev; the test split draws
    only from linguistics and synthetic material.
    """
    merged: list[ColaInstance] = []
    for name in parts:
        merged.extend(parts[name])
    removed = conflicts = 0
    if dedupe:
        merged, removed, conflicts = _dedupe(merged)
    rng = random.Random(seed)
    if balance:
        merged = _balance(merged, rng)
    eligible = [inst for inst in merged if inst.origin in _TEST_SAFE_ORIGINS]
    confined = [inst for inst in merged if inst.origin not in _TEST_SAFE_ORIGINS]
    rng.shuffle(eligible)
    rng.shuffle(confined)
    total = len(merged)
    n_test = min(round(split.test * total), len(eligible))
    test = eligible[:n_test]
    rest = eligible[n_test:] + confined
    rng.shuffle(rest)
    n_dev = min(round(split.dev * total), len(rest))
    dev = rest[:n_dev]
    train = rest[n_dev:]
    meta = {
        "seed": seed,
        "dedupe": dedupe,
        "balance": balance,
        "duplicates_removed": removed,
        "label_conflicts": conflicts,
        "parts": {name: len(parts[name]) for name in parts},
    }
    return Corpus(tuple(train), tuple(dev), tuple(test), meta)


def corpus_stats(corpus: Corpus) -> dict[str, dict[str, dict[str, int]]]:
    """Nested counts: split -> label -> origin -> count."""
    stats: dict[str, dict[str, dict[str, int]]] = {}
    for split_name in ("train", "dev", "test"):
        split_stats: dict[str, dict[str, int]] = {}
        for inst in corpus.split(split_name):
            label_stats = split_stats.setdefault(str(inst.label), {})
            label_stats[inst.origin] = label_stats.get(inst.origin, 0) + 1
        stats[split_name] = split_stats
    return stats
