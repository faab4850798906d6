"""Synthetic corpus factory: grammar-driven generation plus reversible error injection.

A small slot grammar produces sentences that are grammatical by
construction (number agreement between subject and verb, determiner and
noun). Typed corruptions are then injected with exact inverse edits, so
every corrupted/original pair ships with gold annotations and an oracle
error label. Generation is pure given (seed, index).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, product
from pathlib import Path
from typing import Mapping, Sequence

from numpy.random import default_rng

from .align import InflectionTable, LexiconSet, save_lexicons
from .colacorpus import Corpus, SplitConfig, corpus_stats, merge_corpora
from .errors import ConfigError, InvalidEditSet
from .textcore import (
    CHAR_MIX,
    DET,
    MIX_A,
    MIX_B,
    ORIGIN_SYNTHETIC,
    OTHER,
    PREP,
    PRESETS,
    PUNCT,
    SPELL,
    SVA,
    AnnotatedPair,
    ColaInstance,
    Edit,
    Sentence,
    apply_edits,
    emit_cola_tsv,
    emit_m2,
    write_json,
    write_text,
)

AGREEMENT_BREAK = "agreement_break"
DETERMINER_DROP = "determiner_drop"
PREPOSITION_SWAP = "preposition_swap"
PUNCTUATION_DROP = "punctuation_drop"
TOKEN_SWAP = "token_swap"
CHAR_TYPO = "char_typo"

ERROR_KINDS = (
    AGREEMENT_BREAK,
    DETERMINER_DROP,
    PREPOSITION_SWAP,
    PUNCTUATION_DROP,
    TOKEN_SWAP,
    CHAR_TYPO,
)

KIND_LABELS = {
    AGREEMENT_BREAK: SVA,
    DETERMINER_DROP: DET,
    PREPOSITION_SWAP: PREP,
    PUNCTUATION_DROP: PUNCT,
    TOKEN_SWAP: OTHER,
    CHAR_TYPO: SPELL,
}

DET_SUBJ = "det_subj"
NOUN_SUBJ = "noun_subj"
VERB = "verb"
MODIFIER = "modifier"
PREP_SLOT = "prep"
DET_OBJ = "det_obj"
NOUN_OBJ = "noun_obj"
PUNCT_SLOT = "punct"

_SLOTS = frozenset(
    {DET_SUBJ, NOUN_SUBJ, VERB, MODIFIER, PREP_SLOT, DET_OBJ, NOUN_OBJ, PUNCT_SLOT}
)
_SG, _PL = 0, 1


def _validate_form_pairs(name: str, pairs: Sequence[tuple[str, str]]) -> None:
    for pair in pairs:
        if len(pair) != 2 or not pair[0] or not pair[1] or pair[0] == pair[1]:
            raise ConfigError(f"bad {name} pair {pair!r}")


@dataclass(frozen=True)
class SynthGrammar:
    """Lexicon slots plus production templates.

    ``nouns`` and ``verbs`` hold (singular, plural) surface pairs; the
    verb slot agrees with the subject noun's number, object number is
    drawn independently. ``confusion_prepositions`` and ``typo_forms``
    are corruption inventories: they never appear in generated output
    but belong to the grammar's lexicon so edit classification can see
    them. Templates are sequences of slot names.
    """

    nouns: tuple[tuple[str, str], ...]
    verbs: tuple[tuple[str, str], ...]
    determiners_sg: tuple[str, ...]
    determiners_pl: tuple[str, ...]
    modifiers: tuple[str, ...]
    prepositions: tuple[str, ...]
    confusion_prepositions: tuple[str, ...]
    punctuation: tuple[str, ...]
    templates: tuple[tuple[str, ...], ...]
    typo_forms: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_form_pairs("noun", self.nouns)
        _validate_form_pairs("verb", self.verbs)
        if not self.templates:
            raise ConfigError("grammar needs at least one template")
        for template in self.templates:
            if not template:
                raise ConfigError("empty template")
            for slot in template:
                if slot not in _SLOTS:
                    raise ConfigError(f"unknown template slot {slot!r}")
                if not self._slot_inventory(slot):
                    raise ConfigError(f"template uses empty slot {slot!r}")
        sg = [pair[_SG] for pair in self.nouns]
        pl = [pair[_PL] for pair in self.nouns]
        if set(sg) & set(pl):
            raise ConfigError("a noun surface form appears as both singular and plural")
        if len(set(sg)) != len(sg) or len(set(pl)) != len(pl):
            raise ConfigError("duplicate noun surface form")
        vocabulary = self.vocabulary
        for token, forms in self.typo_forms.items():
            for form in forms:
                if not form:
                    raise ConfigError(f"empty typo form for {token!r}")
                if form in vocabulary:
                    raise ConfigError(f"typo form {form!r} collides with the lexicon")
        for prep in self.confusion_prepositions:
            if prep in vocabulary:
                raise ConfigError(f"confusion preposition {prep!r} collides with the lexicon")

    def _slot_inventory(self, slot: str) -> tuple:
        return {
            DET_SUBJ: self.determiners_sg + self.determiners_pl,
            DET_OBJ: self.determiners_sg + self.determiners_pl,
            NOUN_SUBJ: self.nouns,
            NOUN_OBJ: self.nouns,
            VERB: self.verbs,
            MODIFIER: self.modifiers,
            PREP_SLOT: self.prepositions,
            PUNCT_SLOT: self.punctuation,
        }[slot]

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """Every surface form the grammar can generate."""
        tokens: set[str] = set()
        for pair in self.nouns + self.verbs:
            tokens.update(pair)
        tokens.update(self.determiners_sg, self.determiners_pl, self.modifiers)
        tokens.update(self.prepositions, self.punctuation)
        return frozenset(tokens)

    @cached_property
    def _verb_flip(self) -> dict[str, str]:
        out = {}
        for sg, pl in self.verbs:
            out[sg] = pl
            out[pl] = sg
        return out

    @cached_property
    def _determiners(self) -> frozenset[str]:
        return frozenset(self.determiners_sg + self.determiners_pl)

    def lexicons(self) -> LexiconSet:
        """Export the classification lexicons matching this grammar.

        Nouns are deliberately left out of every set: noun misspellings
        must look out-of-lexicon to classify as spelling errors.
        """
        return LexiconSet(
            punctuation=frozenset(self.punctuation),
            determiners=frozenset(self.determiners_sg + self.determiners_pl),
            prepositions=frozenset(self.prepositions + self.confusion_prepositions),
            morphology=(InflectionTable(SVA, self.verbs),),
        )

    def to_json_dict(self) -> dict:
        return {
            "nouns": [list(p) for p in self.nouns],
            "verbs": [list(p) for p in self.verbs],
            "determiners_sg": list(self.determiners_sg),
            "determiners_pl": list(self.determiners_pl),
            "modifiers": list(self.modifiers),
            "prepositions": list(self.prepositions),
            "confusion_prepositions": list(self.confusion_prepositions),
            "punctuation": list(self.punctuation),
            "templates": [list(t) for t in self.templates],
            "typo_forms": {k: list(v) for k, v in self.typo_forms.items()},
        }


def default_typo_forms(words: Sequence[str], vocabulary: frozenset[str]) -> dict[str, tuple[str, ...]]:
    """Fixed misspellings per word: second char dropped, first two swapped, last doubled.

    A fixed confusion inventory keeps typo correction learnable; forms
    colliding with the vocabulary are discarded.
    """
    out = {}
    for word in words:
        forms = []
        if len(word) >= 3:
            forms.append(word[0] + word[2:])
        if len(word) >= 2 and word[0] != word[1]:
            forms.append(word[1] + word[0] + word[2:])
        forms.append(word + word[-1])
        seen = []
        for form in forms:
            if form != word and form not in vocabulary and form not in seen:
                seen.append(form)
        if seen:
            out[word] = tuple(seen)
    return out


@dataclass(frozen=True)
class ErrorInjectionSpec:
    """Corruption recipe: which kinds, how many per sentence.

    ``kind_weights`` is a distribution over ERROR_KINDS and
    ``count_weights`` over errors-per-sentence counts; both must sum
    to 1.
    """

    grammar: SynthGrammar
    kind_weights: Mapping[str, float]
    count_weights: Mapping[int, float]

    def __post_init__(self) -> None:
        _validate_distribution("kind_weights", self.kind_weights, ERROR_KINDS)
        for count in self.count_weights:
            if not isinstance(count, int) or count < 1:
                raise ConfigError(f"errors-per-sentence count must be a positive int, got {count!r}")
        _validate_distribution("count_weights", self.count_weights, tuple(self.count_weights))

    def to_json_dict(self) -> dict:
        return {
            "kind_weights": dict(self.kind_weights),
            "count_weights": {str(k): v for k, v in self.count_weights.items()},
        }


def _validate_distribution(name: str, weights: Mapping, known: tuple) -> None:
    if not weights:
        raise ConfigError(f"{name} is empty")
    total = 0.0
    for key, value in weights.items():
        if key not in known:
            raise ConfigError(f"{name} has unknown key {key!r}")
        if not value >= 0:  # also rejects NaN
            raise ConfigError(f"{name}[{key!r}] must be >= 0, got {value!r}")
        total += value
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"{name} sums to {total!r}, expected 1")


def _cdf(weights) -> list[float]:
    """The cumulative weights over their total.

    bisect_right(cdf, rng.random()) is the index rng.choice(len(cdf),
    p=weights) draws: the same cumsum, division and one uniform draw,
    with the same stream consumed.
    """
    running = list(accumulate(float(w) for w in weights))
    return [c / running[-1] for c in running]


def _sample_sentence(grammar: SynthGrammar, rng) -> Sentence:
    template = grammar.templates[int(rng.integers(len(grammar.templates)))]
    subj_num = int(rng.integers(2))
    obj_num = int(rng.integers(2))
    dets = (grammar.determiners_sg, grammar.determiners_pl)
    tokens = []
    for slot in template:
        if slot in (DET_SUBJ, DET_OBJ):
            number = subj_num if slot == DET_SUBJ else obj_num
            inventory = dets[number]
            tokens.append(inventory[int(rng.integers(len(inventory)))])
        elif slot in (NOUN_SUBJ, NOUN_OBJ):
            number = subj_num if slot == NOUN_SUBJ else obj_num
            pair = grammar.nouns[int(rng.integers(len(grammar.nouns)))]
            tokens.append(pair[number])
        elif slot == VERB:
            pair = grammar.verbs[int(rng.integers(len(grammar.verbs)))]
            tokens.append(pair[subj_num])
        else:
            inventory = grammar._slot_inventory(slot)
            tokens.append(inventory[int(rng.integers(len(inventory)))])
    return Sentence(tuple(tokens))


@dataclass(frozen=True, slots=True)
class InjectionResult:
    """Corrupted sentence plus the exact edits that undo the corruption."""

    corrupted: Sentence
    gold: tuple[Edit, ...]
    types: tuple[str, ...]
    skipped: bool = False


def _blocked(position: int, claimed: set[int]) -> bool:
    # Claimed positions repel by one token so inverse edits never touch.
    return any(abs(position - c) <= 1 for c in claimed)


def _applicable_positions(
    grammar: SynthGrammar, tokens: tuple[str, ...], kind: str, claimed: set[int]
) -> list[int]:
    punct = set(grammar.punctuation)
    if kind == AGREEMENT_BREAK:
        candidates = [i for i, t in enumerate(tokens) if t in grammar._verb_flip]
    elif kind == DETERMINER_DROP:
        candidates = [i for i, t in enumerate(tokens) if t in grammar._determiners]
    elif kind == PREPOSITION_SWAP:
        if not grammar.confusion_prepositions:
            return []
        candidates = [i for i, t in enumerate(tokens) if t in grammar.prepositions]
    elif kind == PUNCTUATION_DROP:
        candidates = [i for i, t in enumerate(tokens) if t in punct]
    elif kind == TOKEN_SWAP:
        return [
            i
            for i in range(len(tokens) - 1)
            if tokens[i] != tokens[i + 1]
            and tokens[i] not in punct
            and tokens[i + 1] not in punct
            and not _blocked(i, claimed)
            and not _blocked(i + 1, claimed)
        ]
    elif kind == CHAR_TYPO:
        candidates = [i for i, t in enumerate(tokens) if grammar.typo_forms.get(t)]
    else:
        raise ConfigError(f"unknown error kind {kind!r}")
    return [i for i in candidates if not _blocked(i, claimed)]


def inject(
    sentence: Sentence, spec: ErrorInjectionSpec, seed: int | Sequence[int]
) -> InjectionResult:
    """Corrupt a sentence; the returned gold edits reconstruct it exactly.

    Injections never overlap. A sentence offering no applicable position
    for any sampled kind comes back unmodified with ``skipped`` set.
    ``seed`` may be an int or a sequence of ints.
    """
    grammar = spec.grammar
    rng = default_rng(seed)
    kinds = tuple(spec.kind_weights)
    kind_cdf = _cdf(spec.kind_weights.values())
    counts = tuple(spec.count_weights)
    n_errors = int(counts[bisect_right(_cdf(spec.count_weights.values()), rng.random())])

    tokens = sentence.tokens
    claimed: set[int] = set()
    plan: list[tuple[int, str, str | None]] = []
    for _ in range(n_errors):
        kind = kinds[bisect_right(kind_cdf, rng.random())]
        positions = _applicable_positions(grammar, tokens, kind, claimed)
        if not positions:
            continue
        position = positions[int(rng.integers(len(positions)))]
        payload: str | None = None
        if kind == AGREEMENT_BREAK:
            payload = grammar._verb_flip[tokens[position]]
        elif kind == PREPOSITION_SWAP:
            pool = grammar.confusion_prepositions
            payload = pool[int(rng.integers(len(pool)))]
        elif kind == CHAR_TYPO:
            forms = grammar.typo_forms[tokens[position]]
            payload = forms[int(rng.integers(len(forms)))]
        claimed.add(position)
        if kind == TOKEN_SWAP:
            claimed.add(position + 1)
        plan.append((position, kind, payload))

    if not plan:
        return InjectionResult(sentence, (), (), skipped=True)

    plan.sort()
    out: list[str] = []
    gold: list[Edit] = []
    by_position = {position: (kind, payload) for position, kind, payload in plan}
    i = 0
    while i < len(tokens):
        entry = by_position.get(i)
        if entry is None:
            out.append(tokens[i])
            i += 1
            continue
        kind, payload = entry
        label = KIND_LABELS[kind]
        if kind in (AGREEMENT_BREAK, PREPOSITION_SWAP, CHAR_TYPO):
            out.append(payload)
            gold.append(Edit(len(out) - 1, len(out), (tokens[i],), label))
            i += 1
        elif kind in (DETERMINER_DROP, PUNCTUATION_DROP):
            gold.append(Edit(len(out), len(out), (tokens[i],), label))
            i += 1
        else:
            out.append(tokens[i + 1])
            out.append(tokens[i])
            gold.append(Edit(len(out) - 2, len(out), (tokens[i], tokens[i + 1]), label))
            i += 2
    corrupted = Sentence(tuple(out))
    if apply_edits(corrupted, gold).tokens != sentence.tokens:
        raise InvalidEditSet(f"gold edits do not restore {sentence.text!r}")
    return InjectionResult(corrupted, tuple(gold), tuple(e.etype for e in gold), skipped=False)


@dataclass(frozen=True, slots=True)
class SizeConfig:
    """Benchmark section sizes; every section must be non-empty."""

    gec_train: int = 2000
    gec_dev: int = 300
    gec_test: int = 500
    cola_pairs: int = 10000

    def __post_init__(self) -> None:
        for name in ("gec_train", "gec_dev", "gec_test", "cola_pairs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Benchmark:
    """In-memory benchmark: GEC splits, acceptability corpus, manifest."""

    gec_train: tuple[AnnotatedPair, ...]
    gec_dev: tuple[AnnotatedPair, ...]
    gec_test: tuple[AnnotatedPair, ...]
    cola: Corpus
    manifest: dict
    spec: ErrorInjectionSpec


_UNIQUE_ATTEMPT_FACTOR = 60


def _distinct_bound(grammar: SynthGrammar) -> int:
    """Upper bound on distinct sentences: over templates and (subject,
    object) numbers, the product of the inventories _sample_sentence draws."""
    dets = (grammar.determiners_sg, grammar.determiners_pl)
    total = 0
    for template in grammar.templates:
        for subj_num, obj_num in product((_SG, _PL), repeat=2):
            sizes = [
                len(dets[subj_num if slot == DET_SUBJ else obj_num])
                if slot in (DET_SUBJ, DET_OBJ)
                else len(grammar._slot_inventory(slot))
                for slot in template
            ]
            total += math.prod(sizes)
    return total


def _unique_pool(grammar: SynthGrammar, need: int, seed: int) -> list[Sentence]:
    bound = _distinct_bound(grammar)
    if bound < need:
        raise ConfigError(
            f"grammar yields at most {bound} unique sentences of {need}; "
            "enlarge the lexicon or shrink sizes"
        )
    pool: list[Sentence] = []
    seen: set[str] = set()
    cap = _UNIQUE_ATTEMPT_FACTOR * need
    for i in range(cap):
        if len(pool) >= need:
            break
        sentence = _sample_sentence(grammar, default_rng([seed, 0, i]))
        if sentence.text not in seen:
            seen.add(sentence.text)
            pool.append(sentence)
    if len(pool) < need:
        raise ConfigError(
            f"grammar yielded only {len(pool)} unique sentences of {need} "
            f"after {cap} attempts; enlarge the lexicon or shrink sizes"
        )
    return pool


def make_benchmark(spec: ErrorInjectionSpec, sizes: SizeConfig, seed: int = 0) -> Benchmark:
    """Build disjoint GEC splits and a balanced acceptability corpus from
    spec.grammar's sentences, corrupted as spec says.

    One unique sentence pool backs everything, so GEC test sentences
    never appear in train/dev and acceptability pairs never repeat.
    Each pair contributes one unacceptable (corrupted) and one
    acceptable (original) instance; skipped injections contribute
    nothing, which keeps the label balance exact before deduplication.
    """
    gec_total = sizes.gec_train + sizes.gec_dev + sizes.gec_test
    pool = _unique_pool(spec.grammar, gec_total + sizes.cola_pairs, seed)

    results = [inject(sentence, spec, seed=[seed, 1, j]) for j, sentence in enumerate(pool)]
    error_counts = Counter(label for result in results for label in result.types)
    sections = {}
    skipped_counts = {}
    offset = 0
    for name, size in (
        ("train", sizes.gec_train),
        ("dev", sizes.gec_dev),
        ("test", sizes.gec_test),
    ):
        part = results[offset : offset + size]
        # A skipped injection returns its sentence unchanged: an identity pair.
        sections[name] = tuple(AnnotatedPair.from_edits(r.corrupted, r.gold) for r in part)
        skipped_counts[name] = sum(r.skipped for r in part)
        offset += size

    instances: list[ColaInstance] = []
    for sentence, result in zip(pool[offset:], results[offset:]):
        if not result.skipped:
            instances.append(ColaInstance(result.corrupted, 0, ORIGIN_SYNTHETIC))
            instances.append(ColaInstance(sentence, 1, ORIGIN_SYNTHETIC))
    cola_skipped = sum(result.skipped for result in results[offset:])
    cola = merge_corpora(
        {"synthetic": instances}, split=SplitConfig(), seed=seed, dedupe=True, balance=False
    )

    total_errors = sum(error_counts.values())
    manifest = {
        "seed": seed,
        "sizes": {
            "gec_train": sizes.gec_train,
            "gec_dev": sizes.gec_dev,
            "gec_test": sizes.gec_test,
            "cola_pairs": sizes.cola_pairs,
        },
        "gec": {
            name: {
                "pairs": len(sections[name]),
                "skipped": skipped_counts[name],
                "edits": sum(len(p.canonical_edits) for p in sections[name]),
            }
            for name in ("train", "dev", "test")
        },
        "cola": {
            "pairs_kept": len(instances) // 2,
            "skipped": cola_skipped,
            "stats": corpus_stats(cola),
            "meta": cola.meta,
        },
        "error_counts": dict(sorted(error_counts.items())),
        "error_fractions": {
            label: count / total_errors for label, count in sorted(error_counts.items())
        },
        "punct_fraction": error_counts.get(PUNCT, 0) / total_errors if total_errors else 0.0,
        "kind_weights": dict(spec.kind_weights),
        "count_weights": {str(k): v for k, v in spec.count_weights.items()},
    }
    return Benchmark(
        gec_train=sections["train"],
        gec_dev=sections["dev"],
        gec_test=sections["test"],
        cola=cola,
        manifest=manifest,
        spec=spec,
    )


def write_benchmark(benchmark: Benchmark, out_dir: str | Path) -> dict[str, str]:
    """Write M2 splits, acceptability TSVs, lexicons, and the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in ("train", "dev", "test"):
        path = out / f"gec_{name}.m2"
        write_text(path, emit_m2(getattr(benchmark, f"gec_{name}")))
        paths[f"gec_{name}"] = str(path)
        cola_path = out / f"cola_{name}.tsv"
        write_text(cola_path, emit_cola_tsv(benchmark.cola.split(name)))
        paths[f"cola_{name}"] = str(cola_path)
    manifest_path = out / "manifest.json"
    write_json(manifest_path, benchmark.manifest)
    paths["manifest"] = str(manifest_path)
    lex_dir = out / "lexicons"
    save_lexicons(benchmark.spec.grammar.lexicons(), lex_dir)
    paths["lexicons"] = str(lex_dir)
    grammar_path = out / "grammar.json"
    write_json(grammar_path, benchmark.spec.grammar.to_json_dict())
    paths["grammar"] = str(grammar_path)
    spec_path = out / "injection.json"
    write_json(spec_path, benchmark.spec.to_json_dict())
    paths["injection"] = str(spec_path)
    return paths


# --- presets ---------------------------------------------------------------

_WORD_NOUNS = (
    ("dog", "dogs"),
    ("cat", "cats"),
    ("bird", "birds"),
    ("house", "houses"),
    ("tree", "trees"),
    ("car", "cars"),
    ("road", "roads"),
    ("table", "tables"),
    ("garden", "gardens"),
    ("river", "rivers"),
    ("window", "windows"),
    ("door", "doors"),
)
_WORD_VERBS = (("is", "are"), ("was", "were"))
_WORD_MODIFIERS = (
    "running",
    "sleeping",
    "barking",
    "waiting",
    "hiding",
    "jumping",
    "singing",
    "eating",
    "drinking",
    "playing",
)
_WORD_TEMPLATES = (
    (DET_SUBJ, NOUN_SUBJ, VERB, MODIFIER, PREP_SLOT, DET_OBJ, NOUN_OBJ, PUNCT_SLOT),
    (DET_SUBJ, NOUN_SUBJ, VERB, PREP_SLOT, DET_OBJ, NOUN_OBJ, PUNCT_SLOT),
)

# Kind distributions are tuned so the punctuation share of injected
# errors lands near 0.076 (mix A) and 0.167 (mix B).
_MIX_A_WEIGHTS = {
    AGREEMENT_BREAK: 0.24,
    DETERMINER_DROP: 0.24,
    PREPOSITION_SWAP: 0.12,
    PUNCTUATION_DROP: 0.076,
    TOKEN_SWAP: 0.18,
    CHAR_TYPO: 0.144,
}
_MIX_B_WEIGHTS = {
    AGREEMENT_BREAK: 0.21,
    DETERMINER_DROP: 0.21,
    PREPOSITION_SWAP: 0.11,
    PUNCTUATION_DROP: 0.167,
    TOKEN_SWAP: 0.16,
    CHAR_TYPO: 0.143,
}
_COUNT_WEIGHTS = {1: 0.8, 2: 0.2}


def _word_grammar(punctuation: tuple[str, ...]) -> SynthGrammar:
    base = SynthGrammar(
        nouns=_WORD_NOUNS,
        verbs=_WORD_VERBS,
        determiners_sg=("the", "a"),
        determiners_pl=("the", "some"),
        modifiers=_WORD_MODIFIERS,
        prepositions=("near", "with"),
        confusion_prepositions=("about", "under", "between"),
        punctuation=punctuation,
        templates=_WORD_TEMPLATES,
    )
    surfaces = [form for pair in _WORD_NOUNS for form in pair]
    return replace(base, typo_forms=default_typo_forms(surfaces, base.vocabulary))


def _char_grammar() -> SynthGrammar:
    return SynthGrammar(
        nouns=(("a", "A"), ("b", "B"), ("c", "C"), ("d", "D"), ("e", "E")),
        verbs=(("h", "H"), ("i", "I")),
        determiners_sg=("f",),
        determiners_pl=("g",),
        modifiers=("j", "k", "l"),
        prepositions=("m", "n"),
        confusion_prepositions=("o", "p"),
        punctuation=("!",),
        templates=_WORD_TEMPLATES,
        typo_forms={
            "a": ("u",),
            "A": ("U",),
            "b": ("v",),
            "B": ("V",),
            "c": ("w",),
            "C": ("W",),
            "d": ("x",),
            "D": ("X",),
            "e": ("y",),
            "E": ("Y",),
        },
    )


def make_preset(name: str) -> ErrorInjectionSpec:
    """Build one of the shipped benchmark presets.

    mix_a is punctuation-light, mix_b punctuation-heavy with a wider
    punctuation inventory (so its punctuation is out-of-distribution
    for models trained on mix_a), char_mix generates single-character
    tokens with the mix_a error profile.
    """
    if name == MIX_A:
        grammar = _word_grammar((".",))
        weights = _MIX_A_WEIGHTS
    elif name == MIX_B:
        grammar = _word_grammar((".", "!", "?"))
        weights = _MIX_B_WEIGHTS
    elif name == CHAR_MIX:
        grammar = _char_grammar()
        weights = _MIX_A_WEIGHTS
    else:
        raise ConfigError(f"unknown preset {name!r}, expected one of {', '.join(PRESETS)}")
    return ErrorInjectionSpec(grammar=grammar, kind_weights=weights, count_weights=dict(_COUNT_WEIGHTS))
