"""Token alignment, edit merging, and rule-based error typing.

Alignment is a cost-minimizing edit script between two token sequences,
Damerau style: match, substitute, insert, delete, plus transposition of two
adjacent swapped tokens. Substitution cost reflects character-level
similarity so that near-identical tokens align to each other instead of
being dropped and re-inserted. The minimal script is turned into span edits
and each edit is typed by a first-match-wins rule cascade over small
lexicons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .errors import ConfigError, FormatError, InvalidEditSet
from .textcore import (
    DET,
    ORTH,
    OTHER,
    PREP,
    PUNCT,
    SPELL,
    UNTYPED,
    Edit,
    Sentence,
    apply_edits,
)

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"
TRANSPOSE = "transpose"
OP_KINDS = (MATCH, SUBSTITUTE, INSERT, DELETE, TRANSPOSE)


@lru_cache(maxsize=262144)
def char_edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance between two strings (unit costs)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


# Damerau costs. A substitution costs SUBSTITUTE_BASE + (1 - similarity) *
# SUBSTITUTE_SCALE, where similarity is 1 - charEditDistance / max(token
# lengths); one that only changes letter case costs CASE_SUBSTITUTE_COST.
MATCH_COST = 0.0
DELETE_COST = 1.0
INSERT_COST = 1.0
TRANSPOSE_COST = 0.9
CASE_SUBSTITUTE_COST = 0.25
SUBSTITUTE_BASE = 1.0
SUBSTITUTE_SCALE = 0.5


def substitute_cost(a: str, b: str) -> float:
    """Cost of aligning token ``a`` to a different token ``b``."""
    if a != b and a.lower() == b.lower():
        return CASE_SUBSTITUTE_COST
    distance = char_edit_distance(a, b)
    similarity = 1.0 - distance / max(len(a), len(b))
    return SUBSTITUTE_BASE + (1.0 - similarity) * SUBSTITUTE_SCALE


@dataclass(frozen=True, slots=True)
class AlignOp:
    """One step of an alignment; spans are half-open token ranges."""

    kind: str
    src_span: tuple[int, int]
    tgt_span: tuple[int, int]
    cost: float

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise InvalidEditSet(f"unknown op kind {self.kind!r}")
        if not (math.isfinite(self.cost) and self.cost >= 0):
            raise InvalidEditSet(f"bad op cost {self.cost!r}")
        src_n = self.src_span[1] - self.src_span[0]
        tgt_n = self.tgt_span[1] - self.tgt_span[0]
        expected = {MATCH: (1, 1), SUBSTITUTE: (1, 1), INSERT: (0, 1),
                    DELETE: (1, 0), TRANSPOSE: (2, 2)}[self.kind]
        if (src_n, tgt_n) != expected:
            raise InvalidEditSet(f"{self.kind} op with spans {self.src_span}/{self.tgt_span}")
        if self.kind == MATCH and self.cost != 0.0:
            raise InvalidEditSet(f"match op with nonzero cost {self.cost}")


@dataclass(frozen=True, slots=True)
class Alignment:
    source: Sentence
    target: Sentence
    ops: tuple[AlignOp, ...]
    cost: float


def align_tokens(source: Sentence, target: Sentence) -> Alignment:
    """Minimal-cost alignment between two sentences.

    Ties are broken by op preference match > substitute > transpose >
    delete > insert, applied left to right, so the result is deterministic.
    """
    src, tgt = source.tokens, target.tokens
    n, m = len(src), len(tgt)
    # best[i][j] = minimal cost of aligning src[i:] with tgt[j:]
    best = [[0.0] * (m + 1) for _ in range(n + 1)]
    for j in range(m - 1, -1, -1):
        best[n][j] = best[n][j + 1] + INSERT_COST
    for i in range(n - 1, -1, -1):
        best[i][m] = best[i + 1][m] + DELETE_COST
        row, below = best[i], best[i + 1]
        for j in range(m - 1, -1, -1):
            if src[i] == tgt[j]:
                value = below[j + 1] + MATCH_COST
            else:
                value = below[j + 1] + substitute_cost(src[i], tgt[j])
            if (i + 1 < n and j + 1 < m and src[i] == tgt[j + 1] and src[i + 1] == tgt[j]):
                value = min(value, best[i + 2][j + 2] + TRANSPOSE_COST)
            value = min(value, below[j] + DELETE_COST, row[j + 1] + INSERT_COST)
            row[j] = value
    ops: list[AlignOp] = []
    i = j = 0
    while i < n or j < m:
        here = best[i][j]
        if i < n and j < m and src[i] == tgt[j] and here == best[i + 1][j + 1] + MATCH_COST:
            ops.append(AlignOp(MATCH, (i, i + 1), (j, j + 1), MATCH_COST))
            i, j = i + 1, j + 1
            continue
        if i < n and j < m and src[i] != tgt[j] and here == best[i + 1][j + 1] + substitute_cost(src[i], tgt[j]):
            ops.append(AlignOp(SUBSTITUTE, (i, i + 1), (j, j + 1), substitute_cost(src[i], tgt[j])))
            i, j = i + 1, j + 1
            continue
        if (i + 1 < n and j + 1 < m and src[i] == tgt[j + 1] and src[i + 1] == tgt[j]
                and here == best[i + 2][j + 2] + TRANSPOSE_COST):
            ops.append(AlignOp(TRANSPOSE, (i, i + 2), (j, j + 2), TRANSPOSE_COST))
            i, j = i + 2, j + 2
            continue
        if i < n and here == best[i + 1][j] + DELETE_COST:
            ops.append(AlignOp(DELETE, (i, i + 1), (j, j), DELETE_COST))
            i += 1
            continue
        if j < m and here == best[i][j + 1] + INSERT_COST:
            ops.append(AlignOp(INSERT, (i, i), (j, j + 1), INSERT_COST))
            j += 1
            continue
        raise AssertionError("alignment backtrace lost the optimal path")
    return Alignment(source, target, tuple(ops), best[0][0])


def merge_alignment(alignment: Alignment) -> list[Edit]:
    """Turn alignment ops into untyped edits.

    Maximal runs of consecutive non-match ops coalesce into one edit. A
    transposition is always a single edit and never merges into a run.
    """
    tgt = alignment.target.tokens
    edits: list[Edit] = []
    run: list[AlignOp] = []

    def flush() -> None:
        if not run:
            return
        src_start, src_end = run[0].src_span[0], run[-1].src_span[1]
        tgt_start, tgt_end = run[0].tgt_span[0], run[-1].tgt_span[1]
        edits.append(Edit(src_start, src_end, tuple(tgt[tgt_start:tgt_end]), UNTYPED))
        run.clear()

    for op in alignment.ops:
        if op.kind == MATCH:
            flush()
        elif op.kind == TRANSPOSE:
            flush()
            run.append(op)
            flush()
        else:
            run.append(op)
    flush()
    return edits


# --- lexicons -------------------------------------------------------------

_DEFAULT_PUNCTUATION = frozenset(".,;:!?'\"()[]-") | {"...", "``", "''"}
_DEFAULT_DETERMINERS = frozenset(
    "a an the this that these those my your his her its our their".split()
)
_DEFAULT_PREPOSITIONS = frozenset(
    "in on at of for with to from by about near under over between through".split()
)


@dataclass(frozen=True, slots=True)
class InflectionTable:
    """Inflection pairs sharing one category label (e.g. SVA, NN, VERB)."""

    category: str
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.category:
            raise ConfigError("inflection table with empty category")
        for a, b in self.pairs:
            if not a or not b or a == b:
                raise ConfigError(f"bad inflection pair ({a!r}, {b!r})")

    @property
    def forms(self) -> frozenset[str]:
        return frozenset(t for pair in self.pairs for t in pair)

    def maps(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs or (b, a) in self.pairs


@dataclass(frozen=True, slots=True)
class LexiconSet:
    """Named token sets and morphology tables used by the type rules."""

    punctuation: frozenset[str] = _DEFAULT_PUNCTUATION
    determiners: frozenset[str] = _DEFAULT_DETERMINERS
    prepositions: frozenset[str] = _DEFAULT_PREPOSITIONS
    morphology: tuple[InflectionTable, ...] = ()

    def __post_init__(self) -> None:
        for name in ("punctuation", "determiners", "prepositions"):
            tokens = getattr(self, name)
            if any(not t for t in tokens):
                raise ConfigError(f"lexicon {name} contains an empty token")

    def contains(self, token: str) -> bool:
        """Membership in any named set or morphology table."""
        return (
            token in self.punctuation
            or token in self.determiners
            or token in self.prepositions
            or any(token in table.forms for table in self.morphology)
        )


_DEFAULT_LEXICONS = LexiconSet()


def load_token_set(path: str | Path) -> frozenset[str]:
    tokens = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        token = line.strip()
        if not token:
            continue
        if " " in token:
            raise FormatError(f"token contains a space: {token!r}", name=str(path), line=lineno)
        tokens.add(token)
    return frozenset(tokens)


def load_inflections(path: str | Path) -> tuple[InflectionTable, ...]:
    """Parse ``category<TAB>form1<TAB>form2`` lines, grouped by category."""
    grouped: dict[str, list[tuple[str, str]]] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"expected 3 tab-separated fields, got {len(parts)}", name=str(path), line=lineno)
        category, form1, form2 = (p.strip() for p in parts)
        if not category or not form1 or not form2 or form1 == form2:
            raise FormatError(f"bad inflection line {line!r}", name=str(path), line=lineno)
        grouped.setdefault(category, []).append((form1, form2))
    return tuple(
        InflectionTable(category, tuple(pairs)) for category, pairs in grouped.items()
    )


def load_lexicons(directory: str | Path) -> LexiconSet:
    """Load a lexicon directory; missing files fall back to the defaults.

    Expected files: punctuation.txt, determiners.txt, prepositions.txt
    (one token per line) and morphology.tsv.
    """
    directory = Path(directory)
    kwargs = {}
    for name in ("punctuation", "determiners", "prepositions"):
        path = directory / f"{name}.txt"
        if path.exists():
            kwargs[name] = load_token_set(path)
    morph = directory / "morphology.tsv"
    if morph.exists():
        kwargs["morphology"] = load_inflections(morph)
    return LexiconSet(**kwargs)


def save_lexicons(lex: LexiconSet, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("punctuation", "determiners", "prepositions"):
        tokens = sorted(getattr(lex, name))
        (directory / f"{name}.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    lines = []
    for table in lex.morphology:
        for a, b in table.pairs:
            lines.append(f"{table.category}\t{a}\t{b}")
    (directory / "morphology.tsv").write_text(
        "\n".join(lines) + "\n" if lines else "", encoding="utf-8"
    )


# --- classification -------------------------------------------------------


def classify_edit(edit: Edit, source: Sentence, lexicons: LexiconSet | None = None) -> str:
    """Assign an error type label; first matching rule wins.

    PUNCT, then ORTH (case/boundary only), then SPELL (one-to-one, out of
    lexicon, close in character distance), then DET/PREP (all tokens in the
    respective set), then morphology-table categories, then OTHER.
    """
    lex = lexicons or _DEFAULT_LEXICONS
    src_tokens = source.tokens[edit.start : edit.end]
    repl = edit.replacement
    both = (*src_tokens, *repl)
    if all(t in lex.punctuation for t in both):
        return PUNCT
    if src_tokens and repl and "".join(src_tokens).lower() == "".join(repl).lower():
        return ORTH
    if len(src_tokens) == 1 and len(repl) == 1:
        a, b = src_tokens[0], repl[0]
        if (
            not lex.contains(a)
            and not lex.contains(b)
            and a.isalpha()
            and b.isalpha()
            and char_edit_distance(a, b) <= math.ceil(max(len(a), len(b)) / 2)
        ):
            return SPELL
    if all(t in lex.determiners for t in both):
        return DET
    if all(t in lex.prepositions for t in both):
        return PREP
    if len(src_tokens) == 1 and len(repl) == 1:
        for table in lex.morphology:
            if table.maps(src_tokens[0], repl[0]):
                return table.category
    return OTHER


def extract_edits(
    source: Sentence, target: Sentence, lexicons: LexiconSet | None = None
) -> list[Edit]:
    """Typed, sorted, non-overlapping edits turning source into target."""
    edits = merge_alignment(align_tokens(source, target))
    typed = [replace(e, etype=classify_edit(e, source, lexicons)) for e in edits]
    # Safety net for the core contract; alignment construction guarantees it.
    if apply_edits(source, typed).tokens != target.tokens:
        raise InvalidEditSet(f"extracted edits do not turn {source.text!r} into {target.text!r}")
    return typed
