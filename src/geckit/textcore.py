"""Core text types and interchange formats.

Tokenized sentences, span edits, annotated correction pairs, and labeled
acceptability instances, plus strict parsers and emitters for the M2 edit
format and the two-column acceptability TSV, and the one layout of the
JSON reports, configs and manifests geckit writes.

Both parsers enforce the grammar exactly and report the offending line on
failure. They accept precisely the language the emitters produce, so
``emit(parse(text)) == text`` holds byte for byte for any text that parses.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, InvalidEditSet

# Closed per run; lexicon-backed morphology tables may extend it (see align).
PUNCT = "PUNCT"
ORTH = "ORTH"
SPELL = "SPELL"
DET = "DET"
PREP = "PREP"
SVA = "SVA"
NN = "NN"
VERB = "VERB"
OTHER = "OTHER"
CORE_ERROR_TYPES = (PUNCT, ORTH, SPELL, DET, PREP, SVA, NN, VERB, OTHER)

# Placeholder type for edits that have not been classified yet.
UNTYPED = "UNK"

ORIGIN_LINGUISTICS = "linguistics"
ORIGIN_GEC_SOURCE = "gec_source"
ORIGIN_GEC_TARGET = "gec_target"
ORIGIN_SYNTHETIC = "synthetic"
ORIGINS = (ORIGIN_LINGUISTICS, ORIGIN_GEC_SOURCE, ORIGIN_GEC_TARGET, ORIGIN_SYNTHETIC)

_NONE_FIELD = "-NONE-"
_NOOP_TYPE = "noop"


def _check_tokens(tokens: tuple) -> None:
    """Raise InvalidEditSet unless every token is a non-empty string without whitespace.

    Tokens are space-separated, TSV fields tab-separated and plain text
    split on any whitespace run, so a token holding whitespace would not
    read back as one token.
    """
    # Splitting the joined tokens gives them back exactly when all are valid:
    # one pass in C for the common case, the loop only to name the bad token.
    try:
        if " ".join(tokens).split() == list(tokens):
            return
    except TypeError:
        pass
    for token in tokens:
        if not isinstance(token, str) or not token:
            raise InvalidEditSet(f"empty token in {token!r}")
        if token.split() != [token]:
            raise InvalidEditSet(f"token contains whitespace: {token!r}")


@dataclass(frozen=True, slots=True)
class Sentence:
    """An immutable tokenized sentence."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        _check_tokens(self.tokens)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


@dataclass(frozen=True, slots=True)
class Edit:
    """A span replacement on a tokenized sentence.

    ``start``/``end`` index tokens of the source sentence, end exclusive.
    An insertion has ``start == end``; a deletion has an empty replacement.
    Null edits (empty span and empty replacement) are forbidden.
    """

    start: int
    end: int
    replacement: tuple[str, ...]
    etype: str = UNTYPED

    def __post_init__(self) -> None:
        if not isinstance(self.replacement, tuple):
            object.__setattr__(self, "replacement", tuple(self.replacement))
        if not (isinstance(self.start, int) and isinstance(self.end, int)):
            raise InvalidEditSet(f"non-integer span ({self.start!r}, {self.end!r})")
        if self.start < 0 or self.end < self.start:
            raise InvalidEditSet(f"bad span ({self.start}, {self.end})")
        if self.start == self.end and not self.replacement:
            raise InvalidEditSet(f"null edit at position {self.start}")
        _check_tokens(self.replacement)
        if not self.etype:
            raise InvalidEditSet("empty edit type")


def _sorted_edits(edits: Sequence[Edit]) -> list[Edit]:
    return sorted(edits, key=lambda e: (e.start, e.end))


def check_edits(edits: Sequence[Edit], source_len: int) -> None:
    """Raise InvalidEditSet unless edits are in-bounds and non-overlapping."""
    ordered = _sorted_edits(edits)
    prev_end = 0
    prev: Edit | None = None
    for edit in ordered:
        if edit.end > source_len:
            raise InvalidEditSet(
                f"edit span ({edit.start}, {edit.end}) outside sentence of length {source_len}"
            )
        if prev is not None and edit.start < prev_end:
            raise InvalidEditSet(
                f"overlapping edits ({prev.start}, {prev.end}) and ({edit.start}, {edit.end})"
            )
        prev_end = edit.end
        prev = edit


def apply_edits(source: Sentence, edits: Sequence[Edit]) -> Sentence:
    """Apply non-overlapping edits to a sentence, right to left."""
    check_edits(edits, len(source))
    tokens = list(source.tokens)
    for edit in reversed(_sorted_edits(edits)):
        tokens[edit.start : edit.end] = edit.replacement
    return Sentence(tuple(tokens))


@dataclass(frozen=True, slots=True)
class AnnotatedPair:
    """A source sentence with per-annotator gold edits and optional target.

    ``gold[i]`` holds the edits of ``annotator_ids[i]``, sorted and
    non-overlapping. When a target is present, applying the canonical
    annotator's edits to the source must reproduce it exactly.
    """

    source: Sentence
    target: Sentence | None
    gold: tuple[tuple[Edit, ...], ...]
    annotator_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.gold, tuple):
            object.__setattr__(self, "gold", tuple(tuple(g) for g in self.gold))
        if not isinstance(self.annotator_ids, tuple):
            object.__setattr__(self, "annotator_ids", tuple(self.annotator_ids))
        if len(self.gold) != len(self.annotator_ids):
            raise InvalidEditSet("gold lists and annotator ids differ in length")
        if len(set(self.annotator_ids)) != len(self.annotator_ids):
            raise InvalidEditSet(f"duplicate annotator ids {self.annotator_ids}")
        if any(a < 0 for a in self.annotator_ids):
            raise InvalidEditSet(f"negative annotator id in {self.annotator_ids}")
        for edits in self.gold:
            check_edits(edits, len(self.source))
            if list(edits) != _sorted_edits(edits):
                raise InvalidEditSet("annotator edits are not sorted by span")
        if self.target is not None and self.annotator_ids:
            derived = apply_edits(self.source, self.canonical_edits)
            if derived.tokens != self.target.tokens:
                raise InvalidEditSet(
                    f"canonical edits produce {derived.text!r}, not target {self.target.text!r}"
                )

    @property
    def canonical_edits(self) -> tuple[Edit, ...]:
        """Edits of the lowest annotator id (annotator 0 when present)."""
        if not self.annotator_ids:
            return ()
        return self.gold[self.annotator_ids.index(min(self.annotator_ids))]

    @classmethod
    def from_edits(cls, source: Sentence, edits: Sequence[Edit], annotator_id: int = 0) -> "AnnotatedPair":
        edits = tuple(_sorted_edits(edits))
        return cls(
            source=source,
            target=apply_edits(source, edits),
            gold=(edits,),
            annotator_ids=(annotator_id,),
        )


@dataclass(frozen=True, slots=True)
class ColaInstance:
    """One binary acceptability example: 1 acceptable, 0 unacceptable."""

    sentence: Sentence
    label: int
    origin: str = ORIGIN_LINGUISTICS

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise InvalidEditSet(f"label must be 0 or 1, got {self.label!r}")
        if self.origin not in ORIGINS:
            raise InvalidEditSet(f"unknown origin {self.origin!r}")


# --- M2 interchange -----------------------------------------------------
#
# Block grammar, repeated with exactly one blank line between blocks:
#
#   S <tokens joined by single space>\n
#   A <start> <end>|||<type>|||<replacement or -NONE->|||REQUIRED|||-NONE-|||<annotator>\n   (zero or more)
#
# A "noop" line (type noop, span -1 -1) registers an annotator with zero
# edits. Files are UTF-8 with LF line endings and no trailing blank line.


def _parse_sentence_field(text: str, name: str, line: int) -> Sentence:
    tokens = text.split(" ")
    if any(not t for t in tokens):
        raise FormatError("empty token (doubled or trailing space)", name=name, line=line)
    try:
        return Sentence(tuple(tokens))
    except InvalidEditSet as exc:
        raise FormatError(str(exc), name=name, line=line) from exc


def _parse_a_line(body: str, name: str, line: int) -> tuple[int, int, str, tuple[str, ...], int]:
    fields = body.split("|||")
    if len(fields) != 6:
        raise FormatError(f"expected 6 |||-separated fields, got {len(fields)}", name=name, line=line)
    span_part, etype, repl_part, required, none2, annot_part = fields
    span_fields = span_part.split(" ")
    if len(span_fields) != 2:
        raise FormatError(f"bad span field {span_part!r}", name=name, line=line)
    try:
        start, end = int(span_fields[0]), int(span_fields[1])
    except ValueError as exc:
        raise FormatError(f"non-integer span {span_part!r}", name=name, line=line) from exc
    if not etype:
        raise FormatError("empty edit type", name=name, line=line)
    if required != "REQUIRED":
        raise FormatError(f"expected REQUIRED, got {required!r}", name=name, line=line)
    if none2 != _NONE_FIELD:
        raise FormatError(f"expected {_NONE_FIELD}, got {none2!r}", name=name, line=line)
    try:
        annotator = int(annot_part)
    except ValueError as exc:
        raise FormatError(f"non-integer annotator {annot_part!r}", name=name, line=line) from exc
    if annotator < 0:
        raise FormatError(f"negative annotator id {annotator}", name=name, line=line)
    if repl_part == _NONE_FIELD:
        replacement: tuple[str, ...] = ()
    else:
        repl_tokens = repl_part.split(" ")
        if any(not t for t in repl_tokens):
            raise FormatError("empty replacement token", name=name, line=line)
        replacement = tuple(repl_tokens)
    return start, end, etype, replacement, annotator


@dataclass
class _Block:
    source: Sentence
    start_line: int
    annotator_order: list[int] = field(default_factory=list)
    edits: dict[int, list[Edit]] = field(default_factory=dict)
    noop: set[int] = field(default_factory=set)
    last_annotator: int | None = None


def _flush_block(block: _Block, name: str) -> AnnotatedPair:
    gold = []
    for aid in block.annotator_order:
        gold.append(tuple(block.edits.get(aid, ())))
    target = None
    if block.annotator_order:
        try:
            canonical = min(block.annotator_order)
            target = apply_edits(block.source, block.edits.get(canonical, []))
        except InvalidEditSet as exc:
            raise FormatError(str(exc), name=name, line=block.start_line) from exc
    try:
        return AnnotatedPair(
            source=block.source,
            target=target,
            gold=tuple(gold),
            annotator_ids=tuple(block.annotator_order),
        )
    except InvalidEditSet as exc:
        raise FormatError(str(exc), name=name, line=block.start_line) from exc


def parse_m2(text: str, name: str = "<m2>") -> list[AnnotatedPair]:
    """Parse M2 text into annotated pairs. Strict; FormatError names the line."""
    if text == "":
        return []
    if not text.endswith("\n"):
        raise FormatError("missing final newline", name=name)
    lines = text[:-1].split("\n")
    pairs: list[AnnotatedPair] = []
    block: _Block | None = None
    for lineno, line in enumerate(lines, 1):
        if block is None:
            if line.startswith("S "):
                block = _Block(_parse_sentence_field(line[2:], name, lineno), lineno)
            elif line == "":
                raise FormatError("blank line where a sentence block must start", name=name, line=lineno)
            elif line.startswith("A "):
                raise FormatError("A line before any S line", name=name, line=lineno)
            else:
                raise FormatError(f"unrecognized line {line!r}", name=name, line=lineno)
            continue
        if line == "":
            pairs.append(_flush_block(block, name))
            block = None
            continue
        if line.startswith("S "):
            raise FormatError("second S line in block (missing blank separator)", name=name, line=lineno)
        if not line.startswith("A "):
            raise FormatError(f"unrecognized line {line!r}", name=name, line=lineno)
        start, end, etype, replacement, annotator = _parse_a_line(line[2:], name, lineno)
        if annotator != block.last_annotator and annotator in block.annotator_order:
            raise FormatError(f"annotator {annotator} edits are not contiguous", name=name, line=lineno)
        if annotator not in block.annotator_order:
            block.annotator_order.append(annotator)
        block.last_annotator = annotator
        if etype == _NOOP_TYPE or (start, end) == (-1, -1):
            if etype != _NOOP_TYPE or (start, end) != (-1, -1):
                raise FormatError("noop requires type noop and span -1 -1", name=name, line=lineno)
            if replacement:
                raise FormatError("noop with a replacement", name=name, line=lineno)
            if annotator in block.noop or block.edits.get(annotator):
                raise FormatError(f"noop conflicts with other edits of annotator {annotator}", name=name, line=lineno)
            block.noop.add(annotator)
            continue
        if annotator in block.noop:
            raise FormatError(f"edit after noop for annotator {annotator}", name=name, line=lineno)
        try:
            edit = Edit(start, end, replacement, etype)
        except InvalidEditSet as exc:
            raise FormatError(str(exc), name=name, line=lineno) from exc
        previous = block.edits.setdefault(annotator, [])
        if previous and (edit.start, edit.end) < (previous[-1].start, previous[-1].end):
            raise FormatError("edits out of span order", name=name, line=lineno)
        previous.append(edit)
    if block is None:
        # Input ended right after a blank separator.
        raise FormatError("trailing blank line", name=name, line=len(lines))
    pairs.append(_flush_block(block, name))
    return pairs


def emit_m2(pairs: Iterable[AnnotatedPair]) -> str:
    """Serialize pairs to canonical M2 text (inverse of parse_m2)."""
    blocks = []
    for pair in pairs:
        lines = ["S " + pair.source.text]
        for aid, edits in zip(pair.annotator_ids, pair.gold):
            if not edits:
                lines.append(f"A -1 -1|||{_NOOP_TYPE}|||{_NONE_FIELD}|||REQUIRED|||{_NONE_FIELD}|||{aid}")
                continue
            for e in edits:
                repl = " ".join(e.replacement) if e.replacement else _NONE_FIELD
                lines.append(f"A {e.start} {e.end}|||{e.etype}|||{repl}|||REQUIRED|||{_NONE_FIELD}|||{aid}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


# --- acceptability TSV --------------------------------------------------


def parse_cola_tsv(
    text: str,
    origin: str = ORIGIN_LINGUISTICS,
    name: str = "<tsv>",
) -> list[ColaInstance]:
    """Parse ``label<TAB>sentence`` lines into ColaInstances."""
    if text == "":
        return []
    if not text.endswith("\n"):
        raise FormatError("missing final newline", name=name)
    instances = []
    for lineno, line in enumerate(text[:-1].split("\n"), 1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"expected 2 tab-separated fields, got {len(parts)}", name=name, line=lineno)
        label_part, sentence_part = parts
        if label_part not in ("0", "1"):
            raise FormatError(f"label must be 0 or 1, got {label_part!r}", name=name, line=lineno)
        if not sentence_part:
            raise FormatError("empty sentence", name=name, line=lineno)
        sentence = _parse_sentence_field(sentence_part, name, lineno)
        instances.append(ColaInstance(sentence, int(label_part), origin))
    return instances


def emit_cola_tsv(instances: Iterable[ColaInstance]) -> str:
    lines = [f"{inst.label}\t{inst.sentence.text}" for inst in instances]
    return "\n".join(lines) + "\n" if lines else ""


# --- JSON outputs -------------------------------------------------------


def write_json(path: str | Path, data) -> None:
    """Write data as JSON with sorted keys, indented by 2, and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
