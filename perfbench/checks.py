"""Output checkers, written apart from geckit and using only the stdlib.

Every checker returns a list of problems; an empty list means the output
passed. None of them imports geckit: the M2 reader, the edit applier,
the grammar test and the metric formulas here are independent
re-implementations, so a fault in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Slack for numbers the program rounds before writing them.
ROUND_2DP = 0.0051
ROUND_4DP = 0.000051


def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_lines(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


# --- M2 ------------------------------------------------------------------


def read_m2(path: str | Path) -> list[tuple[list[str], list[tuple[int, int, list[str], str]]]]:
    """Blocks of (source tokens, [(start, end, replacement, type)]) for annotator 0."""
    blocks = []
    for chunk in Path(path).read_text(encoding="utf-8").strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        if not lines[0].startswith("S "):
            raise ValueError(f"{path}: block does not start with an S line: {lines[0]!r}")
        source = lines[0][2:].split(" ")
        edits = []
        for line in lines[1:]:
            span, etype, repl, _req, _none, annotator = line[2:].split("|||")
            start, end = (int(v) for v in span.split(" "))
            if etype == "noop" or annotator != "0":
                continue
            edits.append((start, end, [] if repl == "-NONE-" else repl.split(" "), etype))
        blocks.append((source, edits))
    return blocks


def apply_gold(source: list[str], edits) -> list[str]:
    """Apply span edits right to left; raises ValueError on a bad edit set."""
    last_start = len(source) + 1
    out = list(source)
    for start, end, repl, _etype in sorted(edits, key=lambda e: (e[0], e[1]), reverse=True):
        if not 0 <= start <= end <= len(source) or end > last_start:
            raise ValueError(f"edit span {start}:{end} is out of range or overlaps")
        out[start:end] = repl
        last_start = start
    return out


def grammatical(tokens: list[str], grammar: dict) -> bool:
    """True if some template of the grammar generates the tokens with agreement.

    Slots carry a number (0 singular, 1 plural): determiners and the
    verb must agree with the noun they belong to.
    """
    nouns = {form: num for pair in grammar["nouns"] for num, form in enumerate(pair)}
    verbs = {form: num for pair in grammar["verbs"] for num, form in enumerate(pair)}
    dets = {}
    for num, key in enumerate(("determiners_sg", "determiners_pl")):
        for det in grammar[key]:
            dets.setdefault(det, set()).add(num)
    plain = {
        "modifier": set(grammar["modifiers"]),
        "prep": set(grammar["prepositions"]),
        "punct": set(grammar["punctuation"]),
    }
    for template in grammar["templates"]:
        if len(template) != len(tokens):
            continue
        slots = dict(zip(template, tokens))
        if any(tok not in plain[slot] for slot, tok in slots.items() if slot in plain):
            continue
        try:
            subj, obj = nouns[slots["noun_subj"]], nouns[slots["noun_obj"]]
            ok = (
                subj in dets[slots["det_subj"]]
                and obj in dets[slots["det_obj"]]
                and verbs[slots["verb"]] == subj
            )
        except KeyError:
            continue
        if ok:
            return True
    return False


def check_gold_m2(m2_path, grammar_path, expected_edits: int | None = None) -> list[str]:
    """Gold edits must turn every source into a sentence of the grammar."""
    grammar = json.loads(Path(grammar_path).read_text(encoding="utf-8"))
    problems = []
    total = 0
    for i, (source, edits) in enumerate(read_m2(m2_path)):
        total += len(edits)
        try:
            target = apply_gold(source, edits)
        except ValueError as exc:
            problems.append(f"{m2_path} sentence {i}: {exc}")
            continue
        if not grammatical(target, grammar):
            problems.append(f"{m2_path} sentence {i}: gold target {' '.join(target)!r} is ungrammatical")
        if edits and target == source:
            problems.append(f"{m2_path} sentence {i}: edits leave the source unchanged")
    if expected_edits is not None and total != expected_edits:
        problems.append(f"{m2_path}: {total} gold edits, manifest says {expected_edits}")
    return problems[:5]


def gold_targets(m2_path) -> list[str]:
    return [" ".join(apply_gold(source, edits)) for source, edits in read_m2(m2_path)]


def sources(m2_path) -> list[str]:
    return [" ".join(source) for source, _edits in read_m2(m2_path)]


def count_gold_type(m2_path, etype: str) -> int:
    return sum(e[3] == etype for _source, edits in read_m2(m2_path) for e in edits)


# --- judge ----------------------------------------------------------------


def judge_rates(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float]:
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return accuracy, ((tp * tn - fp * fn) / den if den else 0.0)


def check_judge_metrics(report: dict, dev_instances: int) -> list[str]:
    """ACC and MCC recomputed from the confusion counts."""
    tp, fp, fn, tn = (report[k] for k in ("tp", "fp", "fn", "tn"))
    problems = []
    if tp + fp + fn + tn != report["total"] or report["total"] != dev_instances:
        problems.append(
            f"judge counts {tp}+{fp}+{fn}+{tn} vs total {report['total']}"
            f" vs {dev_instances} dev instances"
        )
    accuracy, mcc = judge_rates(tp, fp, fn, tn)
    if abs(accuracy - report["accuracy"]) > ROUND_4DP or abs(mcc - report["mcc"]) > ROUND_4DP:
        problems.append(
            f"judge reports acc {report['accuracy']} mcc {report['mcc']},"
            f" counts give {accuracy:.4f} {mcc:.4f}"
        )
    return problems


def check_train_log(records: list[dict], epochs: int, dev_accuracy: float) -> list[str]:
    """Epochs 1..E, and every dynamic weight in (0, sqrt(dev accuracy)]."""
    problems = []
    if [r["epoch"] for r in records] != list(range(1, epochs + 1)):
        problems.append(f"train log epochs {[r['epoch'] for r in records]}, expected 1..{epochs}")
    cap = math.sqrt(dev_accuracy)
    for r in records:
        if not 0.0 < r["mean_weight"] <= cap + 1e-12:
            problems.append(f"epoch {r['epoch']}: mean_weight {r['mean_weight']} outside (0, {cap:.6f}]")
    return problems


# --- correction scores ----------------------------------------------------


def fbeta(p: float, r: float, beta: float = 0.5) -> float:
    den = beta * beta * p + r
    return (1 + beta * beta) * p * r / den if den > 0 else 0.0


def check_prf(report: dict, sentences: int | None = None) -> list[str]:
    """P, R and F0.5 (percent, 2dp) recomputed from tp/fp/fn."""
    tp, fp, fn = report["tp"], report["fp"], report["fn"]
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    want = {"precision": 100 * p, "recall": 100 * r, "f0.5": 100 * fbeta(p, r)}
    problems = [
        f"{key} {report[key]} but tp/fp/fn {tp}/{fp}/{fn} give {value:.4f}"
        for key, value in want.items()
        if abs(report[key] - value) > ROUND_2DP
    ]
    if sentences is not None and report["sentences"] != sentences:
        problems.append(f"report covers {report['sentences']} sentences, expected {sentences}")
    return problems


def check_line_count(path, expected: int) -> list[str]:
    n = len(read_lines(path))
    return [] if n == expected else [f"{path}: {n} lines for {expected} inputs"]


def check_same_lines(got: list[str], want: list[str], what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} lines vs {len(want)}"]
    diff = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    return [f"{what}: {len(diff)} lines differ, first at {diff[0]}"] if diff else []


def check_punct_filter(analysis: dict, punct_gold: int) -> list[str]:
    """Dropping PUNCT removes exactly the PUNCT gold edits from the gold total."""
    full = analysis["unfiltered"]["tp"] + analysis["unfiltered"]["fn"]
    kept = analysis["no_PUNCT"]["tp"] + analysis["no_PUNCT"]["fn"]
    problems = [p for section in analysis.values() for p in check_prf(section)]
    if kept != full - punct_gold:
        problems.append(f"no_PUNCT gold total {kept}, expected {full} - {punct_gold}")
    return problems


def check_gold_as_hypothesis(report: dict) -> list[str]:
    if report["f0.5"] != 100.0 or report["fp"] or report["fn"]:
        return [f"gold targets as hypotheses score F0.5 {report['f0.5']} fp {report['fp']} fn {report['fn']}"]
    return []


def check_source_as_hypothesis(report: dict) -> list[str]:
    return [f"sources as hypotheses score tp {report['tp']}"] if report["tp"] else []


def check_ablation(report: dict, variants: list[str], seeds: list[int]) -> list[str]:
    """Means equal the mean of the per-seed rows; each F0.5 matches its P and R."""
    problems = []
    if report["seeds"] != seeds or sorted(report["variants"]) != sorted(variants):
        return [f"ablation grid {report['seeds']} x {sorted(report['variants'])}, expected {seeds} x {variants}"]
    for name, row in report["variants"].items():
        cells = row["per_seed"]
        if [c["seed"] for c in cells] != seeds:
            problems.append(f"{name}: per-seed rows {[c['seed'] for c in cells]}")
            continue
        for key in ("precision", "recall", "f0.5"):
            mean = sum(c[key] for c in cells) / len(cells)
            if abs(mean - row[key]) > ROUND_2DP + ROUND_4DP:
                problems.append(f"{name}: mean {key} {row[key]} but per-seed rows average {mean:.4f}")
        for c in cells:
            f = 100 * fbeta(c["precision"] / 100, c["recall"] / 100)
            if abs(f - c["f0.5"]) > 10 * ROUND_4DP:
                problems.append(f"{name} seed {c['seed']}: F0.5 {c['f0.5']} but P/R give {f:.4f}")
    return problems


def at_step_limit(source_lines: list[str], output_lines: list[str]) -> int:
    """Outputs as long as the per-sentence step limit, 2 * len(source) + 8."""
    return sum(
        len(out.split()) >= 2 * len(src.split()) + 8 for src, out in zip(source_lines, output_lines)
    )
