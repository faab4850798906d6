"""Each checker of the benchmark must pass a good output and reject a broken one.

    python3 -m pytest perfbench/tests -q

These tests need neither geckit nor numpy; they are outside the
repository's tier-1 test path.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracer  # noqa: E402

GRAMMAR = {
    "nouns": [["dog", "dogs"], ["cat", "cats"]],
    "verbs": [["is", "are"]],
    "determiners_sg": ["the", "a"],
    "determiners_pl": ["the", "some"],
    "modifiers": ["running"],
    "prepositions": ["near", "with"],
    "punctuation": ["."],
    "templates": [
        ["det_subj", "noun_subj", "verb", "prep", "det_obj", "noun_obj", "punct"],
        ["det_subj", "noun_subj", "verb", "modifier", "prep", "det_obj", "noun_obj", "punct"],
    ],
}

M2 = (
    "S a dogs is near the cat .\n"
    "A 1 2|||NOUN|||dog|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S some cats is running with cat .\n"
    "A 2 3|||SVA|||are|||REQUIRED|||-NONE-|||0\n"
    "A 5 5|||DET|||a|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S the dog is near a cat\n"
    "A 6 6|||PUNCT|||.|||REQUIRED|||-NONE-|||0\n"
)


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "grammar.json").write_text(json.dumps(GRAMMAR))
    (tmp_path / "gold.m2").write_text(M2)
    return tmp_path


def test_grammar_accepts_agreement_and_rejects_breaks():
    assert checks.grammatical("some cats are running with a dog .".split(), GRAMMAR)
    assert not checks.grammatical("some cats is running with a dog .".split(), GRAMMAR)
    assert not checks.grammatical("a cats is near the dog .".split(), GRAMMAR)
    assert not checks.grammatical("the dog is near the dog".split(), GRAMMAR)


def test_gold_m2(corpus):
    assert checks.check_gold_m2(corpus / "gold.m2", corpus / "grammar.json", 4) == []
    assert checks.gold_targets(corpus / "gold.m2")[1] == "some cats are running with a cat ."
    assert checks.count_gold_type(corpus / "gold.m2", "PUNCT") == 1
    # A wrong count of edits.
    assert checks.check_gold_m2(corpus / "gold.m2", corpus / "grammar.json", 5)
    # A dropped edit line leaves an ungrammatical target.
    (corpus / "dropped.m2").write_text(M2.replace("A 5 5|||DET|||a|||REQUIRED|||-NONE-|||0\n", ""))
    assert checks.check_gold_m2(corpus / "dropped.m2", corpus / "grammar.json")
    # A swapped replacement, and overlapping spans.
    (corpus / "swapped.m2").write_text(M2.replace("|||dog|||", "|||dogs|||"))
    assert checks.check_gold_m2(corpus / "swapped.m2", corpus / "grammar.json")
    (corpus / "overlap.m2").write_text(M2.replace("A 5 5|||DET", "A 2 3|||DET"))
    assert checks.check_gold_m2(corpus / "overlap.m2", corpus / "grammar.json")


def _judge_report(tp, fp, fn, tn):
    accuracy, mcc = checks.judge_rates(tp, fp, fn, tn)
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn, "total": tp + fp + fn + tn,
            "accuracy": round(accuracy, 4), "mcc": round(mcc, 4)}  # fmt: skip


def test_judge_metrics():
    good = _judge_report(90, 5, 3, 102)
    assert checks.check_judge_metrics(good, 200) == []
    assert checks.check_judge_metrics({**good, "tp": 91}, 200)  # wrong count
    assert checks.check_judge_metrics({**good, "mcc": good["mcc"] - 0.01}, 200)
    assert checks.check_judge_metrics({**good, "accuracy": good["accuracy"] + 0.001}, 200)
    assert checks.check_judge_metrics(good, 199)  # a dropped dev line


def test_train_log():
    cap = math.sqrt(0.81)
    records = [{"epoch": e, "mean_weight": w} for e, w in ((1, 0.5), (2, cap))]
    assert checks.check_train_log(records, 2, 0.81) == []
    assert checks.check_train_log(records[:1], 2, 0.81)  # a dropped line
    assert checks.check_train_log([records[0], {"epoch": 2, "mean_weight": cap + 1e-6}], 2, 0.81)
    assert checks.check_train_log([records[0], {"epoch": 2, "mean_weight": 0.0}], 2, 0.81)


def _prf_report(tp, fp, fn, sentences=10):
    p, r = tp / (tp + fp), tp / (tp + fn)
    return {"tp": tp, "fp": fp, "fn": fn, "sentences": sentences, "precision": round(100 * p, 2),
            "recall": round(100 * r, 2), "f0.5": round(100 * checks.fbeta(p, r), 2)}  # fmt: skip


def test_prf():
    good = _prf_report(7, 3, 5)
    assert checks.check_prf(good, 10) == []
    assert checks.check_prf({**good, "fp": 4}, 10)  # wrong count
    assert checks.check_prf({**good, "f0.5": good["f0.5"] + 0.02}, 10)
    assert checks.check_prf(good, 11)  # a dropped hypothesis


def test_lines(tmp_path):
    path = tmp_path / "corrected.txt"
    path.write_text("a b .\nc d .\n")
    assert checks.check_line_count(path, 2) == []
    assert checks.check_line_count(path, 3)
    assert checks.check_same_lines(["x", "y"], ["x", "y"], "w") == []
    assert checks.check_same_lines(["y", "x"], ["x", "y"], "w")  # swapped hypotheses
    assert checks.check_same_lines(["x"], ["x", "y"], "w")
    assert checks.at_step_limit(["a b"], ["w " * 12]) == 1
    assert checks.at_step_limit(["a b"], ["w " * 11]) == 0


def test_punct_filter_and_known_hypotheses():
    analysis = {"unfiltered": _prf_report(7, 3, 5), "no_PUNCT": _prf_report(6, 3, 4)}
    assert checks.check_punct_filter(analysis, 2) == []
    assert checks.check_punct_filter(analysis, 1)
    gold = {"tp": 4, "fp": 0, "fn": 0, "f0.5": 100.0}
    assert checks.check_gold_as_hypothesis(gold) == []
    assert checks.check_gold_as_hypothesis({**gold, "fn": 1, "f0.5": 95.0})
    assert checks.check_source_as_hypothesis({"tp": 0}) == []
    assert checks.check_source_as_hypothesis({"tp": 1})


def _ablation():
    def cell(seed, p, r):
        return {"seed": seed, "precision": p, "recall": r, "f0.5": round(100 * checks.fbeta(p / 100, r / 100), 4)}

    variants = {}
    for name, rows in (("a", [cell(0, 50.0, 40.0), cell(1, 60.0, 20.0)]), ("b", [cell(0, 10.0, 10.0), cell(1, 30.0, 20.0)])):
        variants[name] = {"per_seed": rows, **{k: round(sum(c[k] for c in rows) / 2, 2) for k in ("precision", "recall", "f0.5")}}
    return {"seeds": [0, 1], "variants": variants}


def test_ablation():
    assert checks.check_ablation(_ablation(), ["a", "b"], [0, 1]) == []
    bad = _ablation()
    bad["variants"]["a"]["f0.5"] += 0.5  # mean off its rows
    assert checks.check_ablation(bad, ["a", "b"], [0, 1])
    bad = _ablation()
    bad["variants"]["b"]["per_seed"][1]["f0.5"] += 0.01  # F0.5 off its P and R
    assert checks.check_ablation(bad, ["a", "b"], [0, 1])
    bad = _ablation()
    bad["variants"]["b"]["per_seed"].pop()  # a dropped row
    assert checks.check_ablation(bad, ["a", "b"], [0, 1])
    assert checks.check_ablation(_ablation(), ["a", "c"], [0, 1])


def test_tracer_patches_lookups_and_reports_absent(monkeypatch):
    home = types.ModuleType("geckit.fakehome")
    user = types.ModuleType("geckit.fakeuser")

    def inner(x):
        return x + 1

    def outer(x):
        return home.inner(x) * 2

    home.inner, home.outer, user.outer = inner, outer, outer
    monkeypatch.setitem(sys.modules, "geckit", types.ModuleType("geckit"))
    monkeypatch.setitem(sys.modules, "geckit.fakehome", home)
    monkeypatch.setitem(sys.modules, "geckit.fakeuser", user)
    monkeypatch.setattr(tracer, "TARGETS", [
        ("fake.inner", "geckit.fakehome", "inner", None),
        ("fake.outer", "geckit.fakehome", "outer", None),
        ("fake.gone", "geckit.fakehome", "removed_function", None),
        ("synth.make_benchmark", "geckit.no_such_module", "make_benchmark", None),
    ])  # fmt: skip
    with tracer.Tracer("test") as tr:
        assert user.outer(1) == 4  # the name imported into another module is wrapped
    assert user.outer is outer and home.inner is inner  # restored on exit
    assert [span[0] for span in tr.spans] == ["fake.outer", "fake.inner"]
    assert tr.spans[1][3] == 0  # inner's parent is outer
    total, own = tr.totals()
    assert own["fake.outer"] == pytest.approx(total["fake.outer"] - total["fake.inner"])
    values, absent = tr.metrics()
    assert "synth.make_benchmark_s" in absent and values["synth.make_benchmark_s"] == 0.0


def test_benchmark_json_matches_the_command():
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
