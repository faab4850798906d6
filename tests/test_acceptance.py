"""Shipping gate: one test per release criterion.

Each criterion is a single test function, so ``pytest -v`` prints
exactly one pass/fail line per criterion. Tolerances and budgets are
pinned as constants next to the tests that use them, and measured
values worth keeping (judge metrics, ablation deltas, filter gaps) are
echoed into the terminal summary through the ``acceptance_note``
fixture.

Criterion 1 checks that externally reported precision/recall/F0.5
triples are arithmetically consistent with the F0.5 definition this
package implements. Several reported rows are not (the worst is off by
16.7 points), so that test fails by design rather than hiding the
discrepancy behind a looser tolerance. The assertion message carries
the per-row arithmetic; everything else is expected green.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_align import brute_force_cost

import geckit
from geckit.align import align_tokens, extract_edits
from geckit.evalmetrics import DROP_EDITS, evaluate_corpus, fbeta, filter_eval
from geckit.experiment import ablation_run
from geckit.gec import (
    ModelConfig,
    Seq2SeqModel,
    TrainStage,
    Vocab,
    greedy_decode_batch,
    loss_weight,
    train_gec,
)
from geckit.judge import JudgeConfig, Logits, acc, cola_score, evaluate_judge, mcc, train_judge
from geckit.synth import ErrorInjectionSpec, SizeConfig, inject, make_benchmark, make_preset
from geckit.textcore import PUNCT, Sentence, apply_edits, parse_m2
from grammar_oracle import gen_corpus

# Shared synthetic-benchmark settings. The GEC hyperparameters are the
# same for every trained baseline in this file so criteria 7 and 8
# score the identical training recipe.
MIX_A_SEED = 17
MIX_A_SIZES = SizeConfig(gec_train=800, gec_dev=120, gec_test=200, cola_pairs=10_000)
GEC_EPOCHS = 25
GEC_LR = 3e-3
GEC_BATCH = 32
GEC_MODEL = ModelConfig(embed_dim=24, hidden_dim=48)


@pytest.fixture(scope="session")
def mix_a():
    start = time.perf_counter()
    bench = make_benchmark(make_preset("mix_a"), MIX_A_SIZES, seed=MIX_A_SEED)
    return bench, time.perf_counter() - start


@pytest.fixture(scope="session")
def mix_a_judge(mix_a):
    bench, _ = mix_a
    start = time.perf_counter()
    judge = train_judge(bench.cola.split("train"), JudgeConfig())
    judge = replace(judge, dev_accuracy=acc(evaluate_judge(judge, bench.cola.split("dev"))))
    return judge, time.perf_counter() - start


def _gec_stage(pairs):
    return TrainStage(pairs=tuple(pairs), epochs=GEC_EPOCHS, lr=GEC_LR, batch_size=GEC_BATCH)


# --- criterion 1 ----------------------------------------------------------

# Externally reported (precision, recall, F0.5) triples on public GEC
# evaluation sets, percent scale as published. Labels name the
# evaluation set plus a row index; the dev rows come from a published
# error-type filtering experiment (full set, punctuation errors
# removed, an OTHER-type bucket removed, both removed, and a targeted
# fine-tune on the full set).
REPORTED_TRIPLES = (
    ("mucgec/1", 56.74, 31.00, 48.61),
    ("mucgec/2", 56.37, 29.12, 47.47),
    ("mucgec/3", 57.12, 33.90, 49.91),
    ("fcgec/1", 65.71, 37.78, 57.22),
    ("fcgec/2", 66.67, 41.93, 59.63),
    ("fcgec/3", 67.10, 39.05, 58.60),
    ("conll14/1", 79.20, 46.80, 69.60),
    ("conll14/2", 75.00, 53.20, 69.30),
    ("conll14/3", 76.71, 52.56, 70.26),
    ("conll14/4", 75.00, 53.80, 69.60),
    ("conll14/5", 79.55, 49.04, 70.84),
    ("bea19/1", 77.40, 59.90, 73.10),
    ("bea19/2", 77.10, 66.70, 74.80),
    ("bea19/3", 78.16, 68.07, 75.91),
    ("bea19/4", 78.80, 68.50, 76.50),
    ("bea19/5", 77.33, 61.67, 74.03),
    ("falko/1", 78.50, 68.40, 76.30),
    ("falko/2", 45.22, 51.99, 29.73),
    ("falko/3", 71.93, 62.47, 70.80),
    ("bea19-dev/full", 76.19, 60.01, 72.25),
    ("bea19-dev/no-punct", 77.93, 63.94, 74.40),
    ("bea19-dev/no-other", 77.03, 62.53, 73.96),
    ("bea19-dev/no-both", 79.88, 64.37, 75.92),
    ("bea19-dev/tuned", 76.55, 61.37, 73.11),
)
F05_CONSISTENCY_TOL = 0.15  # percentage points


def test_criterion_1_reported_score_arithmetic(acceptance_note):
    """Reported P/R/F0.5 triples recompute within 0.15 points."""
    start = time.perf_counter()
    bad = []
    for label, p, r, reported in REPORTED_TRIPLES:
        computed = 100.0 * fbeta(p / 100.0, r / 100.0)
        if abs(computed - reported) > F05_CONSISTENCY_TOL:
            bad.append((label, p, r, reported, computed))
    assert time.perf_counter() - start < 1.0
    acceptance_note(
        f"criterion 1: {len(REPORTED_TRIPLES) - len(bad)}/{len(REPORTED_TRIPLES)} reported "
        f"P/R/F0.5 triples arithmetically consistent within {F05_CONSISTENCY_TOL} points"
    )
    if bad:
        width = max(len(label) for label, *_ in bad)
        lines = [
            f"{len(bad)} of {len(REPORTED_TRIPLES)} reported triples are inconsistent with "
            f"F0.5 recomputed from their own P and R (tolerance {F05_CONSISTENCY_TOL}):",
            f"{'row':<{width}} {'P':>6} {'R':>6} {'reported':>9} {'computed':>9} {'diff':>6}",
        ]
        for label, p, r, reported, computed in bad:
            lines.append(
                f"{label:<{width}} {p:>6.2f} {r:>6.2f} {reported:>9.2f} "
                f"{computed:>9.2f} {computed - reported:>+6.2f}"
            )
        lines.append(
            "The implementation is checked against hand-computed F0.5 values elsewhere in "
            "the suite; these reference rows themselves do not satisfy the formula they cite."
        )
        raise AssertionError("\n".join(lines))


# --- criterion 2 ----------------------------------------------------------

SCORE_SYMMETRY_TOL = 1e-12
SCORE_GRID_POINTS = 1000


def test_criterion_2_acceptability_score_properties():
    """Exactly 0.5 at equal logits; complement symmetry; strict monotonicity."""
    start = time.perf_counter()
    for a in np.linspace(-30.0, 30.0, 101):
        assert cola_score(Logits(float(a), float(a))).value == 0.5
    rng = np.random.default_rng(2)
    for a, b in rng.uniform(-15.0, 15.0, size=(500, 2)):
        forward = cola_score(Logits(float(a), float(b))).value
        backward = cola_score(Logits(float(b), float(a))).value
        assert abs(forward + backward - 1.0) <= SCORE_SYMMETRY_TOL
    gaps = np.linspace(-20.0, 20.0, SCORE_GRID_POINTS)
    scores = [cola_score(Logits(float(gap), 0.0)).value for gap in gaps]
    assert all(lo < hi for lo, hi in zip(scores, scores[1:]))
    assert time.perf_counter() - start < 1.0


# --- criterion 3 ----------------------------------------------------------

GRAD_IDENTITY_TOL = 1e-12
LOSS_IDENTITY_INSTANCES = 1000
FD_STEP = 1e-6
FD_REL_TOL = 1e-4
FD_MAX_PARAMS = 5000


def _random_loss_instance(rng):
    """A random tiny model with a batch of 1-3 (source, target) pairs of 0-3 words."""
    words = [f"w{i}" for i in range(int(rng.integers(1, 9)))]

    def sentence():
        return Sentence(tuple(words[k] for k in rng.integers(0, len(words), size=rng.integers(0, 4))))

    batch = int(rng.integers(1, 4))
    sources = [sentence() for _ in range(batch)]
    targets = [sentence() for _ in range(batch)]
    config = ModelConfig(
        embed_dim=int(rng.integers(2, 5)),
        hidden_dim=int(rng.integers(2, 6)),
        seed=int(rng.integers(2**31)),
    )
    return Seq2SeqModel(Vocab.from_sentences(sources + targets), config), sources, targets


def test_criterion_3_weighted_loss_identity_and_gradient():
    """The dynamic loss is the production cross-entropy (loss_and_grads) with
    per-sentence weights: weights leave the NLL alone and scale the gradient.
    The analytic gradient matches central differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(LOSS_IDENTITY_INSTANCES):
        model, sources, targets = _random_loss_instance(rng)

        # One sentence at weight w: the same NLL bits, and w x the unit-weight gradient.
        one_enc, one_tgt = model.encode(sources[:1]), targets[:1]
        weight = loss_weight(rng.uniform(1e-6, 1.0), rng.uniform(1e-6, 1.0))
        nll_w, grads_w, _ = model.loss_and_grads(one_enc, one_tgt, sentence_scale=np.array([weight]))
        nll_unit, grads_unit, _ = model.loss_and_grads(one_enc, one_tgt, sentence_scale=np.ones(1))
        assert np.array_equal(nll_w, nll_unit)
        for name, unit in grads_unit.items():
            limit = GRAD_IDENTITY_TOL * max(float(np.abs(unit).max()), np.finfo(float).tiny)
            assert np.abs(grads_w[name] - weight * unit).max() <= limit

    # Full-model gradient of the weighted objective vs central finite
    # differences on every parameter of a deliberately tiny network.
    def sent(text):
        return Sentence(tuple(text.split()))

    sources = [sent("a b c"), sent("e f"), Sentence(())]
    targets_s = [sent("a b c d"), sent("f"), sent("d d")]
    vocab = Vocab.from_sentences(sources + targets_s)
    model = Seq2SeqModel(vocab, ModelConfig(embed_dim=4, hidden_dim=6, seed=3))
    assert model.num_params() <= FD_MAX_PARAMS
    weights = np.array([loss_weight(0.97, s) for s in (0.9, 0.5, 0.25)])
    scale = weights / len(sources)

    def objective():
        nll, _, _ = model.loss_and_grads(model.encode(sources), targets_s, sentence_scale=scale)
        return float(scale @ nll)

    _, grads, _ = model.loss_and_grads(model.encode(sources), targets_s, sentence_scale=scale)
    flat_grad = np.concatenate([grads[name].ravel() for name in sorted(grads)])
    base = model.flat_params()
    worst = 0.0
    for idx in range(base.size):
        bumped = base.copy()
        bumped[idx] += FD_STEP
        model.set_flat_params(bumped)
        up = objective()
        bumped[idx] -= 2 * FD_STEP
        model.set_flat_params(bumped)
        down = objective()
        fd = (up - down) / (2 * FD_STEP)
        err = abs(fd - flat_grad[idx]) / max(1.0, abs(fd), abs(flat_grad[idx]))
        worst = max(worst, err)
    model.set_flat_params(base)
    assert worst <= FD_REL_TOL
    assert time.perf_counter() - start < 30.0


# --- criterion 4 ----------------------------------------------------------

ROUND_TRIP_PAIRS = 10_000
BRUTE_FORCE_PAIRS = 500
COST_TOL = 1e-12

# Deliberately collision-rich: near-identical tokens, case variants,
# and punctuation exercise substitution, transposition, and merging.
ALIGN_ALPHABET = (
    "the", "The", "a", "dog", "dogs", "dgo", "cat", "cats",
    "is", "are", "on", "in", "near", ".", "!",
)


def test_criterion_4_alignment_round_trip_and_cost():
    """Edit extraction reconstructs targets; DP cost equals brute force."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(ROUND_TRIP_PAIRS):
        source = Sentence(tuple(rng.choice(ALIGN_ALPHABET) for _ in range(rng.integers(0, 10))))
        target = Sentence(tuple(rng.choice(ALIGN_ALPHABET) for _ in range(rng.integers(0, 10))))
        edits = extract_edits(source, target)
        assert apply_edits(source, edits) == target

    for _ in range(BRUTE_FORCE_PAIRS):
        source = Sentence(tuple(rng.choice(ALIGN_ALPHABET) for _ in range(rng.integers(1, 9))))
        target = Sentence(tuple(rng.choice(ALIGN_ALPHABET) for _ in range(rng.integers(1, 9))))
        got = align_tokens(source, target).cost
        want = brute_force_cost(source.tokens, target.tokens)
        assert abs(got - want) <= COST_TOL, (source.tokens, target.tokens)
    assert time.perf_counter() - start < 60.0


# --- criterion 5 ----------------------------------------------------------

INJECTION_COUNT = 10_000
SINGLE_ERROR_COUNT = 3000
PUNCT_LABEL_MIN = 0.99


def test_criterion_5_injection_reversal_and_span_recovery(mix_a, acceptance_note):
    """Gold edits undo every injection; single-error spans align exactly."""
    bench, _ = mix_a
    start = time.perf_counter()
    spec = bench.spec
    grammar = spec.grammar
    skipped = 0
    for i, sentence in enumerate(gen_corpus(grammar, INJECTION_COUNT, seed=51)):
        result = inject(sentence, spec, seed=[51, i])
        skipped += result.skipped
        assert apply_edits(result.corrupted, result.gold) == sentence

    single = ErrorInjectionSpec(
        grammar=grammar,
        kind_weights=dict(spec.kind_weights),
        count_weights={1: 1.0},
    )
    lexicons = grammar.lexicons()
    recovered = 0
    punct_total = 0
    punct_hits = 0
    for i, sentence in enumerate(gen_corpus(grammar, SINGLE_ERROR_COUNT, seed=52)):
        result = inject(sentence, single, seed=[52, i])
        if result.skipped:
            continue
        assert len(result.gold) == 1
        gold = result.gold[0]
        edits = extract_edits(result.corrupted, sentence, lexicons)
        assert len(edits) == 1, (result.corrupted.tokens, sentence.tokens)
        got = edits[0]
        assert (got.start, got.end, got.replacement) == (gold.start, gold.end, gold.replacement)
        recovered += 1
        if gold.etype == PUNCT:
            punct_total += 1
            punct_hits += got.etype == PUNCT
    assert recovered >= SINGLE_ERROR_COUNT * 0.9
    assert punct_total >= 100
    punct_rate = punct_hits / punct_total
    acceptance_note(
        f"criterion 5: {INJECTION_COUNT - skipped}/{INJECTION_COUNT} injections reversed "
        f"({skipped} skipped clean), {recovered} single-error spans exact, "
        f"punct label rate {punct_rate:.4f}"
    )
    assert punct_rate >= PUNCT_LABEL_MIN
    assert time.perf_counter() - start < 60.0


# --- criterion 6 ----------------------------------------------------------

JUDGE_MIN_ACC = 0.90
JUDGE_MIN_MCC = 0.80


def test_criterion_6_judge_learnability(mix_a, mix_a_judge, acceptance_note):
    """Default judge settings clear ACC 0.90 / MCC 0.80 on held-out pairs."""
    bench, bench_seconds = mix_a
    judge, judge_seconds = mix_a_judge
    start = time.perf_counter()
    dev = bench.cola.split("dev")
    counts = evaluate_judge(judge, dev)
    accuracy = acc(counts)
    correlation = mcc(counts)
    elapsed = bench_seconds + judge_seconds + (time.perf_counter() - start)
    acceptance_note(
        f"criterion 6: judge dev acc {accuracy:.4f} (floor {JUDGE_MIN_ACC}), "
        f"mcc {correlation:.4f} (floor {JUDGE_MIN_MCC}), "
        f"{counts.total} dev instances, {elapsed:.0f}s including data and training"
    )
    assert accuracy >= JUDGE_MIN_ACC
    assert correlation >= JUDGE_MIN_MCC
    assert elapsed < 120.0


# --- criterion 7 ----------------------------------------------------------

NON_INFERIORITY_POINTS = 0.5
ABLATION_SEEDS = (0, 1, 2, 3, 4)


def test_criterion_7_guided_training_non_inferiority(mix_a, mix_a_judge, acceptance_note):
    """Dynamic loss + reranking is no worse than plain CE over 5 seeds."""
    bench, _ = mix_a
    judge, _ = mix_a_judge
    start = time.perf_counter()
    report = ablation_run(
        _gec_stage(bench.gec_train),
        bench.gec_test,
        judge,
        ABLATION_SEEDS,
        GEC_MODEL,
        beam_size=4,
        rerank_lam=0.5,
    )
    elapsed = time.perf_counter() - start

    # One row per variant with P/R/F0.5 columns, per-seed scores kept.
    lines = report.render_table().strip().splitlines()
    assert lines[0].split() == ["variant", "P", "R", "F0.5"]
    assert len(lines) == 5
    data = report.to_json_dict()
    assert list(data["variants"]) == ["plain_ce", "dynamic", "plain_ce+rerank", "dynamic+rerank"]
    for name in data["variants"]:
        assert len(data["variants"][name]["per_seed"]) == len(ABLATION_SEEDS)

    delta = 100.0 * (report.means["dynamic+rerank"].f05 - report.means["plain_ce"].f05)
    acceptance_note(
        f"criterion 7: mean F0.5 delta {delta:+.2f} points (dynamic+rerank vs plain CE, "
        f"seeds {ABLATION_SEEDS}, floor {-NON_INFERIORITY_POINTS:+.1f}), {elapsed:.0f}s"
    )
    for line in lines:
        acceptance_note(f"criterion 7:   {line}")
    assert delta >= -NON_INFERIORITY_POINTS
    assert elapsed < 1200.0


# --- criterion 8 ----------------------------------------------------------

MIX_B_SEED = 19
MIX_B_SIZES = SizeConfig(gec_train=40, gec_dev=10, gec_test=250, cola_pairs=100)


def test_criterion_8_out_of_distribution_punct_filtering(mix_a, acceptance_note):
    """Excluding PUNCT edits cannot hurt a model that never saw them."""
    bench_a, _ = mix_a
    start = time.perf_counter()
    spec_b = make_preset("mix_b")
    bench_b = make_benchmark(spec_b, MIX_B_SIZES, seed=MIX_B_SEED)
    # The punctuation-heavy preset carries marks the training preset
    # lacks, so punctuation errors are out of distribution.
    assert set(bench_a.spec.grammar.punctuation) < set(spec_b.grammar.punctuation)

    sources = [pair.source for pair in bench_a.gec_train]
    targets = [pair.target for pair in bench_a.gec_train]
    model = Seq2SeqModel(Vocab.from_sentences(sources + targets), GEC_MODEL)
    train_gec(model, _gec_stage(bench_a.gec_train))

    hypotheses = greedy_decode_batch(model, model.encode([pair.source for pair in bench_b.gec_test]))
    lexicons = spec_b.grammar.lexicons()
    hyp_edits = [
        extract_edits(pair.source, hyp, lexicons)
        for hyp, pair in zip(hypotheses, bench_b.gec_test)
    ]
    unfiltered = evaluate_corpus(hyp_edits, bench_b.gec_test)
    filtered = filter_eval(hyp_edits, bench_b.gec_test, exclude={PUNCT}, mode=DROP_EDITS)
    elapsed = time.perf_counter() - start
    acceptance_note(
        f"criterion 8: F0.5 {100 * filtered.f05:.2f} without PUNCT vs "
        f"{100 * unfiltered.f05:.2f} unfiltered on the punct-heavy test set, {elapsed:.0f}s"
    )
    assert filtered.f05 >= unfiltered.f05
    assert elapsed < 300.0


# --- criterion 9 ----------------------------------------------------------

PIPELINE_MIN_COMPARED_FILES = 25


def _run_pipeline(base):
    base.mkdir()
    env = {key: value for key, value in os.environ.items() if not key.startswith("GECKIT_")}
    # Different hash seeds per run would expose any hidden reliance on
    # set iteration order; the caller passes distinct base dirs.
    env["PYTHONHASHSEED"] = str(1 + (base.name == "second"))
    # The child runs in base, where a relative PYTHONPATH entry such as
    # ``src`` no longer resolves; lead with the root of the geckit imported here.
    inherited = [os.path.abspath(entry) for entry in env.get("PYTHONPATH", "").split(os.pathsep) if entry]
    env["PYTHONPATH"] = os.pathsep.join([str(Path(geckit.__file__).resolve().parents[1]), *inherited])

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "geckit", *args],
            cwd=base,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (args, proc.stderr)

    cli(
        "synth-gen", "--preset", "mix_a", "--seed", "5",
        "--gec-train", "60", "--gec-dev", "12", "--gec-test", "20",
        "--cola-pairs", "300", "--out", "synth",
    )
    pairs = parse_m2((base / "synth" / "gec_test.m2").read_text(encoding="utf-8"))
    (base / "sources.txt").write_text(
        "\n".join(pair.source.text for pair in pairs) + "\n", encoding="utf-8"
    )
    cli(
        "build-cola", "--m2", "synth/gec_train.m2", "--m2", "synth/gec_dev.m2",
        "--seed", "5", "--out", "cola",
    )
    cli(
        "train-judge", "--train", "synth/cola_train.tsv", "--dev", "synth/cola_dev.tsv",
        "--dim", "16384", "--epochs", "12", "--out", "judge",
    )
    cli(
        "train-gec", "--train", "synth/gec_train.m2", "--epochs", "3",
        "--embed-dim", "8", "--hidden-dim", "12", "--batch-size", "16", "--out", "gec",
    )
    cli(
        "decode", "--model", "gec/gec_model", "--input", "sources.txt",
        "--judge", "judge/judge.json", "--beam", "2", "--out", "decode",
    )
    cli(
        "evaluate", "--hyp", "decode/corrected.txt", "--gold", "synth/gec_test.m2",
        "--lexicons", "synth/lexicons", "--out", "eval",
    )
    cli(
        "error-analysis", "--hyp", "decode/corrected.txt", "--gold", "synth/gec_test.m2",
        "--types", "PUNCT,OTHER", "--lexicons", "synth/lexicons", "--out", "analysis",
    )


def test_criterion_9_pipeline_determinism(tmp_path, acceptance_note):
    """The CLI pipeline run twice with one seed is bytewise identical."""
    start = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    _run_pipeline(first)
    _run_pipeline(second)

    first_files = sorted(path.relative_to(first) for path in first.rglob("*") if path.is_file())
    second_files = sorted(path.relative_to(second) for path in second.rglob("*") if path.is_file())
    assert first_files == second_files
    compared = 0
    for rel in first_files:
        if rel.name == "run.log":
            continue  # the only timestamped artifact by design
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)
        compared += 1
    elapsed = time.perf_counter() - start
    acceptance_note(
        f"criterion 9: {compared} pipeline artifacts bytewise identical across reruns "
        f"(run.log excluded), {elapsed:.0f}s for two pipelines"
    )
    assert compared >= PIPELINE_MIN_COMPARED_FILES
