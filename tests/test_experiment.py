"""Tests for the ablation grid."""

import json
import os
import re
import resource
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

import geckit.experiment
from geckit.errors import ConfigError, EmptyEvaluation, GeckitError, InvalidLogits
from geckit.evalmetrics import Prf, evaluate_hypotheses
from geckit.experiment import ablation_run, mean_prf
from geckit.gec import (
    DYNAMIC,
    PLAIN_CE,
    ModelConfig,
    Seq2SeqModel,
    TrainStage,
    Vocab,
    beam_decode,
    decode,
    greedy_decode_batch,
    rerank_with_cola,
    train_gec,
)
from geckit.judge import Logits, cola_score
from geckit.textcore import OTHER, AnnotatedPair, Edit, Sentence


TOY_WORDS = ("alpha", "bravo", "carol", "delta", "echo")


def toy_pairs(n, seed):
    """Single-corruption pairs: one token replaced by an out-of-list marker."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        length = int(rng.integers(3, 6))
        tokens = [TOY_WORDS[int(i)] for i in rng.integers(0, len(TOY_WORDS), length)]
        pos = int(rng.integers(0, length))
        src = list(tokens)
        src[pos] = "zz"
        fix = Edit(pos, pos + 1, (tokens[pos],), OTHER)
        pairs.append(AnnotatedPair.from_edits(Sentence(tuple(src)), (fix,)))
    return pairs


class FlatJudge:
    """Indifferent judge; exercises the dynamic and rerank code paths."""

    dev_accuracy = 0.9

    def logits(self, sentence):
        return Logits(0.0, 0.0)

    def score(self, sentence):
        return cola_score(self.logits(sentence))

    def scores(self, sentences):
        return [self.score(s).value for s in sentences]


@pytest.fixture(scope="module")
def toy_task():
    stage = TrainStage(pairs=tuple(toy_pairs(48, seed=11)), epochs=5, lr=0.05, batch_size=16)
    return stage, toy_pairs(16, seed=12), ModelConfig(embed_dim=8, hidden_dim=12)


@pytest.fixture(scope="module")
def toy_report(toy_task):
    stage, test, config = toy_task
    return ablation_run(stage, test, FlatJudge(), (0, 1), config, beam_size=3)


GRID = ("plain_ce", "dynamic", "plain_ce+rerank", "dynamic+rerank")


class TestAblation:
    def test_duplicate_seeds_rejected(self, toy_task):
        stage, test, config = toy_task
        with pytest.raises(ConfigError):
            ablation_run(stage, test, FlatJudge(), (3, 3), config)

    def test_dynamic_needs_judge(self, toy_task):
        stage, test, config = toy_task
        with pytest.raises(ConfigError, match="judge"):
            ablation_run(stage, test, None, (0,), config)

    @pytest.mark.parametrize(
        "beam_size,rerank_lam,message",
        [
            (0, 0.5, "beam_size must be >= 1, got 0"),
            (10**6, 0.5, "exceeds the vocabulary"),
            (2, -0.1, "rerank_lam must be >= 0, got -0.1"),
            (2, float("nan"), "rerank_lam must be >= 0, got nan"),
        ],
    )
    def test_bad_rerank_settings_rejected_before_training(
        self, toy_task, monkeypatch, beam_size, rerank_lam, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the settings were checked")

        monkeypatch.setattr(geckit.experiment, "train_gec", no_training)
        stage, test, config = toy_task
        with pytest.raises(ConfigError, match=re.escape(message)):
            ablation_run(stage, test, FlatJudge(), (0,), config, beam_size, rerank_lam)

    def test_mean_prf_empty(self):
        with pytest.raises(EmptyEvaluation):
            mean_prf([])

    def test_mean_prf_adds_left_to_right(self):
        """0.1 added ten times from 0.0 is 0.9999999999999999 on every Python.

        From 3.12 on the builtin sum compensates and gives 1.0 (gh-100425).
        """
        mean = 0.9999999999999999 / 10
        assert mean_prf([Prf(0.1, 0.1, 0.1)] * 10) == Prf(mean, mean, mean)

    def test_report_shape(self, toy_report):
        assert toy_report.variants == GRID
        assert toy_report.seeds == (0, 1)
        for name in toy_report.variants:
            assert len(toy_report.per_seed[name]) == 2
            assert toy_report.means[name] == mean_prf(toy_report.per_seed[name])
            for scores in toy_report.per_seed[name]:
                assert 0.0 <= scores.f05 <= 1.0

    def test_render_table(self, toy_report):
        lines = toy_report.render_table().splitlines()
        assert len(lines) == 1 + len(GRID)
        assert lines[0].split() == ["variant", "P", "R", "F0.5"]
        for line in lines[1:]:
            cells = line.split()
            assert len(cells) == 4
            assert all(0.0 <= float(c) <= 100.0 for c in cells[1:])

    def test_json_dict_recomputable(self, toy_report):
        data = json.loads(json.dumps(toy_report.to_json_dict()))
        assert data["seeds"] == [0, 1]
        for name in toy_report.variants:
            entry = data["variants"][name]
            per_seed = entry["per_seed"]
            assert [row["seed"] for row in per_seed] == [0, 1]
            recomputed = sum(row["f0.5"] for row in per_seed) / len(per_seed)
            assert entry["f0.5"] == pytest.approx(recomputed, abs=0.01)

    def test_deterministic(self, toy_task):
        stage, test, config = toy_task
        runs = [ablation_run(stage, test, FlatJudge(), (7,), config, beam_size=2) for _ in range(2)]
        assert runs[0].per_seed == runs[1].per_seed

    def test_variants_sharing_a_loss_share_one_model(self, toy_task, monkeypatch, tmp_path):
        stage, test, config = toy_task
        judge = FlatJudge()
        seeds = (0, 1)
        # The groups may train in worker processes: each call appends one line.
        calls_file = tmp_path / "train_gec_calls"

        def counting_train_gec(*args, **kwargs):
            fd = os.open(calls_file, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{args[0].config.seed}\n".encode())
            finally:
                os.close(fd)
            return train_gec(*args, **kwargs)

        monkeypatch.setattr(geckit.experiment, "train_gec", counting_train_gec)
        report = ablation_run(stage, test, judge, seeds, config, beam_size=2, rerank_lam=0.7)
        calls = [int(line) for line in calls_file.read_text(encoding="utf-8").split()]
        assert sorted(calls) == [0, 0, 1, 1]

        # Reference: a fresh model for every (row, seed) cell.
        sentences = [p.source for p in stage.pairs] + [p.target for p in stage.pairs]
        vocab = Vocab.from_sentences(sentences)
        sources = [pair.source for pair in test]
        for loss in (PLAIN_CE, DYNAMIC):
            for rerank in (False, True):
                expected = []
                for seed in seeds:
                    model = Seq2SeqModel(vocab, replace(config, seed=seed))
                    train_gec(model, replace(stage, loss=loss), judge=judge)
                    if rerank:
                        decoded = [
                            rerank_with_cola(beam_decode(model, src, 2), judge, 0.7)
                            for src in sources
                        ]
                    else:
                        decoded = greedy_decode_batch(model, model.encode(sources))
                    r = evaluate_hypotheses(decoded, test)
                    expected.append(Prf(r.precision, r.recall, r.f05))
                name = f"{loss}+rerank" if rerank else loss
                assert report.per_seed[name] == tuple(expected)

    def test_per_seed_follows_the_seed_order(self, toy_task):
        stage, test, config = toy_task
        judge = FlatJudge()
        seeds = (3, 1, 2)
        report = ablation_run(stage, test, judge, seeds, config, beam_size=2)
        assert report.seeds == seeds

        # Reference: the same (seed, loss) groups, one after another in this process.
        vocab = Vocab.from_pairs(stage.pairs)
        sources = [pair.source for pair in test]
        expected = {name: [] for name in GRID}
        for seed in seeds:
            for loss in (PLAIN_CE, DYNAMIC):
                model = Seq2SeqModel(vocab, replace(config, seed=seed))
                train_gec(model, replace(stage, loss=loss), judge=judge)
                for name, decoded in (
                    (loss, decode(model, sources)),
                    (f"{loss}+rerank", decode(model, sources, 2, judge, 0.5)),
                ):
                    r = evaluate_hypotheses(decoded, test)
                    expected[name].append(Prf(r.precision, r.recall, r.f05))
        assert report.per_seed == {name: tuple(rows) for name, rows in expected.items()}

    def test_dynamic_groups_start_first_and_rows_come_back_seed_major(self, toy_task, monkeypatch):
        stage, test, config = toy_task
        started = []

        def tagged_groups(group, keys, workers):
            """Start nothing; each group's rows name it: precision the seed, recall the row, f05 the loss."""
            started.extend(keys)
            return [[Prf(seed, row, float(loss == DYNAMIC)) for row in (0.0, 1.0)] for seed, loss in keys]

        monkeypatch.setattr(geckit.experiment, "_run_groups", tagged_groups)
        seeds = (3, 1, 2)
        report = ablation_run(stage, test, FlatJudge(), seeds, config, beam_size=2)
        assert started == [(seed, DYNAMIC) for seed in seeds] + [(seed, PLAIN_CE) for seed in seeds]
        for loss in (PLAIN_CE, DYNAMIC):
            tag = float(loss == DYNAMIC)
            assert report.per_seed[loss] == tuple(Prf(seed, 0.0, tag) for seed in seeds)
            assert report.per_seed[f"{loss}+rerank"] == tuple(Prf(seed, 1.0, tag) for seed in seeds)

    def test_error_in_a_group_reaches_the_caller(self, toy_task):
        class RaisingJudge(FlatJudge):
            def logits(self, sentence):
                raise InvalidLogits("non-finite logits (nan, 0.0)")

        stage, test, config = toy_task
        with pytest.raises(InvalidLogits) as excinfo:
            ablation_run(stage, test, RaisingJudge(), (0, 1), config)
        assert type(excinfo.value) is InvalidLogits
        assert str(excinfo.value) == "non-finite logits (nan, 0.0)"
        with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_dead_group_ends_the_run(self, toy_task, monkeypatch, tmp_path):
        """A group killed by a signal ends the run at once, naming it, with no child left."""
        stage, test, config = toy_task
        pids = tmp_path / "pids"

        def dying_train_gec(model, stage, judge=None, **kwargs):
            with pids.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            if (model.config.seed, stage.loss) == (0, DYNAMIC):
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)

        def hung(signum, frame):
            raise TimeoutError("ablation_run waited on a dead group")

        monkeypatch.setattr(geckit.experiment, "train_gec", dying_train_gec)
        # A hang fails the test instead of the suite; forked children do not inherit the alarm.
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(GeckitError) as excinfo:
                ablation_run(stage, test, FlatJudge(), (0, 1), config)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(excinfo.value) == (
            "ablation group (seed 0, loss dynamic) ended by signal SIGKILL without its scores"
        )
        with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        for pid in map(int, pids.read_text(encoding="utf-8").split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_groups_run_with_descriptors_past_1024(self):
        """The pipes may be numbered 1024 and above, where select.select would refuse them."""
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft != resource.RLIM_INFINITY and soft < 1100:
            if hard != resource.RLIM_INFINITY and hard < 1100:
                pytest.skip(f"at most {hard} open files allowed")
            resource.setrlimit(resource.RLIMIT_NOFILE, (1100, hard))
        held = [os.open(os.devnull, os.O_RDONLY)]
        try:
            while held[-1] < 1024:
                held.append(os.open(os.devnull, os.O_RDONLY))
            keys = [(0, PLAIN_CE), (0, DYNAMIC), (1, PLAIN_CE)]
            assert geckit.experiment._run_groups(lambda key: [key], keys, 2) == [[key] for key in keys]
        finally:
            for fd in held:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        with pytest.raises(ChildProcessError):  # no child is left, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "exitcode,how",
        [(-9, "signal SIGKILL"), (-35, "signal 35"), (1, "exit code 1")],
    )
    def test_a_dead_group_is_named_with_how_it_ended(self, exitcode, how):
        error = geckit.experiment._died((2, DYNAMIC), exitcode)
        assert str(error) == f"ablation group (seed 2, loss dynamic) ended by {how} without its scores"
