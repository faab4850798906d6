"""The paper's ablation grid: train with each loss, decode, and score.

The grid is fixed at 2x2: plain cross-entropy against the judge-weighted
dynamic loss, each decoded greedily and as a judge-reranked beam. It
runs over a seed list and reports mean P/R/F0.5 with the per-seed
values behind them. Every grid runs each (seed, loss) group in its own
forked child, which leaves Ctrl-C to the parent; a child that dies
without its scores ends the run with one error naming its group.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from .errors import ConfigError, EmptyEvaluation, GeckitError
from .evalmetrics import Prf, evaluate_hypotheses, prf_table
from .gec import (
    DYNAMIC,
    LOSS_KINDS,
    ModelConfig,
    Seq2SeqModel,
    TrainStage,
    Vocab,
    check_beam_size,
    check_dynamic_judge,
    check_rerank_lam,
    decode,
    train_gec,
)
from .textcore import AnnotatedPair


def mean_prf(values: Sequence[Prf]) -> Prf:
    if not values:
        raise EmptyEvaluation("no scores to average")
    # Added left to right from 0.0 on every Python: from 3.12 on the builtin
    # sum compensates float rounding (gh-100425), which would change the means.
    def mean(field: str) -> float:
        total = 0.0
        for v in values:
            total += getattr(v, field)
        return total / len(values)

    return Prf(mean("precision"), mean("recall"), mean("f05"))


@dataclass(frozen=True, slots=True)
class AblationReport:
    """Mean scores per variant with the per-seed values behind them."""

    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    per_seed: Mapping[str, tuple[Prf, ...]]
    means: Mapping[str, Prf]

    def to_json_dict(self) -> dict:
        out: dict = {"seeds": list(self.seeds), "variants": {}}
        for name in self.variants:
            mean = self.means[name]
            out["variants"][name] = {
                "precision": round(100.0 * mean.precision, 2),
                "recall": round(100.0 * mean.recall, 2),
                "f0.5": round(100.0 * mean.f05, 2),
                "per_seed": [
                    {
                        "seed": seed,
                        "precision": round(100.0 * v.precision, 4),
                        "recall": round(100.0 * v.recall, 4),
                        "f0.5": round(100.0 * v.f05, 4),
                    }
                    for seed, v in zip(self.seeds, self.per_seed[name])
                ],
            }
        return out

    def render_table(self) -> str:
        return prf_table("variant", [(name, self.means[name]) for name in self.variants])


def _child(group, key: tuple[int, str], writer: int) -> None:
    """In a forked child: pickle (True, rows) or (False, exception) into writer, then exit 0."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # only the parent reports Ctrl-C
    try:
        message = pickle.dumps((True, group(key)))
    except Exception as exc:  # raised again in the parent
        message = pickle.dumps((False, exc))
    with open(writer, "wb") as pipe:
        pipe.write(message)
    os._exit(0)


def _died(key: tuple[int, str], exitcode: int) -> GeckitError:
    seed, loss = key
    try:
        how = f"signal {signal.Signals(-exitcode).name}" if exitcode < 0 else f"exit code {exitcode}"
    except ValueError:  # a real-time signal between SIGRTMIN and SIGRTMAX has no name
        how = f"signal {-exitcode}"
    return GeckitError(f"ablation group (seed {seed}, loss {loss}) ended by {how} without its scores")


def _run_groups(group, keys: list[tuple[int, str]], workers: int) -> list:
    """group(key) for every key, each in its own forked child, at most workers at once.

    Under fork the function and all it closes over (vocab, stage, judge,
    test pairs) reach each child by inheritance: only the pickled rows or
    exception come back, through the child's own pipe, read to its end
    before the child is reaped. The results are in key order. Any error,
    Ctrl-C included, terminates and reaps the children still running.
    """
    results: dict[int, list] = {}
    running: dict[int, tuple[int, int, bytearray]] = {}  # read end -> (key index, pid, bytes read)
    poller = select.poll()  # unlike select.select, it takes descriptors numbered 1024 and above

    def finish(reader: int) -> None:
        status = os.waitpid(running[reader][1], 0)[1]  # still in running, so an interrupt here reaps it
        index, pid, data = running.pop(reader)
        poller.unregister(reader)
        os.close(reader)
        exitcode = os.waitstatus_to_exitcode(status)
        if exitcode != 0 or not data:
            raise _died(keys[index], exitcode)
        ok, results[index] = pickle.loads(data)  # the rows, or the exception the group raised
        if not ok:
            raise results[index]

    try:
        for index, key in enumerate(keys):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                try:  # entered before any call, so nothing the child raises unwinds the parent's stack
                    _child(group, key, writer)
                finally:
                    os._exit(1)
            os.close(writer)  # the child holds the only copy left, so its exit ends the pipe
            running[reader] = (index, pid, bytearray())
            poller.register(reader, select.POLLIN)
            while len(running) == workers or (running and index == len(keys) - 1):
                for ready, _ in poller.poll():
                    chunk = os.read(ready, 1 << 16)
                    running[ready][2].extend(chunk)
                    if not chunk:
                        finish(ready)
    finally:
        for index, pid, data in running.values():
            os.kill(pid, signal.SIGTERM)
        for reader, (index, pid, data) in running.items():
            os.close(reader)
            os.waitpid(pid, 0)
    return [results[index] for index in range(len(keys))]


def ablation_run(
    stage: TrainStage,
    test_pairs: Sequence[AnnotatedPair],
    judge,
    seeds: Sequence[int],
    model_config: ModelConfig,
    beam_size: int = 4,
    rerank_lam: float = 0.5,
) -> AblationReport:
    """Train and score the 2x2 grid over the seed list.

    stage carries the shared training pairs and optimization settings;
    each loss in LOSS_KINDS replaces the stage's. For each seed one model
    is trained per loss, and it decodes the test sources twice: greedily,
    and as a beam of beam_size reranked by the judge with weight
    rerank_lam. The rows are named plain_ce, dynamic, plain_ce+rerank
    and dynamic+rerank. Decoding leaves the model unchanged, so this
    equals a fresh model per (row, seed) cell. Reported cells are means
    over seeds; the per-seed values are kept so the means can be
    recomputed.

    The (seed, loss) groups are independent and fully seeded, so each
    runs in its own forked child, as many at once as there are usable
    CPUs, and their scores are put back in seed-major order. The
    dynamic groups, which also decode and score every batch, take
    longest and start first, so that the run does not end on one of
    them alone.
    """
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be non-empty and unique")
    if not test_pairs:
        raise EmptyEvaluation("empty test set")
    check_rerank_lam(rerank_lam)
    check_dynamic_judge(judge)
    vocab = Vocab.from_pairs(stage.pairs)
    check_beam_size(beam_size, len(vocab))
    sources = [pair.source for pair in test_pairs]

    def group(key: tuple[int, str]) -> list[Prf]:
        """Train one model for (seed, loss); score its greedy and its reranked decode."""
        seed, loss = key
        model = Seq2SeqModel(vocab, replace(model_config, seed=seed))
        train_gec(model, replace(stage, loss=loss), judge=judge)
        greedy = decode(model, sources)
        reranked = decode(model, sources, beam_size, judge, rerank_lam)
        rows = []
        for decoded in (greedy, reranked):
            report = evaluate_hypotheses(decoded, list(test_pairs))
            rows.append(Prf(report.precision, report.recall, report.f05))
        return rows

    keys = [(seed, loss) for seed in seeds for loss in LOSS_KINDS]
    order = sorted(keys, key=lambda key: key[1] != DYNAMIC)
    results = dict(zip(order, _run_groups(group, order, len(os.sched_getaffinity(0)))))
    names = (*LOSS_KINDS, *(f"{loss}+rerank" for loss in LOSS_KINDS))
    scores: dict[str, list[Prf]] = {name: [] for name in names}
    for seed, loss in keys:
        greedy, reranked = results[seed, loss]
        scores[loss].append(greedy)
        scores[f"{loss}+rerank"].append(reranked)
    per_seed = {name: tuple(values) for name, values in scores.items()}
    means = {name: mean_prf(per_seed[name]) for name in names}
    return AblationReport(names, tuple(seeds), per_seed, means)
