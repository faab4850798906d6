"""Spans around geckit's public functions, installed from outside the package.

Each target is named by the module that defines it and an attribute path.
Installing a target wraps the function and rebinds every name that refers
to it in any loaded geckit module (a name imported into another module,
such as ``greedy_decode_batch`` in ``geckit.gec.training``, is patched
where it is looked up); a method is wrapped on its class. A target that
no longer exists is reported absent and the run goes on.

Spans are kept in memory as [name, start, end, parent] and summarised at
the end: inclusive time per name, self time (a span minus its child
spans) and counters taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _featurize(tr, i, args, kwargs, result) -> None:
    tr.count["judge.featurize_rows"] += result.shape[0]


def _logits(tr, i, args, kwargs, result) -> None:
    tr.count["judge.logits_calls"] += 1
    tr.texts.add(_arg(args, kwargs, 1, "sentence").text)


def _loss_and_grads(tr, i, args, kwargs, result) -> None:
    tr.count["gec.loss_and_grads_calls"] += 1
    targets = _arg(args, kwargs, 2, "targets")
    tr.count["gec.teacher_forced_tokens"] += sum(len(t) + 1 for t in targets)  # + EOS


def _decode_step(tr, i, args, kwargs, result) -> None:
    tr.count["gec.decode_step_calls"] += 1
    tr.count["gec.decode_step_rows"] += len(_arg(args, kwargs, 3, "token_ids"))


def _greedy(tr, i, args, kwargs, result) -> None:
    # A row is useful while its sentence has not emitted EOS.
    steps = sum(1 for span in tr.spans[i + 1 :] if span[3] == i and span[0] == "gec.decode_step")
    tr.count["greedy.rows"] += steps * len(result)
    tr.count["greedy.useful_rows"] += sum(min(len(out) + 1, steps) for out in result)


def _beam(tr, i, args, kwargs, result) -> None:
    tr.count["gec.beam_truncated"] += any(h.truncated for h in result)


def _rerank(tr, i, args, kwargs, result) -> None:
    hypotheses = _arg(args, kwargs, 0, "hypotheses")
    tr.count["gec.rerank_flips"] += result.tokens != hypotheses[0].tokens


def _align(tr, i, args, kwargs, result) -> None:
    tr.count["align.align_tokens_calls"] += 1
    source, target = _arg(args, kwargs, 0, "source"), _arg(args, kwargs, 1, "target")
    tr.count["align.dp_cells"] += len(source) * len(target)


def _calls(counter: str):
    def hook(tr, i, args, kwargs, result) -> None:
        tr.count[counter] += 1

    return hook


# (span name, defining module, attribute path, counter hook)
TARGETS = [
    ("synth.make_benchmark", "geckit.synth", "make_benchmark", None),
    ("synth.write_benchmark", "geckit.synth", "write_benchmark", None),
    ("colacorpus.merge_corpora", "geckit.colacorpus", "merge_corpora", None),
    ("textcore.parse_m2", "geckit.textcore", "parse_m2", None),
    ("textcore.parse_cola_tsv", "geckit.textcore", "parse_cola_tsv", None),
    ("judge.featurize", "geckit.judge", "featurize", _featurize),
    ("judge.train_judge", "geckit.judge", "train_judge", None),
    ("judge.minibatch_step", "geckit.judge", "logistic_grad", _calls("judge.minibatch_steps")),
    ("judge.evaluate_judge", "geckit.judge", "evaluate_judge", None),
    ("judge.logits", "geckit.judge", "JudgeModel.logits", _logits),
    ("gec.train_gec", "geckit.gec.training", "train_gec", None),
    ("gec.loss_and_grads", "geckit.gec.model", "Seq2SeqModel.loss_and_grads", _loss_and_grads),
    ("gec.encode", "geckit.gec.model", "Seq2SeqModel._encode", None),
    ("gec.optimizer_step", "geckit.gec.optim", "Adam.step", None),
    ("gec.optimizer_step", "geckit.gec.optim", "Sgd.step", None),
    ("gec.decode_step", "geckit.gec.model", "Seq2SeqModel.decode_step", _decode_step),
    ("gec.greedy_decode", "geckit.gec.decoding", "greedy_decode_batch", _greedy),
    ("gec.beam_decode", "geckit.gec.decoding", "beam_decode", _beam),
    ("gec.rerank", "geckit.gec.decoding", "rerank_with_cola", _rerank),
    ("align.align_tokens", "geckit.align", "align_tokens", _align),
    ("align.extract_edits", "geckit.align", "extract_edits", None),
    ("evalmetrics.evaluate_corpus", "geckit.evalmetrics", "evaluate_corpus", None),
    ("evalmetrics.filter_eval", "geckit.evalmetrics", "filter_eval", None),
    ("evalmetrics.dev_scoring", "geckit.gec.training", "_dev_f05", None),
    ("evalmetrics.ablation_run", "geckit.evalmetrics", "ablation_run", None),
]

# Per-layer times: (metric, kind, span name); "total" sums the spans of the
# name, "self" their self times. Counts: (metric, span name whose function
# must exist), read from the counters the hooks keep. The derived metrics
# are computed in Tracer.metrics.
TIME_METRICS = [
    ("synth.make_benchmark_s", "total", "synth.make_benchmark"),
    ("synth.write_benchmark_s", "total", "synth.write_benchmark"),
    ("colacorpus.merge_corpora_s", "total", "colacorpus.merge_corpora"),
    ("textcore.parse_m2_s", "total", "textcore.parse_m2"),
    ("textcore.parse_cola_tsv_s", "total", "textcore.parse_cola_tsv"),
    ("judge.featurize_s", "total", "judge.featurize"),
    ("judge.train_judge_self_s", "self", "judge.train_judge"),
    ("judge.evaluate_judge_s", "total", "judge.evaluate_judge"),
    ("judge.logits_s", "total", "judge.logits"),
    ("gec.train_gec_self_s", "self", "gec.train_gec"),
    ("gec.loss_and_grads_s", "total", "gec.loss_and_grads"),
    ("gec.encode_s", "total", "gec.encode"),
    ("gec.optimizer_step_s", "total", "gec.optimizer_step"),
    ("gec.decode_step_s", "total", "gec.decode_step"),
    ("gec.greedy_decode_s", "total", "gec.greedy_decode"),
    ("gec.beam_decode_s", "total", "gec.beam_decode"),
    ("gec.rerank_s", "total", "gec.rerank"),
    ("align.align_tokens_s", "total", "align.align_tokens"),
    ("align.extract_edits_s", "total", "align.extract_edits"),
    ("evalmetrics.evaluate_corpus_s", "total", "evalmetrics.evaluate_corpus"),
    ("evalmetrics.filter_eval_s", "total", "evalmetrics.filter_eval"),
    ("evalmetrics.dev_scoring_s", "total", "evalmetrics.dev_scoring"),
    ("evalmetrics.ablation_run_s", "total", "evalmetrics.ablation_run"),
]
COUNT_METRICS = [
    ("judge.featurize_rows", "judge.featurize"),
    ("judge.minibatch_steps", "judge.minibatch_step"),
    ("judge.logits_calls", "judge.logits"),
    ("gec.loss_and_grads_calls", "gec.loss_and_grads"),
    ("gec.teacher_forced_tokens", "gec.loss_and_grads"),
    ("gec.decode_step_calls", "gec.decode_step"),
    ("gec.decode_step_rows", "gec.decode_step"),
    ("gec.beam_truncated", "gec.beam_decode"),
    ("gec.rerank_flips", "gec.rerank"),
    ("align.align_tokens_calls", "align.align_tokens"),
    ("align.dp_cells", "align.align_tokens"),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, object) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        return None


class Tracer:
    """Installs span wrappers on enter and removes them on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.count: dict[str, int] = defaultdict(int)
        self.texts: set[str] = set()
        self.present: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, index, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "geckit" or n.startswith("geckit.")]
        for name, module_name, path, hook in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            self.present.add(name)
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return dict(total), dict(own)

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values, and the metrics whose functions are absent."""
        total, own = self.totals()
        values: dict[str, float] = {}
        absent = []
        for metric, kind, name in TIME_METRICS:
            values[metric] = (own if kind == "self" else total).get(name, 0.0)
            if name not in self.present:
                absent.append(metric)
        for metric, name in COUNT_METRICS:
            values[metric] = self.count.get(metric, 0)
            if name not in self.present:
                absent.append(metric)
        # The dynamic weights: greedy decodes and judge calls made directly under train_gec.
        values["gec.dynamic_weight_s"] = sum(
            end - start
            for name, start, end, parent in self.spans
            if parent >= 0
            and name in ("gec.greedy_decode", "judge.logits")
            and self.spans[parent][0] == "gec.train_gec"
        )
        calls = self.count.get("judge.logits_calls", 0)
        values["judge.logits_distinct_ratio"] = len(self.texts) / calls if calls else 0.0
        rows = self.count.get("greedy.rows", 0)
        values["gec.greedy_useful_row_ratio"] = self.count.get("greedy.useful_rows", 0) / rows if rows else 0.0
        for metric, needs in (
            ("gec.dynamic_weight_s", ("gec.train_gec", "gec.greedy_decode", "judge.logits")),
            ("judge.logits_distinct_ratio", ("judge.logits",)),
            ("gec.greedy_useful_row_ratio", ("gec.greedy_decode", "gec.decode_step")),
        ):
            if not all(n in self.present for n in needs):
                absent.append(metric)
        return values, sorted(set(absent))

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, self.run_id]) + "\n")
