"""Span tracing around the gtla library, installed from outside the package.

A :class:`Tracer` records one span per call of a wrapped function: its name,
start and end (``perf_counter_ns``) and the index of the span that was open
when it started. Spans stay in memory until the run ends. :func:`install`
replaces each function at the name its caller resolves (for example
``gtla.training.forward``, which ``train_epoch`` looks up in its own module)
and puts every original back on exit, so nothing under ``src/`` changes and
an untraced run executes no tracing code at all.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). A function that several modules import is
# patched at each caller's binding; every call goes through exactly one of
# them, so nothing is counted twice.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("gtla.data.io", "load_corpus", "data.load_corpus"),
    ("gtla.grouping", "build_group_spec", "grouping.build_group_spec"),
    ("gtla.grouping", "hierarchical_cluster", "grouping.hierarchical_cluster"),
    ("gtla.grouping", "symmetric_kl", "grouping.symmetric_kl"),
    ("gtla.training", "relabel_for_group", "grouping.relabel_for_group"),
    ("gtla.priors", "relabel_for_group", "grouping.relabel_for_group"),
    ("gtla.metrics", "relabel_for_group", "grouping.relabel_for_group"),
    ("gtla.priors", "extract_priors", "priors.extract_priors"),
    ("gtla.losses", "temporal_factor_matrix", "priors.temporal_factor_matrix"),
    ("gtla.training", "init_train_state", "training.init_train_state"),
    ("gtla.training", "train_epoch", "training.train_epoch"),
    ("gtla.training", "forward", "model.forward.train"),
    ("gtla.training", "backward", "model.backward"),
    ("gtla.training", "adam_step", "model.adam_step"),
    ("gtla.training", "total_loss", "losses.total_loss"),
    ("gtla.losses", "gtla_adjust", "losses.gtla_adjust"),
    ("gtla.losses", "smoothing_loss", "losses.smoothing_loss"),
    ("gtla.model", "save_checkpoint", "model.save_checkpoint"),
    ("gtla.model", "load_checkpoint", "model.load_checkpoint"),
    ("gtla.inference", "predict_corpus", "inference.predict_corpus"),
    ("gtla.inference", "predict_sequence", "inference.predict_sequence"),
    ("gtla.inference", "forward", "model.forward.eval"),
    ("gtla.metrics", "compute_report", "metrics.compute_report"),
    ("gtla.metrics", "fp_taxonomy", "metrics.fp_taxonomy"),
    ("gtla.metrics", "balanced_f1", "metrics.balanced_f1"),
)

# Indices into a span record.
NAME, START, END, PARENT = range(4)


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._open: list[int] = []

    def _enter(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        record = [name, 0, 0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter_ns()
        return record

    def _exit(self, record: list) -> None:
        record[END] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        record = self._enter(name)
        try:
            yield
        finally:
            self._exit(record)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(record)
        return traced

    def write(self, path: str | Path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


@contextmanager
def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target with ``tracer``; restore the originals on exit."""
    originals = []
    try:
        for module_name, attr, span_name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, inclusive and self time, per-call durations.

    Self time is a span's duration minus the durations of its direct child
    spans. Spans nest strictly on one thread, so children never overlap and
    a parent's self time plus its children's durations equals its duration.
    """
    child_ns = [0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_ns[record[PARENT]] += record[END] - record[START]
    stats: dict[str, dict] = {}
    for i, record in enumerate(spans):
        duration = record[END] - record[START]
        entry = stats.setdefault(record[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0,
                                                "durations_ns": []})
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns[i]
        entry["durations_ns"].append(duration)
    return stats
