"""Group identification and frame-wise label decoding for unseen sequences.

The predicted group is the one whose ``others`` class has the lowest mean
probability over the sequence; labels are then the per-frame argmax over
that group's real classes, mapped back to global ids. No adjustment and no
post-processing are applied at inference time.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ClassVocab, Corpus, FrameSeq, write_label_file
from .data.io import write_json
from .errors import ConfigError
from .grouping import GroupSpec
from .losses import softmax
from .model import ModelParams, forward, usable_cpus


@dataclass
class Prediction:
    seq_id: str
    group: int
    labels: np.ndarray       # global class ids, length T
    others_prob: np.ndarray  # mean `others` probability per group


def decode(logits, spec: GroupSpec, seq_id: str = "") -> Prediction:
    """Group and labels from one sequence's head logits by the rule above; ties pick the lowest."""
    probs = [softmax(s) for s in logits]
    others = np.array([p[spec.others_id(i)].mean() for i, p in enumerate(probs)])
    k = int(np.argmin(others))
    local = probs[k][:spec.num_real_classes(k)].argmax(axis=0)
    return Prediction(seq_id, k, np.asarray(spec.classes_of_group[k], dtype=np.int64)[local],
                      others)


def predict_sequence(features, params: ModelParams, spec: GroupSpec, seq_id: str = "") -> Prediction:
    """``decode`` of the eval-mode ``forward`` logits."""
    return decode(forward(features, params).logits, spec, seq_id)


def predict_corpus(params: ModelParams, dataset: Corpus, spec: GroupSpec) -> list[Prediction]:
    """Eval-mode predictions for every sequence, in corpus order. One process per CPU in the
    affinity mask predicts a contiguous shard of about equal frame count; the caller, which then
    scores alone, takes the last: at most an equal share unless the final sequence is longer."""
    if len(dataset) and dataset.feature_dim != params.cfg.in_dim:
        raise ConfigError(f"corpus features have dim {dataset.feature_dim}, "
                          f"model expects {params.cfg.in_dim}")
    if params.cfg.head_sizes != spec.head_sizes():
        raise ConfigError(f"group spec has head sizes {spec.head_sizes()}, "
                          f"model has {params.cfg.head_sizes}")
    cpus = usable_cpus()
    ends = np.cumsum([0] + [seq.num_frames for seq in dataset.sequences])
    cuts = np.searchsorted(ends, np.linspace(0, ends[-1], min(cpus, len(dataset)) + 1)).tolist()
    *rest, last = [range(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if a < b] or [range(0)]
    children = []
    try:
        for shard in rest:  # a forked child inherits params, dataset and spec, unpickled
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_predict, args=(params, dataset, spec, shard, sender))
            child.start()
            children.append((child, receiver))
            sender.close()  # the child holds the only writer left, so its exit ends the pipe
        own = _predict(params, dataset, spec, last)
        predictions = []
        for child, receiver in children:
            try:
                result = receiver.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(f"eval process exited with code {child.exitcode}") from None
            if isinstance(result, Exception):
                raise result
            predictions += result
        return predictions + own
    finally:  # once one shard failed the others are moot; after success all have been sent
        for child, _ in children:
            child.terminate()
            child.join()


def _predict(params, dataset, spec, shard: range, sender=None) -> list[Prediction] | None:
    """``predict_sequence`` over ``shard``; a child sends that list, or its exception, instead."""
    if sender is None:
        return [predict_sequence(dataset.features[i], params, spec, dataset.sequences[i].id)
                for i in shard]
    try:
        sender.send(_predict(params, dataset, spec, shard))
    except Exception as exc:  # the parent re-raises it
        sender.send(exc)


def write_predictions(predictions: list[Prediction], vocab: ClassVocab,
                      out_dir: str | Path) -> None:
    """One ground-truth-style label file per sequence plus a JSON sidecar
    carrying the predicted group and per-group ``others`` probabilities."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pred in predictions:
        seq = FrameSeq(pred.labels, id=pred.seq_id)
        write_label_file(out / f"{pred.seq_id}.txt", seq, vocab)
        sidecar = {"id": pred.seq_id, "group": pred.group,
                   "others_prob": [float(p) for p in pred.others_prob]}
        write_json(out / f"{pred.seq_id}.json", sidecar)
