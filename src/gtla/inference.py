"""Group identification and frame-wise label decoding for unseen sequences.

The predicted group is the one whose ``others`` class has the lowest mean
probability over the sequence; labels are then the per-frame argmax over
that group's real classes, mapped back to global ids. No adjustment and no
post-processing are applied at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ClassVocab, Corpus, FrameSeq, write_label_file
from .data.io import write_json
from .errors import ConfigError
from .grouping import GroupSpec
from .losses import softmax
from .model import ModelParams, forward


@dataclass
class Prediction:
    seq_id: str
    group: int
    labels: np.ndarray       # global class ids, length T
    others_prob: np.ndarray  # mean `others` probability per group


def predict_sequence(features, params: ModelParams, spec: GroupSpec,
                     seq_id: str = "") -> Prediction:
    """Group and labels of one sequence by the rule above; ties pick the lowest index."""
    probs = [softmax(s) for s in forward(features, params).logits]
    others = np.array([p[spec.others_id(i)].mean() for i, p in enumerate(probs)])
    k = int(np.argmin(others))
    local = probs[k][:spec.num_real_classes(k)].argmax(axis=0)
    return Prediction(seq_id, k, np.asarray(spec.classes_of_group[k], dtype=np.int64)[local],
                      others)


def predict_corpus(params: ModelParams, dataset: Corpus, spec: GroupSpec) -> list[Prediction]:
    """Eval-mode predictions for every sequence, in corpus order."""
    if len(dataset) and dataset.feature_dim != params.cfg.in_dim:
        raise ConfigError(f"corpus features have dim {dataset.feature_dim}, "
                          f"model expects {params.cfg.in_dim}")
    if params.cfg.head_sizes != spec.head_sizes():
        raise ConfigError(f"group spec has head sizes {spec.head_sizes()}, "
                          f"model has {params.cfg.head_sizes}")
    return [predict_sequence(x, params, spec, seq_id=seq.id) for seq, x in dataset.widened()]


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
