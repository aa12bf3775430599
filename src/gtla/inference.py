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
from .grouping import GroupSpec
from .losses import softmax
from .model import ModelParams, forward


@dataclass
class Prediction:
    seq_id: str
    group: int
    labels: np.ndarray       # global class ids, length T
    probs: np.ndarray        # winning class probability per frame
    others_prob: np.ndarray  # mean `others` probability per group


def identify_group(logits: list[np.ndarray], spec: GroupSpec) -> int:
    """Group with the lowest mean ``others`` probability; ties pick the lowest index."""
    return _lowest_others([softmax(s) for s in logits], spec)[0]


def others_probabilities(logits: list[np.ndarray], spec: GroupSpec) -> np.ndarray:
    return _lowest_others([softmax(s) for s in logits], spec)[1]


def _lowest_others(probs: list[np.ndarray], spec: GroupSpec) -> tuple[int, np.ndarray]:
    """The group rule on each head's softmax: (group, mean ``others`` probability per group)."""
    means = np.array([p[spec.others_id(i)].mean() for i, p in enumerate(probs)])
    return int(np.argmin(means)), means


def decode_labels(logits: np.ndarray, spec: GroupSpec, k: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame argmax over group k's real classes, as global ids.

    The ``others`` row is excluded, so decoded labels always stay inside
    the group's class list; ties pick the lowest local index.
    """
    return _decode(softmax(logits), spec, k)


def _decode(probs: np.ndarray, spec: GroupSpec, k: int) -> tuple[np.ndarray, np.ndarray]:
    real = probs[:spec.num_real_classes(k)]
    local = real.argmax(axis=0)
    mapping = np.asarray(spec.local_to_global(k), dtype=np.int64)
    return mapping[local], real[local, np.arange(local.size)]


def predict_sequence(features, params: ModelParams, spec: GroupSpec,
                     seq_id: str = "") -> Prediction:
    probs = [softmax(s) for s in forward(features, params, mode="eval").logits]
    k, others = _lowest_others(probs, spec)
    labels, winner = _decode(probs[k], spec, k)
    return Prediction(seq_id, k, labels, winner, others)


def predict_corpus(params: ModelParams, dataset: Corpus, spec: GroupSpec) -> list[Prediction]:
    """Eval-mode predictions for every sequence, in corpus order."""
    if dataset.feature_dim != params.cfg.in_dim:
        raise ValueError(f"corpus features have dim {dataset.feature_dim}, "
                         f"model expects {params.cfg.in_dim}")
    return [predict_sequence(feats, params, spec, seq_id=seq.id)
            for seq, feats in dataset]


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
