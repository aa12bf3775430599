"""One pipeline iteration in a fresh process, as a CLI user would pay for it.

    python3 perfbench/pipeline.py --job DIR --mode pipeline|setup --trace 0|1 --out FILE

``DIR`` holds ``job.json`` (workload and seed) and the written train and
test corpora. The iteration runs load_corpus -> build_group_spec ->
extract_priors -> init_train_state -> train_model -> save_checkpoint ->
load_checkpoint -> predict_corpus -> compute_report, then checks the
outputs outside the timed region and writes its timings, results and
check failures to ``FILE`` as JSON. ``--mode setup`` stops after model
initialisation. ``--trace 1`` wraps the library's functions (see
``tracing.py``) and adds per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from machine import pin_blas_threads
from tracing import TARGETS, Tracer, install, summarize
from workloads import HEAD_THRESHOLD, Workload

ROOT = Path(__file__).resolve().parent.parent

# Spans whose per-call durations are reported as percentiles, in ms.
PERCENTILES = {
    "model.forward.train": (50, 99),
    "model.backward": (50, 99),
    "inference.predict_sequence": (50, 95),
}
EVAL_REPEATS = 4  # extra eval passes in untraced iterations
COUNTED = ("grouping.symmetric_kl", "grouping.relabel_for_group",
           "priors.temporal_factor_matrix", "model.adam_step")


def run_iteration(job_dir: Path, setup_only: bool = False,
                  tracer: Tracer | None = None) -> dict:
    """Run (and with a tracer, trace) one iteration; return its record."""
    job = json.loads((job_dir / "job.json").read_text(encoding="utf-8"))
    workload = Workload(**job["workload"])
    with install(tracer) if tracer else nullcontext():
        with tracer.span("pipeline") if tracer else nullcontext():
            record, outputs = _timed(job_dir, workload, job["seed"], setup_only,
                                     eval_repeats=0 if tracer else EVAL_REPEATS)
    if not setup_only:
        record.update(_results(outputs))
        record["failures"] = check_outputs(workload, outputs)
    if tracer is not None:
        record["layers"] = layer_metrics(summarize(tracer.spans), outputs)
    return record


def _timed(job_dir: Path, workload: Workload, seed: int, setup_only: bool,
           eval_repeats: int):
    # Call through module attributes, so that installed wrappers are seen.
    from gtla import grouping, inference, losses, metrics, model, priors, training
    from gtla.data import io

    ckpt = job_dir / f"checkpoint-{os.getpid()}.ckpt"
    t0 = time.perf_counter()
    train = io.load_corpus(job_dir / "train" / "manifest.json")
    spec = grouping.build_group_spec(train, workload.grouping_mode())
    prior = priors.extract_priors(train, spec)
    backbone = model.BackboneConfig(in_dim=train.feature_dim,
                                    head_sizes=spec.head_sizes(), seed=seed)
    cfg = losses.TrainConfig(method="gtla", epochs=workload.epochs, seed=seed)
    state = training.init_train_state(cfg, backbone)
    t_setup = time.perf_counter()
    if setup_only:
        return {"setup_s": t_setup - t0}, None

    # One train_model call per epoch, continuing the same state: the same
    # arithmetic as a single call, with each epoch timed as one sample.
    epoch_s = []
    for epoch in range(1, workload.epochs + 1):
        started = time.perf_counter()
        state = training.train_model(train, spec, prior, backbone,
                                     replace(cfg, epochs=epoch), state)
        epoch_s.append(time.perf_counter() - started)
    t_train = time.perf_counter()
    model.save_checkpoint(ckpt, state.params, step=state.adam.t, adam=state.adam,
                          extra={"train_config": cfg.to_dict(),
                                 "train_state": state.rng_payload()})
    test = io.load_corpus(job_dir / "test" / "manifest.json")
    split = metrics.head_tail_split(train, HEAD_THRESHOLD)
    if spec.mode == "activity":
        gt_groups = [spec.group_of(seq) for seq in test.sequences]
    else:
        gt_groups = [spec.nearest_group(seq, test.vocab) for seq in test.sequences]
    t_eval = time.perf_counter()
    params, _, _ = model.load_checkpoint(ckpt)
    predictions = inference.predict_corpus(params, test, spec)
    report = metrics.compute_report(predictions, test, spec, prior, split, gt_groups)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Eval is short, so time it again. The repeats lie outside pipeline_s
    # and must reproduce the first pass exactly.
    eval_s = [t_end - t_eval]
    repeats_agree = True
    for _ in range(eval_repeats):
        started = time.perf_counter()
        again, _, _ = model.load_checkpoint(ckpt)
        repeat = inference.predict_corpus(again, test, spec)
        repeat_report = metrics.compute_report(repeat, test, spec, prior, split, gt_groups)
        eval_s.append(time.perf_counter() - started)
        repeats_agree &= repeat_report.to_dict() == report.to_dict()

    record = {
        "setup_s": t_setup - t0,
        "pipeline_s": t_end - t0,
        "train_s": t_train - t_setup,
        "epoch_s": epoch_s,
        "eval_s": eval_s,
        "train_frames": sum(seq.num_frames for seq in train.sequences),
        "test_frames": sum(seq.num_frames for seq in test.sequences),
        "checkpoint_bytes": ckpt.stat().st_size,
        "peak_rss_mb": peak_rss_mb,
    }
    outputs = {"train": train, "spec": spec, "state": state, "params": params,
               "predictions": predictions, "report": report,
               "checkpoint_bytes": record["checkpoint_bytes"],
               "repeats_agree": repeats_agree}
    ckpt.unlink()
    return record, outputs


def _results(outputs: dict) -> dict:
    report = outputs["report"]
    return {
        "tail_recall": report.balanced["recall"]["tail"],
        "mof": report.global_metrics["mof"],
        "group_id_acc": report.group_id_accuracy,
        "loss_history": list(outputs["state"].history),
    }


def check_outputs(workload: Workload, outputs: dict) -> list[str]:
    """Correctness checks on one iteration's outputs; returns the failures."""
    import numpy as np

    failures = []
    history = np.asarray(outputs["state"].history)
    if history.size < 1 or not np.all(np.isfinite(history)):
        failures.append("loss history is empty or not finite")
    elif workload.epochs > 1 and not history[-1] < history[0]:
        failures.append(f"loss did not fall: {history[0]} -> {history[-1]}")

    trained, loaded = outputs["state"].params, outputs["params"]
    for name, value in trained.values.items():
        rounded = value.astype(np.float32).astype(np.float64)
        if not np.array_equal(loaded.values[name], rounded):
            failures.append(f"checkpoint tensor {name!r} differs from the trained one")

    if not outputs["repeats_agree"]:
        failures.append("repeated eval passes disagree with the first")

    spec = outputs["spec"]
    outside = sum(int(np.count_nonzero(~np.isin(p.labels, spec.classes_of_group[p.group])))
                  for p in outputs["predictions"])
    if outside:
        failures.append(f"{outside} predicted frames outside the predicted group's classes")

    gid = outputs["report"].group_id_accuracy
    if workload.min_group_id_acc is not None and gid < workload.min_group_id_acc:
        failures.append(f"group identification {gid:.2f}% < {workload.min_group_id_acc}%")

    if workload.clusters:  # clustering must reproduce the activity partition
        pairs = {(seq.activity, spec.group_of(seq)) for seq in outputs["train"].sequences}
        if not (len(pairs) == len({a for a, _ in pairs}) == len({k for _, k in pairs})):
            failures.append("cluster assignment differs from the activity partition")
    return failures


def layer_metrics(stats: dict, outputs: dict | None) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (self times in seconds)."""
    import numpy as np

    layers: dict[str, float] = {}
    for name in {span for _, _, span in TARGETS}:
        layers[f"{name}.s"] = stats.get(name, {}).get("self_ns", 0) / 1e9
    for name in COUNTED:
        layers[f"{name}.calls"] = stats.get(name, {}).get("calls", 0)
    for name, quantiles in PERCENTILES.items():
        durations = np.asarray(stats.get(name, {}).get("durations_ns", [0])) / 1e6
        for q in quantiles:
            layers[f"{name}.p{q}_ms"] = float(np.percentile(durations, q))
    if outputs is not None:
        layers["priors.temporal_factor_matrix.calls_per_sequence"] = (
            layers["priors.temporal_factor_matrix.calls"] / len(outputs["train"]))
        layers["model.checkpoint.bytes"] = outputs["checkpoint_bytes"]
        layers["metrics.tail_recall"] = outputs["report"].balanced["recall"]["tail"]
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", type=Path, required=True)
    parser.add_argument("--mode", choices=("pipeline", "setup"), default="pipeline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced spans here")
    args = parser.parse_args(argv)

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.trace else None
    record = run_iteration(args.job, setup_only=args.mode == "setup", tracer=tracer)
    record["traced"] = bool(args.trace)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
