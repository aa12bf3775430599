"""Command-line front end: synth, cluster, priors, train, eval, report.

Every command reads/writes plain files (JSON configs and reports, text
labels, ``.npy`` features, ``.npz`` checkpoints) so a full experiment is a
short shell script. Config files carry a version field and unknown keys are
rejected, which catches misspelled hyperparameters early. All commands exit
non-zero with a one-line diagnostic on malformed input.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import data, grouping, inference, losses, metrics, model, priors, training
from .data.io import JSON_NAMES, from_json, read_json, typed, write_json
from .errors import ConfigError, FormatError, GtlaError


def _parse_groups_mode(text: str) -> grouping.ByActivity | grouping.ByClustering:
    if text == "activity":
        return grouping.ByActivity()
    if text.startswith("cluster:"):
        try:
            return grouping.ByClustering(n=int(text.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad group count in --groups {text!r}")
    raise ConfigError(f"--groups must be 'activity' or 'cluster:N', got {text!r}")


def _group_spec(corpus: data.Corpus, mode, ctx: str) -> grouping.GroupSpec:
    """``build_group_spec``, its errors naming the flag or section that set ``mode``."""
    try:
        return grouping.build_group_spec(corpus, mode)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def cmd_synth(args) -> int:
    if args.preset:
        if args.preset != "longtail":
            raise ConfigError(f"unknown preset {args.preset!r}")
        cfg = data.longtail_benchmark_config(seed=args.seed or 0)
    elif args.config:
        cfg = from_json(data.SynthConfig, read_json(args.config), "synth config")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    else:
        raise ConfigError("synth needs --config or --preset")
    train, test = data.synth_generate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_manifest = data.write_corpus(train, out / "train")
    test_manifest = data.write_corpus(test, out / "test")
    print(f"wrote {len(train)} train sequences -> {train_manifest}")
    print(f"wrote {len(test)} test sequences -> {test_manifest}")
    return 0


def cmd_cluster(args) -> int:
    corpus = data.load_corpus(args.data)
    spec = _group_spec(corpus, _parse_groups_mode(args.groups), f"--groups {args.groups}")
    grouping.save_group_spec(args.out, spec, corpus.vocab)
    sizes = [sum(1 for s in corpus.sequences if spec.group_of(s) == k)
             for k in range(spec.n)]
    print(f"built {spec.n} group(s) with sizes {sizes} -> {args.out}")
    return 0


def cmd_priors(args) -> int:
    corpus = data.load_corpus(args.data)
    spec = grouping.load_group_spec(args.spec, corpus.vocab)
    prior = priors.extract_priors(corpus, spec)
    priors.save_temporal_prior(args.out, prior, spec, corpus.vocab)
    print(f"extracted priors for {spec.n} group(s) -> {args.out}")
    return 0


@dataclass(frozen=True)
class RunConfig:
    """A run config file; each section is read by the schema of what it configures."""

    seed: int | None = None
    data: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    backbone: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    out: str | None = None


@dataclass(frozen=True)
class DataSection:
    train_manifest: str


def cmd_train(args) -> int:
    run = from_json(RunConfig, read_json(args.config), "run config")
    root = Path(args.config).parent
    data_section = from_json(DataSection, run.data, "data section")
    corpus = data.load_corpus(root / data_section.train_manifest)

    if args.seed is None and run.seed is None:
        raise ConfigError("run config: a seed is required (field or --seed)")
    train_cfg = from_json(losses.TrainConfig, run.train, "train section", seed=0)
    if run.seed is not None:
        train_cfg = from_json(losses.TrainConfig, {**train_cfg.to_dict(), "seed": run.seed},
                              "run config")
    for f in fields(train_cfg):  # one flag at a time, so an error names its flag
        if (value := getattr(args, f.name, None)) is not None:
            key = JSON_NAMES.get(f.name, f.name)
            train_cfg = from_json(losses.TrainConfig, {**train_cfg.to_dict(), key: value},
                                  f"--{key} {value}")

    out = Path(args.out or run.out or "run")

    groups = dict(run.groups)
    mode_text = typed(groups.pop("mode", "activity"), str, "groups section", "mode")
    files = {key: typed(groups.pop(key), str, "groups section", key)
             for key in ("spec", "priors") if key in groups}
    modes = {"activity": grouping.ByActivity, "cluster": grouping.ByClustering}
    if mode_text not in modes:
        raise ConfigError(f"groups section: 'mode' must be 'activity' or 'cluster', "
                          f"got {mode_text!r}")
    mode = from_json(modes[mode_text], groups, "groups section")
    if args.groups:
        mode, files = _parse_groups_mode(args.groups), {}
    if "spec" in files:
        spec = grouping.load_group_spec(root / files["spec"], corpus.vocab)
    else:
        spec = _group_spec(corpus, mode, f"--groups {args.groups}" if args.groups
                           else "groups section")
    if "priors" in files:
        prior = priors.load_temporal_prior(root / files["priors"], spec, corpus.vocab)
    else:
        prior = priors.extract_priors(corpus, spec)

    backbone = from_json(model.BackboneConfig, run.backbone, "backbone section",
                         in_dim=corpus.feature_dim, head_sizes=spec.head_sizes(),
                         seed=train_cfg.seed)

    if args.resume:
        params, adam, extra = model.load_checkpoint(args.resume)
        if params.cfg != backbone:
            raise ConfigError(f"--resume: checkpoint backbone {params.cfg} differs "
                              f"from the run config's {backbone}")
        try:
            recorded = from_json(losses.TrainConfig, extra.get("train_config"), "train_config",
                                 every_key=True).to_dict()
            state = training.TrainState.restore(params, adam, extra.get("train_state"))
        except (ConfigError, FormatError) as exc:
            raise FormatError(f"{args.resume}: {exc}") from exc
        changed = [f"{key} {recorded[key]!r} -> {value!r}" for key, value in
                   train_cfg.to_dict().items() if key != "epochs" and recorded[key] != value]
        if changed:
            raise ConfigError(f"--resume: the run's train config differs from the "
                              f"checkpoint's in {', '.join(changed)}")
    else:
        state = training.init_train_state(train_cfg, backbone)
    out.mkdir(parents=True, exist_ok=True)
    if "spec" not in files:
        grouping.save_group_spec(out / "group_spec.json", spec, corpus.vocab)
    if "priors" not in files:
        priors.save_temporal_prior(out / "priors.json", prior, spec, corpus.vocab)
    state = training.train_model(corpus, spec, prior, backbone, train_cfg, state)

    ckpt = out / "checkpoint.ckpt"
    model.save_checkpoint(ckpt, state.params, step=state.adam.t, adam=state.adam,
                          extra={"train_config": train_cfg.to_dict(),
                                 "train_state": state.rng_payload()})
    write_json(out / "train_log.json", {"loss": state.history,
                                        "train_config": train_cfg.to_dict()})
    print(f"trained {train_cfg.epochs} epoch(s), final loss "
          f"{state.history[-1]:.4f} -> {ckpt}")
    return 0


def cmd_eval(args) -> int:
    dataset = data.load_corpus(args.data)
    unknown = [name for name in args.exclude or () if name not in dataset.vocab.index]
    if unknown:
        raise ConfigError(f"--exclude: unknown class(es) {unknown}")
    train_corpus = data.load_corpus(args.train_data)
    for flag, path, corpus in (("--data", args.data, dataset),
                               ("--train-data", args.train_data, train_corpus)):
        if not len(corpus):
            raise ConfigError(f"{flag}: {path} lists no sequences")
    if train_corpus.vocab != dataset.vocab:
        raise ConfigError(f"--train-data: the class mapping of {args.train_data} "
                          f"differs from that of {args.data}")
    try:
        split = metrics.head_tail_split(train_corpus, args.head_threshold)
    except ValueError as exc:
        raise ConfigError(f"--head-threshold {args.head_threshold}: {exc}") from exc
    spec = grouping.load_group_spec(args.spec, dataset.vocab)
    prior = priors.load_temporal_prior(args.priors, spec, dataset.vocab)
    params, _, _ = model.load_checkpoint(args.checkpoint)

    predictions = inference.predict_corpus(params, dataset, spec)
    gt_groups = [spec.nearest_group(seq, dataset.vocab) for seq in dataset.sequences]

    report = metrics.compute_report(predictions, dataset, spec, prior, split,
                                    gt_groups, exclude_classes=args.exclude or ())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inference.write_predictions(predictions, dataset.vocab, out / "predictions")
    report.save(out / "report.json")
    print(f"MoF {report.global_metrics['mof']:.1f}  "
          f"edit {report.global_metrics['edit']:.1f}  "
          f"balanced recall hmean {report.balanced['recall']['hmean']:.1f}  "
          f"-> {out / 'report.json'}")
    return 0


_REPORT_COLUMNS = {  # label: the column's value in a metrics report
    "global mof": lambda r: r.global_metrics["mof"],
    "global edit": lambda r: r.global_metrics["edit"],
    "global f1@25": lambda r: r.global_metrics["f1@0.25"],
    "recall head": lambda r: r.balanced["recall"]["head"],
    "recall tail": lambda r: r.balanced["recall"]["tail"],
    "recall hmean": lambda r: r.balanced["recall"]["hmean"],
    "f1@25 hmean": lambda r: r.balanced["f1@0.25"]["hmean"],
}


def cmd_report(args) -> int:
    rows = []  # one per report, named by its path as given; the first is the baseline
    for path in args.reports:
        ctx = f"metrics report {path}"
        report = from_json(metrics.MetricsReport, read_json(path), ctx)
        row = {"name": path}
        base = rows[0] if rows else row
        try:
            for label, column in _REPORT_COLUMNS.items():
                row[label] = column(report)
                row[f"delta {label}"] = row[label] - base[label]
            for key in ("fp1", "fp2", "fp3", "tp"):
                label = f"fp_taxonomy {key}"
                row[label] = report.fp_counts[key]
        except KeyError as exc:  # a dict field lacks the key a column reads
            raise FormatError(f"{ctx}: column {label!r}: missing key {exc}") from exc
        rows.append(row)

    width = max(len(row["name"]) for row in rows)
    header = "model".ljust(width) + "".join(f"{label:>16}" for label in _REPORT_COLUMNS)
    lines = [header]
    for idx, row in enumerate(rows):
        cells = []
        for label in _REPORT_COLUMNS:
            delta = row[f"delta {label}"]
            suffix = "" if idx == 0 else f" ({delta:+.1f})"
            cells.append(f"{row[label]:.1f}{suffix}".rjust(16))
        lines.append(row["name"].ljust(width) + "".join(cells))
    table = "\n".join(lines)
    print(table)
    if args.out:
        Path(args.out).with_suffix(".txt").write_text(table + "\n", encoding="utf-8")
        write_json(Path(args.out).with_suffix(".json"),
                   {"baseline": rows[0]["name"], "rows": rows})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtla",
        description="Long-tail temporal action segmentation with group-wise "
                    "temporal logit adjustment.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="synth config JSON")
    p.add_argument("--preset", help="built-in config (longtail)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="build a group spec from a corpus")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--groups", default="activity", help="activity or cluster:N")
    p.add_argument("--out", required=True, help="group spec JSON to write")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("priors", help="extract class and ordering priors")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--spec", required=True, help="group spec JSON")
    p.add_argument("--out", required=True, help="priors JSON to write")
    p.set_defaults(func=cmd_priors)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--method", choices=losses.METHODS)
    p.add_argument("--tau", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--lambda", dest="smooth_weight", type=float)
    p.add_argument("--groups", help="override grouping: activity or cluster:N")
    p.add_argument("--epochs", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="evaluation corpus manifest")
    p.add_argument("--train-data", required=True,
                   help="training corpus manifest (head/tail split source)")
    p.add_argument("--spec", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--head-threshold", type=float, required=True,
                   help="training frame count separating head from tail")
    p.add_argument("--exclude", nargs="*", help="class names to exclude "
                   "from per-class averages")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="compare metric reports")
    p.add_argument("reports", nargs="+", help="report JSONs; first is the baseline")
    p.add_argument("--out", help="prefix for comparison .txt/.json files")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (GtlaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
