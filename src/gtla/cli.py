"""Command-line front end: synth, cluster, priors, train, eval, report.

Every command reads/writes plain files (JSON configs and reports, text
labels, binary features/checkpoints) so a full experiment is a short shell
script. Config files carry a version field and unknown keys are rejected,
which catches misspelled hyperparameters early. All commands exit non-zero
with a one-line diagnostic on malformed input.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import data, grouping, inference, losses, metrics, model, priors, training
from .data.io import read_json, write_json
from .errors import ConfigError, GtlaError


def _check_keys(payload: dict, allowed: set[str], ctx: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(unknown)}")


def _load_json(path: str | Path, ctx: str) -> dict:
    try:
        payload = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"{ctx}: file not found: {path}")
    if payload.get("version") != 1:
        raise ConfigError(f"{ctx}: unsupported or missing config version")
    return payload


# Config-file spellings of the dataclass fields that are not spelled as-is.
_JSON_NAMES = {"smooth_weight": "lambda", "smooth_clip": "delta", "num_layers": "layers"}


# JSON value types accepted for each scalar field type; bool is never a number.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _typed(value, kind, ctx: str, key: str):
    """``value`` as ``kind`` if its JSON type fits ``kind``, else ``ConfigError``.

    A dataclass is read from an object by ``_from_json``, ``dict[str, X]`` from
    an object of ``X`` values, and ``tuple[X, ...]`` from an array of ``X``
    values; nested objects extend ``ctx`` with the key they sit under.
    """
    origin = get_origin(kind)
    if is_dataclass(kind) and isinstance(value, dict):
        return _from_json(kind, value, f"{ctx}: {key}")
    if origin is dict and isinstance(value, dict):
        return {name: _typed(item, get_args(kind)[1], f"{ctx}: {key}", name)
                for name, item in value.items()}
    if origin is tuple and isinstance(value, list):
        return tuple(_typed(item, get_args(kind)[0], ctx, key) for item in value)
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES.get(kind, ())):
        raise ConfigError(f"{ctx}: bad value {value!r} for {key!r}")
    return kind(value)


def _get(section: dict, key: str, kind, ctx: str, default=None):
    """``section[key]`` checked by ``_typed``, or ``default`` when absent."""
    return _typed(section[key], kind, ctx, key) if key in section else default


def _from_json(cls, payload: dict, ctx: str, **given):
    """Build dataclass ``cls`` from a config object. Each field not in ``given``
    is read from its key (the ``_JSON_NAMES`` spelling) as its annotated type;
    it is required when it has no default and keeps its default when omitted."""
    hints = get_type_hints(cls)
    names = {_JSON_NAMES.get(f.name, f.name): f for f in fields(cls) if f.name not in given}
    _check_keys(payload, set(names), ctx)
    for key, f in names.items():
        if key in payload:
            given[f.name] = _typed(payload[key], hints[f.name], ctx, key)
        elif f.default is MISSING:
            raise ConfigError(f"{ctx}: missing key {key!r}")
    try:
        return cls(**given)
    except ConfigError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _parse_groups_mode(text: str) -> grouping.ByActivity | grouping.ByClustering:
    if text == "activity":
        return grouping.ByActivity()
    if text.startswith("cluster:"):
        try:
            return grouping.ByClustering(n=int(text.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad group count in --groups {text!r}")
    raise ConfigError(f"--groups must be 'activity' or 'cluster:N', got {text!r}")


def cmd_synth(args) -> int:
    if args.preset:
        if args.preset != "longtail":
            raise ConfigError(f"unknown preset {args.preset!r}")
        cfg = data.longtail_benchmark_config(seed=args.seed or 0)
    elif args.config:
        payload = _load_json(args.config, "synth config")
        cfg = _from_json(data.SynthConfig, {k: v for k, v in payload.items() if k != "version"},
                         "synth config")
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
    spec = grouping.build_group_spec(corpus, _parse_groups_mode(args.groups))
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


def cmd_train(args) -> int:
    payload = _load_json(args.config, "run config")
    _check_keys(payload, {"version", "seed", "data", "groups", "backbone",
                          "train", "out"}, "run config")
    root = Path(args.config).parent
    data_section = _get(payload, "data", dict, "run config", {})
    _check_keys(data_section, {"train_manifest"}, "data section")
    if "train_manifest" not in data_section:
        raise ConfigError("run config: data.train_manifest is required")
    corpus = data.load_corpus(
        root / _typed(data_section["train_manifest"], str, "data section", "train_manifest"))

    if args.seed is None and "seed" not in payload:
        raise ConfigError("run config: a seed is required (field or --seed)")
    seed = args.seed
    if seed is None:
        seed = _typed(payload["seed"], int, "run config", "seed")
    train_cfg = _from_json(losses.TrainConfig, _get(payload, "train", dict, "run config", {}),
                           "train section", seed=seed)
    train_cfg = replace(train_cfg, **{f.name: getattr(args, f.name)
                                      for f in fields(train_cfg)
                                      if getattr(args, f.name, None) is not None})

    out_field = _get(payload, "out", str, "run config")
    out = Path(args.out or out_field or "run")
    out.mkdir(parents=True, exist_ok=True)

    groups = dict(_get(payload, "groups", dict, "run config", {}))
    mode_text = _typed(groups.pop("mode", "activity"), str, "groups section", "mode")
    files = {key: _typed(groups.pop(key), str, "groups section", key)
             for key in ("spec", "priors") if key in groups}
    modes = {"activity": grouping.ByActivity, "cluster": grouping.ByClustering}
    if mode_text not in modes:
        raise ConfigError(f"groups section: 'mode' must be 'activity' or 'cluster', "
                          f"got {mode_text!r}")
    mode = _from_json(modes[mode_text], groups, "groups section")
    if args.groups:
        mode, files = _parse_groups_mode(args.groups), {}
    if "spec" in files:
        spec = grouping.load_group_spec(root / files["spec"], corpus.vocab)
    else:
        spec = grouping.build_group_spec(corpus, mode)
        grouping.save_group_spec(out / "group_spec.json", spec, corpus.vocab)
    if "priors" in files:
        prior = priors.load_temporal_prior(root / files["priors"], spec, corpus.vocab)
    else:
        prior = priors.extract_priors(corpus, spec)
        priors.save_temporal_prior(out / "priors.json", prior, spec, corpus.vocab)

    backbone = _from_json(model.BackboneConfig, _get(payload, "backbone", dict, "run config", {}),
                          "backbone section", in_dim=corpus.feature_dim,
                          head_sizes=spec.head_sizes(), seed=seed)

    if args.resume:
        params, adam, extra = model.load_checkpoint(args.resume)
        if params.cfg != backbone:
            raise ConfigError(f"--resume: checkpoint backbone {params.cfg} differs "
                              f"from the run config's {backbone}")
        recorded = extra.get("train_config")
        if isinstance(recorded, dict):
            changed = [f"{key} {recorded.get(key)!r} -> {value!r}"
                       for key, value in train_cfg.to_dict().items()
                       if key != "epochs" and recorded.get(key) != value]
            if changed:
                raise ConfigError(f"--resume: the run's train config differs from the "
                                  f"checkpoint's in {', '.join(changed)}")
        state = training.TrainState.restore(params, adam, extra.get("train_state", {}))
    else:
        state = training.init_train_state(train_cfg, backbone)
    state = training.train_model(corpus, spec, prior, backbone, train_cfg, state)

    ckpt = out / "checkpoint.ckpt"
    model.save_checkpoint(ckpt, state.params, step=state.adam.t, adam=state.adam,
                          extra={"train_config": train_cfg.to_dict(),
                                 "train_state": state.rng_payload()})
    write_json(out / "train_log.json", {"version": 1, "loss": state.history,
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
    spec = grouping.load_group_spec(args.spec, dataset.vocab)
    prior = priors.load_temporal_prior(args.priors, spec, dataset.vocab)
    params, _, _ = model.load_checkpoint(args.checkpoint)

    predictions = inference.predict_corpus(params, dataset, spec)
    gt_groups = [spec.nearest_group(seq, dataset.vocab) for seq in dataset.sequences]

    split = metrics.head_tail_split(train_corpus, args.head_threshold)
    excluded = tuple(dataset.vocab.id_of(name) for name in args.exclude or ())
    report = metrics.compute_report(predictions, dataset, spec, prior, split,
                                    gt_groups, exclude_classes=excluded)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inference.write_predictions(predictions, dataset.vocab, out / "predictions")
    report.save(out / "report.json")
    print(f"MoF {report.global_metrics['mof']:.1f}  "
          f"edit {report.global_metrics['edit']:.1f}  "
          f"balanced recall hmean {report.balanced['recall']['hmean']:.1f}  "
          f"-> {out / 'report.json'}")
    return 0


_REPORT_COLUMNS = [
    ("global mof", ("global", "mof")),
    ("global edit", ("global", "edit")),
    ("global f1@25", ("global", "f1@0.25")),
    ("recall head", ("balanced", "recall", "head")),
    ("recall tail", ("balanced", "recall", "tail")),
    ("recall hmean", ("balanced", "recall", "hmean")),
    ("f1@25 hmean", ("balanced", "f1@0.25", "hmean")),
]


def _report_value(payload: dict, path: tuple[str, ...], kind, ctx: str):
    """The value at ``path`` in a metrics report, read as ``kind`` by ``_typed``."""
    value = payload
    for depth, key in enumerate(path, 1):
        where = ".".join(path[:depth])
        if key not in value:
            raise ConfigError(f"{ctx}: missing key {where!r}")
        value = _typed(value[key], kind if depth == len(path) else dict, ctx, where)
    return value


def cmd_report(args) -> int:
    reports = []  # (name, column values, fp_taxonomy counts) per report
    for path in args.reports:
        ctx = f"metrics report {path}"
        payload = _load_json(path, ctx)
        reports.append((Path(path).stem,
                        {label: _report_value(payload, keys, float, ctx)
                         for label, keys in _REPORT_COLUMNS},
                        {key: _report_value(payload, ("fp_taxonomy", key), int, ctx)
                         for key in ("fp1", "fp2", "fp3", "tp")}))

    rows = []
    base_name, base, _ = reports[0]
    for name, columns, counts in reports:
        row = {"name": name}
        for label, value in columns.items():
            row[label] = value
            row[f"delta {label}"] = value - base[label]
        for key, count in counts.items():
            row[f"fp_taxonomy {key}"] = count
        rows.append(row)

    width = max(len(name) for name, _, _ in reports)
    header = "model".ljust(width) + "".join(f"{label:>16}" for label, _ in _REPORT_COLUMNS)
    lines = [header]
    for idx, row in enumerate(rows):
        cells = []
        for label, _ in _REPORT_COLUMNS:
            delta = row[f"delta {label}"]
            suffix = "" if idx == 0 else f" ({delta:+.1f})"
            cells.append(f"{row[label]:.1f}{suffix}".rjust(16))
        lines.append(row["name"].ljust(width) + "".join(cells))
    table = "\n".join(lines)
    print(table)
    if args.out:
        Path(args.out).with_suffix(".txt").write_text(table + "\n", encoding="utf-8")
        write_json(Path(args.out).with_suffix(".json"),
                   {"version": 1, "baseline": base_name, "rows": rows})
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
    except (GtlaError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
