import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtla import cli, data, grouping, inference, losses, metrics, model, priors, training
from gtla.data.io import from_json, read_json, to_json
from gtla.errors import FormatError

from conftest import edit_checkpoint, edit_checkpoint_header


def run(argv):
    return cli.main(argv)


# ``python -c`` source for ``gtla`` with every training step shared with the worker thread,
# whatever the CPU count; the command line follows it, and BLAS_PINNED joins its environment.
OVERLAPPED_CLI = ("import sys; from gtla import cli, training; training.OVERLAP_MIN_FRAMES = 0; "
                  "training.usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
BLAS_PINNED = {var: "1" for var in training.BLAS_THREAD_VARS}


def overlap_every_step(monkeypatch):
    """Every training step in this process shares its work with the worker thread."""
    monkeypatch.setattr(training, "OVERLAP_MIN_FRAMES", 0)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    for var, value in BLAS_PINNED.items():
        monkeypatch.setenv(var, value)


def synth_config(tmp_path, seed=0):
    cfg = {
        "version": 1,
        "seed": seed,
        "feature_dim": 4,
        "mean_scale": 1.0,
        "noise_sigma": 0.8,
        "train_per_activity": 3,
        "test_per_activity": 2,
        "durations": {
            "idle": {"median": 4, "sigma": 0.0},
            "work": {"median": 8, "sigma": 0.2},
            "rare": {"median": 2, "sigma": 0.0},
            "other_work": {"median": 8, "sigma": 0.2},
        },
        "activities": {
            "first": {"mandatory": ["idle", "work", "idle"],
                      "optionals": [{"name": "rare", "prob": 0.5, "gaps": [2]}]},
            "second": {"mandatory": ["idle", "other_work", "idle"],
                       "optionals": []},
        },
    }
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return path


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pipeline(tmp_path, workdir, seed=1, epochs=2, method="gtla"):
    """synth -> cluster -> priors -> train -> eval, returning the out dir."""
    out = tmp_path / workdir
    cfg = synth_config(tmp_path, seed=seed)
    assert run(["synth", "--config", str(cfg), "--out", str(out / "corpus")]) == 0
    train_manifest = out / "corpus" / "train" / "manifest.json"
    test_manifest = out / "corpus" / "test" / "manifest.json"
    assert run(["cluster", "--data", str(train_manifest), "--groups", "activity",
                "--out", str(out / "spec.json")]) == 0
    assert run(["priors", "--data", str(train_manifest),
                "--spec", str(out / "spec.json"),
                "--out", str(out / "priors.json")]) == 0
    run_cfg = {
        "version": 1,
        "seed": seed,
        "data": {"train_manifest": str(train_manifest)},
        "groups": {"spec": str(out / "spec.json"),
                   "priors": str(out / "priors.json")},
        "backbone": {"hidden": 8, "layers": 2, "dropout": 0.25},
        "train": {"method": method, "epochs": epochs, "tau": 0.5, "eta": 0.5},
    }
    (out / "run.json").write_text(json.dumps(run_cfg))
    assert run(["train", "--config", str(out / "run.json"),
                "--out", str(out / "run")]) == 0
    assert run(eval_argv(out, out / "run" / "checkpoint.ckpt", out / "eval")) == 0
    return out


def eval_argv(out, checkpoint, dest):
    """``gtla eval`` arguments for a ``run_pipeline`` directory."""
    corpus = out / "corpus"
    return ["eval", "--checkpoint", str(checkpoint),
            "--data", str(corpus / "test" / "manifest.json"),
            "--train-data", str(corpus / "train" / "manifest.json"),
            "--spec", str(out / "spec.json"), "--priors", str(out / "priors.json"),
            "--head-threshold", "40", "--out", str(dest)]


class TestSynthCommand:
    def test_writes_manifests(self, tmp_path, capsys):
        cfg = synth_config(tmp_path)
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        manifest = json.loads((tmp_path / "c" / "train" / "manifest.json").read_text())
        assert len(manifest["sequences"]) == 6

    def test_rerun_is_hash_identical(self, tmp_path):
        cfg = synth_config(tmp_path)
        run(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")])
        run(["synth", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_missing_out_dir_created(self, tmp_path):
        cfg = synth_config(tmp_path)
        deep = tmp_path / "x" / "y" / "z"
        assert run(["synth", "--config", str(cfg), "--out", str(deep)]) == 0
        assert (deep / "train" / "mapping.txt").exists()

    def test_preset(self, tmp_path):
        assert run(["synth", "--preset", "longtail", "--seed", "1",
                    "--out", str(tmp_path / "p")]) == 0

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        for seed in (0, 5):
            (tmp_path / str(seed)).mkdir()
            assert run(["synth", "--config", str(synth_config(tmp_path / str(seed), seed=seed)),
                        "--out", str(tmp_path / f"seed{seed}")]) == 0
        assert run(["synth", "--config", str(tmp_path / "0" / "synth.json"), "--seed", "5",
                    "--out", str(tmp_path / "flag")]) == 0
        assert tree_digest(tmp_path / "flag") == tree_digest(tmp_path / "seed5")
        assert tree_digest(tmp_path / "flag") != tree_digest(tmp_path / "seed0")

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        payload = json.loads(synth_config(tmp_path).read_text())
        payload["noise_sgima"] = 1.0  # typo
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "c")]) == 1
        assert "noise_sgima" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        (("activities", "first", "optionals", 0, "prob"), "0.5"),
        (("activities", "first", "optionals", 0, "gaps"), "2"),
        (("activities", "first", "optionals", 0, "gaps"), [2.0]),
        (("activities", "first", "optionals", 0, "name"), 5),
        (("activities", "first", "optionals"), {"name": "rare"}),
        (("activities", "first", "mandatory"), "idle"),
        (("activities", "first"), ["idle"]),
        (("activities",), ["first"]),
        (("durations", "work", "median"), "2"),
        (("durations", "work", "sigma"), "0.2"),
        (("durations", "work"), 8),
        (("durations",), 5),
        (("similar_classes",), "idle"),
        (("similar_classes",), [["idle", 3]]),
        (("activities", "first", "optionals", 0, "gpas"), [0]),
        (("mean_scale",), 10 ** 400), (("seed",), -1), (("train_per_activity",), 0),
    ], ids=["prob-str", "gaps-str", "gaps-float", "name-int", "optionals-object",
            "mandatory-str", "activity-list", "activities-list", "median-str",
            "sigma-str", "duration-int", "durations-int", "similar-str", "similar-int",
            "optional-key-typo", "mean_scale-401-digits", "seed-negative",
            "train_per_activity-zero"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, path, value):
        payload = json.loads(synth_config(tmp_path).read_text())
        payload["similar_classes"] = [["work", "other_work"]]
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(path[-1]) in err

    @pytest.mark.parametrize("key, literal", [
        ('"sigma": 0.2', "NaN"), ('"median": 8', "Infinity"), ('"mean_scale": 1.0', "NaN"),
        ('"noise_sigma": 0.8', "Infinity"), ('"mean_scale": 1.0', "1e400"),
    ], ids=["sigma-nan", "median-infinity", "mean_scale-nan", "noise_sigma-infinity",
            "mean_scale-1e400"])
    def test_non_finite_number_is_one_error_line_naming_the_file(self, tmp_path, capsys, key,
                                                                 literal):
        text = synth_config(tmp_path).read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(key, f"{key.split(':')[0]}: {literal}", 1))
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (f"error: {bad}: invalid JSON (non-finite number "
                                           f"{literal})\n")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("path", [
        ("activities",), ("durations",), ("activities", "first", "mandatory"),
        ("durations", "work", "median"), ("activities", "first", "optionals", 0, "name"),
        ("activities", "first", "optionals", 0, "prob"),
        ("activities", "first", "optionals", 0, "gaps"),
    ], ids=["activities", "durations", "mandatory", "median", "name", "prob", "gaps"])
    def test_missing_key_is_one_error_line(self, tmp_path, capsys, path):
        payload = json.loads(synth_config(tmp_path).read_text())
        target = payload
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synth config") and err.count("\n") == 1
        assert f"missing key {path[-1]!r}" in err

    def test_features_beyond_float32_are_one_error_line(self, tmp_path, capsys):
        cfg = data.longtail_benchmark_config(seed=0, train_per_activity=2, test_per_activity=1)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**to_json(cfg), "version": 1, "noise_sigma": 1e300}))
        assert run(["synth", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (f"error: synth config {path}: features must lie "
                                           f"within the float32 range (|x| <= 3.4e38)\n")
        assert not (tmp_path / "c").exists()

    def test_config_from_preset_fields_matches_preset(self, tmp_path):
        payload = {"version": 1, **dataclasses.asdict(data.longtail_benchmark_config(seed=3))}
        cfg = tmp_path / "longtail.json"
        cfg.write_text(json.dumps(payload))
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert run(["synth", "--preset", "longtail", "--seed", "3",
                    "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_missing_config_errors(self, tmp_path, capsys):
        assert run(["synth", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestClusterAndPriors:
    def test_cluster_modes(self, tmp_path):
        cfg = synth_config(tmp_path)
        run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
        manifest = tmp_path / "c" / "train" / "manifest.json"
        assert run(["cluster", "--data", str(manifest), "--groups", "activity",
                    "--out", str(tmp_path / "s1.json")]) == 0
        assert run(["cluster", "--data", str(manifest), "--groups", "cluster:2",
                    "--out", str(tmp_path / "s2.json")]) == 0
        by_activity = json.loads((tmp_path / "s1.json").read_text())
        clustered = json.loads((tmp_path / "s2.json").read_text())
        assert by_activity["n"] == clustered["n"] == 2
        # disjoint class sets: clustering recovers the activity partition
        assert sorted(map(sorted, clustered["classes_of_group"])) == \
            sorted(map(sorted, by_activity["classes_of_group"]))

    def test_bad_groups_flag(self, tmp_path, capsys):
        cfg = synth_config(tmp_path)
        run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
        manifest = tmp_path / "c" / "train" / "manifest.json"
        assert run(["cluster", "--data", str(manifest), "--groups", "banana",
                    "--out", str(tmp_path / "s.json")]) == 1

    def test_non_finite_feature_is_one_error_line_naming_the_file(self, tmp_path, capsys):
        cfg = synth_config(tmp_path)
        run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
        manifest = tmp_path / "c" / "train" / "manifest.json"
        feature_file = next((tmp_path / "c" / "train" / "features").glob("*.npy"))
        values = np.load(feature_file, allow_pickle=False)
        values[1, 2] = np.nan
        with open(feature_file, "wb") as fh:
            np.save(fh, values)
        capsys.readouterr()
        assert run(["cluster", "--data", str(manifest), "--groups", "activity",
                    "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert feature_file.name in err and "non-finite" in err
        assert not (tmp_path / "s.json").exists()

    def test_priors_json_shape(self, tmp_path):
        out = run_pipeline(tmp_path, "w", epochs=1)
        payload = json.loads((out / "priors.json").read_text())
        assert payload["version"] == 1
        for group in payload["groups"]:
            assert set(group) == {"prior", "must_precede", "must_follow"}


class TestTrainEvalReport:
    def test_full_pipeline_and_report(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=2)
        report = json.loads((out / "eval" / "report.json").read_text())
        assert report["version"] == 1
        rec = report["balanced"]["recall"]
        if rec["head"] > 0 and rec["tail"] > 0:
            expected = 2 * rec["head"] * rec["tail"] / (rec["head"] + rec["tail"])
            assert abs(rec["hmean"] - expected) < 1e-9
        predictions = list((out / "eval" / "predictions").glob("*.txt"))
        assert len(predictions) == 4
        sidecars = list((out / "eval" / "predictions").glob("*.json"))
        assert len(sidecars) == 4
        assert run(["report", str(out / "eval" / "report.json"),
                    str(out / "eval" / "report.json"),
                    "--out", str(out / "cmp")]) == 0
        assert (out / "cmp.txt").exists() and (out / "cmp.json").exists()
        table = (out / "cmp.txt").read_text()
        assert "(+0.0)" in table  # identical reports show zero deltas

    def test_pipeline_reproducible(self, tmp_path):
        a = run_pipeline(tmp_path, "runA", seed=7, epochs=2)
        b = run_pipeline(tmp_path, "runB", seed=7, epochs=2)
        ra = (a / "eval" / "report.json").read_bytes()
        rb = (b / "eval" / "report.json").read_bytes()
        assert ra == rb

    def test_unknown_excluded_class_is_one_error_line(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        capsys.readouterr()
        corpus = out / "corpus"
        assert run(["eval", "--checkpoint", str(out / "run" / "checkpoint.ckpt"),
                    "--data", str(corpus / "test" / "manifest.json"),
                    "--train-data", str(corpus / "train" / "manifest.json"),
                    "--spec", str(out / "spec.json"), "--priors", str(out / "priors.json"),
                    "--head-threshold", "40", "--exclude", "idle", "nosuch",
                    "--out", str(out / "e2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --exclude") and "'nosuch'" in err
        assert err.count("\n") == 1

    def test_excluded_class_leaves_every_per_class_result(self, tmp_path):
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        assert run(eval_argv(out, ckpt, out / "e2") + ["--exclude", "idle"]) == 0
        kept = read_json(out / "eval" / "report.json")  # without --exclude, idle is scored
        assert "idle" in kept["per_class"]["recall"] and "idle" in kept["head_tail"]["head"]
        written = from_json(metrics.MetricsReport, read_json(out / "e2" / "report.json"),
                            "report")
        assert written.per_class.keys() == {"recall", "f1@0.10", "f1@0.25", "f1@0.50"}
        assert all("idle" not in values for values in written.per_class.values())
        assert "idle" not in written.head_tail.head + written.head_tail.tail

        train, test = (data.load_corpus(out / "corpus" / side / "manifest.json")
                       for side in ("train", "test"))
        spec = grouping.load_group_spec(out / "spec.json", test.vocab)
        params, _, _ = model.load_checkpoint(ckpt)
        expected = metrics.compute_report(
            inference.predict_corpus(params, test, spec), test, spec,
            priors.load_temporal_prior(out / "priors.json", spec, test.vocab),
            metrics.head_tail_split(train, 40),
            [spec.nearest_group(s, test.vocab) for s in test.sequences],
            exclude_classes=("idle",))
        assert written.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("groups", ["cluster:1", "cluster:3"], ids=["too-few", "too-many"])
    def test_spec_of_other_head_sizes_is_one_error_line(self, tmp_path, capsys, groups):
        out = run_pipeline(tmp_path, "w", epochs=1)  # two activity groups
        train_manifest = str(out / "corpus" / "train" / "manifest.json")
        assert run(["cluster", "--data", train_manifest, "--groups", groups,
                    "--out", str(out / "spec.json")]) == 0
        assert run(["priors", "--data", train_manifest, "--spec", str(out / "spec.json"),
                    "--out", str(out / "priors.json")]) == 0
        capsys.readouterr()
        assert run(eval_argv(out, out / "run" / "checkpoint.ckpt", out / "e2")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: group spec has head sizes") and err.count("\n") == 1
        assert not (out / "e2").exists()

    def test_train_data_listing_classes_in_other_order_is_one_error_line(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        mapping = out / "corpus" / "train" / "mapping.txt"
        names = [line.split(None, 1)[1] for line in mapping.read_text().splitlines()]
        mapping.write_text("".join(f"{i} {name}\n" for i, name in enumerate(reversed(names))))
        # The permuted corpus is well-formed on its own.
        assert data.load_corpus(out / "corpus" / "train" / "manifest.json").vocab.names == \
            tuple(reversed(names))
        capsys.readouterr()
        assert run(eval_argv(out, out / "run" / "checkpoint.ckpt", out / "e2")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --train-data") and err.count("\n") == 1
        assert not (out / "e2").exists()

    @pytest.mark.parametrize("flag, split", [("--data", "test"), ("--train-data", "train")])
    def test_empty_corpus_is_one_error_line(self, tmp_path, capsys, flag, split):
        out = run_pipeline(tmp_path, "w", epochs=1)
        manifest = out / "corpus" / split / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["sequences"] = []
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(eval_argv(out, out / "run" / "checkpoint.ckpt", out / "e2")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and "no sequences" in err
        assert err.count("\n") == 1
        assert not (out / "e2" / "report.json").exists()

    def test_escaping_sequence_id_writes_nothing_outside_out(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        manifest = out / "corpus" / "test" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["sequences"][0]["id"] = "../../escaped"
        manifest.write_text(json.dumps(payload))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(eval_argv(out, out / "run" / "checkpoint.ckpt", out / "e2")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "plain file name" in err and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_train_flag_overrides(self, tmp_path):
        out = run_pipeline(tmp_path, "w", epochs=1)
        run_cfg = out / "run.json"
        assert run(["train", "--config", str(run_cfg), "--out", str(out / "run2"),
                    "--method", "la", "--tau", "0.3", "--eta", "0.1",
                    "--lambda", "0.1", "--epochs", "1",
                    "--seed", "9"]) == 0
        log = json.loads((out / "run2" / "train_log.json").read_text())
        assert log["train_config"]["method"] == "la"
        assert log["train_config"]["tau"] == 0.3
        assert log["train_config"]["eta"] == 0.1
        assert log["train_config"]["lambda"] == 0.1

    def test_run_config_unknown_key_rejected(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        payload = json.loads((out / "run.json").read_text())
        payload["train"]["tua"] = 0.5  # typo
        bad = out / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["train", "--config", str(bad), "--out", str(out / "r2")]) == 1
        assert "tua" in capsys.readouterr().err

    def test_resume_rejects_other_backbone(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        payload = json.loads((out / "run.json").read_text())
        payload["backbone"] = {"hidden": 16, "layers": 3}
        (out / "bigger.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["train", "--config", str(out / "bigger.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(out / "run" / "checkpoint.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --resume") and err.count("\n") == 1
        assert not (out / "r2" / "checkpoint.ckpt").exists()

    def test_resume_rejects_other_train_config(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--tau", "0.9",
                    "--resume", str(out / "run" / "checkpoint.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --resume") and "tau" in err and err.count("\n") == 1
        assert not (out / "r2" / "checkpoint.ckpt").exists()

    def test_rejected_resume_writes_no_file(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--groups", "activity", "--tau", "0.9",
                    "--resume", str(out / "run" / "checkpoint.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --resume") and err.count("\n") == 1
        assert not (out / "r2" / "group_spec.json").exists()
        assert not (out / "r2" / "priors.json").exists()

    def test_resume_flag(self, tmp_path):
        out = run_pipeline(tmp_path, "w", epochs=2)
        assert run(["train", "--config", str(out / "run.json"),
                    "--out", str(out / "more"), "--epochs", "3",
                    "--resume", str(out / "run" / "checkpoint.ckpt")]) == 0
        log = json.loads((out / "more" / "train_log.json").read_text())
        assert len(log["loss"]) == 3  # two restored + one new epoch


def test_damaged_inputs_exit_cleanly(tmp_path, capsys):
    """Truncated or bit-flipped corpus, spec and priors files make cluster, priors,
    eval and a one-epoch train exit 0, or exit 1 with one error line; no exception
    escapes ``cli.main``."""
    out = run_pipeline(tmp_path, "w", epochs=1)
    train = out / "corpus" / "train"
    seq_id = json.loads((train / "manifest.json").read_text())["sequences"][0]["id"]
    targets = [train / "manifest.json", train / "mapping.txt",
               train / "groundTruth" / f"{seq_id}.txt", train / "features" / f"{seq_id}.npy",
               out / "spec.json", out / "priors.json"]
    manifest = str(train / "manifest.json")
    commands = [
        ["cluster", "--data", manifest, "--groups", "activity", "--out", str(tmp_path / "s.json")],
        ["priors", "--data", manifest, "--spec", str(out / "spec.json"),
         "--out", str(tmp_path / "p.json")],
        eval_argv(out, out / "run" / "checkpoint.ckpt", tmp_path / "eval"),
        ["train", "--config", str(out / "run.json"), "--epochs", "1", "--out", str(tmp_path / "run")],
    ]
    rng = np.random.default_rng(17)
    for target in targets:
        intact = target.read_bytes()
        cases = {f"cut at {n}": intact[:n] for n in rng.integers(0, len(intact), size=2)}
        for bit in rng.integers(0, 8 * len(intact), size=10):
            flipped = bytearray(intact)
            flipped[bit // 8] ^= 1 << bit % 8
            cases[f"bit {bit} flipped"] = bytes(flipped)
        for case, blob in cases.items():
            target.write_bytes(blob)
            for argv in commands:
                try:
                    code = run(argv)
                except Exception as exc:  # report which input let it escape
                    pytest.fail(f"{target.name}, {case}: {argv[0]} raised {exc!r}")
                errors = [line for line in capsys.readouterr().err.splitlines()
                          if line.startswith("error:")]
                assert (code, len(errors)) in ((0, 0), (1, 1)), (target.name, case, argv[0])
        target.write_bytes(intact)


class TestCommandChecks:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("checks")
        assert run(["synth", "--config", str(synth_config(root)), "--out", str(root / "c")]) == 0
        manifest = root / "c" / "train" / "manifest.json"
        (root / "seedless.json").write_text(json.dumps(
            {"version": 1, "data": {"train_manifest": str(manifest)}}))
        return root

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--data", "{root}/c/train/manifest.json", "--groups", "cluster:x"],
         "bad group count in --groups 'cluster:x'"),
        (["synth", "--preset", "bogus"], "unknown preset 'bogus'"),
        (["synth"], "synth needs --config or --preset"),
        (["train", "--config", "{root}/seedless.json"],
         "run config: a seed is required (field or --seed)"),
    ], ids=["cluster-count", "unknown-preset", "no-synth-config", "no-seed"])
    def test_is_one_error_line(self, corpus, tmp_path, capsys, argv, message):
        dest = tmp_path / "out"
        assert run([arg.format(root=corpus) for arg in argv] + ["--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not dest.exists()


class TestTrainBuildsItsGrouping:
    """A run without spec and priors files writes the ones ``gtla cluster`` and
    ``gtla priors`` write for its corpus and grouping mode."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("own_grouping")
        assert run(["synth", "--preset", "longtail", "--seed", "3",
                    "--out", str(root / "corpus")]) == 0
        return root / "corpus" / "train" / "manifest.json"

    @pytest.mark.parametrize("mode, flags", [
        ("activity", []), ("cluster:3", ["--groups", "cluster:3"]),
    ], ids=["activity-section", "cluster-flag"])
    def test_files_equal_cluster_and_priors_output(self, corpus, tmp_path, mode, flags):
        spec, prior = tmp_path / "spec.json", tmp_path / "priors.json"
        assert run(["cluster", "--data", str(corpus), "--groups", mode, "--out", str(spec)]) == 0
        assert run(["priors", "--data", str(corpus), "--spec", str(spec),
                    "--out", str(prior)]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "version": 1, "seed": 0, "data": {"train_manifest": str(corpus)},
            "groups": {"mode": "activity"}, "backbone": {"hidden": 4, "layers": 1},
            "train": {"epochs": 1}}))
        out = tmp_path / "run"
        assert run(["train", "--config", str(config), "--out", str(out)] + flags) == 0
        assert (out / "group_spec.json").read_bytes() == spec.read_bytes()
        assert (out / "priors.json").read_bytes() == prior.read_bytes()


class TestVersionedJsonFiles:
    """Every JSON file a command reads needs "version": 1 and finite numbers only;
    otherwise the command writes nothing and prints one error line naming the file."""

    SET_NUMBER = {  # writes a value into a number-valued field of each file
        "manifest": lambda payload, value: payload.update(feature_dim=value),
        "spec": lambda payload, value: payload["group_weights"].__setitem__(0, value),
        "priors": lambda payload, value: payload["groups"][0]["prior"].update(idle=value),
        "run-config": lambda payload, value: payload["train"].update(tau=value),
        "synth-config": lambda payload, value: payload.update(mean_scale=value),
        "report": lambda payload, value: payload["global"].update(mof=value),
    }

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        return run_pipeline(tmp_path_factory.mktemp("json"), "w", epochs=1)

    MESSAGES = {"no-version": "unsupported or missing version None",
                "version-2": "unsupported or missing version 2",
                "nan": "invalid JSON (non-finite number NaN)",
                "1e400": "invalid JSON (non-finite number 1e400)"}

    @pytest.mark.parametrize("edit", list(MESSAGES))
    @pytest.mark.parametrize("name", list(SET_NUMBER))
    def test_is_one_error_line_naming_the_file(self, pipeline, tmp_path, capsys, name, edit):
        manifest = pipeline / "corpus" / "train" / "manifest.json"
        source = {"manifest": manifest, "spec": pipeline / "spec.json",
                  "priors": pipeline / "priors.json", "run-config": pipeline / "run.json",
                  "synth-config": pipeline.parent / "synth.json",
                  "report": pipeline / "eval" / "report.json"}[name]
        payload = json.loads(source.read_text())
        if edit == "no-version":
            del payload["version"]
        elif edit == "version-2":
            payload["version"] = 2
        else:
            self.SET_NUMBER[name](payload, float("nan") if edit == "nan" else 123.25)
        bad, dest = source.with_name("edited.json"), tmp_path / "out"
        bad.write_text(json.dumps(payload).replace("123.25", "1e400"))
        argv = {
            "manifest": ["cluster", "--data", str(bad), "--out", str(dest / "spec.json")],
            "spec": ["priors", "--data", str(manifest), "--spec", str(bad),
                     "--out", str(dest / "priors.json")],
            "priors": eval_argv(pipeline, pipeline / "run" / "checkpoint.ckpt", dest),
            "run-config": ["train", "--config", str(bad), "--out", str(dest)],
            "synth-config": ["synth", "--config", str(bad), "--out", str(dest)],
            "report": ["report", str(bad), "--out", str(dest / "cmp")],
        }[name]
        if name == "priors":
            argv[argv.index("--priors") + 1] = str(bad)
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: {self.MESSAGES[edit]}\n"
        assert not dest.exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("spec", lambda payload: payload["group_of_activity"].update(first=1.5),
         "group spec: group_of_activity: bad value 1.5 for 'first'"),
        ("priors", lambda payload: payload["groups"][0]["prior"].update(idle="0.5"),
         "temporal prior: groups: prior: bad value '0.5' for 'idle'"),
        ("priors", lambda payload: payload.update(grops=[]),
         "temporal prior: unknown key(s) ['grops']"),
    ], ids=["spec-group-id-float", "priors-value-str", "priors-unknown-key"])
    def test_mistyped_value_is_one_error_line_naming_the_file(self, pipeline, tmp_path, capsys,
                                                              name, edit, message):
        payload = json.loads((pipeline / f"{name}.json").read_text())
        edit(payload)
        bad, dest = pipeline / "mistyped.json", tmp_path / "out"
        bad.write_text(json.dumps(payload))
        argv = eval_argv(pipeline, pipeline / "run" / "checkpoint.ckpt", dest)
        argv[argv.index(f"--{name}") + 1] = str(bad)
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not dest.exists()


class TestCheckpointFiles:
    def test_train_runs_write_byte_identical_checkpoints(self, tmp_path):
        out = run_pipeline(tmp_path, "w", epochs=1)
        for name in ("a", "b"):
            assert run(["train", "--config", str(out / "run.json"), "--out", str(out / name)]) == 0
        first = (out / "run" / "checkpoint.ckpt").read_bytes()
        assert (out / "a" / "checkpoint.ckpt").read_bytes() == first
        assert (out / "b" / "checkpoint.ckpt").read_bytes() == first

    def test_damaged_checkpoint_is_one_error_line_or_loads_intact(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        blob = (out / "run" / "checkpoint.ckpt").read_bytes()
        intact, _, _ = model.load_checkpoint(out / "run" / "checkpoint.ckpt")
        cuts = [blob[:size] for size in (0, 10, len(blob) // 2, len(blob) - 5)]
        flips = []
        for bit in np.random.default_rng(12).choice(8 * len(blob), size=240, replace=False):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            flips.append(bytes(flipped))
        damaged, crc_errors = out / "damaged.ckpt", 0
        for i, case in enumerate(cuts + flips):
            damaged.write_bytes(case)
            capsys.readouterr()
            code = run(eval_argv(out, damaged, out / "e"))
            err = capsys.readouterr().err
            if code == 0 and i >= len(cuts):
                loaded, _, _ = model.load_checkpoint(damaged)
                assert np.array_equal(loaded.values.flat, intact.values.flat), i
                continue
            assert code == 1, i
            assert err.startswith(f"error: {damaged}: ") and err.count("\n") == 1, (i, err)
            crc_errors += "Bad CRC-32" in err
        # Most flips land in the members' bytes, where the CRC-32 catches them.
        assert crc_errors > len(flips) // 2

    @pytest.mark.parametrize("edit", [
        lambda extra: extra["train_state"].update(dropout=5),
        lambda extra: extra["train_state"].update(history=3),
        lambda extra: extra["train_state"].update(history=[1.5, "x"]),
        lambda extra: extra["train_state"].update(epoch="1"),
        lambda extra: extra["train_state"].update(order={}),
        lambda extra: extra["train_state"]["order"].pop("state"),
        lambda extra: extra["train_state"]["dropout"]["state"].update(state=-1),
        lambda extra: extra.pop("train_state"),
        lambda extra: extra["train_state"].pop("epoch"),
        lambda extra: extra["train_state"].update(epochs=1),
    ], ids=["dropout-int", "history-int", "history-str-item", "epoch-str", "order-empty",
            "order-no-state", "dropout-negative", "no-train-state", "no-epoch", "unknown-key"])
    def test_malformed_train_state_is_one_error_line(self, tmp_path, capsys, edit):
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint_header(ckpt, lambda header: edit(header["extra"]))
        self.assert_resume_fails(out, ckpt, capsys)

    def test_nan_in_checkpoint_header_is_one_error_line(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint_header(ckpt, lambda header: header["extra"]["train_state"]["history"]
                               .append(float("nan")))
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err == (f"error: {ckpt}: not a checkpoint, or a damaged one "
                                           f"(ValueError: non-finite number NaN)\n")
        assert not (out / "r2").exists()

    def test_nan_in_checkpoint_params_is_one_error_line(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint(ckpt, lambda members: members["params"].put(0, np.nan))
        capsys.readouterr()
        assert run(eval_argv(out, ckpt, out / "e")) == 1
        assert capsys.readouterr().err == (f"error: {ckpt}: not a checkpoint, or a damaged one "
                                           f"(ValueError: member 'params' has values that are "
                                           f"not finite)\n")
        assert not (out / "e").exists()

    def test_checkpoint_saved_without_train_config_is_refused(self, tmp_path, capsys):
        """A checkpoint saved through the API without ``extra`` records neither the
        train config nor the train state, so it cannot be resumed."""
        out = run_pipeline(tmp_path, "w", epochs=1)
        params, adam, extra = model.load_checkpoint(out / "run" / "checkpoint.ckpt")
        ckpt = out / "api.ckpt"
        model.save_checkpoint(ckpt, params, step=extra["step"], adam=adam)
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err == (f"error: {ckpt}: train_config: expected a JSON "
                                           f"object, got None\n")
        assert not (out / "r2").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("bogus", 1, "unknown key(s) ['bogus']"), ("tau", "0.5", "bad value '0.5' for 'tau'"),
    ], ids=["unknown-key", "mistyped-value"])
    def test_recorded_train_config_is_read_by_its_schema(self, tmp_path, capsys, key, value,
                                                         message):
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint_header(ckpt, lambda header: header["extra"]["train_config"]
                               .update({key: value}))
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: train_config: {message}\n"
        assert not (out / "r2").exists()

    def test_recorded_train_config_missing_a_key_is_refused(self, tmp_path, capsys):
        """A recorded field is not filled in from its default: the run's default tau
        must not pass for a tau the checkpoint never recorded."""
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint_header(ckpt, lambda header: header["extra"]["train_config"].pop("tau"))
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: train_config: missing key(s) ['tau']\n"
        assert not (out / "r2").exists()

    def test_header_config_missing_a_key_is_refused(self, tmp_path, capsys):
        """A backbone field is not filled in from its default: the run's default dropout
        must not pass for a dropout the checkpoint never recorded."""
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint_header(ckpt, lambda header: header["config"].pop("dropout"))
        message = (f"{ckpt}: not a checkpoint, or a damaged one (ConfigError: header: config: "
                   f"missing key(s) ['dropout'])")
        with pytest.raises(FormatError) as info:
            model.load_checkpoint(ckpt)
        assert str(info.value) == message
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "r2").exists()

    @staticmethod
    def overflowing_run(tmp_path, weight=1e25):
        """A ``run_pipeline`` directory whose spec weights one group by ``weight``: by
        default, gradients stay finite in float32 but Adam's v = g * g overflows."""
        out = run_pipeline(tmp_path, "w", epochs=1)
        spec = json.loads((out / "spec.json").read_text())
        spec["group_weights"][1] = weight  # finite and > 0, so the spec loads
        (out / "spec.json").write_text(json.dumps(spec))
        return out

    def test_overflowing_gradient_is_one_error_line_and_no_checkpoint(self, tmp_path):
        """A weight of 1e300 overflows the float32 gradient itself: adam_step refuses it,
        and under ``-W error::RuntimeWarning`` no warning comes first."""
        out = self.overflowing_run(tmp_path, weight=1e300)
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "gtla.cli", "train",
             "--config", str(out / "run.json"), "--out", str(out / "huge")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 1
        assert result.stderr == "error: non-finite gradient in 'in.w' at step 4\n"
        assert not (out / "huge" / "checkpoint.ckpt").exists()

    def test_overflowing_adam_moment_is_one_error_line_and_no_checkpoint(self, tmp_path, capsys):
        out = self.overflowing_run(tmp_path)
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "huge")]) == 1
        assert capsys.readouterr().err == "error: epoch 1: Adam v overflowed to non-finite values\n"
        assert not (out / "huge" / "checkpoint.ckpt").exists()

    def test_overflowing_adam_moment_raises_no_warning(self, tmp_path):
        """Under ``-W error::RuntimeWarning`` the overflow is still the one error line."""
        out = self.overflowing_run(tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "gtla.cli", "train",
             "--config", str(out / "run.json"), "--out", str(out / "huge")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 1
        assert result.stderr == "error: epoch 1: Adam v overflowed to non-finite values\n"

    @pytest.mark.parametrize("weight, message", [
        (1e300, "non-finite gradient in 'in.w' at step 4"),
        (1e25, "epoch 1: Adam v overflowed to non-finite values")])
    def test_overlapped_overflow_is_one_error_line_and_no_checkpoint(self, tmp_path, weight,
                                                                     message):
        """The worker thread computes under the caller's numpy error state, so under
        ``-W error::RuntimeWarning`` it raises no warning of its own."""
        out = self.overflowing_run(tmp_path, weight=weight)
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", OVERLAPPED_CLI, "train",
             "--config", str(out / "run.json"), "--out", str(out / "huge")],
            capture_output=True, text=True, env={**os.environ, **BLAS_PINNED, "PYTHONPATH": src})
        assert result.returncode == 1
        assert result.stderr == f"error: {message}\n"
        assert not (out / "huge" / "checkpoint.ckpt").exists()

    def test_overlapped_overflowing_adam_moment_in_process(self, tmp_path, capsys, monkeypatch):
        out = self.overflowing_run(tmp_path)
        overlap_every_step(monkeypatch)
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "huge")]) == 1
        assert capsys.readouterr().err == "error: epoch 1: Adam v overflowed to non-finite values\n"
        assert not (out / "huge" / "checkpoint.ckpt").exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask")
    def test_one_cpu_training_starts_no_thread_and_writes_the_same_bytes(self, tmp_path,
                                                                         monkeypatch):
        """Serial, overlapped and one-CPU runs (the last with the rule's threshold at 0 and
        BLAS pinned, so only the affinity mask keeps it serial) write the same checkpoint."""
        out = run_pipeline(tmp_path, "w")
        overlap_every_step(monkeypatch)
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "both")]) == 0
        one_cpu = ("import os, sys, threading; from gtla import cli, training; "
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                   "training.OVERLAP_MIN_FRAMES = 0; started, start = [], threading.Thread.start; "
                   "threading.Thread.start = lambda t: (started.append(t), start(t)); "
                   "code = cli.main(sys.argv[1:]); print(len(started)); sys.exit(code)")
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", one_cpu, "train", "--config", str(out / "run.json"),
             "--out", str(out / "one")],
            capture_output=True, text=True, env={**os.environ, **BLAS_PINNED, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0"
        serial = (out / "run" / "checkpoint.ckpt").read_bytes()
        assert (out / "both" / "checkpoint.ckpt").read_bytes() == serial
        assert (out / "one" / "checkpoint.ckpt").read_bytes() == serial

    def test_train_state_list_is_one_error_line(self, tmp_path, capsys):
        out = run_pipeline(tmp_path, "w", epochs=1)
        ckpt = out / "run" / "checkpoint.ckpt"
        edit_checkpoint_header(ckpt, lambda header: header["extra"].update(train_state=[1, 2]))
        self.assert_resume_fails(out, ckpt, capsys)

    @staticmethod
    def assert_resume_fails(out, ckpt, capsys):
        capsys.readouterr()
        assert run(["train", "--config", str(out / "run.json"), "--out", str(out / "r2"),
                    "--epochs", "2", "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: train_state") and err.count("\n") == 1, err
        assert not (out / "r2" / "checkpoint.ckpt").exists()


class TestRunConfigSchema:
    """Run-config sections are parsed from the config dataclasses' fields."""

    def train_with(self, tmp_path, edit):
        out = run_pipeline(tmp_path, "w", epochs=1)
        payload = json.loads((out / "run.json").read_text())
        edit(payload)
        (out / "edited.json").write_text(json.dumps(payload))
        code = run(["train", "--config", str(out / "edited.json"), "--out", str(out / "r")])
        return code, out / "r"

    def test_empty_train_section_logs_dataclass_defaults(self, tmp_path):
        def edit(payload):
            payload["train"] = {}
        code, out = self.train_with(tmp_path, edit)
        assert code == 0
        log = json.loads((out / "train_log.json").read_text())
        assert log["train_config"] == losses.TrainConfig(seed=1).to_dict()

    def test_json_spellings_land_in_fields(self, tmp_path):
        def edit(payload):
            payload["train"].update({"lambda": 0.2, "delta": 3.0, "epochs": 1})
            payload["backbone"]["layers"] = 3
        code, out = self.train_with(tmp_path, edit)
        assert code == 0
        logged = json.loads((out / "train_log.json").read_text())["train_config"]
        assert logged["lambda"] == 0.2 and logged["delta"] == 3.0
        params, _, _ = model.load_checkpoint(out / "checkpoint.ckpt")
        assert params.cfg.num_layers == 3

    def test_field_spelling_rejected(self, tmp_path, capsys):
        def edit(payload):
            payload["train"]["smooth_weight"] = 0.2
        code, _ = self.train_with(tmp_path, edit)
        assert code == 1
        assert "smooth_weight" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("train", "tau", "high"), ("train", "tau", "0.3"),
        ("train", "epochs", 1.9), ("train", "epochs", True), ("train", "epochs", 0),
        (None, "seed", 7.9), (None, "seed", "7"), (None, "seed", True),
        ("groups", "n", 2.5), ("groups", "n", "2"), ("groups", "n", True),
        ("groups", "mode", 5), ("groups", "linkage", 5), ("groups", "spec", 5),
        ("groups", "priors", 5), ("data", "train_manifest", 3), (None, "out", 5),
        (None, "train", 5), (None, "groups", "activity"), (None, "data", []),
        ("groups", "mode", "cluster:3"), ("train", "lr", -0.5), ("train", "tau", 10 ** 400),
        ("groups", "linkage", "bogus"), (None, "seed", -1), ("train", "seed", 3),
    ], ids=["tau-high", "tau-str", "epochs-float", "epochs-bool", "epochs-zero",
            "seed-float", "seed-str", "seed-bool", "n-float", "n-str", "n-bool",
            "mode-int", "linkage-int", "spec-int", "priors-int", "train_manifest-int",
            "out-int", "train-not-object", "groups-not-object", "data-not-object",
            "mode-flag-spelling", "lr-negative", "tau-401-digits", "linkage-bogus",
            "seed-negative", "seed-in-train-section"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, section, key, value):
        def edit(payload):
            if section == "groups":
                payload["groups"] = {"mode": "cluster", "n": 2}
            (payload[section] if section else payload)[key] = value
        code, _ = self.train_with(tmp_path, edit)
        assert code == 1
        err = capsys.readouterr().err
        ctx = {"train": "train section", "groups": "groups section",
               "data": "data section", None: "run config"}
        assert err.startswith(f"error: {ctx[section]}") and key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [("hidden", 0), ("layers", 0), ("dropout", 1.5)])
    def test_backbone_error_names_only_the_failing_field(self, tmp_path, capsys, key, value):
        field = {"layers": "num_layers"}.get(key, key)
        code, _ = self.train_with(tmp_path, lambda payload: payload["backbone"].update({key: value}))
        assert code == 1
        bound = "in [0, 1)" if key == "dropout" else ">= 1"
        assert capsys.readouterr().err == (f"error: backbone section: {field} must be {bound}, "
                                           f"got {value!r}\n")

    @pytest.mark.parametrize("groups, key", [
        ({"mode": "cluster"}, "n"),
        ({"mode": "activity", "linkage": "single"}, "linkage"),
    ], ids=["cluster-without-n", "activity-with-linkage"])
    def test_groups_keys_follow_the_mode(self, tmp_path, capsys, groups, key):
        def edit(payload):
            payload["groups"] = groups
        code, _ = self.train_with(tmp_path, edit)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: groups section") and repr(key) in err
        assert err.count("\n") == 1

    def test_int_is_accepted_for_a_float_field(self, tmp_path):
        def edit(payload):
            payload["train"]["tau"] = 1
        code, out = self.train_with(tmp_path, edit)
        assert code == 0
        logged = json.loads((out / "train_log.json").read_text())["train_config"]
        assert logged["tau"] == 1.0 and isinstance(logged["tau"], float)


class TestBadFlagValues:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        return run_pipeline(tmp_path_factory.mktemp("flags"), "w", epochs=1)

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--tau", "inf"), ("train", "--lambda", "nan"), ("train", "--eta", "-1"),
        ("train", "--epochs", "0"), ("train", "--groups", "cluster:0"),
        ("train", "--groups", "cluster:999"), ("cluster", "--groups", "cluster:0"),
        ("cluster", "--groups", "cluster:999"), ("eval", "--head-threshold", "nan"),
        ("eval", "--head-threshold", "0"), ("eval", "--head-threshold", "-5"),
        ("eval", "--head-threshold", "inf"), ("train", "--seed", "-1"),
    ])
    def test_error_line_names_the_flag(self, pipeline, tmp_path, capsys, command, flag, value):
        dest = tmp_path / "out"
        argv = {"train": ["train", "--config", str(pipeline / "run.json")],
                "cluster": ["cluster", "--data",
                            str(pipeline / "corpus" / "train" / "manifest.json")],
                # the later --head-threshold overrides the one eval_argv passes
                "eval": eval_argv(pipeline, pipeline / "run" / "checkpoint.ckpt", dest)[:-2],
                }[command]
        assert run(argv + [flag, value, "--out", str(dest)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert err.startswith(f"error: {flag} ")
        assert not dest.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--tau", "inf", "--tau inf: tau must be finite and >= 0, got inf"),
        ("--lambda", "nan", "--lambda nan: smooth_weight must be finite and >= 0, got nan"),
        ("--eta", "-1", "--eta -1.0: eta must be finite and >= 0, got -1.0"),
        ("--epochs", "0", "--epochs 0: epochs must be >= 1, got 0"),
        ("--seed", "-1", "--seed -1: seed must be >= 0, got -1"),
    ], ids=["tau", "lambda", "eta", "epochs", "seed"])
    def test_train_error_names_only_the_failing_field(self, pipeline, tmp_path, capsys, flag,
                                                      value, message):
        argv = ["train", "--config", str(pipeline / "run.json"), "--out", str(tmp_path / "o")]
        assert run(argv + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestReportCommand:
    """`gtla report` reads every report by the ``MetricsReport`` schema."""

    @pytest.fixture(scope="class")
    def report(self):
        """``compute_report`` of shifted ground truth on a small synthetic corpus."""
        train, test = data.synth_generate(data.longtail_benchmark_config(
            seed=0, train_per_activity=3, test_per_activity=2))
        spec = grouping.build_group_spec(train, grouping.ByActivity())
        groups = [spec.group_of(s) for s in test.sequences]
        preds = [inference.Prediction(s.id, k, np.roll(s.labels, 3), np.zeros(spec.n))
                 for s, k in zip(test.sequences, groups)]
        return metrics.compute_report(preds, test, spec, priors.extract_priors(train, spec),
                                      metrics.head_tail_split(train, 300), groups)

    def write_report(self, report, tmp_path, name="r", edit=lambda payload: None):
        payload = {**json.loads(json.dumps(to_json(report))), "version": 1}
        edit(payload)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return path

    def test_valid_reports_compare(self, report, tmp_path, capsys):
        base = self.write_report(report, tmp_path, "base", lambda p: p["global"].update(mof=80))
        other = self.write_report(
            report, tmp_path, "other", lambda p: p["global"].update(mof=82.5))
        assert run(["report", str(base), str(other), "--out", str(tmp_path / "cmp")]) == 0
        comparison = json.loads((tmp_path / "cmp.json").read_text())
        rows = comparison["rows"]
        assert [row["name"] for row in rows] == [str(base), str(other)]
        assert comparison["baseline"] == str(base)
        assert rows[1]["global mof"] == 82.5 and rows[1]["delta global mof"] == 2.5
        assert rows[1]["fp_taxonomy tp"] == report.fp_counts["tp"]
        assert "82.5 (+2.5)" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, where", [
        (lambda p: p["global"].pop("edit"), "edit"),
        (lambda p: p["global"].update(mof="x"), "mof"),
        (lambda p: p["global"].update(mof=True), "mof"),
        (lambda p: p["balanced"].update(recall=[1, 2]), "recall"),
        (lambda p: p.pop("balanced"), "balanced"),
        (lambda p: p["fp_taxonomy"].pop("fp2"), "fp2"),
        (lambda p: p["fp_taxonomy"].update(tp="4"), "tp"),
        (lambda p: p["fp_taxonomy"].update(tp=4.5), "tp"),
        (lambda p: p.update(fp_taxonomy=5), "fp_taxonomy"),
        (lambda p: p.update(bogus=1), "bogus"),
        (lambda p: p.pop("head_tail"), "head_tail"),
    ], ids=["missing-column", "column-str", "column-bool", "section-not-object",
            "missing-section", "missing-count", "count-str", "count-float",
            "counts-not-object", "unknown-key", "missing-head_tail"])
    def test_bad_report_is_one_error_line(self, report, tmp_path, capsys, edit, where):
        base = self.write_report(report, tmp_path, "base")
        bad = self.write_report(report, tmp_path, "bad", edit)
        assert run(["report", str(base), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: metrics report {bad}") and repr(where) in err
        assert err.count("\n") == 1
