import dataclasses
import hashlib
import json

import pytest

from gtla import cli, data, losses, model


def run(argv):
    return cli.main(argv)


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
    assert run(["eval", "--checkpoint", str(out / "run" / "checkpoint.ckpt"),
                "--data", str(test_manifest), "--train-data", str(train_manifest),
                "--spec", str(out / "spec.json"), "--priors", str(out / "priors.json"),
                "--head-threshold", "40", "--out", str(out / "eval")]) == 0
    return out


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
    ], ids=["prob-str", "gaps-str", "gaps-float", "name-int", "optionals-object",
            "mandatory-str", "activity-list", "activities-list", "median-str",
            "sigma-str", "duration-int", "durations-int", "similar-str", "similar-int",
            "optional-key-typo"])
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
        assert log["train_config"]["smooth_weight"] == 0.1

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

    def test_resume_flag(self, tmp_path):
        out = run_pipeline(tmp_path, "w", epochs=2)
        assert run(["train", "--config", str(out / "run.json"),
                    "--out", str(out / "more"), "--epochs", "3",
                    "--resume", str(out / "run" / "checkpoint.ckpt")]) == 0
        log = json.loads((out / "more" / "train_log.json").read_text())
        assert len(log["loss"]) == 3  # two restored + one new epoch


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
        assert logged["smooth_weight"] == 0.2 and logged["smooth_clip"] == 3.0
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
        ("groups", "mode", "cluster:3"),
    ], ids=["tau-high", "tau-str", "epochs-float", "epochs-bool", "epochs-zero",
            "seed-float", "seed-str", "seed-bool", "n-float", "n-str", "n-bool",
            "mode-int", "linkage-int", "spec-int", "priors-int", "train_manifest-int",
            "out-int", "train-not-object", "groups-not-object", "data-not-object",
            "mode-flag-spelling"])
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


class TestReportCommand:
    """`gtla report` reads every column and count through one checked path."""

    def write_report(self, tmp_path, name="r", edit=lambda payload: None):
        payload = {
            "version": 1,
            "global": {"mof": 80, "edit": 50.5, "f1@0.25": 40.0},
            "balanced": {"recall": {"head": 90.0, "tail": 10.0, "hmean": 18.0},
                         "f1@0.25": {"hmean": 12.5}},
            "fp_taxonomy": {"fp1": 1, "fp2": 2, "fp3": 3, "tp": 4},
        }
        edit(payload)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return path

    def test_valid_reports_compare(self, tmp_path, capsys):
        base = self.write_report(tmp_path, "base")
        other = self.write_report(
            tmp_path, "other", lambda p: p["global"].update(mof=82.5))
        assert run(["report", str(base), str(other), "--out", str(tmp_path / "cmp")]) == 0
        rows = json.loads((tmp_path / "cmp.json").read_text())["rows"]
        assert rows[1]["global mof"] == 82.5 and rows[1]["delta global mof"] == 2.5
        assert rows[1]["fp_taxonomy tp"] == 4
        assert "82.5 (+2.5)" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, where", [
        (lambda p: p["global"].pop("edit"), "global.edit"),
        (lambda p: p["global"].update(mof="x"), "global.mof"),
        (lambda p: p["global"].update(mof=True), "global.mof"),
        (lambda p: p["balanced"].update(recall=[1, 2]), "balanced.recall"),
        (lambda p: p.pop("balanced"), "balanced"),
        (lambda p: p["fp_taxonomy"].pop("fp2"), "fp_taxonomy.fp2"),
        (lambda p: p["fp_taxonomy"].update(tp="4"), "fp_taxonomy.tp"),
        (lambda p: p["fp_taxonomy"].update(tp=4.5), "fp_taxonomy.tp"),
        (lambda p: p.update(fp_taxonomy=5), "fp_taxonomy"),
    ], ids=["missing-column", "column-str", "column-bool", "section-not-object",
            "missing-section", "missing-count", "count-str", "count-float",
            "counts-not-object"])
    def test_bad_report_is_one_error_line(self, tmp_path, capsys, edit, where):
        base = self.write_report(tmp_path, "base")
        bad = self.write_report(tmp_path, "bad", edit)
        assert run(["report", str(base), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: metrics report {bad}") and repr(where) in err
        assert err.count("\n") == 1
