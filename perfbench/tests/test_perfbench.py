"""Tests of the benchmark itself: smoke runs, wrapper restoration, span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from pipeline import run_iteration  # noqa: E402
from run import write_inputs  # noqa: E402
from tracing import END, PARENT, START, TARGETS, Tracer, install, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def originals() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


def test_benchmark_json_names_the_workloads_defined_here():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_workload_runs_end_to_end(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "cluster_scale", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stdout
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["grouping.symmetric_kl.calls"] > 0
    assert values["grouping.hierarchical_cluster.s"] > 0
    assert values["priors.temporal_factor_matrix.calls_per_sequence"] == 2  # = epochs


def test_directory_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "canonical", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_install_restores_every_original():
    before = originals()
    with install(Tracer()):
        during = originals()
        assert all(during[key] is not fn for key, fn in before.items())
    assert all(after is before[key] for key, after in originals().items())


def test_install_restores_originals_after_an_error():
    before = originals()
    with pytest.raises(RuntimeError):
        with install(Tracer()):
            raise RuntimeError("boom")
    bad_targets = TARGETS[:3] + (("gtla.grouping", "no_such_function", "x"),)
    with pytest.raises(AttributeError):
        with install(Tracer(), bad_targets):
            pass
    assert all(after is before[key] for key, after in originals().items())


def test_wrapped_function_returns_the_same_result():
    import numpy as np
    from gtla import grouping

    q, r = np.array([0.5, 0.5, 0.0]), np.array([0.2, 0.3, 0.5])
    expected = grouping.symmetric_kl(q, r)
    tracer = Tracer()
    with install(tracer):
        assert grouping.symmetric_kl(q, r) == expected
    assert [span[0] for span in tracer.spans] == ["grouping.symmetric_kl"]


def assert_spans_reconstruct(spans):
    """Each span's self time plus its children's durations is its duration."""
    stats = summarize(spans)
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] <= span[END] <= parent[END]
            children[span[PARENT]].append(i)
    for i, span in enumerate(spans):
        covered = sum(spans[c][END] - spans[c][START] for c in children[i])
        assert 0 <= covered <= span[END] - span[START]
    roots = [span for span in spans if span[PARENT] < 0]
    assert len(roots) == 1
    # Self times partition the root span: summed over every name they give it back.
    assert sum(entry["self_ns"] for entry in stats.values()) == roots[0][END] - roots[0][START]
    return stats


def test_self_times_reconstruct_parent_spans():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(5000)))

    def middle_body():
        leaf()
        sum(range(1000))
        leaf()

    middle = tracer.wrap("middle", middle_body)
    with tracer.span("root"):
        middle()
        leaf()
        middle()
    stats = assert_spans_reconstruct(tracer.spans)
    assert stats["leaf"]["calls"] == 5 and stats["middle"]["calls"] == 2
    leaf_under_middle = sum(s[END] - s[START] for s in tracer.spans
                            if s[0] == "leaf" and tracer.spans[s[PARENT]][0] == "middle")
    assert (stats["middle"]["self_ns"] + leaf_under_middle
            == stats["middle"]["total_ns"])


def test_traced_pipeline_reconstructs_and_matches_the_untraced_one(tmp_path):
    import gtla

    workload = WORKLOADS["canonical"].smoke()
    write_inputs(workload, 5, tmp_path)
    plain = run_iteration(tmp_path)
    tracer = Tracer()
    traced = run_iteration(tmp_path, tracer=tracer)
    assert plain["failures"] == [] and traced["failures"] == []
    for key in ("loss_history", "mof", "tail_recall", "group_id_acc"):
        assert traced[key] == plain[key]

    # Training one epoch per train_model call matches a single call.
    train = gtla.load_corpus(tmp_path / "train" / "manifest.json")
    spec = gtla.build_group_spec(train, gtla.ByActivity())
    backbone = gtla.BackboneConfig(in_dim=train.feature_dim,
                                   head_sizes=spec.head_sizes(), seed=5)
    state = gtla.train_model(train, spec, gtla.extract_priors(train, spec), backbone,
                             gtla.TrainConfig(method="gtla", epochs=workload.epochs, seed=5))
    assert plain["loss_history"] == state.history
    stats = assert_spans_reconstruct(tracer.spans)
    assert stats["pipeline"]["calls"] == 1
    assert stats["training.train_epoch"]["calls"] == 2
