"""gtla benchmark: the library pipeline on a named workload, timed and checked.

    python3 perfbench/run.py --workload canonical --seed 100 --seconds 20 --trace 0

Run from the root of a checkout. The corpus is generated from ``--seed`` and
written to disk outside the timed region; then each pipeline iteration runs
in a fresh process (``pipeline.py``): at least two, and more while the next
one would still end within ``--seconds``. Every iteration's outputs are checked, and all
iterations must agree exactly (the determinism check). ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full records go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

MIN_ITERATIONS = 2    # the determinism check compares two iterations
SETUP_SAMPLES = 7     # set-up is short: top up its samples with set-up-only runs
SETUP_SHARE = 0.2     # ... spending at most this share of --seconds on them
STARTUP_S = 0.5       # first guess at a process's start-up cost
RUN_BUDGET_S = 150.0  # start no iteration that would end after this


def write_inputs(workload, seed: int, job_dir: Path) -> dict:
    """Generate the workload's corpus from the seed and write it to ``job_dir``."""
    import gtla

    train, test = gtla.synth_generate(workload.synth_config(seed))
    gtla.write_corpus(train, job_dir / "train")
    gtla.write_corpus(test, job_dir / "test")
    (job_dir / "job.json").write_text(
        json.dumps({"workload": asdict(workload), "seed": seed}), encoding="utf-8")
    corpus_bytes = sum(f.stat().st_size for part in ("train", "test")
                       for f in (job_dir / part).rglob("*") if f.is_file())
    return {"train_sequences": len(train), "test_sequences": len(test),
            "train_frames": sum(s.num_frames for s in train.sequences),
            "test_frames": sum(s.num_frames for s in test.sequences),
            "bytes": corpus_bytes}


def spawn(job_dir: Path, mode: str, traced: bool, timeout: float,
          spans: Path | None = None) -> dict | None:
    """Run one iteration in a fresh process; None if it failed to finish."""
    out = job_dir / f"record-{mode}.json"
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--job", str(job_dir),
           "--mode", mode, "--trace", str(int(traced)), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} iteration timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} iteration exited with {proc.returncode}:\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    record["wall_s"] = time.monotonic() - started
    return record


def run_iterations(job_dir: Path, seconds: float, trace: bool,
                   spans: Path) -> tuple[list[dict], list[float], int]:
    """Pipeline iterations, then (untraced runs only) set-up-only top-ups."""
    t0 = time.monotonic()
    records: list[dict] = []
    crashed = 0
    while True:
        traced = trace and len(records) % 2 == 1
        record = spawn(job_dir, "pipeline", traced, RUN_BUDGET_S - (time.monotonic() - t0),
                       spans if traced else None)
        if record is None:
            crashed += 1
            break
        records.append(record)
        # Stop before an iteration that would end past --seconds (or the budget).
        next_end = time.monotonic() - t0 + statistics.median(r["wall_s"] for r in records)
        if next_end > RUN_BUDGET_S or (len(records) >= MIN_ITERATIONS and next_end > seconds):
            break

    setup = [r["setup_s"] for r in records if not r["traced"]]
    if not trace and records:
        spent = 0.0
        estimate = statistics.median(setup) + STARTUP_S
        while len(setup) < SETUP_SAMPLES and spent + estimate <= SETUP_SHARE * seconds:
            record = spawn(job_dir, "setup", False, RUN_BUDGET_S)
            if record is None:
                crashed += 1
                break
            setup.append(record["setup_s"])
            spent += record["wall_s"]
            estimate = record["wall_s"]
    return records, setup, crashed


def check_determinism(records: list[dict]) -> None:
    """Every iteration must reproduce the first one's results exactly."""
    keys = ("tail_recall", "mof", "group_id_acc", "loss_history")
    first = [records[0][k] for k in keys]
    for record in records[1:]:
        differing = [k for k, v in zip(keys, first) if record[k] != v]
        if differing:
            record["failures"].append(f"not deterministic: {', '.join(differing)} "
                                      f"differ from the first iteration")


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    untraced = [r for r in records if not r["traced"]]
    epochs = [s for r in untraced for s in r["epoch_s"]]
    evals = [s for r in untraced for s in r["eval_s"]]
    values = {name: statistics.median(r[name] for r in untraced)
              for name in ("pipeline_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    values["train_frames_per_s"] = records[0]["train_frames"] / statistics.median(epochs)
    values["eval_frames_per_s"] = records[0]["test_frames"] / statistics.median(evals)
    values["mof"] = records[0]["mof"]
    values["group_id_acc"] = records[0]["group_id_acc"]
    samples = {name: len(untraced) for name in values}
    samples.update(setup_s=len(setup), train_frames_per_s=len(epochs),
                   eval_frames_per_s=len(evals))
    return values, samples


def per_layer(records: list[dict], corpus: dict) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["data.load_corpus.bytes"] = corpus["bytes"]
    values["trace.pipeline_s"] = statistics.median(r["pipeline_s"] for r in traced)
    values["trace.overhead_s"] = (values["trace.pipeline_s"]
                                  - statistics.median(r["pipeline_s"] for r in untraced))
    samples = {name: len(traced) for name in values}
    return values, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 bench: dict) -> dict | None:
    from machine import describe
    from workloads import WORKLOADS

    workload = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}{'-smoke' if smoke else ''}-seed{seed}"
    job_dir = OUT_DIR / f"job-{stem}-{os.getpid()}"
    try:
        corpus = write_inputs(workload, seed, job_dir)
        records, setup, crashed = run_iterations(job_dir, seconds, trace,
                                                 results_dir / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
    if not records or (trace and len(records) < 2):
        print(f"perfbench: {name}: no complete iteration", file=sys.stderr)
        return None

    check_determinism(records)
    failed = crashed + sum(1 for r in records if r["failures"])
    attempted = crashed + len(records)
    if trace:
        values, samples = per_layer(records, corpus)
        declared = bench["per_layer"]
    else:
        values, samples = end_to_end(records, setup)
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0 and len(records) >= MIN_ITERATIONS,
              "attempted": attempted, "failed": failed, "metrics": metrics}

    env = describe()
    results_path = results_dir / f"{stem}-trace{int(trace)}.json"
    results_path.write_text(json.dumps({
        "workload": asdict(workload), "seed": seed, "seconds": seconds,
        "environment": env, "corpus": corpus, "iterations": records,
        "setup_samples": setup, "samples": samples, **result}, indent=1) + "\n",
        encoding="utf-8")

    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"== perfbench {name}{' (smoke)' if smoke else ''}  seed {seed}  "
          f"trace {int(trace)} ==")
    print(f"machine: nproc {env['nproc']} (affinity {env['affinity']}), {env['machine']}, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, {threads}")
    print(f"corpus: {corpus['train_sequences']} train / {corpus['test_sequences']} test "
          f"sequences, {corpus['train_frames']} / {corpus['test_frames']} frames, "
          f"{corpus['bytes'] / 1e6:.1f} MB")
    print(f"iterations: {len(records)} in fresh processes"
          f" ({sum(r['traced'] for r in records)} traced), "
          f"{len(setup)} set-up samples")
    for m in declared:
        print(f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']:<9} "
              f"n={samples[m['name']]}")
    if not trace:
        print(f"  {'tail_recall (informational, unbounded)':<52} "
              f"{records[0]['tail_recall']:>14.6g} %")
    failures = [f for r in records for f in r["failures"]]
    print("checks: " + ("all passed" if not failures and not crashed else
                        f"FAILED: {crashed} crashed; " + "; ".join(failures)))
    print(f"records: {results_path.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and two epochs, for testing the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gtla" / "__init__.py").is_file():
        print(f"perfbench: no gtla sources under {ROOT / 'src'}; "
              "run from the root of a gtla checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")

    from machine import pin_blas_threads
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    for name in names if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.smoke, bench)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
