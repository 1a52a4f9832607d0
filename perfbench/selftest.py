"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

1. Runs every workload untraced and traced at toy size and asserts that the
   last line names exactly the metrics of BENCHMARK.json, each with its unit,
   and that every output check passed.
2. Corrupts one output (the minimized action, lowered by 1%) and asserts that
   the rate_functional checks count exactly that operation as failed.
3. Copies only BENCHMARK.json and perfbench/ into an empty directory and
   asserts that the benchmark fails there without printing a result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run

SPEC = run.load_spec()


def check_metric_names():
    for workload in SPEC["workloads"]:
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                 "--workload", workload["name"], "--seed", str(run.DEFAULT_SEED),
                 "--seconds", "0", "--trace", str(trace), "--size", "toy"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in wanted}, (workload, trace, got)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            print(f"ok  {workload['name']} --trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} operations checked")


def check_corruption_is_counted():
    run.import_package()
    import workloads
    from reflectal import action

    original = action.minimize_action_endpoint

    def corrupted(*args, **kwargs):
        result, info = original(*args, **kwargs)
        return dataclasses.replace(result, action=result.action * 0.99), info

    workload = workloads.WORKLOADS["rate_functional"]
    inputs = [workload.make_inputs(run.DEFAULT_SEED, 0, "toy", None)]
    tally = run.Tally()
    action.minimize_action_endpoint = corrupted
    try:
        run.measure(workload, inputs, 0.0, tally, run.SpeedGauge())
    finally:
        action.minimize_action_endpoint = original
    assert (tally.attempted, tally.failed) == (2, 1), vars(tally)
    print("ok  a corrupted action value is counted as a failed operation")


def check_fails_without_sources():
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc_orders_1d",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  without src/ the benchmark exits with code "
          f"{proc.returncode} and prints no result")


if __name__ == "__main__":
    check_metric_names()
    check_corruption_is_counted()
    check_fails_without_sources()
