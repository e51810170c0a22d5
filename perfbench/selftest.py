#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

    python3 perfbench/selftest.py

Run it from the root of a source checkout. For every workload in
BENCHMARK.json it runs run.py for one second untraced on two seeds and
traced on one, and checks that each run exits with 0 and that its last line
is a result object with exactly the keys correct, attempted and failed and
metrics, naming exactly the metrics BENCHMARK.json lists for that mode, with
their units. The second seed also exercises run.py's comparison of exact
counters across runs. Last, it runs run.py in a directory that holds only
BENCHMARK.json and the benchmark's files, where it must fail without
printing a result. Exits with 0 when every check passed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(proc, wanted):
    """Returns the problems with one run's exit code and result line."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            wanted = spec["per_layer" if trace else "end_to_end"]
            for p in check_result(run(ROOT, w["name"], seed, trace), wanted):
                problems.append(f"{w['name']} seed {seed} trace {trace}: {p}")
            print(f"selftest: {w['name']} seed {seed} trace {trace} done", flush=True)

    bare = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run(bare, spec["workloads"][0]["name"], 1, 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py did not fail in a directory without the sources")
    shutil.rmtree(bare)

    for p in problems:
        print(f"selftest: FAILED {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
