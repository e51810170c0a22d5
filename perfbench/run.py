#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds perfbench/ (the
library sources under src/ plus the fsdp_perfbench binary) into
$CARGO_TARGET_DIR/perfbench-<checkout key>, with .bench_build when that
variable is unset, runs one workload and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. The metrics are
the end_to_end ones of BENCHMARK.json with --trace 0 and the per_layer ones
with --trace 1.

Besides the binary's own checks it compares the run's exact counters with
those of the first run of the workload on the same sources (a digest of
src/ and perfbench/), and the tuned plans with perfbench/expected_plans.json;
a mismatch counts as a failed operation. A traced run writes its spans and
the per-layer table to the results/ directory of the build directory. The
exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    """One build tree per checkout, also when $CARGO_TARGET_DIR is shared."""
    key = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / f"perfbench-{key}"


def source_digest():
    """Digest of the files the binary is built from, so that exact counters
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a source checkout")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    # Configuring every time makes cmake refuse a tree made from other sources.
    if subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)], **quiet).returncode:
        fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs], **quiet).returncode:
        fail("build failed")
    return out / "fsdp_perfbench"


def write_atomic(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def check_exact(out, workload, seed, exact):
    """Compares the run's exact counters with the recorded ones.

    The first run of a workload on the same sources records its counters;
    counters that only a traced run measures are recorded by the first run
    that measures them. Returns (checks made, failure messages)."""
    ref_path = out / "exact" / source_digest() / f"{workload}.json"
    ref = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    checks, failures = 0, []
    for name, value in sorted(exact.items()):
        if name not in ref:
            ref[name] = {"value": value, "seed": seed}
            continue
        checks += 1
        if value != ref[name]["value"]:
            failures.append(f"exact counter {name}: {value!r} here, {ref[name]['value']!r} "
                            f"in the recorded run (seed {ref[name]['seed']})")
    write_atomic(ref_path, json.dumps(ref, indent=1, sort_keys=True))
    return checks, failures


def check_plans(exact):
    """A tuned plan must be no slower (in simulated time) than the reference.

    Returns (checks made, failure messages)."""
    expected = json.loads((HERE / "expected_plans.json").read_text())
    checks, failures = 0, []
    for name, want_us in expected["tuned_iter_us"].items():
        got = exact.get(f"tuned_iter_us.{name}")
        if got is None:
            continue
        checks += 1
        got_us = float(got)
        if got_us > want_us:
            failures.append(f"{name}: tuned plan iterates in {got_us} us, "
                            f"the reference plan in {want_us} us")
    return checks, failures


def layer_table(spans_path, table_path, metrics):
    """Writes the per-layer metrics and each span name's self time."""
    spans = json.loads(spans_path.read_text())
    child_us = {}
    for s in spans:
        if s["parent"] >= 0:
            child_us[s["parent"]] = child_us.get(s["parent"], 0) + s["end_us"] - s["start_us"]
    by_name = {}
    for s in spans:
        total = s["end_us"] - s["start_us"]
        row = by_name.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += total
        row[2] += total - child_us.get(s["id"], 0)
    lines = [f"{'metric':34s} {'value':>16s}  unit"]
    lines += [f"{name:34s} {value:16.6g}  {unit}" for name, (value, unit) in metrics.items()]
    lines += ["", f"{'span':24s} {'count':>7s} {'total_ms':>12s} {'self_ms':>12s} {'self_ms/span':>13s}"]
    for name, (count, total, self_us) in sorted(by_name.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:24s} {count:7d} {total / 1e3:12.3f} {self_us / 1e3:12.3f} "
                     f"{self_us / 1e3 / count:13.4f}")
    write_atomic(table_path, "\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    binary = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    spans_path = results / f"{stem}_spans.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"fsdp_perfbench exited with {proc.returncode}", 3)
    run = json.loads(lines[-1])

    attempted, failed, failures = run["attempted"], run["failed"], list(run["failures"])
    for checks, msgs in (check_exact(out, args.workload, args.seed, run["exact"]),
                         check_plans(run["exact"])):
        attempted += checks
        failed += len(msgs)
        failures += msgs
    metrics = {}
    for m in wanted:
        value = run["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{args.workload} did not measure {m['name']} (got {value!r})", 3)
        metrics[m["name"]] = (value, m["unit"])
    if args.trace:
        layer_table(spans_path, results / f"{stem}_layers.txt", metrics)

    for f in failures:
        log(f"FAILED: {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
