#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spec_o0|module_10k|query_service \\
        --seed N --seconds S --trace 0|1

The first run builds the benchmark (perfbench/CMakeLists.txt, which builds
the repository's `tpde` library from src/) into .bench_build/perfbench, or
into $CARGO_TARGET_DIR/perfbench when that is set; later runs rebuild only
what changed. Build output goes to stderr. The benchmark binary's output
is passed through, except its last line: the metrics the run set, each
with its unit. BENCHMARK.json is the one catalogue of metric names and
units. This script rejects a metric it does not list or a unit that
differs, and prints as its own last line one JSON object with the keys
correct/attempted/failed/metrics: with --trace 0 every end-to-end metric
(each one must have been set), with --trace 1 every per-layer metric (a
layer the workload does not use reads 0).

Any other option (such as --inject-map-delay-pct, used by selftest.py)
is handed to the binary unchanged.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spec_o0", "module_10k", "query_service")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository sources (CMakeLists.txt, src/) are missing; "
             "run from the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def catalogue():
    """Metric name -> (unit, is end-to-end), from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["unit"], True) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["unit"], False) for m in spec["per_layer"]})
    return out


def select_metrics(got, trace):
    """The run's metrics of the mode's set, checked against the catalogue."""
    cat = catalogue()
    for name, m in got.items():
        if name not in cat:
            fail(f"metric {name} is not listed in BENCHMARK.json", 1)
        if m["unit"] != cat[name][0]:
            fail(f"metric {name} has unit {m['unit']}, BENCHMARK.json "
                 f"says {cat[name][0]}", 1)
    out = {}
    for name, (unit, e2e) in cat.items():
        if e2e == trace:
            continue
        if name in got:
            out[name] = got[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not set", 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = ap.parse_known_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with code {res.returncode}", 1)

    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("benchmark did not end with a JSON result line", 1)
    result["metrics"] = select_metrics(result["metrics"], args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
