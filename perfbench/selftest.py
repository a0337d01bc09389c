#!/usr/bin/env python3
"""Shows that the benchmark's bounds catch a 20% slowdown and pass no change.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seeds 5] [--seconds 6]

On module_10k it runs three arms with the same seeds, interleaved seed by
seed: A and A' are the unchanged benchmark, B adds a busy delay of 20% of
each sample's ready time around JITMapper::map (--inject-map-delay-pct).
Each arm runs untraced (for ready_ms_p90) and traced (for
asmx.jit_map_us). With the bound of ready_ms_p90 from BENCHMARK.json:

  * A/A: the medians of A' and A differ by less than the bound on both
    metrics;
  * slowdown: B's medians exceed A's by more than the bound on both.

Exits 0 when both hold.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "module_10k"
E2E, LAYER = "ready_ms_p90", "asmx.jit_map_us"
DELAY_PCT = 20


def run(seed, seconds, trace, delay):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if delay:
        cmd += ["--inject-map-delay-pct", str(delay)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True)
    out = json.loads(res.stdout.strip().split("\n")[-1])
    if not out["correct"]:
        sys.exit(f"selftest: run {cmd} reported incorrect output")
    return out["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=6)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == E2E)

    arms = {"A": [], "A'": [], "B": []}
    for seed in range(1, args.seeds + 1):
        for arm, delay in (("A", 0), ("B", DELAY_PCT), ("A'", 0)):
            e2e = run(seed, args.seconds, 0, delay)[E2E]["value"]
            layer = run(seed, args.seconds, 1, delay)[LAYER]["value"]
            arms[arm].append((e2e, layer))
            print(f"seed {seed} {arm:2s}: {E2E} {e2e:.4f}  {LAYER} {layer:.1f}",
                  flush=True)

    ok = True
    for idx, name in ((0, E2E), (1, LAYER)):
        base = statistics.median(v[idx] for v in arms["A"])
        same = statistics.median(v[idx] for v in arms["A'"]) / base - 1
        slow = statistics.median(v[idx] for v in arms["B"]) / base - 1
        aa_green = abs(same) <= bound
        trips = slow > bound
        ok &= aa_green and trips
        print(f"{name}: A/A {same:+.3f} ({'inside' if aa_green else 'OUTSIDE'} "
              f"the bound {bound}), {DELAY_PCT}% delay {slow:+.3f} "
              f"({'trips' if trips else 'DOES NOT TRIP'})")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
