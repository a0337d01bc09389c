#!/usr/bin/env python3
"""run_compile_fail.py - negative tests for the thread-safety gate.

Proves the gate actually gates: each *_bad.cpp TU under compile_fail/
must FAIL to compile with the expected diagnostic, and each *_ok.cpp
control must compile cleanly with the same flags. A bad TU that compiles
means the gate is dead (annotations inert, flags dropped) — hard failure.

Two flag tiers:
  -Wthread-safety          guarded_by / requires violations. Supported by
                           every clang this project builds with; the
                           guarded_by_bad.cpp canary is REQUIRED to fail,
                           otherwise this harness exits 1.
  -Wthread-safety-beta     acquired_before/after lock-order checks on the
                           lock_order TUs' own local mutexes (no service
                           path holds two locks at once). Probed first
                           (order_probe written in-memory); when the
                           toolchain does not enforce ordering the two
                           lock_order TUs are reported SKIPPED instead of
                           failing CI on an older clang.

Also re-proves the unwrapped-mutex gate end to end: scripts/tpde_lint.py
must reject the raw_sync_bad fixture (exit 1) and pass the real tree.

Usage: run_compile_fail.py --cxx clang++ --root <repo>
Exit: 0 gate works, 1 gate broken, 2 usage error (incl. non-clang cxx).
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ORDER_PROBE = """
#include "support/Sync.h"
struct P {
  tpde::Mutex B;
  tpde::Mutex A TPDE_ACQUIRED_BEFORE(B);
  void inverted() {
    tpde::LockGuard LB(B);
    tpde::LockGuard LA(A);
  }
};
int main() { P p; p.inverted(); return 0; }
"""

BASE = ["-std=c++20", "-fsyntax-only", "-Wthread-safety", "-Werror"]
BETA = BASE + ["-Wthread-safety-beta"]

# TU name -> (flags, must_fail, required diagnostic substring when failing)
CASES = {
    "guarded_by_bad.cpp": (BASE, True, "requires holding"),
    "guarded_by_ok.cpp": (BASE, False, ""),
    "requires_bad.cpp": (BASE, True, "requires holding"),
    "lock_order_bad.cpp": (BETA, True, "before"),
    "lock_order_ok.cpp": (BETA, False, ""),
}


def compile_tu(cxx, flags, src_dir, tu):
    cmd = [cxx] + flags + ["-I", str(src_dir), str(tu)]
    return subprocess.run(cmd, capture_output=True, text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cxx", required=True)
    ap.add_argument("--root", default=".")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    src_dir = root / "src"
    case_dir = root / "tests" / "static_analysis" / "compile_fail"

    ver = subprocess.run([args.cxx, "--version"], capture_output=True,
                         text=True)
    if "clang" not in ver.stdout.lower():
        print(f"run_compile_fail: {args.cxx} is not clang; the thread-safety "
              "gate is clang-only", file=sys.stderr)
        return 2

    # Probe whether this clang enforces acquired_before at all.
    with tempfile.TemporaryDirectory() as td:
        probe = Path(td) / "order_probe.cpp"
        probe.write_text(ORDER_PROBE)
        order_checked = compile_tu(args.cxx, BETA, src_dir,
                                   probe).returncode != 0

    failures = 0
    for name, (flags, must_fail, needle) in sorted(CASES.items()):
        tu = case_dir / name
        if flags is BETA and must_fail and not order_checked:
            print(f"SKIP {name}: this clang does not enforce "
                  "acquired_before, so the order check is unproven here")
            continue
        proc = compile_tu(args.cxx, flags, src_dir, tu)
        failed = proc.returncode != 0
        if failed != must_fail:
            verdict = "compiled but must fail" if must_fail else \
                      "failed but must compile"
            print(f"FAIL {name}: {verdict}\n{proc.stderr}", file=sys.stderr)
            failures += 1
        elif must_fail and needle not in proc.stderr:
            print(f"FAIL {name}: failed without the expected diagnostic "
                  f"('{needle}')\n{proc.stderr}", file=sys.stderr)
            failures += 1
        else:
            print(f"OK   {name}")

    # The unwrapped-std::mutex gate is the linter; prove it end to end.
    lint = root / "scripts" / "tpde_lint.py"
    proc = subprocess.run([sys.executable, str(lint), "--self-test",
                          "--root", str(root)], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL tpde_lint --self-test:\n{proc.stderr}", file=sys.stderr)
        failures += 1
    else:
        print("OK   tpde_lint --self-test (raw std::mutex rejected)")

    if failures:
        print(f"run_compile_fail: {failures} gate failure(s)", file=sys.stderr)
        return 1
    print("run_compile_fail: the gate rejects every seeded violation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
