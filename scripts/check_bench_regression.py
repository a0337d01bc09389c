#!/usr/bin/env python3
"""Benchmark-regression gate for compile_throughput.

Compares a freshly measured BENCH_compile_throughput.json against the
committed baseline and fails (exit 1) when any scenario's mean throughput
undercuts the baseline by more than a noise threshold derived from the
reported dispersion:

    allowed_drop = max(SIGMas * sqrt(base_std^2 + new_std^2),
                       REL_FLOOR * base_mean)

The stddev term adapts to how noisy the two runs actually were; the
relative floor keeps one lucky ultra-tight pair of runs from turning
ordinary scheduler jitter into a CI failure (shared runners easily move
by double-digit percents between jobs). Scenarios present in only one of
the two files are tolerated either way: a row only in the baseline is
skipped (a backend was removed), and a row only in the candidate is
WARNED about but never fails the gate — a new bench scenario can land
in the same PR as its first baseline without a chicken-and-egg dance.

Per-row thresholds can be tightened or loosened via ROW_OVERRIDES below
(keyed by (backend, scenario, threads)); unlisted rows use the
command-line --sigmas/--rel-floor defaults. Use it for rows with a known
different noise profile (e.g. wall-clock parallel rows on oversubscribed
runners) instead of widening the global floor.

With --normalize, both runs are first rescaled by their own
Baseline-O0/fresh mean before comparing. That anchor measures the
machine's single-thread compile speed with a backend whose code rarely
changes, so the gate then checks *relative* throughput (TPDE vs the
baseline backend on the same box) and stays meaningful when the
baseline json was recorded on different hardware than the CI runner —
which is exactly the committed-baseline-vs-shared-runner situation.
The tradeoff: a regression that slows every backend equally (e.g. in
asmx) shrinks the anchor too and is masked; refresh the baseline on the
runner class and drop --normalize to regain absolute sensitivity.

Optionally (--require-speedup X) asserts the parallel-scaling acceptance
criterion: mean(parallel, 4 threads) >= X * mean(parallel, 1 thread),
checked only when the measuring machine reported >= 4 hardware threads —
on smaller machines a 4-thread speedup is not reachable and the check is
skipped with a notice.

Two further always-on checks guard the zero-merge (two-pass) emission
path: every parallel@1 row must report zero steady-state allocations,
and on machines with >= 4 hardware threads parallel_large@4 must be at
least as fast as fresh_large per backend — the serial remainder of the
merge (reserve + stitch) must never eat the scaling win.

Service mode (--service) gates BENCH_service_throughput.json instead —
the compile-service bench (docs/SERVICE.md). Its acceptance criteria are
mostly *absolute*, so they hold on any hardware without a baseline:

    hit_ratio            >= --min-hit-ratio   (default 0.90)
    warm.hit_speedup_p50 >= --min-hit-speedup (default 10.0)
    hit_speedup_p50      >= --min-hit-speedup (when the stream recorded
                                               a true hit)
    failed               == 0
    misses               == distinct_modules  (when evictions == 0: exact
                                               single flight)
    warm.hits            == warm.jobs         (when evictions == 0)

The "service" rows describe the bench's open-loop stream. hit_ratio
counts coalesced waiters as hits, so it alone would pass a service that
compiled every module twice; and a stream whose repeats all coalesce
onto in-flight compiles records no true hit at all, so its hit latency
and speedup read 0. The "warm" rows come from the bench's warm pass
(bench/service_throughput.cpp), which resubmits every distinct module
one at a time after the stream's compiles completed: each submission is
a true hit in every run, and warm.hit_speedup_p50 divides the stream's
miss p50 by the warm pass's (idle) hit p50.

plus a relative p99-latency check against the committed baseline: the
stream's hit and miss p99s may grow to at most (1 + --latency-floor) x
baseline (default floor 2.0, i.e. 3x; a stream without a true hit skips
the hit row). The floor is deliberately generous —
latency tails on shared runners move far more than throughput means, and
the absolute hit-speedup gate already catches a hit path that stopped
being cheap; the relative check only guards against order-of-magnitude
cliffs (a lock added on the hit path, a histogram unit bug).

The candidate's "overload" section (the bench's 2x-capacity phase, see
bench/service_throughput.cpp) is gated absolutely:

    hung         == 0   (every job completed without a client wait)
    other_failed == 0   (every shed is labelled Overloaded or
                         DeadlineExceeded — nothing fails ad hoc)
    shed_rate    >  0   (a 2x-overloaded service that sheds nothing is
                         not applying back-pressure; its queue lies)

A candidate without the section is tolerated with a WARN while older
bench binaries are still in circulation; the committed baseline carries
it, so the WARN disappears once the candidate is rebuilt.

Usage:
    check_bench_regression.py BASELINE.json NEW.json
        [--sigmas=4] [--rel-floor=0.30] [--normalize]
        [--require-speedup=1.5]
    check_bench_regression.py --service BASELINE_SERVICE.json NEW_SERVICE.json
        [--min-hit-ratio=0.9] [--min-hit-speedup=10] [--latency-floor=2.0]
"""

import json
import math
import sys

# Per-row threshold overrides: (backend, scenario, threads) -> dict with
# any of "sigmas" / "rel_floor". Rows not listed use the command-line
# values. The parallel rows are wall-clock measurements, so on shared CI
# runners they see scheduler noise the CPU-time rows do not; the
# oversubscribed thread counts (8 threads on a 2-core runner) are the
# worst case and get a wider floor.
ROW_OVERRIDES = {
    ("TPDE", "parallel", 8): {"rel_floor": 0.40},
    ("TPDE-A64", "parallel", 8): {"rel_floor": 0.40},
    ("TPDE-UIR", "parallel", 8): {"rel_floor": 0.40},
    ("TPDE", "parallel_large", 8): {"rel_floor": 0.40},
    ("TPDE-A64", "parallel_large", 8): {"rel_floor": 0.40},
    ("TPDE-UIR", "parallel_large", 8): {"rel_floor": 0.40},
    # In-place (two-pass) emission rows: with the serial byte-copy merge
    # gone, the 4-thread wall-clock rows are dominated by the parallel
    # phases and pick up more scheduler noise relative to their (now
    # faster) means — same reasoning as the oversubscribed @8 rows, a
    # notch tighter.
    ("TPDE", "parallel_large", 4): {"rel_floor": 0.35},
    ("TPDE-A64", "parallel_large", 4): {"rel_floor": 0.35},
    ("TPDE-UIR", "parallel_large", 4): {"rel_floor": 0.35},
}


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for r in data.get("results", []):
        key = (r["backend"], r["scenario"], int(r.get("threads", 0)))
        out[key] = r
    return data, out


def service_gate(base_path, new_path, opts):
    with open(base_path) as f:
        base_doc = json.load(f)
    with open(new_path) as f:
        new_doc = json.load(f)
    min_ratio = float(opts.get("min-hit-ratio", 0.90))
    min_speedup = float(opts.get("min-hit-speedup", 10.0))
    latency_floor = float(opts.get("latency-floor", 2.0))

    failed = False

    s = new_doc.get("service", {})
    w = new_doc.get("warm", {})
    ratio = float(s.get("hit_ratio", 0.0))
    hits, misses = int(s.get("hits", -1)), int(s.get("misses", -1))
    speedup = float(s.get("hit_speedup_p50", 0.0))
    warm_speedup = float(w.get("hit_speedup_p50", 0.0))
    njobs_failed = int(s.get("failed", -1))
    evictions = int(s.get("evictions", -1))
    distinct = int(new_doc.get("distinct_modules", -1))
    warm_jobs, warm_hits = int(w.get("jobs", -1)), int(w.get("hits", -1))
    print(f"hit_ratio       {ratio:.3f}  (>= {min_ratio:.2f} required)")
    print(f"hit_speedup_p50 stream {speedup:.1f}x over {hits} hits, "
          f"warm {warm_speedup:.1f}x (>= {min_speedup:.1f}x required)")
    print(f"failed jobs     {njobs_failed}")
    print(f"misses          {misses}  (distinct modules {distinct}, "
          f"evictions {evictions})")
    print(f"warm pass       {warm_hits} hits of {warm_jobs} jobs")
    if warm_jobs <= 0:
        print("FAIL: the 'warm' section is missing or empty — rebuild the "
              "bench")
        failed = True
    if evictions == 0 and misses != distinct:
        print("FAIL: with nothing evicted every distinct module must be "
              "compiled exactly once — single flight is broken")
        failed = True
    if evictions == 0 and warm_hits != warm_jobs:
        print("FAIL: with nothing evicted every warm-pass resubmission "
              "must be a true cache hit")
        failed = True
    if ratio < min_ratio:
        print("FAIL: hit ratio below requirement — the content-addressed "
              "cache is not memoizing repeated submissions")
        failed = True
    if warm_speedup < min_speedup or (hits > 0 and speedup < min_speedup):
        print("FAIL: hit speedup below requirement — a cache hit must be "
              "at least an order of magnitude cheaper than a fresh compile")
        failed = True
    if njobs_failed != 0:
        print("FAIL: the service failed jobs (or the 'failed' counter is "
              "missing from the json)")
        failed = True

    ov = new_doc.get("overload")
    if ov is None:
        print("WARN: candidate has no 'overload' section; overload gate "
              "skipped (rebuild the bench to measure it)")
    else:
        hung = int(ov.get("hung", -1))
        other = int(ov.get("other_failed", -1))
        shed_rate = float(ov.get("shed_rate", 0.0))
        served = int(ov.get("served", 0))
        print(f"overload: served {served}  "
              f"shed {int(ov.get('shed_overloaded', 0))}+"
              f"{int(ov.get('shed_deadline', 0))}  "
              f"hung {hung}  other_failed {other}  "
              f"shed_rate {shed_rate:.3f}  "
              f"queue_wait_p99 {int(ov.get('queue_wait_p99_ns', 0))} ns")
        if hung != 0:
            print("FAIL: overloaded service left jobs hanging (or the "
                  "'hung' counter is missing) — liveness is broken")
            failed = True
        if other != 0:
            print("FAIL: overload sheds must be labelled Overloaded or "
                  "DeadlineExceeded; other error codes (or a missing "
                  "counter) mean unstructured failure under load")
            failed = True
        if shed_rate <= 0.0:
            print("FAIL: a 2x-overloaded service shed nothing — admission "
                  "control is not applying back-pressure")
            failed = True
        if served <= 0:
            print("FAIL: the overloaded service served nothing — shedding "
                  "must not become starvation")
            failed = True

    bs = base_doc.get("service", {})
    for row in ("hit_p99_ns", "miss_p99_ns"):
        b, n = float(bs.get(row, 0)), float(s.get(row, 0))
        if b <= 0 or n <= 0:
            print(f"WARN: {row} missing or 0 (no sample) in baseline or "
                  f"candidate; latency check skipped")
            continue
        allowed = b * (1.0 + latency_floor)
        verdict = "ok"
        if n > allowed:
            verdict = "REGRESSION"
            failed = True
        print(f"{row:<12} base {b:>10.0f}  new {n:>10.0f}  "
              f"allowed {allowed:>10.0f}  {verdict}")

    if failed:
        print("service benchmark gate: FAILED")
        return 1
    print("service benchmark gate: passed")
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = {}
    for a in argv[1:]:
        if a.startswith("--"):
            k, _, v = a[2:].partition("=")
            opts[k] = v
    if len(args) != 2:
        print(__doc__)
        return 2
    if "service" in opts:
        return service_gate(args[0], args[1], opts)
    sigmas = float(opts.get("sigmas", 4.0))
    rel_floor = float(opts.get("rel-floor", 0.30))
    require_speedup = float(opts["require-speedup"]) if "require-speedup" in opts else None

    _, base = load(args[0])
    new_doc, new = load(args[1])

    # Cross-machine normalization: rescale the baseline into the new
    # machine's terms using the Baseline-O0/fresh anchor of each run.
    anchor_key = ("Baseline-O0", "fresh", 0)
    scale = 1.0
    if "normalize" in opts:
        ba, na = base.get(anchor_key), new.get(anchor_key)
        if not ba or not na or ba["funcs_per_sec"] <= 0:
            print("FAIL: --normalize needs the Baseline-O0 fresh anchor "
                  "in both files")
            return 1
        scale = na["funcs_per_sec"] / ba["funcs_per_sec"]
        print(f"normalizing: anchor base {ba['funcs_per_sec']:.0f} -> "
              f"new {na['funcs_per_sec']:.0f} f/s, scale {scale:.3f}")

    failed = False
    print(f"{'backend':<12} {'scenario':<15} {'thr':>3} {'base':>12} "
          f"{'new':>12} {'drop':>8} {'allowed':>8}  verdict")
    for key in sorted(base):
        if key not in new:
            print(f"{key[0]:<12} {key[1]:<15} {key[2]:>3} -- only in baseline, skipped")
            continue
        b, n = base[key], new[key]
        bm, nm = b["funcs_per_sec"] * scale, n["funcs_per_sec"]
        bs = b.get("funcs_per_sec_stddev", 0.0) * scale
        ns = n.get("funcs_per_sec_stddev", 0.0)
        over = ROW_OVERRIDES.get(key, {})
        row_sigmas = over.get("sigmas", sigmas)
        row_floor = over.get("rel_floor", rel_floor)
        allowed = max(row_sigmas * math.sqrt(bs * bs + ns * ns),
                      row_floor * bm)
        drop = bm - nm
        verdict = "ok"
        if key == anchor_key and scale != 1.0:
            verdict = "anchor"  # trivially equal after normalization
        elif drop > allowed:
            verdict = "REGRESSION"
            failed = True
        print(f"{key[0]:<12} {key[1]:<15} {key[2]:>3} {bm:>12.0f} {nm:>12.0f} "
              f"{drop:>8.0f} {allowed:>8.0f}  {verdict}")
    for key in sorted(set(new) - set(base)):
        print(f"WARN: {key[0]:<12} {key[1]:<15} {key[2]:>3} -- new scenario, "
              f"no baseline yet (not gated; lands with this run as its "
              f"first baseline)")

    # Allocation-policy gate: the reused scenarios must stay at zero
    # steady-state allocations (docs/PERF.md) — exact, not noise-bounded,
    # and enforced for both targets of the shared framework, at both
    # module scales: "reused_large" is the >=10k-function steady state
    # that guards the on-demand symbol materialization policy. A missing
    # row is itself a failure: the benchmark always emits both backends,
    # so absence means the measurement silently broke.
    for backend in ("TPDE", "TPDE-A64"):
        for scenario in ("reused", "reused_large"):
            reused = new.get((backend, scenario, 0))
            if not reused:
                print(f"FAIL: {backend} {scenario} row missing from the "
                      f"new run")
                failed = True
            elif reused.get("new_calls_per_func", 0) > 0.001:
                print(f"FAIL: {backend} {scenario} scenario allocates "
                      f"{reused['new_calls_per_func']:.3f} times/function "
                      f"(must be 0; see docs/PERF.md)")
                failed = True
    # Single-worker parallel steady state must be allocation-free too —
    # the one worker visits every shard during warmup, so unlike the
    # multi-worker rows there is no schedule-dependent warmup tail. Like
    # the reused rows, absence is a failure: the benchmark emits a
    # 1-thread row by default, so a missing one means the measurement
    # (or the CI --threads list) silently dropped the gated row. The
    # database back-end (TPDE-UIR) rides the same driver template and is
    # held to the same policy.
    for backend in ("TPDE", "TPDE-A64", "TPDE-UIR"):
        for scenario in ("parallel", "parallel_large"):
            p1 = new.get((backend, scenario, 1))
            if not p1:
                print(f"FAIL: {backend} {scenario}@1 row missing from the "
                      f"new run")
                failed = True
                continue
            if p1.get("new_calls_per_func", 0) > 0.001:
                print(f"FAIL: {backend} {scenario}@1 allocates "
                      f"{p1['new_calls_per_func']:.3f} times/function "
                      f"(must be 0; see docs/PERF.md)")
                failed = True

    if require_speedup is not None:
        hw = int(new_doc.get("hardware_concurrency", 0))
        if hw < 4:
            print(f"speedup check skipped: only {hw} hardware thread(s)")
        else:
            # Every back-end rides the same driver template; all must
            # scale, and a missing row is a broken measurement, not a
            # skip.
            for backend in ("TPDE", "TPDE-A64", "TPDE-UIR"):
                p1 = new.get((backend, "parallel", 1))
                p4 = new.get((backend, "parallel", 4))
                if not p1 or not p4:
                    print(f"FAIL: speedup check requested but {backend} "
                          f"parallel rows for 1 and 4 threads are missing")
                    failed = True
                    continue
                m1, m4 = p1["funcs_per_sec"], p4["funcs_per_sec"]
                s1 = p1.get("funcs_per_sec_stddev", 0.0)
                s4 = p4.get("funcs_per_sec_stddev", 0.0)
                speedup = m4 / m1
                # Same noise-awareness as the drop checks: propagate the
                # two rows' relative errors into a sigma-scaled slack so a
                # noisy shared-runner sample cannot hard-fail an unrelated
                # PR.
                slack = sigmas * speedup * math.sqrt(
                    (s1 / m1) ** 2 + (s4 / m4) ** 2) if m1 > 0 and m4 > 0 \
                    else 0.0
                print(f"{backend} parallel speedup @4 threads: {speedup:.2f}x "
                      f"(+/-{slack:.2f} noise slack, required "
                      f"{require_speedup:.2f}x, hw threads {hw})")
                if speedup + slack < require_speedup:
                    print(f"FAIL: {backend} parallel speedup below "
                          f"requirement")
                    failed = True

    # Zero-merge acceptance: on a machine with >= 4 hardware threads, the
    # 10k-function parallel compile at 4 threads must beat the serial
    # fresh compile of the same module — the whole point of reserving
    # slices and placing bytes in parallel is that the serial remainder
    # (reserve + stitch) is too small to eat the scaling win. Compared
    # with the same sigma-scaled noise slack as the drop checks (the
    # rows use different clocks — wall vs cpu — which is exactly the
    # comparison a user cares about: time to finish).
    hw = int(new_doc.get("hardware_concurrency", 0))
    if hw < 4:
        print(f"parallel-vs-serial check skipped: only {hw} hardware "
              f"thread(s)")
    else:
        for backend in ("TPDE", "TPDE-A64", "TPDE-UIR"):
            serial = new.get((backend, "fresh_large", 0))
            par4 = new.get((backend, "parallel_large", 4))
            if not serial or not par4:
                print(f"FAIL: {backend} fresh_large/parallel_large@4 rows "
                      f"needed for the parallel-vs-serial check are missing")
                failed = True
                continue
            ms, mp = serial["funcs_per_sec"], par4["funcs_per_sec"]
            ss = serial.get("funcs_per_sec_stddev", 0.0)
            sp = par4.get("funcs_per_sec_stddev", 0.0)
            slack = sigmas * math.sqrt(ss * ss + sp * sp)
            verdict = "ok"
            if mp + slack < ms:
                verdict = "REGRESSION"
                failed = True
            print(f"{backend} parallel_large@4 {mp:.0f} f/s vs fresh_large "
                  f"{ms:.0f} f/s (slack {slack:.0f}, hw {hw})  {verdict}")

    if failed:
        print("benchmark regression gate: FAILED")
        return 1
    print("benchmark regression gate: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
