#!/usr/bin/env python3
"""Benchmark-regression gates for compile_throughput and service_throughput.

Compile mode compares a fresh BENCH_compile_throughput.json against the
committed baseline. The host's speed drifts, so the bench samples its rows
in interleaved rounds (bench/compile_throughput.cpp), and right before
each sample of a row it samples the row's reference ("ref"). This gate
compares only the ratios of those pairs, taken within one round:

  * every single-thread row (the serial rows and the parallel@1 rows)
    over Baseline-O0 fresh;
  * every multi-thread row over its own @1 row, compared only when the
    run had at least as many CPUs as the baseline.

A ratio fails when the median of its per-round values falls more than its
class's bound (SINGLE_BOUND, MULTI_BOUND) below the baseline's median. A
slowdown common to the @N and @1 rows (say in the shard pass) cancels in
@N / @1, so only the @1 rows' ratios to Baseline-O0 show it. Every
baseline row must be in the run. On the run alone, without slack:

  * zero allocations per function on reused and reused_large (TPDE,
    TPDE-A64) and on parallel@1 and parallel_large@1 (all three
    back-ends); a multi-worker pool is not allocation-free (docs/PERF.md);
  * on a run with 4 or more CPUs, per back-end, parallel@4 / parallel@1
    >= MIN_SPEEDUP and parallel_large@4 / fresh_large >= 1 (medians of
    per-round ratios; the parallel rows are wall-clock, the serial rows
    process-CPU time, so the second is time to finish).

Service mode (--service) gates BENCH_service_throughput.json (docs/
SERVICE.md). The "service" rows describe the bench's open-loop stream,
the "warm" rows its warm pass, which resubmits every distinct module one
at a time once the stream's compiles completed, so each one is a true hit
in every run. Checked on the run alone:

    service.hit_ratio        >= MIN_HIT_RATIO
    warm.hit_speedup_p50     >= MIN_HIT_SPEEDUP, and the stream's
                                hit_speedup_p50 too when it recorded a
                                true hit
    service.failed           == 0
    service.misses           == distinct_modules  (when nothing was
                                evicted: exact single flight)
    warm.hits                == warm.jobs         (when nothing was evicted)
    overload.hung == 0, overload.other_failed == 0, overload.shed_rate > 0,
    overload.served > 0

hit_ratio counts coalesced waiters as hits, so on its own it would pass a
service that compiled every module twice; the miss and warm-hit counts
close that gap. Against the baseline, warm.hit_p99_ns and
service.miss_p99_ns may grow to at most LATENCY_FACTOR times the
baseline's: a generous bound, because latency tails move far more than
throughput on shared hosts; it guards against order-of-magnitude cliffs
(a lock on the hit path, a histogram unit bug).

--self-test runs both gates on doctored in-memory copies of the committed
baselines and checks that each doctored copy fails and that each baseline
passes against itself.

Usage:
    check_bench_regression.py BASELINE.json NEW.json
    check_bench_regression.py --service BASELINE.json NEW.json
    check_bench_regression.py --self-test
"""

import copy
import io
import json
import pathlib
import statistics
import sys
from contextlib import redirect_stdout

# Largest fall of a round-median ratio below the baseline's, per class.
# Set from 10 A/A runs of one Release build (20 rounds each) on a 4-vCPU
# Xeon VM with GCC 12.2: the widest (max - min) / max of a single-thread
# ratio was 11.0% (TPDE reused_large), of a multi-thread ratio 18.6%
# (TPDE parallel_large@4, whose speedup falls when the host's other
# tenants take its cores). Each run gated against each other one passed.
SINGLE_BOUND = 0.13
MULTI_BOUND = 0.19
MIN_SPEEDUP = 1.5
BACKENDS = ("TPDE", "TPDE-A64", "TPDE-UIR")
ZERO_ALLOC = [(b, s, 0) for b in ("TPDE", "TPDE-A64")
              for s in ("reused", "reused_large")] + \
             [(b, s, 1) for b in BACKENDS for s in ("parallel", "parallel_large")]

MIN_HIT_RATIO = 0.90
MIN_HIT_SPEEDUP = 10.0
LATENCY_FACTOR = 3.0


def rows(doc):
    return {(r["backend"], r["scenario"], int(r["threads"])): r
            for r in doc["results"]}


def name(key):
    return f"{key[0]} {key[1]}" + (f"@{key[2]}" if key[2] else "")


def ratio(num, den):
    """Median over the rounds of num[i] / den[i]."""
    return statistics.median(a / b for a, b in zip(num, den))


def paired(row):
    """A gated row's median ratio to its reference."""
    return ratio(row["funcs_per_sec_samples"], row["ref_samples"])


def report(gate, failures):
    for f in failures:
        print(f"FAIL: {f}")
    print(f"{gate}: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def compile_gate(base_doc, new_doc):
    base, new = rows(base_doc), rows(new_doc)
    cpus = int(new_doc["hardware_concurrency"])
    base_cpus = int(base_doc["hardware_concurrency"])
    failures = []
    print(f"{'row':<26} {'over':<26} {'base':>7} {'new':>7} {'change':>7}"
          f" {'bound':>6}")
    for key in sorted(base):
        if key not in new:
            failures.append(f"{name(key)} row missing from the run")
            continue
        multi = key[2] > 1
        if "ref" not in base[key] or (multi and cpus < base_cpus):
            continue
        if new[key].get("ref") != base[key]["ref"]:
            failures.append(f"{name(key)} is measured against "
                            f"{new[key].get('ref')}, the baseline against "
                            f"{base[key]['ref']}")
            continue
        b, n = paired(base[key]), paired(new[key])
        bound = MULTI_BOUND if multi else SINGLE_BOUND
        print(f"{name(key):<26} {base[key]['ref']:<26} {b:>7.3f} {n:>7.3f} "
              f"{n / b - 1:>+7.1%} {-bound:>+6.0%}")
        if n < b * (1 - bound):
            failures.append(f"{name(key)} / {base[key]['ref']} fell from "
                            f"{b:.3f} to {n:.3f}, more than {bound:.0%}")
    if cpus < base_cpus:
        print(f"multi-thread ratios not compared: the run had {cpus} "
              f"CPU(s), the baseline {base_cpus}")
    for key in sorted(set(new) - set(base)):
        print(f"{name(key)}: new row, not gated until the baseline has it")

    for key in ZERO_ALLOC:
        if key not in new:
            failures.append(f"{name(key)} row missing from the run")
        elif new[key]["new_calls_per_func"] > 0.001:
            failures.append(f"{name(key)} allocates "
                            f"{new[key]['new_calls_per_func']:.3f} times per "
                            f"function (must be 0; see docs/PERF.md)")

    if cpus < 4:
        print(f"scaling checks skipped: the run had {cpus} CPU(s)")
        return report("benchmark regression gate", failures)
    for be in BACKENDS:
        p4, l4 = (be, "parallel", 4), (be, "parallel_large", 4)
        fl = (be, "fresh_large", 0)
        if not {p4, l4, fl} <= new.keys() or "ref_samples" not in new[p4]:
            failures.append(f"{be}: a row the scaling checks need is missing")
            continue
        for label, s, floor in (
                (f"{name(p4)} / {new[p4]['ref']}", paired(new[p4]),
                 MIN_SPEEDUP),
                (f"{name(l4)} / {name(fl)}",
                 ratio(new[l4]["funcs_per_sec_samples"],
                       new[fl]["funcs_per_sec_samples"]), 1.0)):
            print(f"speedup {label}: {s:.2f}x (>= {floor:.2f}x required, "
                  f"{cpus} CPUs)")
            if s < floor:
                failures.append(f"speedup {label} is {s:.2f}x, below "
                                f"{floor:.2f}x")
    return report("benchmark regression gate", failures)


def service_gate(base_doc, new_doc):
    failures = []
    s, w = new_doc.get("service", {}), new_doc.get("warm", {})
    hits, misses = int(s.get("hits", -1)), int(s.get("misses", -1))
    evictions = int(s.get("evictions", -1))
    distinct = int(new_doc.get("distinct_modules", -1))
    warm_jobs, warm_hits = int(w.get("jobs", -1)), int(w.get("hits", -1))
    hit_ratio = float(s.get("hit_ratio", 0.0))
    speedup = float(s.get("hit_speedup_p50", 0.0))
    warm_speedup = float(w.get("hit_speedup_p50", 0.0))
    print(f"hit_ratio {hit_ratio:.3f}; hit_speedup_p50 stream {speedup:.1f}x "
          f"over {hits} hits, warm {warm_speedup:.1f}x; misses {misses} "
          f"(distinct {distinct}, evictions {evictions}); warm pass "
          f"{warm_hits} hits of {warm_jobs} jobs")
    if warm_jobs <= 0:
        failures.append("the 'warm' section is missing or empty")
    if evictions == 0 and misses != distinct:
        failures.append("with nothing evicted every distinct module must "
                        "be compiled exactly once: single flight is broken")
    if evictions == 0 and warm_hits != warm_jobs:
        failures.append("with nothing evicted every warm-pass resubmission "
                        "must be a true cache hit")
    if hit_ratio < MIN_HIT_RATIO:
        failures.append(f"hit ratio below {MIN_HIT_RATIO}: the cache is not "
                        f"memoizing repeated submissions")
    if warm_speedup < MIN_HIT_SPEEDUP or (hits > 0 and
                                          speedup < MIN_HIT_SPEEDUP):
        failures.append(f"hit speedup below {MIN_HIT_SPEEDUP:.0f}x: a hit "
                        f"must be an order of magnitude cheaper than a "
                        f"compile")
    if int(s.get("failed", -1)) != 0:
        failures.append("the service failed jobs (or 'failed' is missing)")

    ov = new_doc.get("overload", {})
    print(f"overload: served {ov.get('served')}, shed "
          f"{ov.get('shed_overloaded')}+{ov.get('shed_deadline')}, hung "
          f"{ov.get('hung')}, other_failed {ov.get('other_failed')}, "
          f"shed_rate {ov.get('shed_rate')}")
    if int(ov.get("hung", -1)) != 0:
        failures.append("overloaded service left jobs hanging (or 'hung' "
                        "is missing): liveness is broken")
    if int(ov.get("other_failed", -1)) != 0:
        failures.append("overload sheds must be labelled Overloaded or "
                        "DeadlineExceeded (or 'other_failed' is missing)")
    if float(ov.get("shed_rate", 0.0)) <= 0.0:
        failures.append("a 2x-overloaded service shed nothing: admission "
                        "control is not applying back-pressure")
    if int(ov.get("served", 0)) <= 0:
        failures.append("the overloaded service served nothing: shedding "
                        "must not become starvation")

    for section, row in (("warm", "hit_p99_ns"), ("service", "miss_p99_ns")):
        b = float(base_doc.get(section, {}).get(row, 0))
        n = float(new_doc.get(section, {}).get(row, 0))
        print(f"{section} {row}: base {b:.0f}, new {n:.0f}, allowed "
              f"{b * LATENCY_FACTOR:.0f}")
        if b <= 0 or n <= 0 or n > b * LATENCY_FACTOR:
            failures.append(f"{section} {row} {n:.0f} is missing or above "
                            f"{LATENCY_FACTOR:.0f}x the baseline's {b:.0f}")
    return report("service benchmark gate", failures)


def self_test():
    root = pathlib.Path(__file__).resolve().parent.parent
    cbase = json.loads((root / "BENCH_compile_throughput.json").read_text())
    sbase = json.loads((root / "BENCH_service_throughput.json").read_text())

    def doctor(doc, edit):
        d = copy.deepcopy(doc)
        edit(d)
        return d

    def scale(d, key, f):
        r = rows(d)[key]
        r["funcs_per_sec_samples"] = [x * f for x in r["funcs_per_sec_samples"]]

    def speedup_14(d):
        d["hardware_concurrency"] = 4
        p4 = rows(d)[("TPDE", "parallel", 4)]
        p4["funcs_per_sec_samples"] = [x * 1.4 for x in p4["ref_samples"]]

    # (case, gate, baseline, run, substring of the expected FAIL or None)
    cases = [("compile baseline against itself", compile_gate, cbase, cbase,
              None)]
    for key, row in sorted(rows(cbase).items()):
        if "ref" in row:
            cases.append((f"{name(key)} 20% slower", compile_gate, cbase,
                          doctor(cbase, lambda d, k=key: scale(d, k, 0.8)),
                          f"{name(key)} / "))
    for key in ZERO_ALLOC:
        cases.append((f"{name(key)} allocates 0.01 per function",
                      compile_gate, cbase,
                      doctor(cbase, lambda d, k=key: rows(d)[k].update(
                          new_calls_per_func=0.01)), "allocates"))
        if key[2] == 1:
            cases.append((f"{name(key)} missing", compile_gate, cbase,
                          doctor(cbase, lambda d, k=key: d["results"].remove(
                              rows(d)[k])), f"{name(key)} row missing"))
    base14 = doctor(cbase, speedup_14)
    cases += [
        ("speedup 1.4 at 4 CPUs", compile_gate, base14, base14, "is 1.40x"),
        ("speedup 1.4 at 1 CPU", compile_gate, base14,
         doctor(base14, lambda d: d.update(hardware_concurrency=1)), None),
        ("service baseline against itself", service_gate, sbase, sbase, None),
        ("one miss above the distinct modules", service_gate, sbase,
         doctor(sbase, lambda d: d["service"].update(
             misses=d["service"]["misses"] + 1)), "single flight"),
        ("one warm hit short", service_gate, sbase,
         doctor(sbase, lambda d: d["warm"].update(hits=d["warm"]["hits"] - 1)),
         "warm-pass"),
        ("warm section removed", service_gate, sbase,
         doctor(sbase, lambda d: d.pop("warm")), "'warm' section"),
        ("warm hit p99 4x the baseline's", service_gate, sbase,
         doctor(sbase, lambda d: d["warm"].update(
             hit_p99_ns=d["warm"]["hit_p99_ns"] * 4)), "warm hit_p99_ns"),
    ]
    bad = 0
    for case, gate, base, new, expect in cases:
        out = io.StringIO()
        with redirect_stdout(out):
            code = gate(base, new)
        fails = [ln for ln in out.getvalue().splitlines()
                 if ln.startswith("FAIL: ")]
        ok = (code == 0 and not fails) if expect is None else \
            (code == 1 and any(expect in ln for ln in fails))
        if not ok:
            bad += 1
            print(f"self-test FAIL: {case} (expected "
                  f"{'a pass' if expect is None else repr(expect)}):\n"
                  f"{out.getvalue()}")
    print(f"bench gate self-test: {len(cases) - bad} of {len(cases)} cases "
          f"as expected")
    return 1 if bad else 0


def main(argv):
    flags = [a for a in argv[1:] if a.startswith("--")]
    files = [a for a in argv[1:] if not a.startswith("--")]
    if flags == ["--self-test"] and not files:
        return self_test()
    if flags not in ([], ["--service"]) or len(files) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(pathlib.Path(f).read_text()) for f in files)
    return (service_gate if flags else compile_gate)(base, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
