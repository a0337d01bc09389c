//===- bench/service_throughput.cpp - Compile-service bench ---------------===//
///
/// Open-loop workload against the UIR compile service (docs/SERVICE.md):
/// a fixed pool of distinct single-query modules is submitted repeatedly
/// at a configurable arrival rate, without waiting for results between
/// submissions — queueing delay is part of the measured latency, exactly
/// as a serving system experiences it. First touch of each pool entry is
/// a compulsory miss; every revisit must hit the content-addressed cache.
/// A revisit that arrives while its module still compiles coalesces onto
/// that compile instead, so a stream may record no true hit at all.
///
/// Reports the stream's hit ratio, sustained jobs/sec, hit and miss
/// latency p50/p99 (from the service's allocation-free histograms), and
/// the p50 hit speedup (miss p50 / hit p50). The stream's hit rows time
/// hits under load and are read before anything else is submitted.
///
/// A warm pass follows once the stream's results are all complete: it
/// resubmits every pool entry WarmRepeats times, one at a time. Each of
/// those is a true hit in every run, whatever the scheduling was; their
/// count and latency (an idle hit) are reported in their own "warm" rows.
///
/// A second phase drives a *deliberately overloaded* service: a fresh
/// instance with a small admission ring receives all-distinct jobs (no
/// hits) at twice its estimated compile capacity, each with a deadline,
/// via trySubmit. The phase measures the overload-control contract
/// (docs/SERVICE.md, "Overload control"): every job must complete — with
/// code or a *labelled* Overloaded/DeadlineExceeded error — nothing may
/// hang, and load must actually be shed.
///
/// Emits BENCH_service_throughput.json for
/// scripts/check_bench_regression.py, which gates:
///   * hit_ratio >= 0.9            (absolute),
///   * hit_speedup_p50 >= 10       (absolute — a hit must amortize; the
///                                  warm pass's always, the stream's when
///                                  it recorded a true hit),
///   * misses == distinct_modules  (when nothing was evicted: exact
///                                  single flight),
///   * warm hits == warm jobs      (when nothing was evicted),
///   * the stream's miss/hit p99 vs the committed baseline (generous
///     relative floor),
///   * fault_injection == false    (hooks compiled out in default builds),
///   * overload: hung == 0, other_failed == 0, shed_rate > 0.
///
/// Flags: --jobs=N --distinct=D --workers=W --rate=R (jobs/sec, 0 = no
/// pacing) --budget-mb=B.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"
#include "support/Histogram.h"
#include "support/Timer.h"
#include "uir/Service.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace tpde;

namespace {

/// Distinct single-query modules: variant-dependent plan constants give
/// each pool entry its own fingerprint and its own exported symbol.
uir::UModule makePoolModule(u32 I) {
  uir::QueryPlan P;
  P.Name = "svc_q" + std::to_string(I);
  P.Preds = {{1, uir::UOp::CmpLt, 100 + static_cast<i64>(I) * 7},
             {2 + I % 3, uir::UOp::CmpNe, 13 + static_cast<i64>(I)}};
  P.AggColA = I % 4;
  P.AggColB = 4 + I % 2;
  P.AggK = static_cast<i64>(I);
  uir::UModule M;
  uir::compilePlan(M, P);
  return M;
}

struct Options {
  unsigned Jobs = 640;
  unsigned Distinct = 32;
  unsigned Workers = 2;
  double Rate = 0.0; // jobs/sec arrival pacing; 0 = submit back-to-back
  u64 BudgetMb = 64;
};

/// Warm-pass submissions per distinct module.
constexpr unsigned WarmRepeats = 4;

unsigned parseU(const char *S, const char *What) {
  char *End = nullptr;
  unsigned long V = std::strtoul(S, &End, 10);
  if (!End || *End || V == 0) {
    std::fprintf(stderr, "invalid %s value '%s'\n", What, S);
    std::exit(2);
  }
  return static_cast<unsigned>(V);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (!std::strncmp(Arg, "--jobs=", 7))
      O.Jobs = parseU(Arg + 7, "--jobs");
    else if (!std::strncmp(Arg, "--distinct=", 11))
      O.Distinct = parseU(Arg + 11, "--distinct");
    else if (!std::strncmp(Arg, "--workers=", 10))
      O.Workers = parseU(Arg + 10, "--workers");
    else if (!std::strncmp(Arg, "--rate=", 7))
      O.Rate = std::atof(Arg + 7);
    else if (!std::strncmp(Arg, "--budget-mb=", 12))
      O.BudgetMb = parseU(Arg + 12, "--budget-mb");
    else {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--distinct=D] [--workers=W] "
                   "[--rate=R] [--budget-mb=B]\n",
                   argv[0]);
      return 2;
    }
  }
  if (O.Distinct > O.Jobs)
    O.Distinct = O.Jobs;

  service::ServiceOptions SO;
  SO.NumWorkers = O.Workers;
  SO.CacheBudgetBytes = O.BudgetMb * 1024 * 1024;
  uir::UirCompileService Svc(SO);

  // Deterministic interleaved arrival order: walk the pool with an
  // odd stride so distinct fingerprints mix instead of arriving in
  // D-sized runs (closer to a real query mix, and it exercises the
  // cache under interleaving rather than phased warmup).
  const unsigned WarmJobs = O.Distinct * WarmRepeats;
  std::vector<service::ResultPtr> Results;
  Results.reserve(O.Jobs + WarmJobs);
  const u64 PeriodNs =
      O.Rate > 0 ? static_cast<u64>(1e9 / O.Rate) : 0;
  const u64 StartNs = nowNs();
  u64 NextDue = StartNs;
  for (unsigned I = 0; I < O.Jobs; ++I) {
    if (PeriodNs) {
      // Open loop: arrivals are scheduled on the wall clock, never
      // delayed by a slow service (a late tick fires immediately).
      while (nowNs() < NextDue)
        std::this_thread::yield();
      NextDue += PeriodNs;
    }
    u32 Pick = static_cast<u32>((I * 7) % O.Distinct);
    Results.push_back(Svc.submit(makePoolModule(Pick)));
  }
  for (auto &R : Results)
    R->wait();
  const u64 ElapsedNs = nowNs() - StartNs;
  // The stream's counters and hit latencies are all recorded on this
  // thread inside submit(), so this snapshot holds every stream hit and
  // no warm-pass one. Miss latencies are recorded by a worker just after
  // it completes a job: those rows are read after shutdown below (the
  // warm pass compiles nothing when it all hits).
  const service::ServiceStatsSnapshot Stream = Svc.stats();

  // Warm pass: every compile above has completed, so each submission
  // finds its module cached. A hit completes inside submit().
  support::LatencyHistogram WarmHitNs;
  for (unsigned Rep = 0; Rep < WarmRepeats; ++Rep)
    for (u32 Pick = 0; Pick < O.Distinct; ++Pick) {
      service::ResultPtr R = Svc.submit(makePoolModule(Pick));
      R->wait();
      if (R->hit())
        WarmHitNs.record(R->latencyNs());
      Results.push_back(std::move(R));
    }
  Svc.shutdown();

  unsigned Failed = 0;
  for (auto &R : Results)
    if (!R->ok())
      ++Failed;
  if (Failed) {
    std::fprintf(stderr, "%u job(s) failed; first: %s\n", Failed,
                 Results[0]->status().Message.c_str());
    return 1;
  }

  const service::ServiceStatsSnapshot End = Svc.stats();
  service::ServiceStatsSnapshot S = Stream;
  S.Failed = End.Failed;
  S.MissP50Ns = End.MissP50Ns;
  S.MissP99Ns = End.MissP99Ns;
  const u64 WarmHits = End.Hits - Stream.Hits;
  const u64 WarmMisses = End.Misses - Stream.Misses;
  const u64 WarmHitP50Ns = WarmHitNs.quantileNs(0.50);
  const u64 WarmHitP99Ns = WarmHitNs.quantileNs(0.99);
  const double Served = static_cast<double>(S.Hits + S.Misses + S.Coalesced);
  const double HitRatio =
      Served > 0 ? static_cast<double>(S.Hits + S.Coalesced) / Served : 0;
  const double JobsPerSec =
      static_cast<double>(O.Jobs) * 1e9 / static_cast<double>(ElapsedNs);
  auto speedup = [&](u64 HitP50Ns) {
    return HitP50Ns > 0 ? static_cast<double>(S.MissP50Ns) /
                              static_cast<double>(HitP50Ns)
                        : 0;
  };
  const double HitSpeedup = speedup(S.HitP50Ns);
  const double WarmHitSpeedup = speedup(WarmHitP50Ns);

  std::printf("service_throughput: %u jobs over %u distinct modules, "
              "%u worker(s), rate %s\n",
              O.Jobs, O.Distinct, O.Workers,
              O.Rate > 0 ? (std::to_string(O.Rate) + "/s").c_str()
                         : "unpaced");
  std::printf("  hits %llu  misses %llu  coalesced %llu  evictions %llu  "
              "cached %llu entries / %llu bytes\n",
              (unsigned long long)S.Hits, (unsigned long long)S.Misses,
              (unsigned long long)S.Coalesced,
              (unsigned long long)S.Evictions,
              (unsigned long long)S.CachedEntries,
              (unsigned long long)S.CachedBytes);
  std::printf("  hit ratio %.3f  jobs/sec %.0f\n", HitRatio, JobsPerSec);
  std::printf("  hit  latency p50 %8llu ns   p99 %8llu ns\n",
              (unsigned long long)S.HitP50Ns, (unsigned long long)S.HitP99Ns);
  std::printf("  miss latency p50 %8llu ns   p99 %8llu ns\n",
              (unsigned long long)S.MissP50Ns,
              (unsigned long long)S.MissP99Ns);
  std::printf("  hit speedup (miss p50 / hit p50): %.1fx\n", HitSpeedup);
  std::printf("warm pass: %u jobs, hits %llu  misses %llu\n", WarmJobs,
              (unsigned long long)WarmHits, (unsigned long long)WarmMisses);
  std::printf("  hit  latency p50 %8llu ns   p99 %8llu ns\n",
              (unsigned long long)WarmHitP50Ns,
              (unsigned long long)WarmHitP99Ns);
  std::printf("  hit speedup (miss p50 / warm hit p50): %.1fx\n",
              WarmHitSpeedup);

  // --- overload phase ------------------------------------------------------
  // A fresh service with a small admission ring, fed all-distinct jobs
  // (forced misses) at ~2x its compile capacity. Capacity is calibrated
  // from solo compile+map cost — the service's end-to-end miss latency
  // would overestimate it, because it includes queueing delay.
  u64 CalibNs;
  {
    const u64 T0 = nowNs();
    for (u32 I = 0; I < 8; ++I) {
      uir::UModule M = makePoolModule(2'000'000 + I);
      asmx::Assembler Asm;
      if (!uir::compileTpdeUir(M, Asm))
        return 1;
      asmx::JITMapper JIT;
      if (!JIT.map(Asm))
        return 1;
    }
    CalibNs = (nowNs() - T0) / 8;
    if (CalibNs < 1'000)
      CalibNs = 1'000;
  }
  const double CapacityJps =
      static_cast<double>(O.Workers) * 1e9 / static_cast<double>(CalibNs);
  const double ArrivalJps = 2.0 * CapacityJps;
  const unsigned OverJobs = O.Jobs;
  const u64 OverPeriodNs = static_cast<u64>(1e9 / ArrivalJps);
  const u64 OverDeadlineSpanNs = 50 * CalibNs;

  service::ServiceOptions OSO;
  OSO.NumWorkers = O.Workers;
  OSO.QueueCapacity = 64;
  OSO.CacheBudgetBytes = O.BudgetMb * 1024 * 1024;
  unsigned Hung = 0, OverServed = 0, ShedOverloaded = 0, ShedDeadline = 0,
           OtherFailed = 0;
  service::ServiceStatsSnapshot OS;
  {
    uir::UirCompileService OverSvc(OSO);
    std::vector<service::ResultPtr> OverResults;
    OverResults.reserve(OverJobs);
    u64 Due = nowNs();
    u64 LastDeadline = 0;
    for (unsigned I = 0; I < OverJobs; ++I) {
      while (nowNs() < Due)
        std::this_thread::yield();
      Due += OverPeriodNs;
      u64 Deadline = nowNs() + OverDeadlineSpanNs;
      LastDeadline = Deadline;
      // Pool offset past phase 1's modules: every job is a distinct
      // fingerprint, so nothing hides behind the cache.
      OverResults.push_back(OverSvc.trySubmit(makePoolModule(1'000'000 + I),
                                              {.DeadlineNs = Deadline}));
    }
    // Hang detection: after the last deadline plus generous slack, every
    // job must have been completed by the service itself (shed, failed,
    // or served) — without any client calling wait().
    const u64 FailsafeNs = LastDeadline + 2'000'000'000;
    for (auto &R : OverResults) {
      while (!R->done() && nowNs() < FailsafeNs)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!R->done()) {
        ++Hung;
        R->wait(); // deadline self-timeout resolves it; still counted hung
      }
      if (R->ok()) {
        ++OverServed;
      } else if (R->status().Err == support::CompileErr::Overloaded) {
        ++ShedOverloaded;
      } else if (R->status().Err == support::CompileErr::DeadlineExceeded) {
        ++ShedDeadline;
      } else {
        ++OtherFailed;
      }
    }
    OS = OverSvc.stats();
  }
  const double ShedRate =
      static_cast<double>(ShedOverloaded + ShedDeadline) / OverJobs;

  std::printf("overload phase: %u all-distinct jobs at %.0f/s "
              "(~2x capacity %.0f/s), ring 64, deadline %llu ns\n",
              OverJobs, ArrivalJps, CapacityJps,
              (unsigned long long)OverDeadlineSpanNs);
  std::printf("  served %u  shed(overloaded) %u  shed(deadline) %u  "
              "other-failed %u  hung %u  shed rate %.3f\n",
              OverServed, ShedOverloaded, ShedDeadline, OtherFailed, Hung,
              ShedRate);
  std::printf("  queue wait p50 %8llu ns   p99 %8llu ns\n",
              (unsigned long long)OS.QueueWaitP50Ns,
              (unsigned long long)OS.QueueWaitP99Ns);

  FILE *F = std::fopen("BENCH_service_throughput.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_service_throughput.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n"
               "  \"bench\": \"service_throughput\",\n"
               "  \"jobs\": %u,\n  \"distinct_modules\": %u,\n"
               "  \"workers\": %u,\n  \"rate_jobs_per_sec\": %.1f,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"fault_injection\": %s,\n"
               "  \"service\": {\n"
               "    \"hit_ratio\": %.4f,\n"
               "    \"hits\": %llu,\n    \"misses\": %llu,\n"
               "    \"coalesced\": %llu,\n    \"evictions\": %llu,\n"
               "    \"failed\": %llu,\n"
               "    \"jobs_per_sec\": %.1f,\n"
               "    \"hit_p50_ns\": %llu,\n    \"hit_p99_ns\": %llu,\n"
               "    \"miss_p50_ns\": %llu,\n    \"miss_p99_ns\": %llu,\n"
               "    \"hit_speedup_p50\": %.2f\n"
               "  },\n"
               "  \"warm\": {\n"
               "    \"jobs\": %u,\n"
               "    \"hits\": %llu,\n    \"misses\": %llu,\n"
               "    \"hit_p50_ns\": %llu,\n    \"hit_p99_ns\": %llu,\n"
               "    \"hit_speedup_p50\": %.2f\n"
               "  },\n"
               "  \"overload\": {\n"
               "    \"jobs\": %u,\n"
               "    \"arrival_jobs_per_sec\": %.1f,\n"
               "    \"capacity_est_jobs_per_sec\": %.1f,\n"
               "    \"served\": %u,\n"
               "    \"shed_overloaded\": %u,\n"
               "    \"shed_deadline\": %u,\n"
               "    \"other_failed\": %u,\n"
               "    \"hung\": %u,\n"
               "    \"shed_rate\": %.4f,\n"
               "    \"queue_wait_p50_ns\": %llu,\n"
               "    \"queue_wait_p99_ns\": %llu\n"
               "  }\n}\n",
               O.Jobs, O.Distinct, O.Workers, O.Rate,
               std::thread::hardware_concurrency(),
               support::faultInjectionEnabled() ? "true" : "false", HitRatio,
               (unsigned long long)S.Hits, (unsigned long long)S.Misses,
               (unsigned long long)S.Coalesced,
               (unsigned long long)S.Evictions,
               (unsigned long long)S.Failed, JobsPerSec,
               (unsigned long long)S.HitP50Ns, (unsigned long long)S.HitP99Ns,
               (unsigned long long)S.MissP50Ns,
               (unsigned long long)S.MissP99Ns, HitSpeedup, WarmJobs,
               (unsigned long long)WarmHits, (unsigned long long)WarmMisses,
               (unsigned long long)WarmHitP50Ns,
               (unsigned long long)WarmHitP99Ns, WarmHitSpeedup, OverJobs,
               ArrivalJps, CapacityJps, OverServed, ShedOverloaded,
               ShedDeadline, OtherFailed, Hung, ShedRate,
               (unsigned long long)OS.QueueWaitP50Ns,
               (unsigned long long)OS.QueueWaitP99Ns);
  std::fclose(F);
  std::printf("wrote BENCH_service_throughput.json\n");
  return 0;
}
