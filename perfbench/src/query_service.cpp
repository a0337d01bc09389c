//===- perfbench/src/query_service.cpp - The query_service workload -------===//
///
/// The paper's §7 database-JIT case served by one UirCompileService: an
/// open-loop stream of single-query UIR modules from one generator
/// thread at a fixed offered rate. Popularity is skewed:
///
///  * a hot set that fits the cache budget, pre-warmed before timing,
///    serves most requests as true cache hits;
///  * a cold tail far larger than the budget forces misses and evictions;
///  * some cold queries arrive twice within one compile time, so the
///    second request coalesces onto the in-flight compile.
///
/// Latency runs from each request's due time to a callable result; every
/// result is executed and compared with uir::evalPlan. This is the only
/// workload that uses admission, the code cache and batching; hits and
/// misses use the same service side by side.
///
/// In the traced run, a closed-loop phase before the stream saturates the
/// service with cold queries and gives its compile capacity
/// (service.capacity_values_per_s).
///
/// The generator and the one service worker share one CPU (see
/// runQueryService).
///
/// The query pool is fixed; the seed draws the request stream.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "uir/Service.h"
#include "uir/Verifier.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

namespace perfbench {

using namespace tpde;

namespace {

// The traffic is not taken from a measured trace: the paper's §7 names the
// use (one query compiled at a time, latency first) but no request mix.
// Each number below is an assumption, with the property it is chosen for.

/// Hot set: enough distinct queries that the cache holds many entries,
/// few enough to pre-warm in set-up.
constexpr u32 HotQueries = 64;
/// Cold tail: 32 times the cold slack of the cache, so about 97% of cold
/// requests miss and nearly every miss evicts.
constexpr u32 ColdQueries = 4096;
/// Offered load of the open-loop stream, requests per second: enough
/// requests that each quarter-second window has a p99 of its own, while the
/// offered compile work stays a few percent of the measured capacity
/// (printed each traced run). Latency is then the service's own path per
/// query, the §7 case, and not queueing behind other compiles.
constexpr double RatePerS = 4000;
/// Share of requests drawn from the hot set, in percent: most requests
/// are true hits, and one in eight compiles.
constexpr u32 HotPct = 88;
/// Share of cold requests followed by a duplicate, in percent, and the
/// duplicate's lag: far below one compile, so it coalesces. A quarter
/// gives about 100 coalesced requests a second, enough to count.
constexpr u32 DupPct = 25;
constexpr u64 DupLagNs = 5'000;
/// Cold entries the cache budget holds beside the hot set: the budget
/// fits the hot set with room to spare, and a hot entry is used far more
/// often than the slack turns over, so the cache's LRU keeps it.
constexpr u32 ColdSlack = 128;
/// One worker: the generator and the worker share one CPU, where a second
/// worker would add no capacity.
constexpr unsigned Workers = 1;
/// Requests in flight during the closed-loop capacity phase.
constexpr unsigned CapacityOutstanding = 2 * Workers;
constexpr u64 CapacityNsPerCpu = 400'000'000;
/// Table rows for the per-request result check and for exec_ns_per_op.
/// The exec table is small enough to stay in a core's L2 cache, so that
/// exec_ns_per_op measures the generated code, not the shared L3 that
/// other tenants of the host contend for.
constexpr u64 CheckRows = 256, ExecRows = 4096;
/// Stream slice whose latency quantiles form one window: about 1,000
/// requests, so a window's p99 has ten values beyond it. The run reports
/// the median over its windows. A cost that recurs at least four times a
/// second (a periodic scan, a batch hiccup every 200 ms, a watchdog tick)
/// lands in every window and so moves the median of the window tails,
/// while a host stall of a few milliseconds sets the tail of only the
/// window it falls in.
constexpr u64 WindowNs = 250'000'000;
/// The capacity phase's window.
constexpr u64 CapacityWindowNs = 50'000'000;
/// Cold queries timed for ready_ms_*, and the passes over them.
constexpr u32 ReadyQueries = 512;
constexpr unsigned ReadyPasses = 40;
/// Cold queries of a ready pass between two reference chunks (SpeedRef).
constexpr u32 ReadyQueriesPerChunk = 32;
/// Set-up repetitions: set-up here is a few tens of milliseconds, so more
/// of them than elsewhere.
constexpr unsigned QuerySetupReps = 15;
/// Exec passes before and after the stream, and the pause between two.
constexpr unsigned ExecPassesPerPhase = 64;
constexpr auto ExecPassGap = std::chrono::milliseconds(5);

using QueryFn = i64 (*)(const i64 *const *, i64);

struct Query {
  uir::QueryPlan Plan;
  uir::UModule Mod;
  u64 Values = 0;
  i64 ExpectCheck = 0, ExpectExec = 0;
};

struct Arrival {
  u64 DueOffsetNs;
  u32 Query;
  bool Hot;
};

struct State {
  std::unique_ptr<uir::Table> CheckT, ExecT;
  std::vector<Query> Pool; ///< [0, HotQueries) is the hot set.
  std::vector<Arrival> Stream;
  /// Solo compiles of the hot set: byte-identity reference for the
  /// service's cached code.
  std::vector<std::vector<u8>> HotText;
  u64 HotTextBytes = 0, HotMappedBytes = 0;
  double MapNsPerQuery = 0;
  std::unique_ptr<uir::UirCompileService> Svc;
  std::vector<service::ResultPtr> HotCode;
};

void buildStream(u64 Seed, double Seconds, std::vector<Arrival> &Out) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 4242);
  const u64 PeriodNs = static_cast<u64>(1e9 / RatePerS);
  const u64 N = static_cast<u64>(Seconds * RatePerS);
  Out.clear();
  for (u64 I = 0; I < N; ++I) {
    u64 Due = I * PeriodNs;
    if (R.below(100) < HotPct) {
      Out.push_back({Due, static_cast<u32>(R.below(HotQueries)), true});
      continue;
    }
    u32 Q = HotQueries + static_cast<u32>(R.below(ColdQueries));
    Out.push_back({Due, Q, false});
    if (R.below(100) < DupPct)
      Out.push_back({Due + DupLagNs, Q, false});
  }
}

void setup(const Args &A, std::unique_ptr<State> &S, Report &R) {
  S.reset();
  S = std::make_unique<State>();
  workloads::QueryProfile P;
  P.Seed = 7001;
  P.NumQueries = HotQueries + ColdQueries;
  S->CheckT = std::make_unique<uir::Table>(P.NumCols, CheckRows, 11);
  S->ExecT = std::make_unique<uir::Table>(P.NumCols, ExecRows, 12);
  for (uir::QueryPlan &Plan : workloads::genQueryPlans(P)) {
    Query Q;
    uir::compilePlan(Q.Mod, Plan);
    for (const uir::UFunc &F : Q.Mod.Funcs)
      Q.Values += F.Vals.size();
    Q.ExpectCheck = uir::evalPlan(Plan, *S->CheckT);
    if (S->Pool.size() < HotQueries)
      Q.ExpectExec = uir::evalPlan(Plan, *S->ExecT);
    Q.Plan = std::move(Plan);
    S->Pool.push_back(std::move(Q));
  }
  buildStream(A.Seed, A.Seconds, S->Stream);

  // Solo compiles of the hot set size the cache budget and are the
  // byte-identity reference.
  u64 MapNs = 0;
  for (u32 I = 0; I < HotQueries; ++I) {
    uir::UModule M = S->Pool[I].Mod;
    asmx::Assembler Asm;
    R.check(uir::compileTpdeUir(M, Asm), "solo compile of a hot query");
    asmx::JITMapper JIT;
    u64 T0 = nowNs();
    R.check(JIT.map(Asm), "solo map of a hot query");
    MapNs += nowNs() - T0;
    const auto &Text = Asm.text().Data;
    S->HotText.emplace_back(Text.data(), Text.data() + Text.size());
    S->HotTextBytes += Text.size();
    S->HotMappedBytes += JIT.mappedSize();
  }
  S->MapNsPerQuery = static_cast<double>(MapNs) / HotQueries;

  service::ServiceOptions SO;
  SO.NumWorkers = Workers;
  SO.CacheBudgetBytes =
      S->HotMappedBytes + ColdSlack * (S->HotMappedBytes / HotQueries);
  S->Svc = std::make_unique<uir::UirCompileService>(SO);
  // Pre-warm: every hot query compiled and cached before timing.
  for (u32 I = 0; I < HotQueries; ++I)
    S->HotCode.push_back(S->Svc->submit(S->Pool[I].Mod));
  for (auto &Res : S->HotCode) {
    Res->wait();
    R.check(Res->ok(), "pre-warm compile");
  }
}

struct Req {
  service::ResultPtr Res;
  u64 DueNs = 0, SubmitStartNs = 0, SubmitEndNs = 0;
  u32 Query = 0;
  bool Hot = false;
};

/// Sleeps most of the way to \p Due, then spins: open-loop pacing that
/// leaves the cores to the service workers.
void waitUntil(u64 Due) {
  for (;;) {
    u64 Now = nowNs();
    if (Now >= Due)
      return;
    if (Due - Now > 150'000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Due - Now - 100'000));
    else
      std::this_thread::yield();
  }
}

/// Runs the stream from \p Begin to \p End; returns the window's wall ns.
/// A traced window also records each submit() call as a span.
u64 runStream(State &S, size_t Begin, size_t End, bool Traced,
              std::vector<Req> &Reqs) {
  Reqs.clear();
  Reqs.reserve(End - Begin);
  const u64 Base = nowNs() + 1'000'000 - S.Stream[Begin].DueOffsetNs;
  for (size_t I = Begin; I < End; ++I) {
    const Arrival &Ar = S.Stream[I];
    Req Rq;
    Rq.DueNs = Base + Ar.DueOffsetNs;
    Rq.Query = Ar.Query;
    Rq.Hot = Ar.Hot;
    waitUntil(Rq.DueNs);
    if (Traced)
      Rq.SubmitStartNs = nowNs();
    Rq.Res = S.Svc->submit(S.Pool[Ar.Query].Mod);
    if (Traced)
      Rq.SubmitEndNs = nowNs();
    Reqs.push_back(std::move(Rq));
  }
  for (Req &Rq : Reqs)
    Rq.Res->wait();
  return nowNs() - Base - S.Stream[Begin].DueOffsetNs;
}

/// Checks every request: exactly one labelled outcome, and a served
/// result computes what uir::evalPlan computes.
void checkRequests(State &S, const std::vector<Req> &Reqs, Report &R) {
  for (const Req &Rq : Reqs) {
    bool Labelled = Rq.Res->done();
    bool Ok = Labelled && Rq.Res->ok();
    R.check(Labelled, "request ended without an outcome");
    if (!Ok) {
      R.check(false, Rq.Res->status().Message.c_str());
      continue;
    }
    const Query &Q = S.Pool[Rq.Query];
    auto *F = reinterpret_cast<QueryFn>(Rq.Res->address(Q.Plan.Name));
    R.check(F && F(S.CheckT->ColPtrs.data(), CheckRows) == Q.ExpectCheck,
            "query result differs from uir::evalPlan");
  }
}

/// Service accounting must add up: every submission is counted exactly
/// once as a hit, a miss (single-flight owner; refused and shed owners
/// included), a coalesced waiter or a verifier rejection.
void checkConservation(const std::vector<Req> &Reqs,
                       const service::ServiceStatsSnapshot &B,
                       const service::ServiceStatsSnapshot &E, Report &R) {
  u64 Hits = 0, Overloaded = 0, Shed = 0;
  for (const Req &Rq : Reqs) {
    Hits += Rq.Res->ok() && Rq.Res->hit();
    Overloaded += Rq.Res->status().Err == support::CompileErr::Overloaded;
    Shed += Rq.Res->status().Err == support::CompileErr::DeadlineExceeded;
  }
  u64 Counted = (E.Hits - B.Hits) + (E.Misses - B.Misses) +
                (E.Coalesced - B.Coalesced) +
                (E.VerifyRejected - B.VerifyRejected);
  R.check(Counted == Reqs.size(), "service outcomes do not add up to submits");
  R.check(Hits == E.Hits - B.Hits, "client-side hits differ from stats");
  R.check(Overloaded == E.Overloaded - B.Overloaded,
          "client-side refusals differ from stats");
  R.check(Shed == (E.Shed - B.Shed) + (E.DeadlineTimedOut - B.DeadlineTimedOut),
          "client-side deadline failures differ from stats");
}

/// Once per run: the cached code of every hot query is byte-identical to
/// its solo compile (assembler output, before relocation at mapping).
void checkHotBytes(State &S, Report &R) {
  for (u32 I = 0; I < HotQueries; ++I) {
    const auto &Code = S.HotCode[I]->code();
    bool Same = Code && Code->Asm.text().size() == S.HotText[I].size() &&
                std::equal(S.HotText[I].begin(), S.HotText[I].end(),
                           Code->Asm.text().Data.data());
    R.check(Same, "cached code differs from the solo compile");
  }
}

/// exec_ns_per_op: each pass runs every hot query once over the exec
/// table and appends its thread CPU ns per table row to \p Passes. The
/// passes rotate over the CPUs and are spread over about half a second;
/// the run makes them before and after the stream and reports their
/// trimmed mean.
void execPasses(State &S, CpuPlacement &Cpu, Report &R, SpeedRef &Ref,
                std::vector<double> &Passes) {
  for (size_t P = 0; P < ExecPassesPerPhase; ++P) {
    if (P)
      std::this_thread::sleep_for(ExecPassGap);
    Cpu.rotate(P);
    u64 Ns = 0;
    for (u32 I = 0; I < HotQueries; ++I) {
      const Query &Q = S.Pool[I];
      auto *F = reinterpret_cast<QueryFn>(S.HotCode[I]->address(Q.Plan.Name));
      if (!F) {
        R.check(false, "hot query symbol missing");
        continue;
      }
      u64 T0 = threadCpuNs();
      i64 Got = F(S.ExecT->ColPtrs.data(), ExecRows);
      Ns += threadCpuNs() - T0;
      if (P == 0)
        R.check(Got == Q.ExpectExec, "query result differs from uir::evalPlan");
    }
    Passes.push_back(static_cast<double>(Ns) / (HotQueries * ExecRows));
    Ref.sample(2);
  }
}

/// ready_ms_*: the time from a cold query handed over to its callable
/// code, without the service: compileTpdeUir and JITMapper::map, in thread
/// CPU time, the way spec_o0 and module_10k time a module. The service's
/// own miss path shows in req_us_p99 and service.miss_us_* of the traced
/// run. Each pass rotates to the next CPU and appends one time per query
/// to \p Ms; the run makes half its passes before and half after the
/// stream, and reports each query's trimmed mean, and quantiles over the
/// queries.
void readyPasses(State &S, CpuPlacement &Cpu, Report &R, SpeedRef &Ref,
                 std::vector<std::vector<double>> &Ms) {
  Ms.resize(ReadyQueries);
  for (unsigned P = 0; P < ReadyPasses / 2; ++P) {
    Cpu.rotate(P);
    for (u32 I = 0; I < ReadyQueries; ++I) {
      uir::UModule M = S.Pool[HotQueries + I].Mod;
      asmx::Assembler Asm;
      asmx::JITMapper JIT;
      u64 T0 = threadCpuNs();
      bool Ok = uir::compileTpdeUir(M, Asm) && JIT.map(Asm);
      u64 T1 = threadCpuNs();
      R.check(Ok, "solo compile and map of a cold query");
      Ms[I].push_back(static_cast<double>(T1 - T0) / 1e6);
      if (I % ReadyQueriesPerChunk == ReadyQueriesPerChunk - 1)
        Ref.sample();
    }
  }
}

/// Closed loop over the cold pool on a fresh service per CPU (the
/// workers inherit the CPU they are started on): CapacityOutstanding
/// requests in flight, each replaced as soon as the oldest completes.
/// Returns UIR values compiled per CPU second of the process, trimmed mean
/// of the windows of all CPUs.
double capacity(State &S, CpuPlacement &Cpu, Report &R) {
  std::vector<double> PerWindow;
  u32 Next = 0;
  for (size_t C = 0; C < Cpu.count(); ++C) {
    Cpu.rotate(C);
    service::ServiceOptions SO;
    SO.NumWorkers = Workers;
    SO.CacheBudgetBytes = S.Svc->cache().budgetBytes();
    uir::UirCompileService Svc(SO);
    std::deque<std::pair<service::ResultPtr, u32>> InFlight;
    auto SubmitNext = [&] {
      u32 Q = HotQueries + Next++ % ColdQueries;
      InFlight.emplace_back(Svc.submit(S.Pool[Q].Mod), Q);
    };
    while (InFlight.size() < CapacityOutstanding)
      SubmitNext();
    u64 Values = 0;
    const u64 End = nowNs() + CapacityNsPerCpu;
    u64 WinStart = nowNs();
    double WinCpu = cpuSeconds();
    while (nowNs() < End) {
      auto [Res, Q] = std::move(InFlight.front());
      InFlight.pop_front();
      Res->wait();
      R.check(Res->ok(), "capacity-phase request");
      if (Res->ok() && !Res->hit())
        Values += S.Pool[Q].Values;
      SubmitNext();
      if (nowNs() - WinStart >= CapacityWindowNs) {
        double Now = cpuSeconds();
        PerWindow.push_back(static_cast<double>(Values) / (Now - WinCpu));
        Values = 0;
        WinStart = nowNs();
        WinCpu = Now;
      }
    }
    for (auto &[Res, Q] : InFlight) {
      Res->wait();
      R.check(Res->ok(), "capacity-phase request");
    }
  }
  return trimmedMean(PerWindow);
}

/// Latencies of a stream: each request's end-to-end latency at its due
/// time (for the window quantiles), and pooled per-request layer
/// latencies.
struct Window {
  /// (due offset into the stream in ns, latency) of every request.
  std::vector<std::pair<u64, double>> ReqUsAt;
  std::vector<double> ReqUs, SubmitUs, LateUs, HitUs, MissUs;
  u64 HotReqs = 0, HotHits = 0;
};

/// The \p Q quantile of each \p WinNs slice of \p At (in due order).
std::vector<double>
sliceQuantiles(const std::vector<std::pair<u64, double>> &At, u64 WinNs,
               double Q) {
  std::vector<double> Out, Slice;
  u64 WinEnd = WinNs;
  for (const auto &[Due, V] : At) {
    for (; Due >= WinEnd; WinEnd += WinNs)
      if (!Slice.empty()) {
        Out.push_back(quantile(Slice, Q));
        Slice.clear();
      }
    Slice.push_back(V);
  }
  if (!Slice.empty())
    Out.push_back(quantile(Slice, Q));
  return Out;
}

Window summarize(const std::vector<Req> &Reqs) {
  Window W;
  const u64 First = Reqs.empty() ? 0 : Reqs.front().DueNs;
  for (const Req &Rq : Reqs) {
    // A refused or failed request misses any latency limit.
    double DueToReady =
        Rq.Res->ok() ? static_cast<double>(Rq.Res->SubmitNs +
                                           Rq.Res->latencyNs() - Rq.DueNs)
                     : 1e18;
    W.ReqUs.push_back(DueToReady / 1e3);
    W.ReqUsAt.emplace_back(Rq.DueNs - First, DueToReady / 1e3);
    if (Rq.SubmitStartNs) {
      W.SubmitUs.push_back(
          static_cast<double>(Rq.SubmitEndNs - Rq.SubmitStartNs) / 1e3);
      W.LateUs.push_back(static_cast<double>(Rq.SubmitStartNs - Rq.DueNs) /
                         1e3);
    }
    double Lat = static_cast<double>(Rq.Res->latencyNs()) / 1e3;
    if (Rq.Res->ok() && Rq.Res->hit()) {
      W.HitUs.push_back(Lat);
    } else {
      W.MissUs.push_back(Lat);
    }
    if (Rq.Hot) {
      ++W.HotReqs;
      W.HotHits += Rq.Res->ok() && Rq.Res->hit();
    }
  }
  return W;
}

} // namespace

int runQueryService(const Args &A, Report &R) {
  // Generator and service worker share the fastest CPU: a hand-off to an
  // idle vCPU costs a hypervisor wake-up of 50-100 us that comes and goes
  // with the host's load, and would set the miss latency instead of the
  // service's own work.
  CpuPlacement Cpu;
  const int SvcCpu = Cpu.pinFastest();
  std::unique_ptr<State> S;
  double SetupS = timedSetup(QuerySetupReps, [&] { setup(A, S, R); });
  std::printf("query_service: %u hot + %u cold queries, %zu requests at "
              "%.0f/s, cache budget %llu bytes, workers %u, setup %.3f s\n",
              HotQueries, ColdQueries, S->Stream.size(), RatePerS,
              (unsigned long long)S->Svc->cache().budgetBytes(), Workers,
              SetupS);

  // A traced run streams the first half untraced, as the reference for the
  // tracing overhead, and the second half traced.
  const size_t Half = A.Trace ? S->Stream.size() / 2 : S->Stream.size();
  auto Stream = [&](size_t Begin, size_t End, bool Traced,
                    std::vector<Req> &Reqs, service::ServiceStatsSnapshot &B,
                    service::ServiceStatsSnapshot &E) {
    B = S->Svc->stats();
    u64 WallNs = runStream(*S, Begin, End, Traced, Reqs);
    E = S->Svc->stats();
    checkRequests(*S, Reqs, R);
    checkConservation(Reqs, B, E, R);
    std::printf("query_service: %zu requests in %.3f s%s; hits %llu misses "
                "%llu coalesced %llu evictions %llu\n",
                Reqs.size(), static_cast<double>(WallNs) / 1e9,
                Traced ? " (traced)" : "",
                (unsigned long long)(E.Hits - B.Hits),
                (unsigned long long)(E.Misses - B.Misses),
                (unsigned long long)(E.Coalesced - B.Coalesced),
                (unsigned long long)(E.Evictions - B.Evictions));
  };
  // The exec and ready passes visit every CPU, half before and half after
  // the stream, and Ref follows them.
  std::vector<double> ExecPasses;
  std::vector<std::vector<double>> ReadyMs;
  SpeedRef Ref;
  if (!A.Trace) {
    execPasses(*S, Cpu, R, Ref, ExecPasses);
    readyPasses(*S, Cpu, R, Ref, ReadyMs);
  } else {
    // Service capacity is a layer figure of the traced run, and puts the
    // offered load in proportion.
    double Capacity = capacity(*S, Cpu, R);
    R.set("service.capacity_values_per_s", Capacity, "1/s");
    // Cold requests that are not duplicates each start one compile.
    u64 ColdValues = 0;
    for (u32 I = HotQueries; I < HotQueries + ColdQueries; ++I)
      ColdValues += S->Pool[I].Values;
    double Offered = RatePerS * (100 - HotPct) / 100.0 *
                     static_cast<double>(ColdValues) / ColdQueries;
    std::printf("query_service: capacity %.4g values/s; offered miss load "
                "%.4g values/s = %.2f of capacity\n",
                Capacity, Offered, Offered / Capacity);
  }
  Cpu.pin(SvcCpu); // the generator rejoins its worker's CPU

  std::vector<Req> Reqs;
  service::ServiceStatsSnapshot Before, After;
  Stream(0, Half, false, Reqs, Before, After);
  checkHotBytes(*S, R);
  Window W = summarize(Reqs);

  R.set("setup_s", SetupS, "s");
  R.set("text_bytes", static_cast<double>(S->HotTextBytes), "bytes");
  // Per-layer (traced run: its untraced half), as measured. On a shared
  // vCPU the wall-clock tail of the miss path is set by the host's steal
  // more than by the service: it spread 0.47 over five runs of the same
  // code where every CPU-time figure spread 0.07 or less.
  R.set("req_us_p99", median(sliceQuantiles(W.ReqUsAt, WindowNs, 0.99)),
        "us");

  if (!A.Trace) {
    execPasses(*S, Cpu, R, Ref, ExecPasses);
    readyPasses(*S, Cpu, R, Ref, ReadyMs);
    const double Scale = Ref.scale();
    R.set("req_us_p50",
          median(sliceQuantiles(W.ReqUsAt, WindowNs, 0.5)) * Scale, "us");
    R.set("exec_ns_per_op", trimmedMean(ExecPasses) * Scale, "ns");
    // Compile work of the ready passes: each cold query's values over its
    // trimmed mean time to callable code.
    std::vector<double> PerQuery;
    double Values = 0, Ms = 0;
    for (u32 I = 0; I < ReadyQueries; ++I) {
      PerQuery.push_back(trimmedMean(ReadyMs[I]));
      Values += static_cast<double>(S->Pool[HotQueries + I].Values);
      Ms += PerQuery.back();
    }
    R.set("compile_values_per_s", Values / (Ms / 1e3) / Scale, "1/s");
    R.set("ready_ms_p50", quantile(PerQuery, 0.5) * Scale, "ms");
    R.set("ready_ms_p90", quantile(PerQuery, 0.9) * Scale, "ms");
    std::printf("speed: scale %.4f over %zu reference chunks\n", Scale,
                Ref.chunks());
    return 0;
  }

  std::vector<Req> TReqs;
  Stream(Half, S->Stream.size(), true, TReqs, Before, After);
  Window TW = summarize(TReqs);
  R.set("trace.overhead_pct",
        100.0 * (quantile(TW.ReqUs, 0.5) / quantile(W.ReqUs, 0.5) - 1.0), "%");

  u64 HotValues = 0;
  for (u32 I = 0; I < HotQueries; ++I)
    HotValues += S->Pool[I].Values;
  auto PerValue = [&](auto Fn) {
    std::vector<double> Ns;
    for (int Rep = 0; Rep < 5; ++Rep) {
      u64 T0 = nowNs();
      for (u32 I = 0; I < HotQueries; ++I)
        Fn(S->Pool[I].Mod);
      Ns.push_back(static_cast<double>(nowNs() - T0) /
                   static_cast<double>(HotValues));
    }
    return median(Ns);
  };
  R.set("uir.verify_ns_per_value", PerValue([&](uir::UModule &M) {
          std::string Err;
          R.check(uir::verifyModule(M, Err), "verify hot query");
        }),
        "ns");
  R.set("uir.compile_ns_per_value", PerValue([&](uir::UModule &M) {
          asmx::Assembler Asm;
          R.check(uir::compileTpdeUir(M, Asm), "compile hot query");
        }),
        "ns");
  R.set("asmx.jit_map_us", S->MapNsPerQuery / 1e3, "us");
  R.set("asmx.mapped_bytes",
        static_cast<double>(S->HotMappedBytes) / HotQueries, "bytes");
  R.set("service.submit_us_p50", quantile(TW.SubmitUs, 0.5), "us");
  R.set("service.queue_wait_us_p50",
        static_cast<double>(After.QueueWaitP50Ns) / 1e3, "us");
  R.set("service.queue_wait_us_p99",
        static_cast<double>(After.QueueWaitP99Ns) / 1e3, "us");
  R.set("service.hit_us_p50", quantile(TW.HitUs, 0.5), "us");
  R.set("service.hit_us_p99", quantile(TW.HitUs, 0.99), "us");
  R.set("service.miss_us_p50", quantile(TW.MissUs, 0.5), "us");
  R.set("service.miss_us_p99", quantile(TW.MissUs, 0.99), "us");
  R.set("service.true_hit_ratio",
        TW.HotReqs ? static_cast<double>(TW.HotHits) / TW.HotReqs : 0,
        "ratio");
  using SS = service::ServiceStatsSnapshot;
  auto Delta = [&](u64 SS::*F) {
    return static_cast<double>(After.*F - Before.*F);
  };
  R.set("service.coalesced", Delta(&SS::Coalesced), "count");
  R.set("service.evictions", Delta(&SS::Evictions), "count");
  R.set("service.overloaded", Delta(&SS::Overloaded), "count");
  R.set("service.shed", Delta(&SS::Shed), "count");
  R.set("service.retried", Delta(&SS::Retried), "count");
  R.set("gen.late_us_p99", quantile(TW.LateUs, 0.99), "us");
  return 0;
}

} // namespace perfbench
