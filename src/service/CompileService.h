//===- service/CompileService.h - Multi-tenant compile service --*- C++ -*-===//
///
/// \file
/// A multi-tenant JIT compile service: clients submit() IR modules from
/// any thread and get back a waitable ServiceResult; service workers pop
/// jobs one at a time from a tenant-fair admission queue
/// (service/Admission.h), compile each through the parallel driver's
/// compile() — the path a solo compileModule*Parallel takes — map the
/// output executable, and memoize it in the content-addressed CodeCache.
/// It turns the driver's determinism contract into a serving feature (see
/// docs/SERVICE.md and docs/ARCHITECTURE.md).
///
/// The pipeline per job:
///
///   submit(const ModuleT &)  --verify gate--> fingerprint --> cache.claim()
///      Hit:    complete immediately with the cached mapping
///      Waiter: another submit of the same fingerprint is compiling;
///              attach and wait (single-flight, no duplicate compile)
///      Owner:  copy the module into the job and enqueue it; a worker
///              pops the job, compiles it, maps the code, publishes it,
///              completes all waiters
///
/// Only the Owner copies the module; a hit, a waiter or a verifier
/// rejection reads the caller's module in place.
///
/// On top of that sits the overload-control layer (docs/SERVICE.md,
/// "Overload control"):
///
///  * **Admission control.** Every submit names a tenant; per-tenant
///    token buckets and weighted-fair dequeue (AdmissionQueue) keep a
///    flooding tenant from starving the others. submit() waits at most
///    AdmitMaxWaitNs (200 ms) for ring space before failing with
///    Overloaded; trySubmit() never waits. A closed service reports
///    ServiceShutdown, never an ad-hoc assembler error.
///
///  * **Deadlines.** A job may carry an absolute deadline: expired jobs
///    are shed at dequeue (never compiled), and a waiter attached to an
///    in-flight fingerprint times out on its own deadline independently
///    of the owner (ServiceResult::wait self-completes, first-wins).
///
///  * **Transient-failure retry.** Jobs failing with a transient code
///    (support::compileErrTransient) are recompiled up to MaxRetries
///    times with decorrelated-jitter backoff on the queue's retry lane
///    before their waiters are failed. The single-flight claim is held
///    across retries, so waiters keep waiting instead of re-compiling.
///
///  * **Worker watchdog.** Each worker heartbeats per job stage; a
///    watchdog thread fails over the ownership claim of a worker stuck
///    past StuckBatchTimeoutNs, completing its submitter and waiters
///    with a structured error. Ownership tokens (CodeCache) make the
///    hung worker's eventual publish a harmless no-op.
///
/// Admission reuses the PR 6 robustness plumbing: the verifier gate runs
/// on the *client* thread before the job can touch the queue or cache,
/// so a malformed module costs its submitter a structured VerifyFailed
/// diagnostic and nobody else anything. A job that fails to compile
/// completes with the driver's first diagnostic — the status a solo
/// compile of its module reports — and the failed fingerprint is
/// removed, never cached.
///
/// The service is a template over a Traits type binding it to an IR:
///
///   struct MyTraits {
///     using CompilerT = ...; // a CompilerBase-derived compiler; the
///     // parallel driver takes it as is (core/ParallelCompiler.h).
///     // ModuleT = CompilerT::AdapterT::ModuleT, default-constructible,
///     // copyable and movable
///     static support::Fp128 fingerprint(const ModuleT &M);
///     static bool verify(const ModuleT &M, std::string &Err);
///     static constexpr asmx::JITMapper::StubArch Stub = ...;
///   };
///
/// Allocation discipline: the per-function compile loop inside a job's
/// compile stays allocation-free per docs/PERF.md (worker state is
/// reused). Per-*job* work — the module copy, queue transfer, the
/// CachedCode allocation, the mapping syscalls — allocates; that is once
/// per distinct module, amortized away by the cache for every hit. A hit
/// allocates only its ServiceResult handle and the verifier's scratch
/// (docs/PERF.md); the fingerprint and the cache claim allocate nothing.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SERVICE_COMPILESERVICE_H
#define TPDE_SERVICE_COMPILESERVICE_H

#include "core/ParallelCompiler.h"
#include "service/Admission.h"
#include "service/CodeCache.h"
#include "support/Rng.h"
#include "support/Sync.h"
#include "support/Timer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tpde::service {

/// Longest a blocking submit() waits for admission-ring space before
/// failing the job with Overloaded.
inline constexpr u64 AdmitMaxWaitNs = 200'000'000; // 200ms

struct ServiceOptions {
  /// Service worker threads, each popping and compiling one job at a time.
  unsigned NumWorkers = 1;
  /// Admission queue depth; a full queue back-pressures submit() for at
  /// most AdmitMaxWaitNs and rejects trySubmit() immediately.
  size_t QueueCapacity = 256;
  /// Code cache byte budget (mapped sizes); epoch-LRU eviction above it.
  u64 CacheBudgetBytes = u64{64} << 20;
  /// Run the Traits verifier on the client thread before admission.
  bool Verify = true;
  /// Workers stay parked until resume() — lets tests queue a known set
  /// of jobs before any of them is compiled.
  bool StartPaused = false;

  // -- Overload control -------------------------------------------------
  /// Max recompiles of a job whose failure is transient
  /// (support::compileErrTransient) before its waiters are failed.
  u32 MaxRetries = 2;
  /// Decorrelated-jitter backoff between retries:
  /// next = clamp(uniform(Base, 3 * prev), Base, Cap).
  u64 RetryBackoffBaseNs = 200'000;    // 200us
  u64 RetryBackoffCapNs = 50'000'000;  // 50ms
  /// A worker whose heartbeat is older than this while compiling a job is
  /// failed over by the watchdog (its claim completes with a structured
  /// error; its eventual publish is a no-op). 0 disables the watchdog,
  /// which otherwise scans every min(StuckBatchTimeoutNs / 10, 100ms).
  u64 StuckBatchTimeoutNs = 30'000'000'000; // 30s
  /// Test-only: runs on the worker thread after it registered its job's
  /// claim, before compiling. Lets tests stall a worker deterministically
  /// to exercise the watchdog.
  std::function<void()> TestHookPreBatch;
};

/// Per-submit parameters. Defaults preserve the pre-overload behavior:
/// the anonymous tenant, no deadline.
struct SubmitOptions {
  /// Tenant charged for this job's admission (quota + fair share).
  TenantId Tenant = 0;
  /// Absolute tpde::nowNs() deadline; 0 = none. Expired queued jobs are
  /// shed un-compiled; expired waiters self-complete in wait().
  u64 DeadlineNs = 0;
};

template <typename Traits> class CompileService {
public:
  using CompilerT = typename Traits::CompilerT;
  using ModuleT = typename core::ParallelModuleCompiler<CompilerT>::ModuleT;

  explicit CompileService(ServiceOptions O = {})
      : Opts(sanitize(std::move(O))), Cache(Opts.CacheBudgetBytes),
        Queue(Opts.QueueCapacity), Paused(Opts.StartPaused) {
    Workers.reserve(Opts.NumWorkers);
    for (unsigned I = 0; I < Opts.NumWorkers; ++I)
      Workers.push_back(std::make_unique<WorkerState>(I));
    for (auto &WS : Workers)
      WS->Thread = tpde::Thread([this, W = WS.get()] { workerMain(*W); });
    if (Opts.StuckBatchTimeoutNs > 0)
      Watchdog = tpde::Thread([this] { watchdogMain(); });
  }

  ~CompileService() { shutdown(); }

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Installs an admission policy for \p Tid (quota, weight, queue cap),
  /// overriding the unmetered weight-1 default for that tenant.
  void setTenantConfig(TenantId Tid, const TenantConfig &Cfg) {
    Queue.setTenantConfig(Tid, Cfg);
  }

  /// Submits one module as a job. Never blocks on compilation; blocks at
  /// most AdmitMaxWaitNs when the admission queue is full (bounded
  /// back-pressure), then fails the job with Overloaded. The
  /// returned handle completes on a cache hit before submit() even
  /// returns. \p Mod is read by reference and copied only when this
  /// submit owns the compile (a miss): a hit, a coalesced waiter and a
  /// verifier rejection never copy it, and the caller may reuse or
  /// destroy it as soon as submit() returns.
  ResultPtr submit(const ModuleT &Mod, SubmitOptions SO = {}) {
    return admit(Mod, SO, /*NonBlocking=*/false);
  }

  /// Non-blocking submit: a full queue (or exhausted quota) fails the
  /// job with Overloaded immediately instead of waiting for space.
  ResultPtr trySubmit(const ModuleT &Mod, SubmitOptions SO = {}) {
    return admit(Mod, SO, /*NonBlocking=*/true);
  }

  /// Releases workers parked by ServiceOptions::StartPaused.
  void resume() TPDE_EXCLUDES(PauseMtx) {
    {
      LockGuard L(PauseMtx);
      Paused = false;
    }
    PauseCV.notify_all();
  }

  /// Stops admission, drains queued jobs, joins workers. Idempotent;
  /// called by the destructor.
  void shutdown() TPDE_EXCLUDES(WatchdogMtx) {
    {
      LockGuard L(WatchdogMtx);
      WatchdogStop = true;
    }
    WatchdogCV.notify_all();
    if (Watchdog.joinable())
      Watchdog.join();
    Queue.close();
    resume();
    for (auto &WS : Workers)
      if (WS->Thread.joinable())
        WS->Thread.join();
  }

  CodeCache &cache() { return Cache; }
  ServiceStatsSnapshot stats() const { return Cache.snapshot(); }

private:
  struct PendingJob {
    ModuleT Mod;
    support::Fp128 Fp;
    ResultPtr Res;
    u64 Token = 0;     ///< Ownership token from the cache claim.
    TenantId Tenant = 0;
    u64 DeadlineNs = 0;
    u64 EnqueueNs = 0; ///< Last enqueue time (reset per retry); the
                       ///< queue-wait histogram records pop - enqueue.
    u32 Attempt = 0;   ///< Completed compile attempts (retry counter).
    u64 PrevBackoffNs = 0; ///< Last backoff (decorrelated-jitter state).
  };

  /// Per-worker compile state: a module slot with a one-thread parallel
  /// driver bound to it (worker construction is the expensive part —
  /// adapters/assemblers/compilers are reused across jobs, so the
  /// steady-state compile hits the reuse fast paths). Each job's module
  /// is moved into the slot for its compile and moved back out after.
  struct WorkerState {
    explicit WorkerState(unsigned Index)
        : PC(Mod, {.NumThreads = 1}),
          BackoffRng(0x7065646eull ^ (u64{Index} << 32)) {}
    ModuleT Mod;
    core::ParallelModuleCompiler<CompilerT> PC;
    std::vector<ResultPtr> Waiters; ///< Publish scratch, reused per job.
    /// Deterministic per-worker jitter source for retry backoff.
    tpde::Rng BackoffRng;
    tpde::Thread Thread;

    // -- Watchdog interface (see watchdogMain) --------------------------
    std::atomic<u64> HeartbeatNs{0}; ///< Last sign of life (nowNs).
    std::atomic<bool> InJob{false};
    /// Protects the claim. Lock order: ClaimsMtx strictly before
    /// Cache.Mtx — the rank (LockRank::ServiceClaims < ServiceCache) makes
    /// Debug builds assert that order on every acquisition; the static
    /// annotations prove each individual guard, and the order itself is
    /// re-proven by the compile-fail suite (tests/static_analysis/).
    Mutex ClaimsMtx{LockRank::ServiceClaims};
    /// The in-flight job's cache claim; ClaimToken 0 = none (the cache
    /// hands out tokens from 1).
    support::Fp128 ClaimFp TPDE_GUARDED_BY(ClaimsMtx);
    u64 ClaimToken TPDE_GUARDED_BY(ClaimsMtx) = 0;
  };

  static ServiceOptions sanitize(ServiceOptions O) {
    if (O.NumWorkers == 0)
      O.NumWorkers = 1;
    if (O.RetryBackoffBaseNs == 0)
      O.RetryBackoffBaseNs = 1;
    if (O.RetryBackoffCapNs < O.RetryBackoffBaseNs)
      O.RetryBackoffCapNs = O.RetryBackoffBaseNs;
    return O;
  }

  /// The shared submit/trySubmit path: verify, fingerprint, claim, and
  /// admission with the caller's blocking policy.
  ResultPtr admit(const ModuleT &Mod, const SubmitOptions &SO,
                  bool NonBlocking) {
    auto Res = std::make_shared<ServiceResult>();
    Res->SubmitNs = tpde::nowNs();
    Res->DeadlineNs = SO.DeadlineNs;
    Res->Stats = Cache.statsPtr();
    if (Opts.Verify) {
      std::string Err; // admission path, not the compile hot loop
      if (!Traits::verify(Mod, Err)) {
        Cache.stats().VerifyRejected.fetch_add(1, std::memory_order_relaxed);
        Cache.stats().Failed.fetch_add(1, std::memory_order_relaxed);
        support::CompileStatus St;
        St.Err = support::CompileErr::VerifyFailed;
        St.Message = std::move(Err);
        Res->complete(nullptr, St, false, tpde::nowNs());
        return Res;
      }
    }
    const support::Fp128 Fp = Traits::fingerprint(Mod);
    std::shared_ptr<CachedCode> HitCode;
    u64 Token = 0;
    switch (Cache.claim(Fp, Res, HitCode, Token)) {
    case CodeCache::Claim::Hit: {
      // A hit beats an expired deadline: the code is already here.
      support::CompileStatus Ok;
      u64 Now = tpde::nowNs();
      Res->complete(std::move(HitCode), Ok, /*WasHit=*/true, Now);
      Cache.stats().HitNs.record(Res->latencyNs());
      return Res;
    }
    case CodeCache::Claim::Waiter:
      return Res; // the in-flight owner completes it (or wait() times out)
    case CodeCache::Claim::Owner:
      break;
    }
    u64 Now = tpde::nowNs();
    if (SO.DeadlineNs != 0 && Now >= SO.DeadlineNs) {
      Cache.stats().Shed.fetch_add(1, std::memory_order_relaxed);
      failJob(Fp, Token, Res, support::CompileErr::DeadlineExceeded,
              "deadline expired before admission");
      return Res;
    }
    PendingJob Job;
    Job.Mod = Mod; // the one copy: only the owner's job outlives submit()
    Job.Fp = Fp;
    Job.Res = Res;
    Job.Token = Token;
    Job.Tenant = SO.Tenant;
    Job.DeadlineNs = SO.DeadlineNs;
    Job.EnqueueNs = Now;
    Admit A = NonBlocking
                  ? Queue.tryPush(std::move(Job), SO.Tenant, Now)
                  : Queue.pushWait(std::move(Job), SO.Tenant, Now,
                                   AdmitMaxWaitNs);
    switch (A) {
    case Admit::Ok:
      break;
    case Admit::Closed:
      failJob(Fp, Token, Res, support::CompileErr::ServiceShutdown,
              "compile service is shut down");
      break;
    case Admit::Overloaded:
      Cache.stats().Overloaded.fetch_add(1, std::memory_order_relaxed);
      failJob(Fp, Token, Res, support::CompileErr::Overloaded,
              "admission queue full");
      break;
    case Admit::QuotaExceeded:
      Cache.stats().Overloaded.fetch_add(1, std::memory_order_relaxed);
      failJob(Fp, Token, Res, support::CompileErr::Overloaded,
              "tenant quota exhausted");
      break;
    }
    return Res;
  }

  void workerMain(WorkerState &WS) TPDE_EXCLUDES(PauseMtx) {
    {
      LockGuard L(PauseMtx);
      while (Paused)
        PauseCV.wait(PauseMtx);
    }
    for (;;) {
      WS.HeartbeatNs.store(tpde::nowNs(), std::memory_order_relaxed);
      PendingJob Job;
      if (!Queue.pop(Job))
        return; // closed and drained
      Cache.stats().QueueWaitNs.record(tpde::nowNs() - Job.EnqueueNs);
      compileJob(WS, Job);
    }
  }

  void compileJob(WorkerState &WS, PendingJob &Job) {
    // An expired job is shed here — at dequeue, before any compilation.
    if (Job.DeadlineNs != 0 && tpde::nowNs() >= Job.DeadlineNs) {
      Cache.stats().Shed.fetch_add(1, std::memory_order_relaxed);
      failJob(Job.Fp, Job.Token, Job.Res, support::CompileErr::DeadlineExceeded,
              "deadline expired before compile");
      return;
    }

    // Heartbeat, then register the job's claim for the watchdog before
    // the (possibly hanging) compile. The fresh heartbeat is published
    // with InJob, so an idle worker's stale one is never judged.
    WS.HeartbeatNs.store(tpde::nowNs(), std::memory_order_relaxed);
    WS.InJob.store(true, std::memory_order_release);
    {
      LockGuard L(WS.ClaimsMtx);
      WS.ClaimFp = Job.Fp;
      WS.ClaimToken = Job.Token;
    }
    if (Opts.TestHookPreBatch)
      Opts.TestHookPreBatch();

    auto CC = std::make_shared<CachedCode>();
    CC->Fp = Job.Fp;
    // The driver compiles its module slot. The module goes back into the
    // job before anything can re-queue it: a transient-failure retry
    // recompiles the job from its own module.
    WS.Mod = std::move(Job.Mod);
    support::CompileStatus St;
    if (!WS.PC.compile(CC->Asm))
      St = WS.PC.status();
    Job.Mod = std::move(WS.Mod);
    WS.HeartbeatNs.store(tpde::nowNs(), std::memory_order_relaxed);
    if (St.ok() && !CC->JIT.map(CC->Asm, nullptr, Traits::Stub))
      St = CC->JIT.status();
    if (!St.ok()) {
      if (!maybeRetry(WS, Job, St))
        failJobStatus(Job.Fp, Job.Token, Job.Res, St);
    } else {
      publish(WS, Job, CC);
    }

    {
      LockGuard L(WS.ClaimsMtx);
      WS.ClaimToken = 0;
    }
    WS.InJob.store(false, std::memory_order_release);
  }

  /// Publishes a compiled job's code and completes its submitter and
  /// every waiter that coalesced onto it.
  void publish(WorkerState &WS, PendingJob &Job,
               const std::shared_ptr<CachedCode> &CC) {
    WS.Waiters.clear();
    if (!Cache.publish(Job.Fp, Job.Token, CC, WS.Waiters))
      return; // failed over by the watchdog; everyone was completed
    u64 Now = tpde::nowNs();
    support::CompileStatus Ok;
    if (Job.Res->complete(CC, Ok, /*WasHit=*/false, Now))
      Cache.stats().MissNs.record(Job.Res->latencyNs());
    for (ResultPtr &W : WS.Waiters)
      if (W->complete(CC, Ok, /*WasHit=*/false, Now))
        Cache.stats().MissNs.record(W->latencyNs());
  }

  /// Re-admits \p Job on the retry lane when its failure is transient,
  /// the retry budget allows, and the backoff still fits the deadline.
  /// The cache claim is kept across the retry — waiters keep waiting on
  /// the same entry. Returns true only when it re-queued the job; false
  /// when the job must fail instead.
  bool maybeRetry(WorkerState &WS, PendingJob &Job,
                  const support::CompileStatus &St) {
    if (!support::compileErrTransient(St.Err) || Job.Attempt >= Opts.MaxRetries)
      return false;
    // Decorrelated jitter: next in [Base, 3 * prev], clamped to Cap.
    u64 Prev = Job.PrevBackoffNs ? Job.PrevBackoffNs : Opts.RetryBackoffBaseNs;
    u64 Lo = Opts.RetryBackoffBaseNs;
    u64 Hi = Prev * 3;
    if (Hi <= Lo)
      Hi = Lo + 1;
    u64 Backoff = Lo + WS.BackoffRng.below(Hi - Lo);
    if (Backoff > Opts.RetryBackoffCapNs)
      Backoff = Opts.RetryBackoffCapNs;
    u64 Now = tpde::nowNs();
    if (Job.DeadlineNs != 0 && Now + Backoff >= Job.DeadlineNs)
      return false; // the retry could not finish in time anyway
    Job.Attempt += 1;
    Job.PrevBackoffNs = Backoff;
    Job.EnqueueNs = Now;
    Cache.stats().Retried.fetch_add(1, std::memory_order_relaxed);
    Queue.pushRetry(std::move(Job), Now + Backoff);
    return true;
  }

  void watchdogMain() TPDE_EXCLUDES(WatchdogMtx) {
    // The scan period bounds the detection latency: a stuck worker is
    // failed over at most 1.1x the timeout after its last heartbeat.
    const u64 PeriodNs =
        std::min<u64>(Opts.StuckBatchTimeoutNs / 10, 100'000'000); // 100ms
    UniqueLock L(WatchdogMtx);
    while (!WatchdogStop) {
      WatchdogCV.waitFor(WatchdogMtx, PeriodNs);
      if (WatchdogStop)
        break;
      L.unlock();
      const u64 Now = tpde::nowNs();
      for (auto &WSP : Workers) {
        WorkerState &WS = *WSP;
        if (!WS.InJob.load(std::memory_order_acquire))
          continue;
        u64 Hb = WS.HeartbeatNs.load(std::memory_order_relaxed);
        if (Hb == 0 || Now <= Hb || Now - Hb < Opts.StuckBatchTimeoutNs)
          continue;
        failOverWorker(WS);
      }
      L.lock();
    }
  }

  /// Fails over the claim a hung worker registered for its current job:
  /// the claim is removed from the cache (token-guarded, so the worker's
  /// eventual publish/fail is a no-op) and the owner handle plus all
  /// waiters complete with a structured error. The worker thread itself
  /// is left alone — if it ever returns it finds its claim gone.
  void failOverWorker(WorkerState &WS) {
    support::Fp128 Fp;
    u64 Token;
    {
      // ClaimsMtx is released before Cache.fail below; if the two ever
      // nest, the rank tracker holds them to ClaimsMtx-first.
      LockGuard L(WS.ClaimsMtx);
      Fp = WS.ClaimFp;
      Token = std::exchange(WS.ClaimToken, 0);
    }
    if (Token == 0)
      return;
    support::CompileStatus St;
    St.Err = support::CompileErr::DeadlineExceeded;
    St.Message = "stuck-job watchdog failed over a hung worker";
    std::vector<ResultPtr> Waiters;
    ResultPtr OwnerRes;
    if (!Cache.fail(Fp, Token, Waiters, &OwnerRes))
      return; // the worker finished this one after all
    Cache.stats().StuckFailovers.fetch_add(1, std::memory_order_relaxed);
    u64 Now = tpde::nowNs();
    if (OwnerRes)
      completeFailed(*OwnerRes, St, Now);
    for (ResultPtr &W : Waiters)
      completeFailed(*W, St, Now);
  }

  /// Completes \p R with the failure \p St and counts it in Failed. The
  /// count comes first: a client that wait()s and then reads stats() must
  /// see its own failure counted. A handle already completed (timed out)
  /// is not counted, so the count is taken back.
  void completeFailed(ServiceResult &R, const support::CompileStatus &St,
                      u64 Now) {
    Cache.stats().Failed.fetch_add(1, std::memory_order_relaxed);
    if (!R.complete(nullptr, St, false, Now))
      Cache.stats().Failed.fetch_sub(1, std::memory_order_relaxed);
  }

  void failJob(const support::Fp128 &Fp, u64 Token, const ResultPtr &Res,
               support::CompileErr E, std::string_view Msg) {
    support::CompileStatus St;
    St.Err = E;
    St.Message.assign(Msg);
    failJobStatus(Fp, Token, Res, St);
  }

  void failJobStatus(const support::Fp128 &Fp, u64 Token, const ResultPtr &Res,
                     const support::CompileStatus &St) {
    std::vector<ResultPtr> Waiters;
    Cache.fail(Fp, Token, Waiters);
    u64 Now = tpde::nowNs();
    completeFailed(*Res, St, Now);
    for (ResultPtr &W : Waiters)
      completeFailed(*W, St, Now);
  }

  ServiceOptions Opts;
  CodeCache Cache;
  AdmissionQueue<PendingJob> Queue;
  std::vector<std::unique_ptr<WorkerState>> Workers;
  Mutex PauseMtx;
  CondVar PauseCV;
  bool Paused TPDE_GUARDED_BY(PauseMtx) = false;
  tpde::Thread Watchdog;
  Mutex WatchdogMtx;
  CondVar WatchdogCV;
  bool WatchdogStop TPDE_GUARDED_BY(WatchdogMtx) = false;
};

} // namespace tpde::service

#endif // TPDE_SERVICE_COMPILESERVICE_H
