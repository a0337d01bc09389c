//===- service/CompileService.h - In-process compile service ----*- C++ -*-===//
///
/// \file
/// An in-process JIT compile service: clients submit() IR modules from
/// any thread and get back a waitable ServiceResult; service workers pop
/// jobs one at a time, in arrival order, from a bounded admission queue
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
///  * **Bounded admission.** submit() waits at most AdmitMaxWaitNs
///    (200 ms) for queue space before failing with Overloaded;
///    trySubmit() never waits. A closed service reports ServiceShutdown,
///    never an ad-hoc assembler error.
///
///  * **Deadlines.** A job may carry an absolute deadline: expired jobs
///    are shed at dequeue (never compiled), and a waiter attached to an
///    in-flight fingerprint times out on its own deadline independently
///    of the owner (ServiceResult::wait self-completes, first-wins).
///
/// A job ends when its one compile and map return: a verified module
/// compiles in one bounded pass on the worker's one-thread driver, and a
/// client bounds its own wait with a deadline.
///
/// Admission reuses the robustness plumbing (docs/ROBUSTNESS.md): the
/// verifier gate runs on the *client* thread before the job can touch the
/// queue or cache, so a malformed module costs its submitter a structured
/// VerifyFailed diagnostic and nobody else anything. Each job is compiled
/// once: a job that fails to compile or map completes, with its waiters,
/// on that first failure — the driver's first diagnostic, the status a
/// solo compile of its module reports. The failed fingerprint is removed,
/// never cached, so a resubmit compiles again.
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
#include "support/Sync.h"
#include "support/Timer.h"

#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace tpde::service {

/// Longest a blocking submit() waits for admission-queue space before
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
  /// Test-only: runs on the worker thread before each compile. Tests use
  /// it to count compiles or to stall a worker for a moment.
  std::function<void()> TestHookPreCompile;
};

/// Per-submit parameters. The default is no deadline.
struct SubmitOptions {
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
      Workers.push_back(std::make_unique<WorkerState>());
    for (auto &WS : Workers)
      WS->Thread = tpde::Thread([this, W = WS.get()] { workerMain(*W); });
  }

  ~CompileService() { shutdown(); }

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Submits one module as a job. Never blocks on compilation; blocks at
  /// most AdmitMaxWaitNs when the admission queue is full (bounded
  /// back-pressure), then fails the job with Overloaded. The
  /// returned handle completes on a cache hit before submit() even
  /// returns. \p Mod is read by reference and copied only when this
  /// submit owns the compile (a miss): a hit, a coalesced waiter and a
  /// verifier rejection never copy it, and the caller may reuse or
  /// destroy it as soon as submit() returns.
  ///
  /// Out of memory, submit() may throw std::bad_alloc — from the handle's
  /// allocation, the verifier, the cache entry or attaching a waiter —
  /// but only before it counts the submission in any stat, so Hits +
  /// Misses + Coalesced + VerifyRejected stays the number of submits that
  /// returned a handle. Past that point a lack of memory fails the job
  /// (OutOfMemory) instead.
  ResultPtr submit(const ModuleT &Mod, SubmitOptions SO = {}) {
    return admit(Mod, SO, /*NonBlocking=*/false);
  }

  /// Non-blocking submit: a full queue fails the job with Overloaded
  /// immediately instead of waiting for space.
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
  void shutdown() {
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
    u64 DeadlineNs = 0;
    u64 EnqueueNs = 0; ///< The queue-wait histogram records pop - enqueue.
  };

  /// Per-worker compile state: a module slot with a one-thread parallel
  /// driver bound to it (worker construction is the expensive part —
  /// adapters/assemblers/compilers are reused across jobs, so the
  /// steady-state compile hits the reuse fast paths). Each job's module
  /// is moved into the slot for its compile.
  struct WorkerState {
    WorkerState() : PC(Mod, {.NumThreads = 1}) {}
    ModuleT Mod;
    core::ParallelModuleCompiler<CompilerT> PC;
    std::vector<ResultPtr> Waiters; ///< Publish scratch, reused per job.
    /// Publish scratch: code the cache evicted, released outside its lock.
    std::vector<std::shared_ptr<CachedCode>> Evicted;
    tpde::Thread Thread;
  };

  static ServiceOptions sanitize(ServiceOptions O) {
    if (O.NumWorkers == 0)
      O.NumWorkers = 1;
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
    switch (Cache.claim(Fp, Res, HitCode)) {
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
      failJob(Fp, Res, support::CompileErr::DeadlineExceeded,
              "deadline expired before admission");
      return Res;
    }
    // This submit owns the claim now: a bad_alloc from the copy or the
    // enqueue must release it, or every later submit of this module would
    // coalesce onto a compile that never runs.
    Admit A = Admit::Ok;
    try {
      PendingJob Job;
      Job.Mod = Mod; // the one copy: only the owner's job outlives submit()
      Job.Fp = Fp;
      Job.Res = Res;
      Job.DeadlineNs = SO.DeadlineNs;
      Job.EnqueueNs = Now;
      A = NonBlocking ? Queue.tryPush(std::move(Job))
                      : Queue.pushWait(std::move(Job), AdmitMaxWaitNs);
    } catch (const std::bad_alloc &) {
      failJob(Fp, Res, support::CompileErr::OutOfMemory,
              "out of memory admitting the job");
      return Res;
    }
    switch (A) {
    case Admit::Ok:
      break;
    case Admit::Closed:
      failJob(Fp, Res, support::CompileErr::ServiceShutdown,
              "compile service is shut down");
      break;
    case Admit::Overloaded:
      Cache.stats().Overloaded.fetch_add(1, std::memory_order_relaxed);
      failJob(Fp, Res, support::CompileErr::Overloaded,
              "admission queue full");
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
      failJob(Job.Fp, Job.Res, support::CompileErr::DeadlineExceeded,
              "deadline expired before compile");
      return;
    }
    if (Opts.TestHookPreCompile)
      Opts.TestHookPreCompile();

    // Nothing above the worker catches, so running out of memory here
    // must fail the job, not end the process.
    std::shared_ptr<CachedCode> CC;
    support::CompileStatus St;
    try {
      CC = std::make_shared<CachedCode>();
      CC->Fp = Job.Fp;
      // The driver is bound to the worker's module slot.
      WS.Mod = std::move(Job.Mod);
      if (!WS.PC.compile(CC->Asm))
        St = WS.PC.status();
      if (St.ok() && !CC->JIT.map(CC->Asm, nullptr, Traits::Stub))
        St = CC->JIT.status();
    } catch (const std::bad_alloc &) {
      St.clear(); // no message: storing one could throw again
      St.Err = support::CompileErr::OutOfMemory;
    }
    if (St.ok())
      publish(WS, Job, CC);
    else
      failJobStatus(Job.Fp, Job.Res, St);
  }

  /// Publishes a compiled job's code and completes its submitter and
  /// every waiter that coalesced onto it. Code the publish evicted is
  /// released last, outside the cache lock: unmapping the last reference
  /// to it takes the JIT page pool's lock and makes syscalls.
  void publish(WorkerState &WS, PendingJob &Job,
               const std::shared_ptr<CachedCode> &CC) {
    WS.Waiters.clear();
    Cache.publish(Job.Fp, CC, WS.Waiters, WS.Evicted);
    u64 Now = tpde::nowNs();
    support::CompileStatus Ok;
    if (Job.Res->complete(CC, Ok, /*WasHit=*/false, Now))
      Cache.stats().MissNs.record(Job.Res->latencyNs());
    for (ResultPtr &W : WS.Waiters)
      if (W->complete(CC, Ok, /*WasHit=*/false, Now))
        Cache.stats().MissNs.record(W->latencyNs());
    WS.Evicted.clear();
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

  void failJob(const support::Fp128 &Fp, const ResultPtr &Res,
               support::CompileErr E, std::string_view Msg) {
    support::CompileStatus St;
    St.Err = E;
    try {
      St.Message.assign(Msg);
    } catch (const std::bad_alloc &) {
      // Out of memory the job still fails, with its code alone.
    }
    failJobStatus(Fp, Res, St);
  }

  void failJobStatus(const support::Fp128 &Fp, const ResultPtr &Res,
                     const support::CompileStatus &St) {
    std::vector<ResultPtr> Waiters;
    Cache.fail(Fp, Waiters);
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
};

} // namespace tpde::service

#endif // TPDE_SERVICE_COMPILESERVICE_H
