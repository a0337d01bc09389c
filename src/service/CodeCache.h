//===- service/CodeCache.h - Content-addressed code cache -------*- C++ -*-===//
///
/// \file
/// The compile service's content-addressed code cache: a map from IR
/// fingerprint (support::Fp128 over a canonical module serialization) to
/// mapped, executable code. Soundness rests on the framework's
/// determinism contract (core/ParallelCompiler.h, docs/PERF.md): compiled
/// output is a pure function of the module, so two modules with equal
/// canonical serializations produce byte-identical code — a fingerprint
/// hit may serve the cached mapping in place of a fresh compile. The full
/// argument lives in docs/SERVICE.md.
///
/// The cache is also the service's **single-flight** point: the first
/// submitter of a fingerprint becomes the owner (and compiles), while
/// concurrent submitters of the same fingerprint attach to the in-flight
/// entry as waiters and are completed by the owner's publish — the same
/// module is never compiled twice concurrently.
///
/// Eviction is epoch-LRU under a byte budget: every claim/publish bumps a
/// logical clock and stamps the entry; publish evicts the stalest Ready
/// entries until the mapped-byte total fits the budget. Evicted code
/// returns to the JIT page pool (asmx::JITMapper) only when the last
/// client shared_ptr drops, so eviction never invalidates code a caller is
/// still executing. Pooled pages belong to no entry and are not counted
/// against CacheBudgetBytes.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SERVICE_CODECACHE_H
#define TPDE_SERVICE_CODECACHE_H

#include "asmx/Assembler.h"
#include "asmx/JITMapper.h"
#include "support/Diag.h"
#include "support/Hash.h"
#include "support/Histogram.h"
#include "support/Sync.h"
#include "support/Timer.h"

#include <atomic>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tpde::service {

/// One cached compile result: the merged assembler output and its
/// executable mapping. The Assembler must outlive the JITMapper (the
/// mapper resolves address() lookups through it), which is why both live
/// in one immutable object handed out by shared_ptr.
struct CachedCode {
  support::Fp128 Fp;
  asmx::Assembler Asm;
  asmx::JITMapper JIT;

  /// Entry-point lookup in the mapped code.
  void *address(std::string_view Name) const { return JIT.address(Name); }
  /// The mapped text bytes — what the byte-identity tests compare.
  std::span<const u8> textBytes() const {
    return {JIT.sectionBase(asmx::SecKind::Text),
            static_cast<size_t>(Asm.text().size())};
  }
  /// Budget-relevant footprint: the executable mapping's size.
  u64 bytes() const { return JIT.mappedSize(); }
};

/// Monotonically increasing counters + latency histograms. Counter
/// writes are relaxed atomics (allocation- and lock-free); reads are a
/// snapshot, not a consistent cut.
struct ServiceStats {
  std::atomic<u64> Hits{0};       ///< Served from cache at submit.
  std::atomic<u64> Misses{0};     ///< Entered compilation (single-flight owners).
  std::atomic<u64> Coalesced{0};  ///< Attached to an in-flight compile.
  std::atomic<u64> Evictions{0};  ///< Entries evicted under the byte budget.
  std::atomic<u64> Failed{0};     ///< Jobs completed with a diagnostic.
  std::atomic<u64> VerifyRejected{0}; ///< Rejected by the admission verifier.
  std::atomic<u64> Overloaded{0}; ///< Admission rejections: queue full past
                                  ///< the bounded wait.
  std::atomic<u64> Shed{0};       ///< Jobs whose deadline expired in the
                                  ///< queue; shed at dequeue, never compiled.
  std::atomic<u64> DeadlineTimedOut{0}; ///< Waiters that timed out on an
                                        ///< in-flight fingerprint.
  std::atomic<u64> CachedBytes{0};
  std::atomic<u64> CachedEntries{0};
  support::LatencyHistogram HitNs;  ///< End-to-end latency of cache hits.
  support::LatencyHistogram MissNs; ///< End-to-end latency of compiles
                                    ///< (owners and coalesced waiters).
  support::LatencyHistogram QueueWaitNs; ///< Admission-queue residency per
                                         ///< dequeue (enqueue -> worker pop).
};

/// Plain-value snapshot of ServiceStats for reporting. Retried is always
/// 0: the service compiles each job once. It stays because reports still
/// read it (perfbench's query_service prints it as service.retried).
struct ServiceStatsSnapshot {
  u64 Hits = 0, Misses = 0, Coalesced = 0, Evictions = 0, Failed = 0,
      VerifyRejected = 0, Overloaded = 0, Shed = 0, DeadlineTimedOut = 0,
      Retried = 0, CachedBytes = 0, CachedEntries = 0;
  u64 HitP50Ns = 0, HitP99Ns = 0, MissP50Ns = 0, MissP99Ns = 0;
  u64 QueueWaitP50Ns = 0, QueueWaitP99Ns = 0;
};

/// A waitable per-job completion handle. submit() returns one
/// immediately; wait() blocks until a service worker (or the submit fast
/// path, on a cache hit) completes it — or, for jobs submitted with a
/// deadline, until the deadline passes, at which point the handle
/// self-completes with DeadlineExceeded. Completion is first-wins: a
/// handle the waiter timed out stays timed out even if the owner later
/// publishes the code (the publish still lands in the cache for future
/// submits).
class ServiceResult {
public:
  /// Blocks until the job completed (served, failed, or rejected). If
  /// the job carries a deadline and it expires first, completes the
  /// handle with DeadlineExceeded — a waiter attached to an in-flight
  /// fingerprint therefore times out independently of the owner.
  void wait() TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    if (DeadlineNs == 0) {
      while (!Done)
        CV.wait(Mtx);
      return;
    }
    while (!Done) {
      u64 Now = tpde::nowNs();
      if (Now >= DeadlineNs) {
        completeTimeoutLocked(Now);
        break;
      }
      CV.waitFor(Mtx, DeadlineNs - Now);
    }
  }
  bool done() const TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    return Done;
  }
  /// Valid after wait(): success, served-from-cache flag, diagnostic,
  /// code handle, and end-to-end latency (completion - submit).
  ///
  /// These read guarded fields without the lock, which is safe by the
  /// handle's protocol: wait()'s lock release happens-before the caller's
  /// read, and a completed handle's fields never change again
  /// (first-wins). The reference-returning getters could not lock anyway.
  bool ok() const TPDE_NO_THREAD_SAFETY_ANALYSIS { return St.ok(); }
  bool hit() const TPDE_NO_THREAD_SAFETY_ANALYSIS { return Hit; }
  const support::CompileStatus &status() const TPDE_NO_THREAD_SAFETY_ANALYSIS {
    return St;
  }
  const std::shared_ptr<CachedCode> &code() const
      TPDE_NO_THREAD_SAFETY_ANALYSIS {
    return Code;
  }
  u64 latencyNs() const TPDE_NO_THREAD_SAFETY_ANALYSIS { return LatNs; }
  void *address(std::string_view Name) const {
    return Code ? Code->address(Name) : nullptr;
  }

  /// Completion (service-internal). NowNs is the completing thread's
  /// clock reading; latency is derived from the recorded submit time.
  /// First-wins: returns false — and changes nothing — when the handle
  /// already completed (e.g. the waiter timed out on its deadline), so
  /// callers must not record latency for a false return. Never throws:
  /// when copying the diagnostic's text runs out of memory, the handle
  /// keeps the code alone.
  bool complete(std::shared_ptr<CachedCode> C, const support::CompileStatus &S,
                bool WasHit, u64 NowNs) TPDE_EXCLUDES(Mtx) {
    {
      LockGuard L(Mtx);
      if (Done)
        return false;
      Code = std::move(C);
      try {
        St = S;
      } catch (const std::bad_alloc &) {
        St.clear();
        St.Err = S.Err;
      }
      Hit = WasHit;
      LatNs = NowNs >= SubmitNs ? NowNs - SubmitNs : 0;
      Done = true;
    }
    CV.notify_all();
    return true;
  }

  u64 SubmitNs = 0;   ///< Set once by submit() before the handle is shared.
  u64 DeadlineNs = 0; ///< Absolute nowNs() deadline; 0 = none. Set once by
                      ///< submit() before the handle is shared.
  /// Stats sink for the self-timeout path. A shared_ptr (not a raw
  /// pointer into the service) so a client blocked in wait() past the
  /// service's destruction still has somewhere safe to count.
  std::shared_ptr<ServiceStats> Stats;

private:
  void completeTimeoutLocked(u64 NowNs) TPDE_REQUIRES(Mtx) {
    St.clear();
    St.Err = support::CompileErr::DeadlineExceeded;
    St.Message = "deadline expired waiting for in-flight compile";
    Code = nullptr;
    Hit = false;
    LatNs = NowNs >= SubmitNs ? NowNs - SubmitNs : 0;
    Done = true;
    if (Stats)
      Stats->DeadlineTimedOut.fetch_add(1, std::memory_order_relaxed);
    CV.notify_all();
  }

  mutable Mutex Mtx;
  mutable CondVar CV;
  bool Done TPDE_GUARDED_BY(Mtx) = false;
  bool Hit TPDE_GUARDED_BY(Mtx) = false;
  support::CompileStatus St TPDE_GUARDED_BY(Mtx);
  std::shared_ptr<CachedCode> Code TPDE_GUARDED_BY(Mtx);
  u64 LatNs TPDE_GUARDED_BY(Mtx) = 0;
};

using ResultPtr = std::shared_ptr<ServiceResult>;

/// Fingerprint -> mapped code, with single-flight claim semantics.
/// Thread-safe; all state behind one mutex (operations are O(1) map
/// probes except the eviction scan, see evictLocked()). Waiter
/// completion and the release of evicted code always happen *outside*
/// the lock: publish()/fail() hand both back to the caller.
class CodeCache {
public:
  explicit CodeCache(u64 BudgetBytes)
      : Budget(BudgetBytes), StatsP(std::make_shared<ServiceStats>()) {}

  CodeCache(const CodeCache &) = delete;
  CodeCache &operator=(const CodeCache &) = delete;

  enum class Claim : u8 {
    Hit,    ///< Ready entry found; HitCode is set, stats bumped.
    Owner,  ///< Caller claimed the fingerprint and must compile + publish
            ///< (or fail) it.
    Waiter, ///< A compile is in flight; Res was attached and will be
            ///< completed by the owner.
  };

  /// Single-flight admission for \p Fp on behalf of result handle \p Res.
  /// The Owner is the only caller that may end the entry's Building
  /// state, with exactly one publish() or fail().
  Claim claim(const support::Fp128 &Fp, const ResultPtr &Res,
              std::shared_ptr<CachedCode> &HitCode) TPDE_EXCLUDES(Mtx);

  /// Publishes the owner's compiled code for \p Fp, evicts down to the
  /// byte budget, and moves the entry's waiters into \p Waiters for the
  /// caller to complete outside the lock. The evicted entries' code is
  /// appended to \p Evicted, for the caller to release outside the lock.
  void publish(const support::Fp128 &Fp, std::shared_ptr<CachedCode> Code,
               std::vector<ResultPtr> &Waiters,
               std::vector<std::shared_ptr<CachedCode>> &Evicted)
      TPDE_EXCLUDES(Mtx);

  /// Removes the in-flight entry for \p Fp after a failed compile — the
  /// cache is never poisoned by failures; a later submit of the same
  /// fingerprint compiles again. Waiters are handed back as in publish().
  void fail(const support::Fp128 &Fp, std::vector<ResultPtr> &Waiters)
      TPDE_EXCLUDES(Mtx);

  ServiceStats &stats() { return *StatsP; }
  /// The stats sink as a shared handle — outlives the cache, so result
  /// handles can count self-timeouts after service teardown.
  std::shared_ptr<ServiceStats> statsPtr() const { return StatsP; }
  ServiceStatsSnapshot snapshot() const;

  u64 budgetBytes() const { return Budget; }

private:
  enum class State : u8 { Building, Ready };
  struct Entry {
    State St = State::Building;
    std::shared_ptr<CachedCode> Code;
    u64 LastUse = 0;
    std::vector<ResultPtr> Waiters;
  };

  /// Evicts the lowest-LastUse Ready entries (never the one named by
  /// \p Keep, never Building entries) until CachedBytes <= Budget or
  /// nothing evictable remains, moving their code into \p Evicted.
  /// O(entries) scan per eviction — fine at cache sizes where eviction
  /// is rare; called with Mtx held.
  void evictLocked(const support::Fp128 &Keep,
                   std::vector<std::shared_ptr<CachedCode>> &Evicted)
      TPDE_REQUIRES(Mtx);

  const u64 Budget;
  mutable Mutex Mtx;
  std::unordered_map<support::Fp128, Entry, support::Fp128Hash>
      Map TPDE_GUARDED_BY(Mtx);
  /// Epoch counter: bumped per touch, stamps LastUse.
  u64 Clock TPDE_GUARDED_BY(Mtx) = 0;
  std::shared_ptr<ServiceStats> StatsP;
};

} // namespace tpde::service

#endif // TPDE_SERVICE_CODECACHE_H
