//===- service/Admission.h - Tenant-fair admission control ------*- C++ -*-===//
///
/// \file
/// The compile service's overload-control layer: the bounded,
/// multi-tenant admission queue in front of the service workers — the
/// service's only job queue (the shard pass has its own work-stealing
/// queue, support/WorkQueue.h). Three policies live here, all
/// deterministic and all enforced under one mutex (the admission path is
/// once-per-job, never the compile hot loop — docs/PERF.md's
/// zero-allocation policy does not govern it):
///
///  * **Token-bucket quotas per tenant.** Each tenant owns a bucket of
///    BurstTokens capacity refilled at TokensPerSec; a submit costs one
///    token. An exhausted bucket rejects with Admit::QuotaExceeded
///    *immediately* (quota is never waited out — back-pressure must not
///    disguise a quota violation). TokensPerSec = 0 with BurstTokens = 0
///    leaves a tenant unmetered. Refill is driven by the caller-supplied
///    NowNs, so tests control time exactly.
///
///  * **Weighted-fair dequeue.** Jobs queue per tenant and are tagged at
///    *enqueue* with start-time-fair-queuing virtual times: start
///    S = max(VClock, tenant's last finish tag), finish F = S +
///    SCALE/Weight. pop() serves the tenant whose head job has the
///    smallest F (ties to the lowest tenant id) and advances VClock to
///    that job's S, so a tenant flooding the queue gets at most its
///    weight share of worker dequeues while backlogged and can never
///    starve the others — and an idle tenant accumulates no credit
///    (its next tag starts at VClock, not in the past). Per-tenant
///    order stays FIFO. The optional MaxQueued per-tenant backstop
///    additionally caps how much of the shared ring one tenant may
///    occupy.
///
///  * **A retry lane.** pushRetry(item, DueNs) re-admits a job the
///    service decided to recompile after a transient failure
///    (docs/SERVICE.md "Overload control"); retries bypass quota and
///    capacity (the job was already admitted once and still holds its
///    single-flight claim) and are held until due — pop() sleeps until
///    the earliest due time when only undue retries remain. After
///    close() the due time is ignored so shutdown drains retries
///    immediately instead of stalling the drain.
///
/// Admission is bounded in *time* as well as space: tryPush() never
/// blocks, and pushWait() waits for ring space at most MaxWaitNs before
/// giving up with Admit::Overloaded — no producer ever blocks forever.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SERVICE_ADMISSION_H
#define TPDE_SERVICE_ADMISSION_H

#include "support/Common.h"
#include "support/Sync.h"
#include "support/Timer.h"

#include <deque>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tpde::service {

/// Tenant identity carried by every submit. Tenant 0 is the default
/// tenant (anonymous/embedded callers).
using TenantId = u32;

/// Per-tenant admission policy. The default is maximally permissive:
/// unmetered, weight 1, no per-tenant queue cap.
struct TenantConfig {
  /// Token-bucket refill rate. 0 together with BurstTokens = 0 means
  /// unmetered.
  double TokensPerSec = 0.0;
  /// Bucket capacity (burst allowance). When only TokensPerSec is set,
  /// the burst defaults to one second's worth of tokens.
  double BurstTokens = 0.0;
  /// Weighted-fair share relative to other tenants (>= 1).
  u32 Weight = 1;
  /// Max jobs this tenant may hold queued at once; 0 = bounded only by
  /// the shared capacity.
  size_t MaxQueued = 0;

  bool metered() const { return TokensPerSec > 0.0 || BurstTokens > 0.0; }
  double burst() const {
    return BurstTokens > 0.0 ? BurstTokens : TokensPerSec;
  }
};

/// Admission verdicts. Everything except Ok maps to a structured
/// CompileErr at the service layer (Overloaded / ServiceShutdown).
enum class Admit : u8 {
  Ok,            ///< Enqueued.
  Overloaded,    ///< Ring full (past the bounded wait) or per-tenant cap hit.
  QuotaExceeded, ///< Tenant token bucket empty — never waited out.
  Closed,        ///< Queue closed; the service is shutting down.
};

/// Bounded multi-tenant admission queue; see the file comment for the
/// policies. T must be movable. All operations are thread-safe.
template <typename T> class AdmissionQueue {
public:
  explicit AdmissionQueue(size_t Capacity) : Cap(Capacity ? Capacity : 1) {}

  AdmissionQueue(const AdmissionQueue &) = delete;
  AdmissionQueue &operator=(const AdmissionQueue &) = delete;

  size_t capacity() const { return Cap; }

  /// Installs a per-tenant policy (overriding the default TenantConfig
  /// for that tenant). Safe to call while producers run; an existing
  /// bucket is re-capped to the new burst.
  void setTenantConfig(TenantId Tid, const TenantConfig &Cfg)
      TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    TenantState &Tn = tenantLocked(Tid);
    Tn.Cfg = Cfg;
    if (Tn.Tokens > Cfg.burst())
      Tn.Tokens = Cfg.burst();
  }

  /// Non-blocking admission of \p Item for \p Tid. \p NowNs drives the
  /// token-bucket refill. On any non-Ok verdict the item is dropped.
  Admit tryPush(T Item, TenantId Tid, u64 NowNs) TPDE_EXCLUDES(Mtx) {
    Admit A;
    {
      LockGuard L(Mtx);
      bool RingFull = false;
      A = admitLocked(std::move(Item), Tid, NowNs, RingFull);
    }
    if (A == Admit::Ok)
      NotEmpty.notify_one();
    return A;
  }

  /// Bounded-wait admission: like tryPush, but waits up to \p MaxWaitNs
  /// for ring space when the queue is full. Quota exhaustion and the
  /// per-tenant cap still reject immediately — only the shared ring is
  /// worth waiting on. Returns Overloaded when the wait expires.
  Admit pushWait(T Item, TenantId Tid, u64 NowNs, u64 MaxWaitNs)
      TPDE_EXCLUDES(Mtx) {
    Admit A;
    {
      LockGuard L(Mtx);
      bool RingFull = false;
      A = admitLocked(std::move(Item), Tid, NowNs, RingFull);
      // Wait only while the *shared ring* is the obstacle. A per-tenant
      // MaxQueued rejection also reports Overloaded but must bounce
      // immediately: the tenant's own backlog clears only through its
      // weighted-fair share, so waiting here would let one tenant park
      // producers on a limit that exists to contain exactly that tenant.
      while (A == Admit::Overloaded && RingFull && MaxWaitNs > 0) {
        const u64 GiveUpNs = NowNs + MaxWaitNs;
        u64 Now = tpde::nowNs();
        if (Now >= GiveUpNs)
          break;
        NotFull.waitFor(Mtx, GiveUpNs - Now);
        RingFull = false;
        A = admitLocked(std::move(Item), Tid, tpde::nowNs(), RingFull);
      }
    }
    if (A == Admit::Ok)
      NotEmpty.notify_one();
    return A;
  }

  /// Re-admits an already-claimed job on the retry lane, held until
  /// \p DueNs. Bypasses quota and capacity; never fails (post-close
  /// retries are accepted and drained immediately — the pushing worker
  /// is still popping, so nothing is stranded).
  void pushRetry(T Item, u64 DueNs) TPDE_EXCLUDES(Mtx) {
    {
      LockGuard L(Mtx);
      Retries.push_back({std::move(Item), DueNs});
    }
    NotEmpty.notify_all();
  }

  /// Blocks until an item is available (a due retry or any queued job)
  /// or the queue is closed *and* fully drained; returns false only on
  /// closed-and-drained. Due retries win over queued jobs (they are the
  /// oldest admitted work); queued jobs are picked weighted-fair.
  bool pop(T &Out) TPDE_EXCLUDES(Mtx) {
    bool Got = false;
    {
      LockGuard L(Mtx);
      for (;;) {
        if (popLocked(Out, tpde::nowNs())) {
          Got = true;
          break;
        }
        if (Closed && Count == 0 && Retries.empty())
          break;
        if (!Retries.empty() && Count == 0 && !Closed) {
          // Only undue retries remain: sleep until the earliest due time
          // (or a new arrival / close wakes us).
          u64 Due = earliestDueLocked();
          u64 Now = tpde::nowNs();
          if (Due > Now)
            NotEmpty.waitFor(Mtx, Due - Now);
        } else {
          NotEmpty.wait(Mtx);
        }
      }
    }
    if (Got)
      NotFull.notify_one();
    return Got;
  }

  /// Non-blocking pop. Returns false when nothing is currently poppable
  /// — even if undue retries are pending.
  bool tryPop(T &Out) TPDE_EXCLUDES(Mtx) {
    bool Got;
    {
      LockGuard L(Mtx);
      Got = popLocked(Out, tpde::nowNs());
    }
    if (Got)
      NotFull.notify_one();
    return Got;
  }

  /// Rejects future admission and wakes all waiters. Queued jobs and
  /// retries remain poppable until drained (retries regardless of due
  /// time). Idempotent.
  void close() TPDE_EXCLUDES(Mtx) {
    {
      LockGuard L(Mtx);
      Closed = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
  }

  bool closed() const TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    return Closed;
  }

  /// Queued jobs (excluding pending retries).
  size_t size() const TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    return Count;
  }

  size_t retryCount() const TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    return Retries.size();
  }

private:
  /// Virtual-time scale: one dequeue at weight 1 advances a tenant's
  /// finish time by SCALE, at weight W by SCALE/W.
  static constexpr u64 VtScale = u64{1} << 16;

  /// A queued job with its fair-queuing tags, assigned at enqueue.
  struct Tagged {
    T Item;
    u64 S = 0; ///< Virtual start time.
    u64 F = 0; ///< Virtual finish time (dequeue order key).
  };

  struct TenantState {
    TenantConfig Cfg;
    std::deque<Tagged> Q;
    double Tokens = 0.0;
    u64 LastRefillNs = 0;
    bool BucketInit = false;
    u64 LastF = 0; ///< Finish tag of this tenant's last-enqueued job.
  };

  struct Retry {
    T Item;
    u64 DueNs;
  };

  /// A tenant without setTenantConfig() gets the default TenantConfig:
  /// unmetered, weight 1.
  TenantState &tenantLocked(TenantId Tid) TPDE_REQUIRES(Mtx) {
    return Tenants.try_emplace(Tid).first->second;
  }

  /// \p RingFull is set (only) when the verdict is Overloaded because the
  /// shared ring is at capacity — the one cause a bounded wait can cure.
  Admit admitLocked(T &&Item, TenantId Tid, u64 NowNs, bool &RingFull)
      TPDE_REQUIRES(Mtx) {
    if (Closed)
      return Admit::Closed;
    TenantState &Tn = tenantLocked(Tid);
    if (Tn.Cfg.metered()) {
      if (!Tn.BucketInit) {
        Tn.Tokens = Tn.Cfg.burst();
        Tn.LastRefillNs = NowNs;
        Tn.BucketInit = true;
      } else if (NowNs > Tn.LastRefillNs) {
        Tn.Tokens += static_cast<double>(NowNs - Tn.LastRefillNs) * 1e-9 *
                     Tn.Cfg.TokensPerSec;
        if (Tn.Tokens > Tn.Cfg.burst())
          Tn.Tokens = Tn.Cfg.burst();
        Tn.LastRefillNs = NowNs;
      }
      if (Tn.Tokens < 1.0)
        return Admit::QuotaExceeded;
    }
    if (Tn.Cfg.MaxQueued && Tn.Q.size() >= Tn.Cfg.MaxQueued)
      return Admit::Overloaded;
    if (Count >= Cap) {
      RingFull = true;
      return Admit::Overloaded;
    }
    if (Tn.Cfg.metered())
      Tn.Tokens -= 1.0;
    Tagged Tg;
    Tg.Item = std::move(Item);
    Tg.S = Tn.LastF > VClock ? Tn.LastF : VClock;
    u32 W = Tn.Cfg.Weight ? Tn.Cfg.Weight : 1;
    Tg.F = Tg.S + VtScale / W;
    Tn.LastF = Tg.F;
    Tn.Q.push_back(std::move(Tg));
    ++Count;
    return Admit::Ok;
  }

  u64 earliestDueLocked() const TPDE_REQUIRES(Mtx) {
    u64 Due = std::numeric_limits<u64>::max();
    for (const Retry &R : Retries)
      if (R.DueNs < Due)
        Due = R.DueNs;
    return Due;
  }

  bool popLocked(T &Out, u64 NowNs) TPDE_REQUIRES(Mtx) {
    // Due retries first (oldest admitted work; after close, everything
    // on the lane counts as due so the drain never stalls).
    for (size_t I = 0; I < Retries.size(); ++I) {
      if (Closed || Retries[I].DueNs <= NowNs) {
        Out = std::move(Retries[I].Item);
        Retries.erase(Retries.begin() + static_cast<ptrdiff_t>(I));
        return true;
      }
    }
    if (Count == 0)
      return false;
    // Start-time fair queuing: serve the smallest head finish tag.
    TenantState *Pick = nullptr;
    TenantId PickId = 0;
    for (auto &[Tid, Tn] : Tenants) {
      if (Tn.Q.empty())
        continue;
      u64 F = Tn.Q.front().F;
      if (!Pick || F < Pick->Q.front().F ||
          (F == Pick->Q.front().F && Tid < PickId)) {
        Pick = &Tn;
        PickId = Tid;
      }
    }
    Tagged &Head = Pick->Q.front();
    if (Head.S > VClock)
      VClock = Head.S;
    Out = std::move(Head.Item);
    Pick->Q.pop_front();
    --Count;
    return true;
  }

  const size_t Cap;
  mutable Mutex Mtx;
  CondVar NotEmpty;
  CondVar NotFull;
  std::unordered_map<TenantId, TenantState> Tenants TPDE_GUARDED_BY(Mtx);
  std::vector<Retry> Retries TPDE_GUARDED_BY(Mtx);
  /// Queued jobs across tenants (retries excluded).
  size_t Count TPDE_GUARDED_BY(Mtx) = 0;
  /// Global virtual time (start time of last dequeue).
  u64 VClock TPDE_GUARDED_BY(Mtx) = 0;
  bool Closed TPDE_GUARDED_BY(Mtx) = false;
};

} // namespace tpde::service

#endif // TPDE_SERVICE_ADMISSION_H
