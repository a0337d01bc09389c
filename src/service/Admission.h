//===- service/Admission.h - Bounded FIFO admission queue -------*- C++ -*-===//
///
/// \file
/// The compile service's admission queue: a bounded FIFO in front of the
/// service workers — the service's only job queue (the shard pass has its
/// own claim cursors, support/WorkQueue.h). Workers pop jobs in arrival
/// order. All state sits under one mutex: admission runs once per job,
/// never in the compile hot loop, so docs/PERF.md's zero-allocation
/// policy does not govern it.
///
/// Admission is bounded in *time* as well as space: tryPush() never
/// blocks, and pushWait() waits for space at most MaxWaitNs before giving
/// up with Admit::Overloaded — no producer ever blocks forever. After
/// close(), pushes are refused with Admit::Closed and the jobs already
/// queued stay poppable until drained.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SERVICE_ADMISSION_H
#define TPDE_SERVICE_ADMISSION_H

#include "support/Common.h"
#include "support/Sync.h"
#include "support/Timer.h"

#include <deque>
#include <utility>

namespace tpde::service {

/// Admission verdicts. Everything except Ok maps to a structured
/// CompileErr at the service layer (Overloaded / ServiceShutdown).
enum class Admit : u8 {
  Ok,         ///< Enqueued.
  Overloaded, ///< Queue full (past the bounded wait, for pushWait).
  Closed,     ///< Queue closed; the service is shutting down.
};

/// Bounded FIFO admission queue; see the file comment. T must be
/// movable. All operations are thread-safe.
template <typename T> class AdmissionQueue {
public:
  explicit AdmissionQueue(size_t Capacity) : Cap(Capacity ? Capacity : 1) {}

  AdmissionQueue(const AdmissionQueue &) = delete;
  AdmissionQueue &operator=(const AdmissionQueue &) = delete;

  /// Non-blocking admission. On any non-Ok verdict the item is dropped.
  Admit tryPush(T Item) TPDE_EXCLUDES(Mtx) {
    return pushWait(std::move(Item), 0);
  }

  /// Bounded-wait admission: like tryPush, but waits up to \p MaxWaitNs
  /// for space when the queue is full. Returns Overloaded when the wait
  /// expires.
  Admit pushWait(T Item, u64 MaxWaitNs) TPDE_EXCLUDES(Mtx) {
    {
      LockGuard L(Mtx);
      const u64 GiveUpNs = tpde::nowNs() + MaxWaitNs;
      for (;;) {
        if (Closed)
          return Admit::Closed;
        if (Q.size() < Cap)
          break;
        const u64 Now = tpde::nowNs();
        if (Now >= GiveUpNs)
          return Admit::Overloaded;
        NotFull.waitFor(Mtx, GiveUpNs - Now);
      }
      Q.push_back(std::move(Item));
    }
    NotEmpty.notify_one();
    return Admit::Ok;
  }

  /// Blocks until a job is queued, and pops the oldest; returns false
  /// only once the queue is closed *and* drained.
  bool pop(T &Out) TPDE_EXCLUDES(Mtx) {
    {
      LockGuard L(Mtx);
      while (Q.empty()) {
        if (Closed)
          return false;
        NotEmpty.wait(Mtx);
      }
      Out = std::move(Q.front());
      Q.pop_front();
    }
    NotFull.notify_one();
    return true;
  }

  /// Rejects future admission and wakes all waiters. Queued jobs remain
  /// poppable until drained. Idempotent.
  void close() TPDE_EXCLUDES(Mtx) {
    {
      LockGuard L(Mtx);
      Closed = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
  }

private:
  const size_t Cap;
  Mutex Mtx;
  CondVar NotEmpty;
  CondVar NotFull;
  std::deque<T> Q TPDE_GUARDED_BY(Mtx);
  bool Closed TPDE_GUARDED_BY(Mtx) = false;
};

} // namespace tpde::service

#endif // TPDE_SERVICE_ADMISSION_H
