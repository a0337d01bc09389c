//===- support/WorkQueue.h - Per-worker claim cursors -----------*- C++ -*-===//
///
/// \file
/// A small work-distribution queue over a dense index range [0, Count),
/// used by the parallel module compiler to hand shards to worker threads.
///
/// Each worker owns one contiguous sub-range [Next, End), one per cache
/// line. A worker claims from its own cursor with one relaxed fetch_add;
/// once its range is dry it claims from the other workers' cursors, in
/// order from W+1. Each index is claimed exactly once: it goes to the one
/// fetch_add that returns it below End, and a cursor only grows, so a dry
/// range stays dry (pop() returning false really means every index of the
/// current reset() is claimed). The queue is allocation-free after reset()
/// has grown the slot array once (docs/PERF.md).
///
/// Relaxed ordering is enough: the claim orders nothing but the index
/// itself. The caller publishes the work behind the indices before the
/// pool starts (the parallel driver's mutex handshake) and reads the
/// results only after the pool is done (its Pending barrier).
///
/// The queue distributes *indices*, not work items: callers map the index
/// to whatever unit they shard by. Which worker ends up claiming an index
/// is scheduling-dependent; anything that must be deterministic (e.g. where
/// a shard's output lands) must therefore be keyed on the index, never on
/// the worker.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_WORKQUEUE_H
#define TPDE_SUPPORT_WORKQUEUE_H

// tpde-lint: hot-path -- per-function compile loop; the zero-allocation
// policy (docs/PERF.md) is machine-enforced here by scripts/tpde_lint.py.

#include "support/Common.h"

#include <atomic>
#include <memory>

namespace tpde::support {

class WorkStealingRangeQueue {
public:
  WorkStealingRangeQueue() = default;

  /// Prepares the queue to hand out [0, Count) across \p NumWorkers
  /// workers. The initial partition is contiguous and even, so a reused
  /// pool claims the same indices on the same worker every time; pop()
  /// evens out the rest. Must not race with pop(). Only grows the slot
  /// array (never shrinks), so repeated reset() with the same worker count
  /// does not allocate.
  void reset(u32 Count, unsigned NumWorkers) {
    assert(NumWorkers > 0 && "need at least one worker");
    if (NumWorkers > Cap) {
      Slots = std::make_unique<Slot[]>(NumWorkers);
      Cap = NumWorkers;
    }
    Workers = NumWorkers;
    u32 Chunk = Count / NumWorkers, Rem = Count % NumWorkers;
    u32 Next = 0;
    for (unsigned W = 0; W < NumWorkers; ++W) {
      Slots[W].Next.store(Next, std::memory_order_relaxed);
      Next += Chunk + (W < Rem ? 1 : 0);
      Slots[W].End = Next;
    }
    assert(Next == Count && "partition must cover the range");
  }

  /// Claims the next index for \p Worker: first from its own range, then
  /// from the other workers' ranges, starting at Worker + 1. Returns false
  /// only once every index of the current reset() has been claimed.
  bool pop(unsigned Worker, u32 &Out) {
    assert(Worker < Workers && "worker id out of range");
    for (unsigned N = 0, W = Worker; N < Workers; ++N) {
      Slot &S = Slots[W];
      if (S.Next.load(std::memory_order_relaxed) < S.End) {
        u32 I = S.Next.fetch_add(1, std::memory_order_relaxed);
        if (I < S.End) {
          Out = I;
          return true;
        }
      }
      if (++W == Workers)
        W = 0;
    }
    return false;
  }

  unsigned workerCount() const { return Workers; }

private:
  struct alignas(64) Slot {
    std::atomic<u32> Next{0};
    u32 End = 0;
  };

  std::unique_ptr<Slot[]> Slots;
  unsigned Cap = 0;
  unsigned Workers = 0;
};

} // namespace tpde::support

#endif // TPDE_SUPPORT_WORKQUEUE_H
