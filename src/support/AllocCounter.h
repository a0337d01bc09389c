//===- support/AllocCounter.h - Heap allocation accounting ------*- C++ -*-===//
///
/// \file
/// A process-wide allocation counter used by the compile-throughput
/// benchmark and the state-reuse regression tests to verify the hot-path
/// allocation policy (docs/PERF.md): recompiling with reused compiler
/// state must not allocate.
///
/// The counters themselves are ordinary inline variables. The actual
/// interception happens by replacing the global `operator new`/`delete`,
/// which must be done in exactly one translation unit of the final binary:
/// expand TPDE_INSTALL_ALLOC_COUNTER there (benchmark/test main files
/// only — never in the library).
///
/// The same replacement lets a test make large allocations throw on demand
/// (AllocCounter::FailFromBytes), to drive out-of-memory recovery paths
/// without exhausting the process's real memory.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_ALLOCCOUNTER_H
#define TPDE_SUPPORT_ALLOCCOUNTER_H

#include "support/Common.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace tpde::support {

/// Running totals since process start (only meaningful in binaries that
/// expanded TPDE_INSTALL_ALLOC_COUNTER).
struct AllocCounter {
  static inline std::atomic<u64> Count{0};
  static inline std::atomic<u64> Bytes{0};
  /// Test-only: when nonzero, operator new throws std::bad_alloc for every
  /// allocation of at least this many bytes. 0, the default, is off.
  static inline std::atomic<u64> FailFromBytes{0};

  static u64 count() { return Count.load(std::memory_order_relaxed); }
  static u64 bytes() { return Bytes.load(std::memory_order_relaxed); }
};

/// Snapshot helper: construct, run the region of interest, then query the
/// deltas.
class AllocWatch {
public:
  AllocWatch()
      : StartCount(AllocCounter::count()), StartBytes(AllocCounter::bytes()) {}
  u64 newCalls() const { return AllocCounter::count() - StartCount; }
  u64 newBytes() const { return AllocCounter::bytes() - StartBytes; }

private:
  u64 StartCount, StartBytes;
};

} // namespace tpde::support

/// Replaces the global allocation functions with counting versions.
/// Expand at namespace scope in exactly one TU per binary.
/// new and delete are BOTH replaced, and both in terms of malloc/free,
/// so freeing in delete is well-matched; the compiler cannot see that
/// pairing, and when the delete bodies get inlined GCC's post-inlining
/// -Wmismatched-new-delete flags the visible free() against the new
/// expression (and ignores suppression pragmas at that point). noinline
/// keeps the bodies opaque — which also keeps the counters honest.
#define TPDE_ALLOC_COUNTER_FN __attribute__((noinline))
#define TPDE_INSTALL_ALLOC_COUNTER                                             \
  TPDE_ALLOC_COUNTER_FN void *operator new(std::size_t Sz) {                   \
    if (const ::tpde::u64 From =                                               \
            ::tpde::support::AllocCounter::FailFromBytes.load(                 \
                std::memory_order_relaxed);                                    \
        From != 0 && Sz >= From)                                               \
      throw std::bad_alloc();                                                  \
    ::tpde::support::AllocCounter::Count.fetch_add(                            \
        1, std::memory_order_relaxed);                                         \
    ::tpde::support::AllocCounter::Bytes.fetch_add(                            \
        Sz, std::memory_order_relaxed);                                        \
    if (void *P = std::malloc(Sz ? Sz : 1))                                    \
      return P;                                                                \
    throw std::bad_alloc();                                                    \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void *operator new[](std::size_t Sz) {                 \
    return ::operator new(Sz);                                                 \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void *operator new(std::size_t Sz,                     \
                                           const std::nothrow_t &) noexcept {  \
    ::tpde::support::AllocCounter::Count.fetch_add(                            \
        1, std::memory_order_relaxed);                                         \
    ::tpde::support::AllocCounter::Bytes.fetch_add(                            \
        Sz, std::memory_order_relaxed);                                        \
    return std::malloc(Sz ? Sz : 1);                                           \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void *operator new[](                                  \
      std::size_t Sz, const std::nothrow_t &T) noexcept {                      \
    return ::operator new(Sz, T);                                              \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void operator delete(void *P) noexcept {               \
    std::free(P);                                                              \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void operator delete[](void *P) noexcept {             \
    std::free(P);                                                              \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void operator delete(void *P,                          \
                                             std::size_t) noexcept {           \
    std::free(P);                                                              \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void operator delete[](void *P,                        \
                                               std::size_t) noexcept {         \
    std::free(P);                                                              \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void operator delete(void *P,                          \
                                             const std::nothrow_t &) noexcept {\
    std::free(P);                                                              \
  }                                                                            \
  TPDE_ALLOC_COUNTER_FN void operator delete[](                                 \
      void *P, const std::nothrow_t &) noexcept {                              \
    std::free(P);                                                              \
  }

#endif // TPDE_SUPPORT_ALLOCCOUNTER_H
