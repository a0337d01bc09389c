//===- support/Sync.h - Annotated synchronization primitives ----*- C++ -*-===//
///
/// \file
/// Project-wide synchronization wrappers carrying Clang thread-safety
/// annotations, plus the annotation macro vocabulary itself. Every mutex,
/// lock guard, condition variable, and thread in the tree must come from
/// this header — `scripts/tpde_lint.py` rejects raw `std::mutex` /
/// `std::lock_guard` / `std::thread` anywhere else, because the static
/// analysis cannot see locks it has no annotations for.
///
/// The wrappers are zero-overhead pass-throughs to the `std::` primitives:
/// every method is an inline one-liner, and the `TPDE_*` annotation macros
/// compile to nothing on non-Clang compilers. Clang builds add
/// `-Wthread-safety -Werror` (see CMakeLists.txt), turning the
/// `TPDE_GUARDED_BY` / `TPDE_REQUIRES` contracts below into compile errors
/// when violated. docs/STATIC_ANALYSIS.md documents the conventions.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_SYNC_H
#define TPDE_SUPPORT_SYNC_H

#include "support/Common.h"

// tpde-lint: allow-file(raw-sync) -- this is the one wrapping site.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

//===----------------------------------------------------------------------===//
// Thread-safety annotation macros (Clang attribute spellings).
//
// These follow the vocabulary of https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// and expand to nothing on compilers without the attributes (GCC builds the
// exact same code without the analysis).
//===----------------------------------------------------------------------===//

#if defined(__clang__) && !defined(SWIG)
#define TPDE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TPDE_THREAD_ANNOTATION(x)
#endif

#define TPDE_CAPABILITY(x) TPDE_THREAD_ANNOTATION(capability(x))
#define TPDE_SCOPED_CAPABILITY TPDE_THREAD_ANNOTATION(scoped_lockable)
#define TPDE_GUARDED_BY(x) TPDE_THREAD_ANNOTATION(guarded_by(x))
#define TPDE_PT_GUARDED_BY(x) TPDE_THREAD_ANNOTATION(pt_guarded_by(x))
#define TPDE_ACQUIRED_BEFORE(...)                                              \
  TPDE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define TPDE_ACQUIRED_AFTER(...)                                               \
  TPDE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define TPDE_REQUIRES(...)                                                     \
  TPDE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TPDE_ACQUIRE(...)                                                      \
  TPDE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TPDE_RELEASE(...)                                                      \
  TPDE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TPDE_TRY_ACQUIRE(...)                                                  \
  TPDE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TPDE_EXCLUDES(...) TPDE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define TPDE_ASSERT_CAPABILITY(x)                                              \
  TPDE_THREAD_ANNOTATION(assert_capability(x))
#define TPDE_RETURN_CAPABILITY(x) TPDE_THREAD_ANNOTATION(lock_returned(x))
#define TPDE_NO_THREAD_SAFETY_ANALYSIS                                         \
  TPDE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tpde {

//===----------------------------------------------------------------------===//
// Mutex
//===----------------------------------------------------------------------===//

/// Annotated wrapper around std::mutex. The analysis treats the object
/// itself as the capability; members it protects are declared with
/// TPDE_GUARDED_BY(TheMutex).
class TPDE_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;

  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() TPDE_ACQUIRE() { M.lock(); }
  void unlock() TPDE_RELEASE() { M.unlock(); }
  bool tryLock() TPDE_TRY_ACQUIRE(true) { return M.try_lock(); }

  /// The underlying handle, for CondVar's adopt/release dance only.
  std::mutex &native() { return M; }

private:
  std::mutex M;
};

//===----------------------------------------------------------------------===//
// LockGuard
//===----------------------------------------------------------------------===//

/// Scoped lock-and-unlock, the default way to hold a Mutex.
class TPDE_SCOPED_CAPABILITY LockGuard {
public:
  explicit LockGuard(Mutex &M) TPDE_ACQUIRE(M) : Mtx(M) { Mtx.lock(); }
  ~LockGuard() TPDE_RELEASE() { Mtx.unlock(); }

  LockGuard(const LockGuard &) = delete;
  LockGuard &operator=(const LockGuard &) = delete;

private:
  Mutex &Mtx;
};

//===----------------------------------------------------------------------===//
// CondVar
//===----------------------------------------------------------------------===//

/// Annotated wrapper around std::condition_variable. wait()/waitFor() take
/// the Mutex directly (TPDE_REQUIRES proves the caller holds it) instead
/// of a std::unique_lock. Deliberately no predicate overloads: the
/// analysis treats lambdas as separate unannotated functions, so
/// predicate waits hide the guarded reads — write the standard
/// `while (!cond) CV.wait(Mtx);` loop instead, which the analysis checks.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  /// Atomically releases M and blocks; M is re-held on return. Subject to
  /// spurious wakeups like the std primitive — always wait in a loop.
  void wait(Mutex &M) TPDE_REQUIRES(M) {
    // Borrow the already-held native mutex for the duration of the wait.
    // adopt_lock hands ownership to L without locking; release() hands it
    // back without unlocking, so the caller still holds M on return.
    std::unique_lock<std::mutex> L(M.native(), std::adopt_lock);
    CV.wait(L);
    L.release();
  }

  /// Timed wait; returns false on timeout. Same re-held guarantee.
  bool waitFor(Mutex &M, u64 Ns) TPDE_REQUIRES(M) {
    std::unique_lock<std::mutex> L(M.native(), std::adopt_lock);
    bool NotTimedOut =
        CV.wait_for(L, std::chrono::nanoseconds(Ns)) == std::cv_status::no_timeout;
    L.release();
    return NotTimedOut;
  }

  void notify_one() { CV.notify_one(); }
  void notify_all() { CV.notify_all(); }

private:
  std::condition_variable CV;
};

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

/// Thread type used throughout the project. A plain alias today; the
/// indirection exists so the linter can ban raw std::thread and so a
/// future change (naming, affinity, instrumented spawn) lands in one
/// place.
using Thread = std::thread;

inline unsigned hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

} // namespace tpde

#endif // TPDE_SUPPORT_SYNC_H
