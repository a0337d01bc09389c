// Seeded lock-order inversion on two local mutexes. Must NOT compile when
// the toolchain enforces acquired_before — clang's -Wthread-safety-beta;
// run_compile_fail.py probes for support first. No service path holds two
// locks at once today; this TU keeps the order check itself proven for
// the day one does.
#include "support/Sync.h"

struct NestedPair {
  tpde::Mutex InnerMtx;
  tpde::Mutex OuterMtx TPDE_ACQUIRED_BEFORE(InnerMtx);

  void inverted() {
    tpde::LockGuard A(InnerMtx);
    tpde::LockGuard B(OuterMtx); // BAD: inner lock taken first
  }
};

int main() {
  NestedPair P;
  P.inverted();
  return 0;
}
