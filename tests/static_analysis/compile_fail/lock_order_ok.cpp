// Control for lock_order_bad.cpp: the declared outer-before-inner order
// must compile cleanly even under -Wthread-safety-beta.
#include "support/Sync.h"

struct NestedPair {
  tpde::Mutex InnerMtx;
  tpde::Mutex OuterMtx TPDE_ACQUIRED_BEFORE(InnerMtx);

  void ordered() {
    tpde::LockGuard A(OuterMtx);
    tpde::LockGuard B(InnerMtx);
  }
};

int main() {
  NestedPair P;
  P.ordered();
  return 0;
}
