// Control for guarded_by_bad.cpp: the same shapes, correctly locked,
// must compile cleanly — including the pattern the wrappers exist for:
// the explicit while-loop CV wait.
#include "support/Sync.h"

struct Counter {
  tpde::Mutex M;
  tpde::CondVar CV;
  int X TPDE_GUARDED_BY(M) = 0;

  int readLocked() TPDE_EXCLUDES(M) {
    tpde::LockGuard L(M);
    return X;
  }
  void waitNonZero() TPDE_EXCLUDES(M) {
    tpde::LockGuard L(M);
    while (X == 0)
      CV.wait(M);
  }
};

int main() {
  Counter C;
  return C.readLocked();
}
