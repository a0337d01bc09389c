//===- service/CodeCache.cpp - Content-addressed code cache ---------------===//

#include "service/CodeCache.h"

#include <cassert>
#include <new>

namespace tpde::service {

CodeCache::Claim CodeCache::claim(const support::Fp128 &Fp,
                                  const ResultPtr &Res,
                                  std::shared_ptr<CachedCode> &HitCode) {
  LockGuard L(Mtx);
  auto [It, Inserted] = Map.try_emplace(Fp);
  Entry &E = It->second;
  E.LastUse = ++Clock;
  if (Inserted) {
    stats().Misses.fetch_add(1, std::memory_order_relaxed);
    return Claim::Owner;
  }
  if (E.St == State::Ready) {
    stats().Hits.fetch_add(1, std::memory_order_relaxed);
    HitCode = E.Code;
    return Claim::Hit;
  }
  // Counted only once attached: a push_back that runs out of memory
  // throws out of submit() with nothing counted.
  E.Waiters.push_back(Res);
  stats().Coalesced.fetch_add(1, std::memory_order_relaxed);
  return Claim::Waiter;
}

void CodeCache::publish(const support::Fp128 &Fp,
                        std::shared_ptr<CachedCode> Code,
                        std::vector<ResultPtr> &Waiters,
                        std::vector<std::shared_ptr<CachedCode>> &Evicted) {
  LockGuard L(Mtx);
  auto It = Map.find(Fp);
  assert(It != Map.end() && It->second.St == State::Building &&
         "only the owner publishes its own claim");
  Entry &E = It->second;
  E.St = State::Ready;
  E.Code = std::move(Code);
  E.LastUse = ++Clock;
  Waiters = std::move(E.Waiters);
  E.Waiters.clear();
  stats().CachedBytes.fetch_add(E.Code->bytes(), std::memory_order_relaxed);
  stats().CachedEntries.fetch_add(1, std::memory_order_relaxed);
  evictLocked(Fp, Evicted);
}

void CodeCache::fail(const support::Fp128 &Fp,
                     std::vector<ResultPtr> &Waiters) {
  LockGuard L(Mtx);
  auto It = Map.find(Fp);
  assert(It != Map.end() && It->second.St == State::Building &&
         "only the owner fails its own claim");
  Waiters = std::move(It->second.Waiters);
  Map.erase(It);
}

void CodeCache::evictLocked(const support::Fp128 &Keep,
                            std::vector<std::shared_ptr<CachedCode>> &Evicted) {
  while (stats().CachedBytes.load(std::memory_order_relaxed) > Budget) {
    auto Victim = Map.end();
    for (auto It = Map.begin(); It != Map.end(); ++It) {
      if (It->second.St != State::Ready || It->first == Keep)
        continue;
      if (Victim == Map.end() || It->second.LastUse < Victim->second.LastUse)
        Victim = It;
    }
    if (Victim == Map.end())
      return; // nothing evictable: a single entry may exceed the budget
    stats().CachedBytes.fetch_sub(Victim->second.Code->bytes(),
                                  std::memory_order_relaxed);
    stats().CachedEntries.fetch_sub(1, std::memory_order_relaxed);
    stats().Evictions.fetch_add(1, std::memory_order_relaxed);
    // The entry may hold the code's last reference, and releasing the
    // mapping takes the JIT page pool's lock and makes syscalls: hand it
    // to the caller, to drop outside this lock. Out of memory it is
    // released by the erase, under the lock.
    try {
      Evicted.push_back(std::move(Victim->second.Code));
    } catch (const std::bad_alloc &) {
    }
    Map.erase(Victim);
  }
}

ServiceStatsSnapshot CodeCache::snapshot() const {
  const ServiceStats &St = *StatsP;
  ServiceStatsSnapshot S;
  S.Hits = St.Hits.load(std::memory_order_relaxed);
  S.Misses = St.Misses.load(std::memory_order_relaxed);
  S.Coalesced = St.Coalesced.load(std::memory_order_relaxed);
  S.Evictions = St.Evictions.load(std::memory_order_relaxed);
  S.Failed = St.Failed.load(std::memory_order_relaxed);
  S.VerifyRejected = St.VerifyRejected.load(std::memory_order_relaxed);
  S.Overloaded = St.Overloaded.load(std::memory_order_relaxed);
  S.Shed = St.Shed.load(std::memory_order_relaxed);
  S.DeadlineTimedOut = St.DeadlineTimedOut.load(std::memory_order_relaxed);
  S.CachedBytes = St.CachedBytes.load(std::memory_order_relaxed);
  S.CachedEntries = St.CachedEntries.load(std::memory_order_relaxed);
  S.HitP50Ns = St.HitNs.quantileNs(0.50);
  S.HitP99Ns = St.HitNs.quantileNs(0.99);
  S.MissP50Ns = St.MissNs.quantileNs(0.50);
  S.MissP99Ns = St.MissNs.quantileNs(0.99);
  S.QueueWaitP50Ns = St.QueueWaitNs.quantileNs(0.50);
  S.QueueWaitP99Ns = St.QueueWaitNs.quantileNs(0.99);
  return S;
}

} // namespace tpde::service
