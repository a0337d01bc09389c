//===- service/CodeCache.cpp - Content-addressed code cache ---------------===//

#include "service/CodeCache.h"

namespace tpde::service {

CodeCache::Claim CodeCache::claim(const support::Fp128 &Fp,
                                  const ResultPtr &Res,
                                  std::shared_ptr<CachedCode> &HitCode,
                                  u64 &OwnerToken) {
  LockGuard L(Mtx);
  auto [It, Inserted] = Map.try_emplace(Fp);
  Entry &E = It->second;
  E.LastUse = ++Clock;
  if (Inserted) {
    stats().Misses.fetch_add(1, std::memory_order_relaxed);
    E.Token = OwnerToken = ++NextToken;
    E.OwnerRes = Res;
    return Claim::Owner;
  }
  if (E.St == State::Ready) {
    stats().Hits.fetch_add(1, std::memory_order_relaxed);
    HitCode = E.Code;
    return Claim::Hit;
  }
  stats().Coalesced.fetch_add(1, std::memory_order_relaxed);
  E.Waiters.push_back(Res);
  return Claim::Waiter;
}

bool CodeCache::publish(const support::Fp128 &Fp, u64 OwnerToken,
                        std::shared_ptr<CachedCode> Code,
                        std::vector<ResultPtr> &Waiters) {
  LockGuard L(Mtx);
  auto It = Map.find(Fp);
  if (It == Map.end() || It->second.St != State::Building ||
      It->second.Token != OwnerToken)
    return false; // claim was failed over; a newer owner may hold it now
  Entry &E = It->second;
  E.St = State::Ready;
  E.Code = std::move(Code);
  E.LastUse = ++Clock;
  E.OwnerRes = nullptr;
  Waiters = std::move(E.Waiters);
  E.Waiters.clear();
  stats().CachedBytes.fetch_add(E.Code->bytes(), std::memory_order_relaxed);
  stats().CachedEntries.fetch_add(1, std::memory_order_relaxed);
  evictLocked(Fp);
  return true;
}

bool CodeCache::fail(const support::Fp128 &Fp, u64 OwnerToken,
                     std::vector<ResultPtr> &Waiters, ResultPtr *OwnerRes) {
  LockGuard L(Mtx);
  auto It = Map.find(Fp);
  if (It == Map.end() || It->second.St != State::Building ||
      It->second.Token != OwnerToken)
    return false;
  Waiters = std::move(It->second.Waiters);
  if (OwnerRes)
    *OwnerRes = std::move(It->second.OwnerRes);
  Map.erase(It);
  return true;
}

void CodeCache::evictLocked(const support::Fp128 &Keep) {
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
  S.StuckFailovers = St.StuckFailovers.load(std::memory_order_relaxed);
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
