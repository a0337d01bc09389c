//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
///
/// \file
/// Registry-driven fault injection for robustness testing. Named sites in
/// the compile hot path call faultPoint(Site); a test arms a site to fire
/// on its Nth hit and the site's caller turns that into a structured error
/// (or a thrown std::bad_alloc for arena growth).
///
/// The whole facility compiles out unless TPDE_FAULT_INJECTION is defined:
/// faultPoint() is then a constexpr `false` and the arm/disarm API is a
/// no-op, so default builds carry zero cost (verified by the bench gate —
/// see scripts/check_bench_regression.py). Site hit counters are atomics
/// and the registry never allocates, keeping armed-but-idle sweeps
/// compatible with the zero-steady-state-allocation policy (docs/PERF.md).
///
/// Each site stands in for a failure the code can really meet, and its
/// caller handles that failure the way the real one would be handled (an
/// arena that cannot grow, an assembler error such as a duplicate strong
/// definition, a refused mapping). Add a site only where such a real
/// failure exists for it to stand in for: a site nothing else can trigger
/// tests only the path that handles it.
///
/// The sites are shared across drivers: the compile service reaches
/// ShardCompile (and the rest) through the parallel driver it compiles
/// each job with, so the robustness sweep in tests/robustness_test.cpp
/// and the service tests (tests/service_test.cpp) exercise the same
/// registry.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_FAULTINJECTOR_H
#define TPDE_SUPPORT_FAULTINJECTOR_H

#include "support/Common.h"

#ifdef TPDE_FAULT_INJECTION
#include <atomic>
#endif

namespace tpde::support {

/// Every registered injection site. Keep faultSiteName() and the sweep in
/// tests/robustness_test.cpp in sync when adding one.
enum class FaultSite : u8 {
  ArenaGrow,    ///< support::Arena::allocSlow — throws std::bad_alloc.
  ShardCompile, ///< core::ParallelModuleCompiler::compileShard — shard fails.
  SymbolCreate, ///< asmx::Assembler::createSymbol — assembler error.
  SectionMerge, ///< asmx::Assembler::mergeFrom — merge refused.
  JitMap,       ///< asmx::JITMapper::map — mapping fails.
};

inline constexpr u32 NumFaultSites = 5;

inline const char *faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::ArenaGrow: return "arena-grow";
  case FaultSite::ShardCompile: return "shard-compile";
  case FaultSite::SymbolCreate: return "symbol-create";
  case FaultSite::SectionMerge: return "section-merge";
  case FaultSite::JitMap: return "jit-map";
  }
  return "unknown";
}

#ifdef TPDE_FAULT_INJECTION

/// Process-wide site registry. Fixed-size, atomic, allocation-free; safe to
/// arm from a test thread while worker threads hit the sites. A site fires
/// exactly once per arm(): on the Nth hit after arming.
class FaultInjector {
  struct SiteState {
    std::atomic<u64> Hits;  ///< Hits since last arm/disarm.
    std::atomic<u64> Armed; ///< 0 = disarmed, N = fire on Nth hit.
  };
  /// Value-initialized (C++20 atomics zero): all sites start disarmed.
  static inline SiteState Sites[NumFaultSites] = {};

  static SiteState &state(FaultSite S) {
    return Sites[static_cast<u32>(S)];
  }

public:
  /// Arms \p S to fire on its \p Nth hit from now (1 = next hit).
  static void arm(FaultSite S, u64 Nth = 1) {
    SiteState &St = state(S);
    St.Hits.store(0, std::memory_order_relaxed);
    St.Armed.store(Nth, std::memory_order_release);
  }

  static void disarm(FaultSite S) {
    SiteState &St = state(S);
    St.Armed.store(0, std::memory_order_release);
    St.Hits.store(0, std::memory_order_relaxed);
  }

  static void disarmAll() {
    for (u32 I = 0; I < NumFaultSites; ++I) {
      Sites[I].Armed.store(0, std::memory_order_release);
      Sites[I].Hits.store(0, std::memory_order_relaxed);
    }
  }

  /// Number of hits a site has seen since it was last (dis)armed. Lets the
  /// sweep discover how many Nth values are worth testing per site.
  static u64 hits(FaultSite S) {
    return state(S).Hits.load(std::memory_order_relaxed);
  }

  /// Called by the instrumented sites. Returns true exactly when the armed
  /// Nth hit is reached.
  static bool shouldFire(FaultSite S) {
    SiteState &St = state(S);
    u64 Hit = St.Hits.fetch_add(1, std::memory_order_relaxed) + 1;
    return Hit == St.Armed.load(std::memory_order_acquire);
  }
};

inline bool faultPoint(FaultSite S) { return FaultInjector::shouldFire(S); }
inline constexpr bool faultInjectionEnabled() { return true; }

#else // !TPDE_FAULT_INJECTION

/// Compiled-out variant: sites fold to `if (false)` and the test API is a
/// no-op, so sweep tests still build (and skip themselves) either way.
inline constexpr bool faultPoint(FaultSite) { return false; }
inline constexpr bool faultInjectionEnabled() { return false; }

class FaultInjector {
public:
  static void arm(FaultSite, u64 = 1) {}
  static void disarm(FaultSite) {}
  static void disarmAll() {}
  static u64 hits(FaultSite) { return 0; }
};

#endif // TPDE_FAULT_INJECTION

} // namespace tpde::support

#endif // TPDE_SUPPORT_FAULTINJECTOR_H
