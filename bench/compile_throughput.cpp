//===- bench/compile_throughput.cpp - Hot-path allocation benchmark -------===//
///
/// Measures the compile hot path the paper's speed claims rest on:
/// functions compiled per second and heap allocations per compiled
/// function, for every back-end. Scenarios:
///
///  * fresh:    a new assembler per module compile (classic batch mode).
///  * reused:   one compiler instance recompiling the same module into
///              one assembler with reset-not-freed state; after warmup
///              this must be allocation-free (docs/PERF.md).
///  * parallel: the sharded parallel module compiler with a reused worker
///              pool, one row per --threads entry. Measured on wall-clock
///              time (the other scenarios use process-CPU time, which by
///              construction cannot show a parallel speedup). Each
///              parallel row also records the driver's per-phase
///              merge-cost breakdown (compile / reserve / place / stitch
///              mean ns per compile, stitch reloc count, bytes placed in
///              parallel, fragments stitched) so the O(relocs)-stitch
///              claim of docs/PERF.md "Two-pass emission" is visible in
///              the trajectory.
///
/// The TPDE scenarios run for BOTH targets: "TPDE" rows are x86-64,
/// "TPDE-A64" rows are AArch64 through the same driver template. The a64
/// output is validated once on the instruction-set simulator (compile
/// throughput itself is native either way — only execution needs the
/// simulator on this machine). "TPDE-UIR" rows compile generated
/// many-query database-IR modules (the §7 Umbra scenario) through the
/// same serial and parallel entry points — the third instantiation of
/// the driver template.
///
/// A second, large-module series ("fresh_large"/"reused_large"/
/// "parallel_large", --funcs-large, default 10000 functions) measures the
/// scale where any per-shard O(module) symbol work would dominate: these
/// rows guard the on-demand symbol materialization policy (docs/PERF.md
/// "Symbol materialization") — per-shard symbol cost is O(defined +
/// referenced), so large-module throughput must track the small-module
/// rows instead of collapsing quadratically.
///
/// Every scenario is measured --repeat times and reported with mean,
/// stddev, and min so the CI regression gate can derive a noise threshold
/// instead of comparing single samples (see scripts/
/// check_bench_regression.py). Emits BENCH_compile_throughput.json.
///
/// Usage: compile_throughput [--repeat=N] [--threads=1,2,4,8] [--funcs=N]
///                           [--funcs-large=N]
///
//===----------------------------------------------------------------------===//

#include "a64/Sim.h"
#include "bench/BenchCommon.h"
#include "support/AllocCounter.h"
#include "tpde_tir/ParallelCompiler.h"
#include "uir/ParallelCompiler.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using namespace tpde::bench;
using support::AllocWatch;

namespace {

/// Iterations per measurement so one sample takes a meaningful amount of
/// time without dragging out CI; throughput of the serial scenarios uses
/// CPU time (CpuTimer), which is stable on loaded machines.
constexpr unsigned Iters = 40;

struct Dispersion {
  double Mean = 0, Stddev = 0, Min = 0;
};

Dispersion disperse(const std::vector<double> &Samples) {
  Dispersion D;
  D.Min = Samples[0];
  for (double S : Samples) {
    D.Mean += S;
    if (S < D.Min)
      D.Min = S;
  }
  D.Mean /= static_cast<double>(Samples.size());
  double Var = 0;
  for (double S : Samples)
    Var += (S - D.Mean) * (S - D.Mean);
  if (Samples.size() > 1)
    Var /= static_cast<double>(Samples.size() - 1);
  D.Stddev = std::sqrt(Var);
  return D;
}

struct Result {
  std::string Backend;
  std::string Scenario;
  unsigned Threads = 0; ///< 0 = not a threaded scenario.
  const char *Clock = "cpu";
  Dispersion FuncsPerSec;
  double NewCallsPerFunc = 0;
  double NewBytesPerFunc = 0;
  /// Per-phase merge-cost breakdown (parallel rows only): mean
  /// nanoseconds per compile from the driver's EmitStats, plus the
  /// stitch volume — the O(relocs)-not-O(bytes) claim of docs/PERF.md
  /// "Two-pass emission" made visible in the committed baseline.
  bool HasEmit = false;
  double CompileNs = 0, ReserveNs = 0, PlaceNs = 0, StitchNs = 0;
  double StitchRelocs = 0, PlacedBytes = 0, Fragments = 0;
};

/// Runs \p Measure (returning funcs/sec for one sample) Repeat times and
/// folds the samples into a dispersion summary.
template <typename Fn>
Dispersion sample(unsigned Repeat, Fn Measure) {
  std::vector<double> Samples;
  Samples.reserve(Repeat);
  for (unsigned R = 0; R < Repeat; ++R)
    Samples.push_back(Measure());
  return disperse(Samples);
}

Result measureFresh(Backend B, tir::Module &M, u32 NumFuncs,
                    unsigned Repeat) {
  // Warmup (first compile pays one-time costs: template caches etc).
  {
    asmx::Assembler Asm;
    if (!compileWith(B, M, Asm)) {
      std::fprintf(stderr, "compilation failed (%s)\n", backendName(B));
      std::exit(1);
    }
  }
  Result R;
  R.Backend = backendName(B);
  R.Scenario = "fresh";
  AllocWatch W;
  u64 Funcs = 0;
  bool OK = true;
  R.FuncsPerSec = sample(Repeat, [&] {
    CpuTimer T;
    T.start();
    for (unsigned I = 0; I < Iters; ++I) {
      asmx::Assembler Asm;
      OK &= compileWith(B, M, Asm);
    }
    T.stop();
    Funcs += static_cast<u64>(NumFuncs) * Iters;
    return static_cast<double>(NumFuncs) * Iters / (T.ms() / 1000.0);
  });
  if (!OK) {
    std::fprintf(stderr, "compilation failed mid-measurement (%s)\n",
                 backendName(B));
    std::exit(1);
  }
  R.NewCallsPerFunc = static_cast<double>(W.newCalls()) / Funcs;
  R.NewBytesPerFunc = static_cast<double>(W.newBytes()) / Funcs;
  return R;
}

/// TPDE with a fresh assembler per compile, for any back-end's serial
/// entry point (x64: compileModuleX64, a64: compileModuleA64, uir:
/// compileTpdeUir — the module type follows the compile function).
/// \p Scenario names the JSON row ("fresh" / "fresh_large"); \p NIters
/// scales the per-sample loop so large-module rows stay affordable.
template <typename CompileFn, typename ModuleT>
Result measureFreshTpde(const char *Name, const char *Scenario,
                        CompileFn Compile, ModuleT &M, u32 NumFuncs,
                        unsigned Repeat, unsigned NIters) {
  {
    asmx::Assembler Asm;
    if (!Compile(M, Asm)) {
      std::fprintf(stderr, "compilation failed (%s %s)\n", Name, Scenario);
      std::exit(1);
    }
  }
  Result R;
  R.Backend = Name;
  R.Scenario = Scenario;
  AllocWatch W;
  u64 Funcs = 0;
  bool OK = true;
  R.FuncsPerSec = sample(Repeat, [&] {
    CpuTimer T;
    T.start();
    for (unsigned I = 0; I < NIters; ++I) {
      asmx::Assembler Asm;
      OK &= Compile(M, Asm);
    }
    T.stop();
    Funcs += static_cast<u64>(NumFuncs) * NIters;
    return static_cast<double>(NumFuncs) * NIters / (T.ms() / 1000.0);
  });
  if (!OK) {
    std::fprintf(stderr, "compilation failed mid-measurement (%s)\n", Name);
    std::exit(1);
  }
  R.NewCallsPerFunc = static_cast<double>(W.newCalls()) / Funcs;
  R.NewBytesPerFunc = static_cast<double>(W.newBytes()) / Funcs;
  return R;
}

/// TPDE with full state reuse: one adapter/compiler/assembler, recompiled
/// through compile(), which resets the assembler itself. Steady state
/// must not touch the heap — for both targets and any module size (the
/// "reused_large" row guards the 10k-function steady state).
template <typename CompilerT>
Result measureReused(const char *Name, const char *Scenario, tir::Module &M,
                     u32 NumFuncs, unsigned Repeat, unsigned NIters) {
  tpde_tir::TirAdapter Adapter(M);
  asmx::Assembler Asm;
  CompilerT Compiler(Adapter, Asm);
  // Warmup grows all scratch buffers to their high-water mark.
  for (unsigned I = 0; I < 4; ++I) {
    if (!Compiler.compile()) {
      std::fprintf(stderr, "compilation failed (%s %s)\n", Name, Scenario);
      std::exit(1);
    }
  }
  Result R;
  R.Backend = Name;
  R.Scenario = Scenario;
  AllocWatch W;
  u64 Funcs = 0;
  bool OK = true; // accumulated, checked after timing: a silent failure
                  // would otherwise feed bogus numbers to the CI gate
  R.FuncsPerSec = sample(Repeat, [&] {
    CpuTimer T;
    T.start();
    for (unsigned I = 0; I < NIters; ++I)
      OK &= Compiler.compile();
    T.stop();
    Funcs += static_cast<u64>(NumFuncs) * NIters;
    return static_cast<double>(NumFuncs) * NIters / (T.ms() / 1000.0);
  });
  if (!OK) {
    std::fprintf(stderr, "compilation failed mid-measurement (%s %s)\n",
                 Name, Scenario);
    std::exit(1);
  }
  R.NewCallsPerFunc = static_cast<double>(W.newCalls()) / Funcs;
  R.NewBytesPerFunc = static_cast<double>(W.newBytes()) / Funcs;
  return R;
}

/// Sharded compilation with a persistent worker pool (any back-end's
/// instantiation of the core driver template; the module type follows
/// the pipeline). Wall-clock time: the whole point is spending more
/// CPUs to finish sooner.
template <typename PipelineT, typename ModuleT>
Result measureParallel(const char *Name, const char *Scenario, ModuleT &M,
                       u32 NumFuncs, unsigned Threads, unsigned Repeat,
                       unsigned NIters) {
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = Threads;
  PipelineT PC(M, Opts);
  asmx::Assembler Out;
  for (unsigned I = 0; I < 4; ++I) {
    if (!PC.compile(Out)) {
      std::fprintf(stderr, "compilation failed (%s %s)\n", Name, Scenario);
      std::exit(1);
    }
  }
  Result R;
  R.Backend = Name;
  R.Scenario = Scenario;
  R.Threads = Threads;
  R.Clock = "wall";
  AllocWatch W;
  u64 Funcs = 0;
  u64 NumCompiles = 0;
  core::EmitStats Acc;
  bool OK = true;
  R.FuncsPerSec = sample(Repeat, [&] {
    Timer T;
    T.start();
    for (unsigned I = 0; I < NIters; ++I) {
      OK &= PC.compile(Out);
      const core::EmitStats &ES = PC.emitStats();
      Acc.CompileNs += ES.CompileNs;
      Acc.ReserveNs += ES.ReserveNs;
      Acc.PlaceNs += ES.PlaceNs;
      Acc.StitchNs += ES.StitchNs;
      Acc.StitchRelocs += ES.StitchRelocs;
      Acc.PlacedBytes += ES.PlacedBytes;
      Acc.Fragments += ES.Fragments;
    }
    T.stop();
    Funcs += static_cast<u64>(NumFuncs) * NIters;
    NumCompiles += NIters;
    return static_cast<double>(NumFuncs) * NIters / (T.ms() / 1000.0);
  });
  if (!OK) {
    std::fprintf(stderr, "compilation failed mid-measurement (%s %s)\n",
                 Name, Scenario);
    std::exit(1);
  }
  R.NewCallsPerFunc = static_cast<double>(W.newCalls()) / Funcs;
  R.NewBytesPerFunc = static_cast<double>(W.newBytes()) / Funcs;
  R.HasEmit = true;
  double N = static_cast<double>(NumCompiles);
  R.CompileNs = static_cast<double>(Acc.CompileNs) / N;
  R.ReserveNs = static_cast<double>(Acc.ReserveNs) / N;
  R.PlaceNs = static_cast<double>(Acc.PlaceNs) / N;
  R.StitchNs = static_cast<double>(Acc.StitchNs) / N;
  R.StitchRelocs = static_cast<double>(Acc.StitchRelocs) / N;
  R.PlacedBytes = static_cast<double>(Acc.PlacedBytes) / N;
  R.Fragments = static_cast<double>(Acc.Fragments) / N;
  return R;
}

/// One-time sanity execution of the a64 output on the instruction-set
/// simulator (a small module: the simulator is ~100x slower than
/// native). Aborts if the compiled code traps — the throughput numbers
/// would be meaningless for broken output.
void validateA64OnSimulator() {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 3;
  P.NumFuncs = 6;
  P.RegionBudget = 3;
  P.MaxLoopTrip = 2;
  P.SSAForm = true;
  workloads::genModule(M, P);
  asmx::Assembler Asm;
  if (!tpde_tir::compileModuleA64Parallel(M, Asm, 2)) {
    std::fprintf(stderr, "a64 validation compile failed\n");
    std::exit(1);
  }
  a64::Sim S;
  a64::SimModule Mod;
  if (!Mod.map(Asm, S)) {
    std::fprintf(stderr, "a64 validation mapping failed\n");
    std::exit(1);
  }
  S.call(Mod.address("main_entry"), {7, 9});
  if (S.Trapped) {
    std::fprintf(stderr, "a64 validation execution trapped\n");
    std::exit(1);
  }
  std::printf("a64 simulator validation: ok (%llu insts)\n",
              static_cast<unsigned long long>(S.InstCount));
}

} // namespace

namespace {

/// Parses a positive integer in [1, Max]; exits with a usage error on
/// anything else. threads=0 in particular must be rejected: 0 is this
/// benchmark's JSON sentinel for "not a threaded scenario" and would
/// collide with the serial rows in the regression gate.
unsigned parsePositive(const char *What, const char *S, const char **End,
                       unsigned Max) {
  char *P = nullptr;
  unsigned long V = std::strtoul(S, &P, 10);
  if (P == S || V < 1 || V > Max) {
    std::fprintf(stderr, "invalid %s value '%s' (expect 1..%u)\n", What, S,
                 Max);
    std::exit(2);
  }
  *End = P;
  return static_cast<unsigned>(V);
}

} // namespace

int main(int argc, char **argv) {
  unsigned Repeat = 5;
  u32 NumFuncsOpt = 48;
  u32 LargeFuncsOpt = 10000;
  std::vector<unsigned> ThreadCounts = {1, 2, 4, 8};
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *End = nullptr;
    if (std::strncmp(Arg, "--repeat=", 9) == 0) {
      Repeat = parsePositive("--repeat", Arg + 9, &End, 1000);
      if (*End) {
        std::fprintf(stderr, "invalid --repeat value '%s'\n", Arg + 9);
        return 2;
      }
    } else if (std::strncmp(Arg, "--funcs=", 8) == 0) {
      NumFuncsOpt = parsePositive("--funcs", Arg + 8, &End, 100000);
      if (*End) {
        std::fprintf(stderr, "invalid --funcs value '%s'\n", Arg + 8);
        return 2;
      }
    } else if (std::strncmp(Arg, "--funcs-large=", 14) == 0) {
      LargeFuncsOpt = parsePositive("--funcs-large", Arg + 14, &End, 1000000);
      if (*End) {
        std::fprintf(stderr, "invalid --funcs-large value '%s'\n", Arg + 14);
        return 2;
      }
    } else if (std::strncmp(Arg, "--threads=", 10) == 0) {
      ThreadCounts.clear();
      for (const char *P = Arg + 10; *P;) {
        ThreadCounts.push_back(parsePositive("--threads", P, &P, 256));
        if (*P == ',')
          ++P;
        else if (*P) {
          std::fprintf(stderr, "invalid --threads list '%s'\n", Arg + 10);
          return 2;
        }
      }
      if (ThreadCounts.empty()) {
        std::fprintf(stderr, "--threads needs at least one entry\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--repeat=N] [--threads=1,2,4] [--funcs=N] "
                   "[--funcs-large=N]\n",
                   argv[0]);
      return 2;
    }
  }

  // A mid-size module: enough functions that per-function costs dominate,
  // both IR flavors mixed in (O0-like stack traffic + SSA loops).
  tir::Module M;
  workloads::Profile P;
  P.Seed = 7;
  P.NumFuncs = NumFuncsOpt;
  P.RegionBudget = 10;
  P.InstsPerBlock = 8;
  P.SSAForm = true;
  workloads::genModule(M, P);
  u32 NumFuncs = static_cast<u32>(M.Funcs.size());
  unsigned HwThreads = std::thread::hardware_concurrency();

  // The parallel series runs on a 4x larger module: with the default
  // FuncsPerShard that is ~48 shards instead of 12, so the worker pool
  // has scaling headroom and the per-compile job handshake amortizes —
  // keeping the CI speedup assertion meaningful on modest multicore
  // runners. Its rows are self-consistent (funcs/sec over its own
  // function count); the serial rows keep the smaller module.
  tir::Module ParM;
  workloads::Profile ParP = P;
  ParP.NumFuncs = NumFuncsOpt * 4;
  workloads::genModule(ParM, ParP);
  u32 ParFuncs = static_cast<u32>(ParM.Funcs.size());

  // The large-module scaling scenario (>= 10k functions by default): the
  // module size where any per-shard O(module) symbol work dominates the
  // compile. Small functions with call density keep generation and each
  // sample affordable while every shard still references cross-shard
  // symbols; throughput here is the paper-scale claim the "_large" gate
  // rows guard — symbol cost must stay O(defined + referenced) per
  // shard, not O(module).
  tir::Module LargeM;
  workloads::Profile LargeP;
  LargeP.Seed = 29;
  LargeP.NumFuncs = LargeFuncsOpt;
  LargeP.RegionBudget = 3;
  LargeP.InstsPerBlock = 5;
  LargeP.CallPct = 12;
  LargeP.SSAForm = true;
  workloads::genModule(LargeM, LargeP);
  u32 LargeFuncs = static_cast<u32>(LargeM.Funcs.size());
  // One sample ~= one compile of the large module (vs Iters compiles of
  // the mid-size one): scale the loop so a sample stays in the same
  // time envelope regardless of --funcs-large.
  unsigned LargeIters = Iters * NumFuncs > LargeFuncs
                            ? (Iters * NumFuncs + LargeFuncs - 1) / LargeFuncs
                            : 1;

  // UIR query modules (the §7 Umbra scenario): many small generated
  // query functions, FP predicates mixed in (FP-pool traffic). The small
  // module matches the parallel TIR module's function count; the large
  // one reuses --funcs-large so both back-ends' *_large rows measure the
  // same scale.
  workloads::QueryProfile UirP;
  UirP.Seed = 17;
  UirP.NumQueries = NumFuncsOpt * 4;
  uir::UModule UirM;
  workloads::genQueryModule(UirM, UirP);
  u32 UirFuncs = static_cast<u32>(UirM.Funcs.size());

  workloads::QueryProfile UirLargeP;
  UirLargeP.Seed = 43;
  UirLargeP.NumQueries = LargeFuncsOpt;
  uir::UModule UirLargeM;
  workloads::genQueryModule(UirLargeM, UirLargeP);
  u32 UirLargeFuncs = static_cast<u32>(UirLargeM.Funcs.size());
  unsigned UirLargeIters =
      Iters * UirFuncs > UirLargeFuncs
          ? (Iters * UirFuncs + UirLargeFuncs - 1) / UirLargeFuncs
          : 1;

  validateA64OnSimulator();

  std::vector<Result> Results;
  for (Backend B : {Backend::Tpde, Backend::CopyPatch, Backend::BaselineO0,
                    Backend::BaselineO1})
    Results.push_back(measureFresh(B, M, NumFuncs, Repeat));
  auto FreshX64 = [](tir::Module &Mod, asmx::Assembler &Asm) {
    return tpde_tir::compileModuleX64(Mod, Asm);
  };
  auto FreshA64 = [](tir::Module &Mod, asmx::Assembler &Asm) {
    return tpde_tir::compileModuleA64(Mod, Asm);
  };
  Results.push_back(
      measureFreshTpde("TPDE-A64", "fresh", FreshA64, M, NumFuncs, Repeat,
                       Iters));
  Results.push_back(measureReused<tpde_tir::TirCompilerX64>(
      "TPDE", "reused", M, NumFuncs, Repeat, Iters));
  Results.push_back(measureReused<tpde_tir::TirCompilerA64>(
      "TPDE-A64", "reused", M, NumFuncs, Repeat, Iters));
  for (unsigned T : ThreadCounts)
    Results.push_back(measureParallel<tpde_tir::ParallelModuleCompiler>(
        "TPDE", "parallel", ParM, ParFuncs, T, Repeat, Iters));
  for (unsigned T : ThreadCounts)
    Results.push_back(measureParallel<tpde_tir::ParallelModuleCompilerA64>(
        "TPDE-A64", "parallel", ParM, ParFuncs, T, Repeat, Iters));

  // Database-IR rows: serial (fresh assembler per compile) + parallel,
  // on the generated many-query module.
  auto FreshUir = [](uir::UModule &Mod, asmx::Assembler &Asm) {
    return uir::compileTpdeUir(Mod, Asm);
  };
  Results.push_back(measureFreshTpde("TPDE-UIR", "fresh", FreshUir, UirM,
                                     UirFuncs, Repeat, Iters));
  for (unsigned T : ThreadCounts)
    Results.push_back(measureParallel<uir::ParallelModuleCompilerUir>(
        "TPDE-UIR", "parallel", UirM, UirFuncs, T, Repeat, Iters));

  // Large-module series: fresh/reused/parallel for both targets on the
  // >= 10k-function module.
  Results.push_back(measureFreshTpde("TPDE", "fresh_large", FreshX64, LargeM,
                                     LargeFuncs, Repeat, LargeIters));
  Results.push_back(measureFreshTpde("TPDE-A64", "fresh_large", FreshA64,
                                     LargeM, LargeFuncs, Repeat, LargeIters));
  Results.push_back(measureReused<tpde_tir::TirCompilerX64>(
      "TPDE", "reused_large", LargeM, LargeFuncs, Repeat, LargeIters));
  Results.push_back(measureReused<tpde_tir::TirCompilerA64>(
      "TPDE-A64", "reused_large", LargeM, LargeFuncs, Repeat, LargeIters));
  for (unsigned T : ThreadCounts)
    Results.push_back(measureParallel<tpde_tir::ParallelModuleCompiler>(
        "TPDE", "parallel_large", LargeM, LargeFuncs, T, Repeat, LargeIters));
  for (unsigned T : ThreadCounts)
    Results.push_back(measureParallel<tpde_tir::ParallelModuleCompilerA64>(
        "TPDE-A64", "parallel_large", LargeM, LargeFuncs, T, Repeat,
        LargeIters));
  Results.push_back(measureFreshTpde("TPDE-UIR", "fresh_large", FreshUir,
                                     UirLargeM, UirLargeFuncs, Repeat,
                                     UirLargeIters));
  for (unsigned T : ThreadCounts)
    Results.push_back(measureParallel<uir::ParallelModuleCompilerUir>(
        "TPDE-UIR", "parallel_large", UirLargeM, UirLargeFuncs, T, Repeat,
        UirLargeIters));

  std::printf("%-12s %-15s %3s %5s %12s %12s %12s %10s %11s\n", "backend",
              "mode", "thr", "clock", "f/s mean", "f/s stddev", "f/s min",
              "new/func", "bytes/func");
  for (const Result &R : Results)
    std::printf("%-12s %-15s %3u %5s %12.0f %12.0f %12.0f %10.2f %11.1f\n",
                R.Backend.c_str(), R.Scenario.c_str(), R.Threads, R.Clock,
                R.FuncsPerSec.Mean, R.FuncsPerSec.Stddev, R.FuncsPerSec.Min,
                R.NewCallsPerFunc, R.NewBytesPerFunc);

  // Parallel scaling summary per backend (the CI gate asserts this when
  // the machine has enough hardware threads; see
  // scripts/check_bench_regression.py).
  for (const char *BE : {"TPDE", "TPDE-A64", "TPDE-UIR"}) {
    double Par1 = 0;
    for (const Result &R : Results)
      if (R.Backend == BE && R.Scenario == "parallel" && R.Threads == 1)
        Par1 = R.FuncsPerSec.Mean;
    if (Par1 > 0)
      for (const Result &R : Results)
        if (R.Backend == BE && R.Scenario == "parallel" && R.Threads > 1)
          std::printf("%s parallel speedup @%u threads: %.2fx "
                      "(hw threads: %u)\n",
                      BE, R.Threads, R.FuncsPerSec.Mean / Par1, HwThreads);
  }

  // Merge-cost breakdown per compile: with in-place emission the serial
  // part of producing the output is reserve + stitch, and the stitch
  // scales with the relocation count, never the section bytes (the bytes
  // move in the parallel place phase). One fragment per run: a single
  // worker stitches one.
  std::printf("\n%-12s %-15s %3s %10s %10s %10s %10s %12s %12s %9s\n",
              "backend", "mode", "thr", "compile_us", "reserve_us",
              "place_us", "stitch_us", "stitch_reloc", "placed_bytes",
              "fragments");
  for (const Result &R : Results)
    if (R.HasEmit)
      std::printf("%-12s %-15s %3u %10.1f %10.1f %10.1f %10.1f %12.0f "
                  "%12.0f %9.1f\n",
                  R.Backend.c_str(), R.Scenario.c_str(), R.Threads,
                  R.CompileNs / 1e3, R.ReserveNs / 1e3, R.PlaceNs / 1e3,
                  R.StitchNs / 1e3, R.StitchRelocs, R.PlacedBytes,
                  R.Fragments);

  FILE *F = std::fopen("BENCH_compile_throughput.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_compile_throughput.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"benchmark\": \"compile_throughput\",\n"
               "  \"module_functions\": %u,\n"
               "  \"parallel_module_functions\": %u,\n"
               "  \"large_module_functions\": %u,\n"
               "  \"uir_module_functions\": %u,\n"
               "  \"uir_large_module_functions\": %u,\n"
               "  \"iterations\": %u,\n"
               "  \"repeat\": %u,\n  \"hardware_concurrency\": %u,\n"
               "  \"results\": [\n",
               NumFuncs, ParFuncs, LargeFuncs, UirFuncs, UirLargeFuncs, Iters,
               Repeat, HwThreads);
  for (size_t I = 0; I < Results.size(); ++I) {
    const Result &R = Results[I];
    std::fprintf(F,
                 "    {\"backend\": \"%s\", \"scenario\": \"%s\", "
                 "\"threads\": %u, \"clock\": \"%s\", "
                 "\"funcs_per_sec\": %.1f, \"funcs_per_sec_stddev\": %.1f, "
                 "\"funcs_per_sec_min\": %.1f, "
                 "\"new_calls_per_func\": %.3f, "
                 "\"new_bytes_per_func\": %.1f",
                 R.Backend.c_str(), R.Scenario.c_str(), R.Threads, R.Clock,
                 R.FuncsPerSec.Mean, R.FuncsPerSec.Stddev, R.FuncsPerSec.Min,
                 R.NewCallsPerFunc, R.NewBytesPerFunc);
    if (R.HasEmit)
      std::fprintf(F,
                   ", \"compile_ns\": %.0f, "
                   "\"reserve_ns\": %.0f, \"place_ns\": %.0f, "
                   "\"stitch_ns\": %.0f, \"stitch_relocs\": %.0f, "
                   "\"placed_bytes\": %.0f",
                   R.CompileNs, R.ReserveNs, R.PlaceNs, R.StitchNs,
                   R.StitchRelocs, R.PlacedBytes);
    std::fprintf(F, "}%s\n", I + 1 < Results.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return 0;
}
