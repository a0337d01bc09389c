//===- bench/compile_throughput.cpp - Compile-throughput benchmark --------===//
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
///              parallel row also records the driver's EmitStats means per
///              compile (compile / reserve / place / stitch ns, stitch
///              relocations, bytes placed in parallel, fragments
///              stitched), so the O(relocs)-stitch claim of docs/PERF.md
///              "Two-pass emission" is visible in the trajectory.
///
/// "TPDE" rows are x86-64 and "TPDE-A64" rows AArch64 through the same
/// driver template; the a64 output is validated once on the
/// instruction-set simulator. "TPDE-UIR" rows compile generated
/// many-query database-IR modules (the §7 Umbra scenario), the third
/// instantiation of the driver template. The "_large" scenarios compile
/// 10,000-function modules, the scale where any per-shard O(module)
/// symbol work would dominate (docs/PERF.md "Symbol materialization").
///
/// The host's speed drifts, so rows are measured in interleaved rounds:
/// each round takes one sample of every row, starting one row later than
/// the last round. The regression gate (scripts/check_bench_regression.py)
/// compares ratios taken within a round: each single-thread row over
/// Baseline-O0 fresh, each multi-thread row over its own @1 row. On a
/// shared host the speed can also switch by 1.5x or more within a round,
/// so right before each of its samples a row takes a sample of that
/// reference row, and the pair gives the round's ratio. Each row reports
/// its per-round samples with their median and MAD, plus its reference's
/// samples. Emits BENCH_compile_throughput.json.
///
/// Usage: compile_throughput [--repeat=ROUNDS] [--threads=1,2,4,8]
///
//===----------------------------------------------------------------------===//

#include "a64/Sim.h"
#include "bench/BenchCommon.h"
#include "support/AllocCounter.h"
#include "support/Sync.h"
#include "tpde_tir/ParallelCompiler.h"
#include "uir/ParallelCompiler.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using namespace tpde::bench;
using support::AllocWatch;

namespace {

/// Functions in the mid-size TIR module; the parallel and UIR rows use a
/// module 4x that size, so the worker pool has ~48 shards to spread.
constexpr u32 MidFuncs = 48;
/// Functions in the large modules.
constexpr u32 LargeFuncs = 10000;
/// Untimed compiles per row before the rounds: they grow every scratch
/// buffer to its high-water mark, and their time sets the row's compiles
/// per sample.
constexpr unsigned WarmupCompiles = 4;
/// Wall time one sample of a single-thread row aims at: long enough to
/// average out scheduler ticks, short enough that a sample and its
/// reference's sample usually see the host at one speed.
constexpr u64 SampleNs = 40'000'000;
/// A multi-thread row's samples span five times as long. On a shared host
/// each CPU runs at its own speed, and every compile wakes the workers on
/// whichever CPUs are idle, so a sample needs many compiles to average
/// over them.
constexpr u64 MultiSampleNs = 5 * SampleNs;

/// One row of the table: what it compiles and what the rounds measured.
struct Row {
  const char *Backend;
  const char *Scenario;
  unsigned Threads; ///< 0 = a serial row, timed on process-CPU time.
  u32 Funcs;        ///< Functions per compile.
  std::function<bool()> Compile;
  /// The driver's stats of the last compile; parallel rows only.
  const core::EmitStats *Emit = nullptr;
  /// The row the gate divides this one by: Baseline-O0 fresh for a
  /// single-thread row, the same series' @1 row for a multi-thread row.
  Row *Ref = nullptr;

  unsigned Iters = 1;             ///< Compiles per sample, from warmup.
  std::vector<double> Samples;    ///< funcs/s, one per round.
  std::vector<double> RefSamples; ///< Ref's, taken right before each.
  u64 Compiles = 0, NewCalls = 0, NewBytes = 0;
  core::EmitStats EmitSum;
};

const char *clockName(const Row &R) { return R.Threads ? "wall" : "cpu"; }

/// "TPDE parallel@4", or "TPDE fresh" for a serial row.
std::string rowName(const Row &R) {
  std::string N = std::string(R.Backend) + " " + R.Scenario;
  return R.Threads ? N + "@" + std::to_string(R.Threads) : N;
}

void compileOrExit(Row &R) {
  if (!R.Compile()) {
    std::fprintf(stderr, "compilation failed (%s)\n", rowName(R).c_str());
    std::exit(1);
  }
}

/// Takes one sample of \p R in funcs/s: one untimed compile, which wakes
/// the row's worker threads and refills its caches after the rows before
/// it, then Iters compiles on the row's clock.
double sample(Row &R) {
  compileOrExit(R);
  AllocWatch W;
  u64 (*Clock)() = R.Threads ? nowNs : cpuNowNs;
  u64 Begin = Clock();
  for (unsigned I = 0; I < R.Iters; ++I) {
    compileOrExit(R);
    if (R.Emit) {
      R.EmitSum.CompileNs += R.Emit->CompileNs;
      R.EmitSum.ReserveNs += R.Emit->ReserveNs;
      R.EmitSum.PlaceNs += R.Emit->PlaceNs;
      R.EmitSum.StitchNs += R.Emit->StitchNs;
      R.EmitSum.StitchRelocs += R.Emit->StitchRelocs;
      R.EmitSum.PlacedBytes += R.Emit->PlacedBytes;
      R.EmitSum.Fragments += R.Emit->Fragments;
    }
  }
  u64 Ns = Clock() - Begin;
  R.Compiles += R.Iters;
  R.NewCalls += W.newCalls();
  R.NewBytes += W.newBytes();
  return static_cast<double>(R.Funcs) * R.Iters * 1e9 /
         static_cast<double>(Ns);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Median absolute deviation from \p Med.
double mad(const std::vector<double> &V, double Med) {
  std::vector<double> Dev;
  for (double X : V)
    Dev.push_back(X > Med ? X - Med : Med - X);
  return median(std::move(Dev));
}

/// A new assembler per compile, through \p Compile(M, Asm).
template <typename ModuleT, typename CompileFn>
std::function<bool()> fresh(ModuleT &M, CompileFn Compile) {
  return [&M, Compile] {
    asmx::Assembler Asm;
    return Compile(M, Asm);
  };
}

/// One adapter, compiler and assembler, recompiled through compile(),
/// which resets the assembler itself.
template <typename CompilerT> std::function<bool()> reused(tir::Module &M) {
  struct State {
    tpde_tir::TirAdapter Adapter;
    asmx::Assembler Asm;
    CompilerT Compiler;
    explicit State(tir::Module &M) : Adapter(M), Compiler(Adapter, Asm) {}
  };
  auto S = std::make_shared<State>(M);
  return [S] { return S->Compiler.compile(); };
}

/// A parallel row: a reused pool of \p Threads workers compiling \p M
/// into one output assembler.
template <typename PipelineT, typename ModuleT>
Row parallel(const char *Backend, const char *Scenario, ModuleT &M,
             unsigned Threads) {
  struct State {
    PipelineT PC;
    asmx::Assembler Out;
    State(ModuleT &M, unsigned T) : PC(M, {.NumThreads = T}) {}
  };
  auto S = std::make_shared<State>(M, Threads);
  Row R{Backend, Scenario, Threads, static_cast<u32>(M.Funcs.size()),
        [S] { return S->PC.compile(S->Out); }};
  R.Emit = &S->PC.emitStats(); // S lives as long as the closure
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
  unsigned Rounds = 20;
  std::vector<unsigned> ThreadCounts = {1, 2, 4, 8};
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *End = nullptr;
    if (std::strncmp(Arg, "--repeat=", 9) == 0) {
      Rounds = parsePositive("--repeat", Arg + 9, &End, 1000);
      if (*End) {
        std::fprintf(stderr, "invalid --repeat value '%s'\n", Arg + 9);
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
      std::fprintf(stderr, "usage: %s [--repeat=ROUNDS] [--threads=1,2,4,8]\n",
                   argv[0]);
      return 2;
    }
  }

  // A mid-size module: enough functions that per-function costs dominate,
  // both IR flavors mixed in (O0-like stack traffic + SSA loops).
  tir::Module M;
  workloads::Profile P;
  P.Seed = 7;
  P.NumFuncs = MidFuncs;
  P.RegionBudget = 10;
  P.InstsPerBlock = 8;
  P.SSAForm = true;
  workloads::genModule(M, P);
  u32 NumFuncs = static_cast<u32>(M.Funcs.size());

  // The parallel series runs on a 4x larger module: ~48 shards instead of
  // 12, so the worker pool has scaling headroom and the per-compile job
  // handshake amortizes, keeping the speedup check meaningful on modest
  // multicore runners.
  tir::Module ParM;
  workloads::Profile ParP = P;
  ParP.NumFuncs = MidFuncs * 4;
  workloads::genModule(ParM, ParP);

  // The large module: small functions with call density keep generation
  // and each sample affordable while every shard still references
  // cross-shard symbols, so symbol cost must stay O(defined + referenced)
  // per shard, not O(module).
  tir::Module LargeM;
  workloads::Profile LargeP;
  LargeP.Seed = 29;
  LargeP.NumFuncs = LargeFuncs;
  LargeP.RegionBudget = 3;
  LargeP.InstsPerBlock = 5;
  LargeP.CallPct = 12;
  LargeP.SSAForm = true;
  workloads::genModule(LargeM, LargeP);

  // UIR query modules (the §7 Umbra scenario): many small generated
  // query functions, FP predicates mixed in (FP-pool traffic), at the
  // parallel TIR module's size and at the large size.
  workloads::QueryProfile UirP;
  UirP.Seed = 17;
  UirP.NumQueries = MidFuncs * 4;
  uir::UModule UirM;
  workloads::genQueryModule(UirM, UirP);
  workloads::QueryProfile UirLargeP;
  UirLargeP.Seed = 43;
  UirLargeP.NumQueries = LargeFuncs;
  uir::UModule UirLargeM;
  workloads::genQueryModule(UirLargeM, UirLargeP);

  validateA64OnSimulator();

  auto X64 = [](tir::Module &Mod, asmx::Assembler &Asm) {
    return tpde_tir::compileModuleX64(Mod, Asm);
  };
  auto A64 = [](tir::Module &Mod, asmx::Assembler &Asm) {
    return tpde_tir::compileModuleA64(Mod, Asm);
  };
  auto Uir = [](uir::UModule &Mod, asmx::Assembler &Asm) {
    return uir::compileTpdeUir(Mod, Asm);
  };
  u32 UirFuncs = static_cast<u32>(UirM.Funcs.size());
  u32 LargeN = static_cast<u32>(LargeM.Funcs.size());
  u32 UirLargeN = static_cast<u32>(UirLargeM.Funcs.size());

  std::vector<Row> Rows;
  for (Backend B : {Backend::Tpde, Backend::CopyPatch, Backend::BaselineO0,
                    Backend::BaselineO1})
    Rows.push_back({backendName(B), "fresh", 0, NumFuncs,
                    fresh(M, [B](tir::Module &Mod, asmx::Assembler &Asm) {
                      return compileWith(B, Mod, Asm);
                    })});
  Rows.push_back({"TPDE-A64", "fresh", 0, NumFuncs, fresh(M, A64)});
  Rows.push_back({"TPDE-UIR", "fresh", 0, UirFuncs, fresh(UirM, Uir)});
  Rows.push_back(
      {"TPDE", "reused", 0, NumFuncs, reused<tpde_tir::TirCompilerX64>(M)});
  Rows.push_back(
      {"TPDE-A64", "reused", 0, NumFuncs, reused<tpde_tir::TirCompilerA64>(M)});
  Rows.push_back({"TPDE", "fresh_large", 0, LargeN, fresh(LargeM, X64)});
  Rows.push_back({"TPDE-A64", "fresh_large", 0, LargeN, fresh(LargeM, A64)});
  Rows.push_back(
      {"TPDE-UIR", "fresh_large", 0, UirLargeN, fresh(UirLargeM, Uir)});
  Rows.push_back({"TPDE", "reused_large", 0, LargeN,
                  reused<tpde_tir::TirCompilerX64>(LargeM)});
  Rows.push_back({"TPDE-A64", "reused_large", 0, LargeN,
                  reused<tpde_tir::TirCompilerA64>(LargeM)});
  for (unsigned T : ThreadCounts) {
    Rows.push_back(parallel<tpde_tir::ParallelModuleCompiler>(
        "TPDE", "parallel", ParM, T));
    Rows.push_back(parallel<tpde_tir::ParallelModuleCompilerA64>(
        "TPDE-A64", "parallel", ParM, T));
    Rows.push_back(parallel<uir::ParallelModuleCompilerUir>(
        "TPDE-UIR", "parallel", UirM, T));
    Rows.push_back(parallel<tpde_tir::ParallelModuleCompiler>(
        "TPDE", "parallel_large", LargeM, T));
    Rows.push_back(parallel<tpde_tir::ParallelModuleCompilerA64>(
        "TPDE-A64", "parallel_large", LargeM, T));
    Rows.push_back(parallel<uir::ParallelModuleCompilerUir>(
        "TPDE-UIR", "parallel_large", UirLargeM, T));
  }
  // Rows stay put from here on, so Ref may point into the vector.
  auto find = [&](const char *Backend, const char *Scenario,
                  unsigned Threads) -> Row * {
    for (Row &R : Rows)
      if (R.Threads == Threads && !std::strcmp(R.Backend, Backend) &&
          !std::strcmp(R.Scenario, Scenario))
        return &R;
    return nullptr;
  };
  Row *Anchor = find("Baseline-O0", "fresh", 0);
  for (Row &R : Rows)
    R.Ref = R.Threads > 1 ? find(R.Backend, R.Scenario, 1)
            : &R == Anchor ? nullptr
                           : Anchor;

  for (Row &R : Rows) {
    u64 Begin = nowNs();
    for (unsigned I = 0; I < WarmupCompiles; ++I)
      compileOrExit(R);
    u64 PerCompile = (nowNs() - Begin) / WarmupCompiles + 1;
    u64 Target = R.Threads > 1 ? MultiSampleNs : SampleNs;
    R.Iters = static_cast<unsigned>(std::max<u64>(1, Target / PerCompile));
  }
  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (size_t I = 0; I < Rows.size(); ++I) {
      Row &R = Rows[(Round + I) % Rows.size()];
      if (R.Ref)
        R.RefSamples.push_back(sample(*R.Ref));
      R.Samples.push_back(sample(R));
    }

  std::printf("%-12s %-15s %3s %5s %12s %10s %10s %11s\n", "backend", "mode",
              "thr", "clock", "f/s median", "f/s MAD", "new/func",
              "bytes/func");
  for (const Row &R : Rows) {
    double Med = median(R.Samples);
    double Funcs = static_cast<double>(R.Funcs) * R.Compiles;
    std::printf("%-12s %-15s %3u %5s %12.0f %10.0f %10.3f %11.1f\n",
                R.Backend, R.Scenario, R.Threads, clockName(R), Med,
                mad(R.Samples, Med), R.NewCalls / Funcs, R.NewBytes / Funcs);
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
  for (const Row &R : Rows) {
    if (!R.Emit)
      continue;
    double N = static_cast<double>(R.Compiles);
    const core::EmitStats &E = R.EmitSum;
    std::printf("%-12s %-15s %3u %10.1f %10.1f %10.1f %10.1f %12.0f %12.0f "
                "%9.1f\n",
                R.Backend, R.Scenario, R.Threads, E.CompileNs / N / 1e3,
                E.ReserveNs / N / 1e3, E.PlaceNs / N / 1e3,
                E.StitchNs / N / 1e3, E.StitchRelocs / N, E.PlacedBytes / N,
                E.Fragments / N);
  }

  FILE *F = std::fopen("BENCH_compile_throughput.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_compile_throughput.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"benchmark\": \"compile_throughput\",\n"
               "  \"rounds\": %u,\n  \"hardware_concurrency\": %u,\n"
               "  \"results\": [\n",
               Rounds, tpde::hardwareConcurrency());
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    double Med = median(R.Samples);
    double Funcs = static_cast<double>(R.Funcs) * R.Compiles;
    std::fprintf(F,
                 "    {\"backend\": \"%s\", \"scenario\": \"%s\", "
                 "\"threads\": %u, \"clock\": \"%s\", \"funcs\": %u, "
                 "\"iterations\": %u, \"funcs_per_sec_median\": %.1f, "
                 "\"funcs_per_sec_mad\": %.1f, "
                 "\"new_calls_per_func\": %.3f, "
                 "\"new_bytes_per_func\": %.1f",
                 R.Backend, R.Scenario, R.Threads, clockName(R), R.Funcs,
                 R.Iters, Med, mad(R.Samples, Med), R.NewCalls / Funcs,
                 R.NewBytes / Funcs);
    if (R.Emit) {
      double N = static_cast<double>(R.Compiles);
      const core::EmitStats &E = R.EmitSum;
      std::fprintf(F,
                   ", \"compile_ns\": %.0f, \"reserve_ns\": %.0f, "
                   "\"place_ns\": %.0f, \"stitch_ns\": %.0f, "
                   "\"stitch_relocs\": %.0f, \"placed_bytes\": %.0f, "
                   "\"fragments\": %.1f",
                   E.CompileNs / N, E.ReserveNs / N, E.PlaceNs / N,
                   E.StitchNs / N, E.StitchRelocs / N, E.PlacedBytes / N,
                   E.Fragments / N);
    }
    auto list = [F](const char *Key, const std::vector<double> &V) {
      std::fprintf(F, ", \"%s\": [", Key);
      for (size_t S = 0; S < V.size(); ++S)
        std::fprintf(F, "%s%.1f", S ? ", " : "", V[S]);
      std::fprintf(F, "]");
    };
    list("funcs_per_sec_samples", R.Samples);
    if (R.Ref) {
      std::fprintf(F, ", \"ref\": \"%s\"", rowName(*R.Ref).c_str());
      list("ref_samples", R.RefSamples);
    }
    std::fprintf(F, "}%s\n", I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return 0;
}
