//===- perfbench/src/spec_o0.cpp - The spec_o0 workload -------------------===//
///
/// The nine SPECint-2017-like O0-flavour modules of the paper's Fig. 5-7.
/// Each round compiles every module serially for x86-64 and AArch64,
/// writes both ELF objects, JIT-maps the x86-64 code and runs the bounded
/// reference call set on it, checked against tir::Interp. Per-function
/// preparation, analysis, codegen and encoding plus the ELF writer do
/// nearly all the work, on large functions with heavy stack traffic; the
/// parallel driver and the service are not used.
///
/// The modules are the paper's fixed inputs; the seed draws the call
/// arguments of the reference call set.
///
//===----------------------------------------------------------------------===//

#include "tir_common.h"

#include "a64/Sim.h"
#include "asmx/ElfWriter.h"
#include "baseline/Baseline.h"
#include "tpde_tir/TirCompilerA64.h"
#include "tpde_tir/TirCompilerX64.h"
#include "workloads/Generator.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace perfbench {

using namespace tpde;

namespace {

/// Argument pairs drawn per function for the candidate calls.
constexpr unsigned ArgPairsPerFunc = 2;
/// Warm passes over the call set per module and round (exec_ns_per_op).
constexpr unsigned WarmPasses = 3;
/// Rounds per window: the call latencies of a window pool (req_us_*).
constexpr size_t ReqWindow = 8;

struct SpecModule {
  std::string Name;
  tir::Module M;
  u64 Values = 0;
  std::vector<RefCall> Calls;
  /// .text sizes of the first round; every later round must repeat them.
  u64 TextX64 = 0, TextA64 = 0;
  /// Per round: x64 compile plus mapping, the module's time to callable.
  std::vector<double> ReadyMs;
  u64 Steps = 0; ///< Interpreter steps of the call set.
};

using ModuleSet = std::vector<std::unique_ptr<SpecModule>>;

void generate(u64 Seed, ModuleSet &Mods, Report &R) {
  Mods.clear();
  for (const workloads::NamedProfile &NP :
       workloads::specLikeProfiles(/*O0Flavor=*/true)) {
    auto SM = std::make_unique<SpecModule>();
    SM->Name = NP.Name;
    workloads::genModule(SM->M, NP.P);
    SM->Values = definedValues(SM->M);
    Rng Args(Seed * 0x9e3779b97f4a7c15ull ^ NP.P.Seed);
    std::vector<CallCandidate> Cands;
    for (u32 F = 0; F < SM->M.Funcs.size(); ++F)
      if (!SM->M.Funcs[F].IsDeclaration)
        for (unsigned K = 0; K < ArgPairsPerFunc; ++K)
          Cands.push_back({F, Args.below(1 << 20), Args.below(1 << 20)});
    SM->Calls = selectCalls(SM->M, Cands);
    for (const RefCall &C : SM->Calls)
      SM->Steps += C.Steps;
    R.check(!SM->Calls.empty(), "reference call set is empty");
    // Warm-up: one compile per target and a mapping.
    asmx::Assembler X, A;
    R.check(tpde_tir::compileModuleX64(SM->M, X), "x64 warm-up compile");
    R.check(tpde_tir::compileModuleA64(SM->M, A), "a64 warm-up compile");
    asmx::JITMapper JIT;
    R.check(JIT.map(X), "warm-up map");
    Mods.push_back(std::move(SM));
  }
}

/// Per-round figures.
struct Round {
  // Thread CPU nanoseconds.
  double CpuNs = 0;     ///< Whole round, reference calls included.
  double CompileNs = 0; ///< Compile + ELF write (both targets) + map.
  double ExecNsPerOp = 0; ///< Warm call set, per TIR instruction.
  std::vector<double> ReqUs; ///< Latency of each checked call.
  u64 TextBytes = 0;
  // Traced rounds only, thread CPU nanoseconds.
  double PrepareNs = 0, AnalyzeNs = 0, X64Ns = 0, A64Ns = 0, ElfNs = 0,
         MapNs = 0;
  u64 ElfBytes = 0, MappedBytes = 0;
};

Round runRound(ModuleSet &Mods, bool Traced, Report &R, bool FirstRound,
               SpeedRef &Ref) {
  Round Out;
  u64 TotalSteps = 0;
  for (auto &SM : Mods)
    TotalSteps += SM->Steps;
  u64 RoundStart = threadCpuNs();
  for (auto &SMP : Mods) {
    SpecModule &SM = *SMP;
    u64 T0 = threadCpuNs();
    asmx::Assembler X;
    bool OkX = tpde_tir::compileModuleX64(SM.M, X);
    u64 T1 = threadCpuNs();
    std::vector<u8> ElfX = asmx::writeElfObject(X, asmx::ElfMachine::X86_64);
    u64 T2 = threadCpuNs();
    asmx::Assembler A;
    bool OkA = tpde_tir::compileModuleA64(SM.M, A);
    u64 T3 = threadCpuNs();
    std::vector<u8> ElfA = asmx::writeElfObject(A, asmx::ElfMachine::AArch64);
    u64 T4 = threadCpuNs();
    asmx::JITMapper JIT;
    bool OkMap = OkX && JIT.map(X);
    u64 T5 = threadCpuNs();
    R.check(OkX, "x64 compile");
    R.check(OkA, "a64 compile");
    R.check(!ElfX.empty() && !ElfA.empty(), "ELF write");
    R.check(OkMap, "JIT map");
    if (FirstRound) {
      SM.TextX64 = X.text().size();
      SM.TextA64 = A.text().size();
    } else {
      R.check(X.text().size() == SM.TextX64 && A.text().size() == SM.TextA64,
              ".text size differs between rounds");
    }
    Out.TextBytes += X.text().size() + A.text().size();
    Out.CompileNs += static_cast<double>(T5 - T0);
    SM.ReadyMs.push_back(static_cast<double>((T1 - T0) + (T5 - T4)) / 1e6);
    if (OkMap) {
      runChecked(JIT, SM.Calls, R, Out.ReqUs);
      Out.ExecNsPerOp += runWarm(JIT, SM.Calls, WarmPasses) *
                         static_cast<double>(SM.Steps);
    }
    Ref.sample(); // after each module, on the module's CPU
    if (Traced) {
      Out.X64Ns += static_cast<double>(T1 - T0);
      Out.ElfNs += static_cast<double>((T2 - T1) + (T4 - T3));
      Out.A64Ns += static_cast<double>(T3 - T2);
      Out.MapNs += static_cast<double>(T5 - T4);
      Out.ElfBytes += ElfX.size() + ElfA.size();
      Out.MappedBytes += JIT.mappedSize();
    }
  }
  Out.CpuNs = static_cast<double>(threadCpuNs() - RoundStart);
  Out.ExecNsPerOp /= static_cast<double>(TotalSteps);
  if (Traced) {
    // Outside the round's time: the separate preparation/analysis
    // passes whose cost the compile times do not expose.
    for (auto &SMP : Mods) {
      PassNs P = prepareAnalyzeNs(SMP->M);
      Out.PrepareNs += P.PrepareNs;
      Out.AnalyzeNs += P.AnalyzeNs;
    }
  }
  return Out;
}

bool hasFpToSi(const tir::Module &M) {
  for (const tir::Function &F : M.Funcs)
    for (const tir::Value &V : F.Values)
      if (V.Opcode == tir::Op::FpToSi)
        return true;
  return false;
}

/// Once per run: the AArch64 code of every module, run on the simulator
/// for the whole reference call set, must agree with tir::Interp. Modules
/// with an fptosi are skipped: an out-of-range conversion is
/// target-defined (x86-64 yields INT_MIN, AArch64 saturates), and
/// tir::Interp follows x86-64.
void checkA64OnSim(ModuleSet &Mods, Report &R) {
  for (auto &SMP : Mods) {
    if (hasFpToSi(SMP->M))
      continue;
    asmx::Assembler A;
    if (!tpde_tir::compileModuleA64(SMP->M, A)) {
      R.check(false, "a64 compile for the simulator");
      continue;
    }
    a64::Sim S;
    a64::SimModule Mod;
    if (!Mod.map(A, S)) {
      R.check(false, "a64 simulator mapping");
      continue;
    }
    for (const RefCall &C : SMP->Calls) {
      u64 Got = S.call(Mod.address(C.Name), {C.A, C.B});
      R.check(!S.Trapped && Got == C.Expect,
              "a64 simulator result differs from tir::Interp");
    }
  }
}

/// Paper rows: TPDE x64 vs Baseline-O0 compile time (Fig. 5a) and .text
/// size (Fig. 7), geometric means over the modules.
void paperRows(ModuleSet &Mods, Report &R) {
  double LogSpeed = 0, LogText = 0;
  for (auto &SMP : Mods) {
    auto Time = [&](auto Compile, u64 &Text) {
      std::vector<double> Ns;
      for (int I = 0; I < 3; ++I) {
        asmx::Assembler Asm;
        u64 T0 = threadCpuNs();
        R.check(Compile(Asm), "paper-row compile");
        Ns.push_back(static_cast<double>(threadCpuNs() - T0));
        Text = Asm.text().size();
      }
      return median(Ns);
    };
    u64 TextTpde = 0, TextBase = 0;
    double Tpde = Time(
        [&](asmx::Assembler &A) {
          return tpde_tir::compileModuleX64(SMP->M, A);
        },
        TextTpde);
    double Base = Time(
        [&](asmx::Assembler &A) {
          return baseline::compileModule(SMP->M, A, baseline::OptLevel::O0);
        },
        TextBase);
    LogSpeed += std::log(Base / Tpde);
    LogText += std::log(static_cast<double>(TextTpde) /
                        static_cast<double>(TextBase));
  }
  double N = static_cast<double>(Mods.size());
  R.set("fig5a.speedup_geomean", std::exp(LogSpeed / N), "x");
  R.set("fig7.text_ratio", std::exp(LogText / N), "x");
}

} // namespace

int runSpecO0(const Args &A, Report &R) {
  ModuleSet Mods;
  double SetupS = timedSetup(SetupReps, [&] { generate(A.Seed, Mods, R); });
  u64 Values = 0, Calls = 0;
  for (auto &SM : Mods) {
    Values += SM->Values;
    Calls += SM->Calls.size();
  }
  std::printf("spec_o0: %zu modules, %llu IR values, %llu reference calls, "
              "setup %.3f s\n",
              Mods.size(), (unsigned long long)Values,
              (unsigned long long)Calls, SetupS);

  std::vector<double> CompileNs, ExecNs, UntracedCpu, TracedCpu;
  Windows Req(ReqWindow);
  std::vector<Round> TracedRounds;
  u64 TextBytes = 0;
  const u64 End = nowNs() + static_cast<u64>(A.Seconds * 1e9);
  CpuPlacement Cpu;
  SpeedRef Ref;
  for (unsigned I = 0; I < 3 || nowNs() < End; ++I) {
    Cpu.rotate(I / 2); // a traced round shares its CPU with an untraced one
    // The traced run alternates untraced and traced rounds; the untraced
    // ones are its reference for the tracing overhead.
    bool TraceThis = A.Trace && I % 2 == 1;
    Round Rd = runRound(Mods, TraceThis, R, I == 0, Ref);
    if (I == 0)
      TextBytes = Rd.TextBytes;
    if (TraceThis) {
      TracedCpu.push_back(Rd.CpuNs);
      TracedRounds.push_back(Rd);
      continue;
    }
    UntracedCpu.push_back(Rd.CpuNs);
    CompileNs.push_back(Rd.CompileNs);
    ExecNs.push_back(Rd.ExecNsPerOp);
    Req.add(Rd.ReqUs);
  }
  Cpu.restore();
  checkA64OnSim(Mods, R);
  // Each module's time to callable (the same work every round); the
  // quantiles run over the nine modules, so ready_ms_p90 is the time of
  // the largest modules.
  std::vector<double> ReadyMs;
  for (auto &SM : Mods)
    ReadyMs.push_back(trimmedMean(SM->ReadyMs));
  const double Scale = Ref.scale();
  const double RawValuesPerS =
      2.0 * static_cast<double>(Values) / (trimmedMean(CompileNs) / 1e9);

  R.set("setup_s", SetupS, "s");
  R.set("compile_values_per_s", RawValuesPerS / Scale, "1/s");
  R.set("ready_ms_p50", quantile(ReadyMs, 0.5) * Scale, "ms");
  R.set("ready_ms_p90", quantile(ReadyMs, 0.9) * Scale, "ms");
  R.set("req_us_p50", median(Req.quantiles(0.5)) * Scale, "us");
  // Per-layer (traced run), as measured: a wall-clock tail on a shared
  // vCPU is set by the host more than by the program.
  R.set("req_us_p99", median(Req.quantiles(0.99)), "us");
  R.set("exec_ns_per_op", trimmedMean(ExecNs) * Scale, "ns");
  R.set("text_bytes", static_cast<double>(TextBytes), "bytes");
  std::printf("spec_o0: %zu rounds, compile %.4g values/s measured\n",
              UntracedCpu.size() + TracedCpu.size(), RawValuesPerS);
  std::printf("speed: scale %.4f over %zu reference chunks\n", Scale,
              Ref.chunks());

  if (A.Trace) {
    auto Med = [&](double Round::*F) {
      std::vector<double> V;
      for (const Round &Rd : TracedRounds)
        V.push_back(Rd.*F);
      return median(V);
    };
    auto MedU = [&](u64 Round::*F) {
      std::vector<double> V;
      for (const Round &Rd : TracedRounds)
        V.push_back(static_cast<double>(Rd.*F));
      return median(V);
    };
    double V = static_cast<double>(Values);
    double Prep = Med(&Round::PrepareNs) / V, An = Med(&Round::AnalyzeNs) / V;
    double X64 = Med(&Round::X64Ns) / V, A64 = Med(&Round::A64Ns) / V;
    u64 TextX = 0, TextA = 0;
    for (auto &SM : Mods) {
      TextX += SM->TextX64;
      TextA += SM->TextA64;
    }
    R.set("tpde_tir.prepare_ns_per_value", Prep, "ns");
    R.set("core.analyze_ns_per_value", An, "ns");
    // Derived: the whole compile minus the two passes timed on their own.
    R.set("x64.codegen_ns_per_value", X64 - Prep - An, "ns");
    R.set("a64.codegen_ns_per_value", A64 - Prep - An, "ns");
    R.set("x64.text_bytes_per_value", static_cast<double>(TextX) / V,
          "bytes");
    R.set("a64.text_bytes_per_value", static_cast<double>(TextA) / V,
          "bytes");
    R.set("asmx.elf_write_us", Med(&Round::ElfNs) / 1e3, "us");
    R.set("asmx.elf_bytes", MedU(&Round::ElfBytes), "bytes");
    R.set("asmx.jit_map_us", Med(&Round::MapNs) / 1e3, "us");
    R.set("asmx.mapped_bytes", MedU(&Round::MappedBytes), "bytes");
    R.set("fig6.prepare_share", Prep / X64, "ratio");
    R.set("fig6.analyze_share", An / X64, "ratio");
    R.set("fig6.codegen_share", (X64 - Prep - An) / X64, "ratio");
    R.set("trace.overhead_pct",
          100.0 * (median(TracedCpu) / median(UntracedCpu) - 1.0), "%");
    paperRows(Mods, R);
  }
  return 0;
}

} // namespace perfbench
