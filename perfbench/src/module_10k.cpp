//===- perfbench/src/module_10k.cpp - The module_10k workload -------------===//
///
/// One 10,000-function SSA-flavour module (the large-module series of
/// bench/compile_throughput.cpp), compiled for x86-64 by a reused
/// ParallelModuleCompiler pool, JIT-mapped, and called. Each sample is
/// one module. The functions are tiny, so sharding, sparse symbol
/// materialization, reserve/place/stitch and mapping a multi-megabyte
/// image carry a large share of the cost, and the per-function pipeline
/// sees small SSA functions with phis instead of spec_o0's large
/// stack-heavy ones.
///
/// The module is fixed; the seed draws which functions the reference call
/// set calls, and their arguments.
///
//===----------------------------------------------------------------------===//

#include "tir_common.h"

#include "asmx/ElfWriter.h"
#include "tpde_tir/ParallelCompiler.h"
#include "workloads/Generator.h"

#include <cstdio>
#include <memory>

namespace perfbench {

using namespace tpde;

namespace {

/// Worker threads of the ParallelModuleCompiler pool. One: on a shared
/// 4-vCPU Xeon VM the parallelism granted to a process swings between
/// about 1x and 4x from minute to minute, and there a 4-thread ready time
/// spread 10% from run to run against 4% for one thread. One worker
/// still runs the whole driver (sharding, sparse symbols, reserve, place,
/// stitch), which is what its comparison with the serial compile (the
/// determinism check) is about.
constexpr unsigned CompileThreads = 1;
/// Functions the reference call set samples, besides main_entry.
constexpr unsigned SampledFuncs = 1024;
/// Samples per window for the call-latency quantiles.
constexpr size_t SampleWindow = 16;
/// Warm passes over the call set per sample (exec_ns_per_op).
constexpr unsigned WarmPasses = 8;
/// Reference chunks after each sample (SpeedRef), a few percent of it.
constexpr unsigned RefChunksPerSample = 8;

struct State {
  tir::Module M;
  u64 Values = 0;
  std::vector<RefCall> Calls;
  std::unique_ptr<tpde_tir::ParallelModuleCompiler> PC;
  asmx::Assembler Out;
};

void setup(u64 Seed, std::unique_ptr<State> &S, Report &R) {
  S.reset(); // joins the previous pool before a new one starts
  S = std::make_unique<State>();
  workloads::Profile P;
  P.Seed = 29;
  P.NumFuncs = 10000;
  P.RegionBudget = 3;
  P.InstsPerBlock = 5;
  P.CallPct = 12;
  P.SSAForm = true;
  workloads::genModule(S->M, P);
  S->Values = definedValues(S->M);

  Rng Pick(Seed * 0x9e3779b97f4a7c15ull + 10000);
  std::vector<CallCandidate> Cands;
  u32 Entry = S->M.findFunc("main_entry");
  Cands.push_back({Entry, Pick.below(1 << 20), Pick.below(1 << 20)});
  for (unsigned I = 0; I < SampledFuncs; ++I)
    Cands.push_back({static_cast<u32>(Pick.below(P.NumFuncs)),
                     Pick.below(1 << 20), Pick.below(1 << 20)});
  S->Calls = selectCalls(S->M, Cands);
  R.check(!S->Calls.empty(), "reference call set is empty");

  S->PC = std::make_unique<tpde_tir::ParallelModuleCompiler>(
      S->M, tpde_tir::ParallelCompileOptions{.NumThreads = CompileThreads});
  for (int I = 0; I < 2; ++I) {
    R.check(S->PC->compile(S->Out), "warm-up parallel compile");
    asmx::JITMapper JIT;
    R.check(JIT.map(S->Out), "warm-up map");
  }
}

struct Sample {
  double ReadyNs = 0, ExecNsPerOp = 0;
  std::vector<double> ReqUs; ///< Latency of each checked call.
  u64 TextBytes = 0;
  // Traced samples only; the layer times are thread CPU nanoseconds.
  double MapNs = 0, CpuUtil = 0, X64Ns = 0, PrepareNs = 0, AnalyzeNs = 0;
  double ReadyWallNs = 0;
  u64 MappedBytes = 0;
  core::EmitStats Emit;
};

Sample runSample(State &S, const Args &A, bool Traced, Report &R) {
  Sample Out;
  // Thread CPU time: the one worker is the calling thread.
  double Cpu0 = cpuSeconds();
  u64 W0 = nowNs();
  u64 T0 = threadCpuNs();
  bool Ok = S.PC->compile(S.Out);
  u64 T1 = threadCpuNs();
  u64 W1 = nowNs();
  double Cpu1 = cpuSeconds();
  asmx::JITMapper JIT;
  bool OkMap = Ok && JIT.map(S.Out);
  if (A.InjectMapDelayPct > 0)
    spinNs(static_cast<u64>(static_cast<double>(threadCpuNs() - T0) *
                            A.InjectMapDelayPct / 100.0));
  u64 T2 = threadCpuNs();
  u64 W2 = nowNs();
  R.check(Ok, "parallel compile");
  R.check(OkMap, "JIT map");
  Out.ReadyNs = static_cast<double>(T2 - T0);
  Out.TextBytes = S.Out.text().size();
  if (OkMap) {
    runChecked(JIT, S.Calls, R, Out.ReqUs);
    Out.ExecNsPerOp = runWarm(JIT, S.Calls, WarmPasses);
  }
  if (Traced) {
    Out.MapNs = static_cast<double>(T2 - T1);
    Out.MappedBytes = JIT.mappedSize();
    Out.CpuUtil = (Cpu1 - Cpu0) / (static_cast<double>(W1 - W0) / 1e9);
    Out.ReadyWallNs = static_cast<double>(W2 - W0);
    Out.Emit = S.PC->emitStats();
    // Outside the sample's time: a serial compile and the separate
    // preparation/analysis passes, for the per-value split.
    asmx::Assembler Serial;
    u64 S0 = threadCpuNs();
    R.check(tpde_tir::compileModuleX64(S.M, Serial), "serial compile");
    Out.X64Ns = static_cast<double>(threadCpuNs() - S0);
    PassNs P = prepareAnalyzeNs(S.M);
    Out.PrepareNs = P.PrepareNs;
    Out.AnalyzeNs = P.AnalyzeNs;
  }
  return Out;
}

/// Once per run: the parallel output must be byte-identical to a serial
/// compileModuleX64 of the same module (the determinism invariant).
void checkSerialIdentity(State &S, Report &R) {
  asmx::Assembler Serial;
  bool Ok = tpde_tir::compileModuleX64(S.M, Serial);
  R.check(Ok && S.PC->compile(S.Out), "determinism-check compiles");
  R.check(asmx::writeElfObject(S.Out, asmx::ElfMachine::X86_64) ==
              asmx::writeElfObject(Serial, asmx::ElfMachine::X86_64),
          "parallel ELF differs from serial compileModuleX64");
}

} // namespace

int runModule10k(const Args &A, Report &R) {
  std::unique_ptr<State> S;
  double SetupS = timedSetup(SetupReps, [&] { setup(A.Seed, S, R); });
  std::printf("module_10k: %zu functions, %llu IR values, %zu reference "
              "calls, %u threads, setup %.3f s\n",
              S->M.Funcs.size(), (unsigned long long)S->Values,
              S->Calls.size(), CompileThreads, SetupS);

  std::vector<double> ReadyMs, ExecNs, UntracedReady, TracedReady;
  Windows Req(SampleWindow);
  std::vector<Sample> Traced;
  u64 TextBytes = 0;
  const u64 End = nowNs() + static_cast<u64>(A.Seconds * 1e9);
  CpuPlacement Cpu;
  SpeedRef Ref;
  for (unsigned I = 0; I < 3 || nowNs() < End; ++I) {
    Cpu.rotate(I / 2); // a traced sample shares its CPU with an untraced one
    bool TraceThis = A.Trace && I % 2 == 1;
    Sample Sm = runSample(*S, A, TraceThis, R);
    Ref.sample(RefChunksPerSample);
    if (I == 0)
      TextBytes = Sm.TextBytes;
    R.check(Sm.TextBytes == TextBytes, ".text size differs between samples");
    if (TraceThis) {
      TracedReady.push_back(Sm.ReadyNs);
      Traced.push_back(Sm);
      continue;
    }
    UntracedReady.push_back(Sm.ReadyNs);
    ReadyMs.push_back(Sm.ReadyNs / 1e6);
    ExecNs.push_back(Sm.ExecNsPerOp);
    Req.add(Sm.ReqUs);
  }
  Cpu.restore();
  checkSerialIdentity(*S, R);

  const double Scale = Ref.scale();
  R.set("setup_s", SetupS, "s");
  R.set("compile_values_per_s",
        static_cast<double>(S->Values) / (trimmedMean(ReadyMs) / 1e3) / Scale,
        "1/s");
  R.set("ready_ms_p50", quantile(ReadyMs, 0.5) * Scale, "ms");
  R.set("ready_ms_p90", quantile(ReadyMs, 0.9) * Scale, "ms");
  R.set("req_us_p50", median(Req.quantiles(0.5)) * Scale, "us");
  // Per-layer (traced run), as measured: a wall-clock tail on a shared
  // vCPU is set by the host more than by the program.
  R.set("req_us_p99", median(Req.quantiles(0.99)), "us");
  R.set("exec_ns_per_op", trimmedMean(ExecNs) * Scale, "ns");
  R.set("text_bytes", static_cast<double>(TextBytes), "bytes");
  std::printf("module_10k: %zu samples (%zu traced), ready median %.3f ms "
              "measured\n",
              UntracedReady.size() + Traced.size(), Traced.size(),
              median(ReadyMs));
  std::printf("speed: scale %.4f over %zu reference chunks\n", Scale,
              Ref.chunks());

  if (A.Trace) {
    auto Med = [&](auto Get) {
      std::vector<double> V;
      for (const Sample &Sm : Traced)
        V.push_back(Get(Sm));
      return median(V);
    };
    double V = static_cast<double>(S->Values);
    double Prep = Med([](const Sample &X) { return X.PrepareNs; }) / V;
    double An = Med([](const Sample &X) { return X.AnalyzeNs; }) / V;
    double X64 = Med([](const Sample &X) { return X.X64Ns; }) / V;
    R.set("tpde_tir.prepare_ns_per_value", Prep, "ns");
    R.set("core.analyze_ns_per_value", An, "ns");
    R.set("x64.codegen_ns_per_value", X64 - Prep - An, "ns");
    R.set("x64.text_bytes_per_value", static_cast<double>(TextBytes) / V,
          "bytes");
    R.set("asmx.jit_map_us",
          Med([](const Sample &X) { return X.MapNs; }) / 1e3, "us");
    R.set("asmx.mapped_bytes", Med([](const Sample &X) {
            return static_cast<double>(X.MappedBytes);
          }),
          "bytes");
    using ES = core::EmitStats;
    auto EmitMed = [&](u64 ES::*F) {
      return Med(
          [F](const Sample &X) { return static_cast<double>(X.Emit.*F); });
    };
    R.set("core.parallel.compile_ms", EmitMed(&ES::CompileNs) / 1e6, "ms");
    R.set("core.parallel.reserve_us", EmitMed(&ES::ReserveNs) / 1e3, "us");
    R.set("core.parallel.place_us", EmitMed(&ES::PlaceNs) / 1e3, "us");
    R.set("core.parallel.stitch_us", EmitMed(&ES::StitchNs) / 1e3, "us");
    R.set("core.parallel.stitch_relocs", EmitMed(&ES::StitchRelocs),
          "count");
    R.set("core.parallel.placed_bytes", EmitMed(&ES::PlacedBytes), "bytes");
    // emitStats() is wall-clock, so the share is of the wall ready time.
    R.set("core.parallel.serial_share", Med([](const Sample &X) {
            return static_cast<double>(X.Emit.ReserveNs + X.Emit.StitchNs) /
                   X.ReadyWallNs;
          }),
          "ratio");
    R.set("core.parallel.cpu_util",
          Med([](const Sample &X) { return X.CpuUtil; }), "ratio");
    R.set("trace.overhead_pct",
          100.0 * (median(TracedReady) / median(UntracedReady) - 1.0), "%");
  }
  return 0;
}

} // namespace perfbench
