//===- perfbench/src/tir_common.cpp - TIR workload helpers ----------------===//

#include "tir_common.h"

#include "core/Analyzer.h"
#include "tir/Interp.h"
#include "tpde_tir/TirAdapter.h"

#include <cstring>

namespace perfbench {

using namespace tpde;

namespace {
using NativeFn = u64 (*)(u64, u64);
} // namespace

std::vector<RefCall> selectCalls(const tir::Module &M,
                                 const std::vector<CallCandidate> &Cands) {
  tir::Interp I(M);
  std::vector<std::vector<u8>> Saved(M.Globals.size());
  std::vector<RefCall> Out;
  for (const CallCandidate &C : Cands) {
    for (u32 G = 0; G < M.Globals.size(); ++G)
      Saved[G].assign(I.globalStorage(G),
                      I.globalStorage(G) + M.Globals[G].Size);
    I.StepBudget = CallStepBudget;
    auto Res = I.run(C.Func, {{C.A, 0}, {C.B, 0}});
    u64 Steps = CallStepBudget - I.StepBudget;
    if (!Res) {
      for (u32 G = 0; G < M.Globals.size(); ++G)
        std::memcpy(I.globalStorage(G), Saved[G].data(), Saved[G].size());
      continue;
    }
    Out.push_back({M.Funcs[C.Func].Name, C.A, C.B, Res->Lo, Steps});
  }
  return Out;
}

void runChecked(const asmx::JITMapper &JIT, const std::vector<RefCall> &Calls,
                Report &R, std::vector<double> &LatUs) {
  for (const RefCall &C : Calls) {
    u64 T0 = nowNs();
    auto *F = reinterpret_cast<NativeFn>(JIT.address(C.Name));
    u64 Got = F ? F(C.A, C.B) : ~C.Expect;
    LatUs.push_back(static_cast<double>(nowNs() - T0) / 1e3);
    R.check(F && Got == C.Expect,
            "native call result differs from tir::Interp");
  }
}

double runWarm(const asmx::JITMapper &JIT, const std::vector<RefCall> &Calls,
               unsigned Passes) {
  std::vector<NativeFn> Fns;
  u64 Steps = 0;
  for (const RefCall &C : Calls) {
    Fns.push_back(reinterpret_cast<NativeFn>(JIT.address(C.Name)));
    Steps += C.Steps;
  }
  u64 Sink = 0;
  u64 T0 = threadCpuNs();
  for (unsigned P = 0; P < Passes; ++P)
    for (size_t I = 0; I < Calls.size(); ++I)
      if (Fns[I])
        Sink ^= Fns[I](Calls[I].A, Calls[I].B);
  u64 Ns = threadCpuNs() - T0;
  volatile u64 Keep = Sink;
  (void)Keep;
  return static_cast<double>(Ns) / Passes / static_cast<double>(Steps);
}

u64 definedValues(const tir::Module &M) {
  u64 N = 0;
  for (const tir::Function &F : M.Funcs)
    if (!F.IsDeclaration)
      N += F.Values.size();
  return N;
}

PassNs prepareAnalyzeNs(tir::Module &M) {
  tpde_tir::TirAdapter A(M);
  core::Analyzer<tpde_tir::TirAdapter> An(A);
  An.reserve(A.maxValueCount(), A.maxBlockCount());
  u64 T0 = threadCpuNs();
  for (u32 F = 0; F < A.funcCount(); ++F)
    if (A.funcIsDefinition(F))
      A.switchFunc(F);
  u64 T1 = threadCpuNs();
  for (u32 F = 0; F < A.funcCount(); ++F) {
    if (!A.funcIsDefinition(F))
      continue;
    A.switchFunc(F);
    An.analyze();
  }
  u64 T2 = threadCpuNs();
  PassNs Out;
  Out.PrepareNs = static_cast<double>(T1 - T0);
  Out.AnalyzeNs = static_cast<double>(T2 - T1) - Out.PrepareNs;
  return Out;
}

} // namespace perfbench
