//===- bench/fig6_time_distribution.cpp - Paper Fig. 6 reproduction -------===//
///
/// Time distribution when compiling all SPEC-like workloads with TPDE:
/// front-end (here: TIR construction, standing in for Clang) vs back-end,
/// and within the back-end the preparation pass (adapter tables), the
/// analysis pass (loops + liveness), and the code generation pass.
/// The analysis pass cannot run without preparing each function first, so
/// it is timed together with preparation, and analysis is that time minus
/// the preparation pass alone; codegen is the rest of the back-end.
/// Expected shape (paper Fig. 6): the back-end is a tiny fraction of the
/// end-to-end pipeline (2% in the paper); within TPDE, codegen dominates,
/// followed by preparation and analysis.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchCommon.h"
#include "core/Analyzer.h"
#include "tpde_tir/TirAdapter.h"

using namespace tpde;
using namespace tpde::bench;

int main() {
  double FrontendMs = 0, PrepareMs = 0, AnalysisMs = 0, BackendMs = 0;
  for (auto &NP : workloads::specLikeProfiles(/*O0Flavor=*/true)) {
    // Front-end: module construction.
    Timer TF;
    TF.start();
    tir::Module M;
    workloads::genModule(M, NP.P);
    TF.stop();
    FrontendMs += TF.ms();

    // Whole back-end.
    {
      Timer TB;
      TB.start();
      asmx::Assembler Asm;
      if (!tpde_tir::compileModuleX64(M, Asm))
        return 1;
      TB.stop();
      BackendMs += TB.ms();
    }
    // Preparation pass alone (adapter table construction).
    double ModulePrepareMs;
    {
      tpde_tir::TirAdapter A(M);
      Timer TP;
      TP.start();
      for (u32 F = 0; F < A.funcCount(); ++F)
        if (A.funcIsDefinition(F))
          A.switchFunc(F);
      TP.stop();
      ModulePrepareMs = TP.ms();
      PrepareMs += ModulePrepareMs;
    }
    // Preparation plus analysis; analysis is the difference.
    {
      tpde_tir::TirAdapter A(M);
      core::Analyzer<tpde_tir::TirAdapter> An(A);
      Timer TA;
      TA.start();
      for (u32 F = 0; F < A.funcCount(); ++F) {
        if (!A.funcIsDefinition(F))
          continue;
        A.switchFunc(F);
        An.analyze();
      }
      TA.stop();
      AnalysisMs += TA.ms() - ModulePrepareMs;
    }
  }
  double CodegenMs = BackendMs - PrepareMs - AnalysisMs;
  double Total = FrontendMs + BackendMs;
  std::printf("=== Fig. 6: time distribution compiling all SPEC-like "
              "workloads with TPDE ===\n");
  std::printf("end-to-end:  front-end (IR construction) %7.2f ms (%5.1f%%)\n",
              FrontendMs, 100 * FrontendMs / Total);
  std::printf("             back-end (TPDE)             %7.2f ms (%5.1f%%)\n",
              BackendMs, 100 * BackendMs / Total);
  std::printf("within TPDE: preparation pass            %7.2f ms (%5.1f%%)\n",
              PrepareMs, 100 * PrepareMs / BackendMs);
  std::printf("             analysis pass               %7.2f ms (%5.1f%%)\n",
              AnalysisMs, 100 * AnalysisMs / BackendMs);
  std::printf("             code generation pass        %7.2f ms (%5.1f%%)\n",
              CodegenMs, 100 * CodegenMs / BackendMs);
  std::printf("\npaper: back-end 2%% of end-to-end; within TPDE: codegen "
              "49%%, preparation 14%%, analysis 12%%.\n");
  return 0;
}
