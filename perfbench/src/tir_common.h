//===- perfbench/src/tir_common.h - TIR workload helpers --------*- C++ -*-===//
///
/// \file
/// The bounded reference call set (selected and checked with tir::Interp),
/// native execution of it, and the benchmark-side timing of the
/// preparation and analysis passes, shared by spec_o0 and module_10k.
/// Every layer time of these workloads is thread CPU time, so the derived
/// figures (codegen = compile - prepare - analyze, the Fig. 6 shares)
/// subtract and divide times of one clock.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_PERFBENCH_TIR_COMMON_H
#define TPDE_PERFBENCH_TIR_COMMON_H

#include "common.h"

#include "asmx/JITMapper.h"
#include "tir/TIR.h"

#include <string>
#include <vector>

namespace perfbench {

/// Interpreter steps one reference call may take. A call that needs more
/// is left out of the call set by this rule, whatever its function is
/// called: that keeps every native run checkable and short (the O0
/// `602.gcc` main_entry, for one, needs seconds natively).
inline constexpr u64 CallStepBudget = 200'000;

/// One call of a compiled i64(i64, i64) function and its expected result.
struct RefCall {
  std::string Name;
  u64 A = 0, B = 0;
  u64 Expect = 0;
  u64 Steps = 0; ///< Interpreter steps: the call's work in TIR instructions.
};

/// A candidate call: function index and arguments.
struct CallCandidate {
  u32 Func;
  u64 A, B;
};

/// Runs \p Cands in order on one interpreter and keeps those that finish
/// within CallStepBudget steps. A rejected call's effect on global memory
/// is rolled back, so the kept calls, replayed in order on fresh code,
/// see exactly the memory they saw here.
std::vector<RefCall> selectCalls(const tpde::tir::Module &M,
                                 const std::vector<CallCandidate> &Cands);

/// Calls \p Calls in order on freshly mapped code and checks each result.
/// Appends each call's latency (entry-point lookup to result) in
/// microseconds to \p LatUs: a request's time to its result, first
/// touch of the fresh code included.
void runChecked(const tpde::asmx::JITMapper &JIT,
                const std::vector<RefCall> &Calls, Report &R,
                std::vector<double> &LatUs);

/// Runs the call set \p Passes more times on the same, now warm, code and
/// returns thread CPU nanoseconds per interpreted TIR instruction: the
/// generated code's run time per unit of work, whatever calls the seed
/// selected.
/// The results are not checked (global memory has moved on), but the
/// passes are the same every round.
double runWarm(const tpde::asmx::JITMapper &JIT,
               const std::vector<RefCall> &Calls, unsigned Passes);

/// IR values of all defined functions: the unit of compile work.
u64 definedValues(const tpde::tir::Module &M);

/// Thread CPU time of the preparation pass (TirAdapter::switchFunc) and
/// the analysis pass (core::Analyzer::analyze) over every defined
/// function, split the way the paper's Fig. 6 splits the back-end.
struct PassNs {
  double PrepareNs = 0, AnalyzeNs = 0;
};
/// Runs the preparation pass alone, then preparation plus analysis, as
/// bench/fig6_time_distribution.cpp does; analysis is the difference.
PassNs prepareAnalyzeNs(tpde::tir::Module &M);

} // namespace perfbench

#endif // TPDE_PERFBENCH_TIR_COMMON_H
