//===- tpde_tir/ParallelCompiler.h - TIR parallel instantiation -*- C++ -*-===//
///
/// \file
/// Instantiates the backend-agnostic parallel module compile driver
/// (core/ParallelCompiler.h) for the TIR back-ends. All driver logic —
/// worker pool, deterministic weighted sharding, one fragment per run
/// of consecutive shards, ordered merge — lives in the shared core template, which takes the
/// compilers as they are; this file only names the instantiations and
/// the one-shot convenience entry points.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_PARALLELCOMPILER_H
#define TPDE_TPDE_TIR_PARALLELCOMPILER_H

#include "core/ParallelCompiler.h"
#include "tpde_tir/TirCompilerA64.h"
#include "tpde_tir/TirCompilerX64.h"

namespace tpde::tpde_tir {

using ParallelCompileOptions = core::ParallelCompileOptions;

/// The x86-64 instantiation (the name predates the driver template and is
/// kept for existing users).
using ParallelModuleCompiler = core::ParallelModuleCompiler<TirCompilerX64>;
/// The AArch64 instantiation — same driver, second compiler type.
using ParallelModuleCompilerA64 = core::ParallelModuleCompiler<TirCompilerA64>;

/// One-shot convenience entry points mirroring compileModuleX64() /
/// compileModuleA64(): compile \p M into \p Out with \p NumThreads
/// workers (0 = hardware concurrency). With \p Verify the module runs
/// through tir::verifyModule first and malformed IR never reaches
/// codegen; \p StatusOut (optional) receives the structured first
/// diagnostic on failure. For repeated compiles keep a
/// ParallelModuleCompiler[A64] around instead — these construct and tear
/// down the pool per call.
inline bool
compileModuleX64Parallel(tir::Module &M, asmx::Assembler &Out,
                         unsigned NumThreads = 0, bool Verify = false,
                         support::CompileStatus *StatusOut = nullptr) {
  return core::compileModuleParallel<TirCompilerX64>(M, Out, NumThreads, Verify,
                                                     StatusOut);
}
inline bool
compileModuleA64Parallel(tir::Module &M, asmx::Assembler &Out,
                         unsigned NumThreads = 0, bool Verify = false,
                         support::CompileStatus *StatusOut = nullptr) {
  return core::compileModuleParallel<TirCompilerA64>(M, Out, NumThreads, Verify,
                                                     StatusOut);
}

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_PARALLELCOMPILER_H
