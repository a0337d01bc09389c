//===- uir/ParallelCompiler.h - UIR parallel instantiation ------*- C++ -*-===//
///
/// \file
/// Instantiates the backend-agnostic parallel module compile driver
/// (core/ParallelCompiler.h) for the database IR: Umbra-style modules
/// bundle hundreds to thousands of compiled queries, and the sharded
/// driver compiles them across workers exactly like the TIR back-ends —
/// same determinism contract (byte-identical output for any thread
/// count), same steady-state allocation guarantees, same on-demand
/// symbol creation per shard. All driver logic lives in the shared
/// core template, which takes UirCompilerX64 as it is; this file only
/// names the instantiation and the one-shot convenience entry point.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_UIR_PARALLELCOMPILER_H
#define TPDE_UIR_PARALLELCOMPILER_H

#include "core/ParallelCompiler.h"
#include "uir/TpdeUir.h"

namespace tpde::uir {

using ParallelCompileOptions = core::ParallelCompileOptions;

/// The UIR instantiation of the shared driver — parallel compilation is
/// a framework property; the database back-end pays nothing beyond its
/// adapter and compiler.
using ParallelModuleCompilerUir = core::ParallelModuleCompiler<UirCompilerX64>;

/// One-shot convenience entry point mirroring compileTpdeUir(): compile
/// \p M into \p Out with \p NumThreads workers (0 = hardware
/// concurrency). With \p Verify the module runs through
/// uir::verifyModule first and malformed query IR never reaches codegen;
/// \p StatusOut (optional) receives the structured first diagnostic on
/// failure. For repeated compiles keep a ParallelModuleCompilerUir
/// around instead — this constructs and tears down the pool per call.
inline bool
compileModuleUirParallel(UModule &M, asmx::Assembler &Out,
                         unsigned NumThreads = 0, bool Verify = false,
                         support::CompileStatus *StatusOut = nullptr) {
  return core::compileModuleParallel<UirCompilerX64>(M, Out, NumThreads, Verify,
                                                     StatusOut);
}

} // namespace tpde::uir

#endif // TPDE_UIR_PARALLELCOMPILER_H
