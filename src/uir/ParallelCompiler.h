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
/// core template; this file only supplies the worker type (adapter +
/// assembler + compiler bundle) and the one-shot convenience entry
/// point.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_UIR_PARALLELCOMPILER_H
#define TPDE_UIR_PARALLELCOMPILER_H

#include "core/ParallelCompiler.h"
#include "uir/TpdeUir.h"

namespace tpde::uir {

using ParallelCompileOptions = core::ParallelCompileOptions;

/// Per-thread compile state for one UIR worker: private adapter,
/// assembler, and compiler instance (reset-not-freed, docs/PERF.md).
/// Satisfies core::ParallelCompileWorker.
struct UirParallelWorker {
  using ModuleT = UModule;

  explicit UirParallelWorker(UModule &M)
      : Adapter(M), Compiler(Adapter, Asm) {}

  asmx::Assembler &assembler() { return Asm; }
  bool compileGlobals() { return Compiler.compileGlobals(); }
  bool compileRange(u32 Begin, u32 End) {
    return Compiler.compileRange(Begin, End);
  }
  const support::CompileStatus &status() const { return Compiler.status(); }

  static u32 funcCount(const UModule &M) {
    return static_cast<u32>(M.Funcs.size());
  }
  /// Shard-balancing size proxy: the per-query value count is known up
  /// front and tracks compile cost closely (single pass over values).
  static u32 funcWeight(const UModule &M, u32 I) {
    return static_cast<u32>(M.Funcs[I].Vals.size());
  }
  /// Capacity hint for the driver's fragment buffers (two-pass emission);
  /// see TirParallelWorker::shardTextBound — same shape, query values
  /// lower to a few instructions each.
  static u64 shardTextBound(const UModule &M, u32 Begin, u32 End) {
    u64 Bytes = 0;
    for (u32 I = Begin; I < End; ++I)
      Bytes = Bytes + 16 * static_cast<u64>(M.Funcs[I].Vals.size()) + 64;
    return Bytes;
  }
  /// Enables the driver's ParallelCompileOptions::Verify pre-pass.
  static bool verifyModule(const UModule &M, std::string &Errors) {
    return uir::verifyModule(M, Errors);
  }

  UirAdapter Adapter;
  asmx::Assembler Asm;
  UirCompilerX64 Compiler;
};

/// The UIR instantiation of the shared driver — parallel compilation is
/// a framework property; the database back-end only pays the ~30-line
/// worker contract above.
using ParallelModuleCompilerUir =
    core::ParallelModuleCompiler<UirParallelWorker>;

/// One-shot convenience entry point mirroring compileTpdeUir(): compile
/// \p M into \p Out with \p NumThreads workers (0 = hardware
/// concurrency). With \p Verify the module runs through
/// uir::verifyModule first and malformed query IR never reaches codegen;
/// \p StatusOut (optional) receives the structured first diagnostic on
/// failure. For repeated compiles keep a ParallelModuleCompilerUir
/// around instead — this constructs and tears down the pool per call.
bool compileModuleUirParallel(UModule &M, asmx::Assembler &Out,
                              unsigned NumThreads = 0, bool Verify = false,
                              support::CompileStatus *StatusOut = nullptr);

} // namespace tpde::uir

#endif // TPDE_UIR_PARALLELCOMPILER_H
