//===- tpde_tir/Service.h - TIR compile-service binding ---------*- C++ -*-===//
///
/// \file
/// Binds the LLVM-IR stand-in (TIR) x86-64 back-end to the compile
/// service (service/CompileService.h): canonical module fingerprinting
/// for the content-addressed code cache.
///
/// The overload-control layer (bounded admission, deadlines, the
/// watchdog — docs/SERVICE.md "Overload control") is IR-agnostic and
/// needs nothing from this binding: SubmitOptions{DeadlineNs} applies to
/// TIR submissions unchanged. The service maps without a symbol resolver,
/// so a module that calls a declared function fails with JitMapFailed.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_SERVICE_H
#define TPDE_TPDE_TIR_SERVICE_H

#include "service/CompileService.h"
#include "tpde_tir/ParallelCompiler.h"

namespace tpde::tpde_tir {

/// Canonical content fingerprint of a TIR module. Covers function
/// signatures, values (with operand-pool and phi-block slices), block
/// structure, and globals (including initializers). Excludes everything
/// codegen does not read: Block::Aux (adapter scratch, mutated by
/// compilation), Block::Name and Function::ValueNames (debug printing
/// only) — so a module fingerprints identically before and after being
/// compiled, and renaming debug values does not fork cache entries.
support::Fp128 fingerprintModule(const tir::Module &M);

/// Service traits: see service/CompileService.h for the contract.
struct TirX64ServiceTraits {
  using CompilerT = TirCompilerX64;

  static support::Fp128 fingerprint(const tir::Module &M) {
    return fingerprintModule(M);
  }

  static bool verify(const tir::Module &M, std::string &Err) {
    return tir::verifyModule(M, Err);
  }

  static constexpr asmx::JITMapper::StubArch Stub =
      asmx::JITMapper::StubArch::X64;
};

/// The TIR/x86-64 compile service: submit tir::Modules, get mapped code
/// handles, memoized by content. See docs/SERVICE.md.
using TirCompileServiceX64 = service::CompileService<TirX64ServiceTraits>;

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_SERVICE_H
