//===- uir/Service.h - UIR compile-service binding --------------*- C++ -*-===//
///
/// \file
/// Binds the database IR to the multi-tenant compile service
/// (service/CompileService.h): canonical fingerprinting of UModules for
/// the content-addressed code cache. This is the serving shape of the
/// paper's §7 scenario — many sessions submitting query
/// plans concurrently instead of one client compiling one plan at a
/// time. Sessions map naturally onto service tenants: give each session
/// (or session class) a TenantId and a quota/weight via
/// setTenantConfig(), and pass per-query deadlines in SubmitOptions so
/// an abandoned query is shed instead of compiled (docs/SERVICE.md,
/// "Overload control").
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_UIR_SERVICE_H
#define TPDE_UIR_SERVICE_H

#include "service/CompileService.h"
#include "uir/ParallelCompiler.h"

namespace tpde::uir {

/// Canonical content fingerprint of a query module. Covers everything
/// codegen reads — function names, arities, every UInst field, block
/// phi/inst/successor lists — and nothing it doesn't: UBlock::Aux is the
/// adapter's per-compile scratch slot and is deliberately excluded, so a
/// module fingerprints identically before and after being compiled.
support::Fp128 fingerprintModule(const UModule &M);

/// Service traits: see service/CompileService.h for the contract.
struct UirServiceTraits {
  using CompilerT = UirCompilerX64;

  static support::Fp128 fingerprint(const UModule &M) {
    return fingerprintModule(M);
  }

  static bool verify(const UModule &M, std::string &Err) {
    return verifyModule(M, Err);
  }

  static constexpr asmx::JITMapper::StubArch Stub =
      asmx::JITMapper::StubArch::X64;
};

/// The database-IR compile service: submit query UModules, get mapped
/// code handles, memoized by content. See docs/SERVICE.md.
using UirCompileService = service::CompileService<UirServiceTraits>;

} // namespace tpde::uir

#endif // TPDE_UIR_SERVICE_H
