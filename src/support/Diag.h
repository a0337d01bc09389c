//===- support/Diag.h - Structured compile diagnostics ----------*- C++ -*-===//
///
/// \file
/// Structured error reporting for the compile pipeline. Replaces the old
/// bool + free-form-string contract: every failure carries an error code
/// plus enough location (shard, function, symbol) for a caller to act on
/// it programmatically. See docs/ROBUSTNESS.md for the error model and
/// the determinism guarantees (serial and parallel compiles of the same
/// bad module report the same first error).
///
/// The compile service extends the status's reach to clients: a
/// CompileStatus is the failure half of every ServiceResult — verifier
/// rejections at admission, compile failures (the first diagnostic of
/// core::ParallelModuleCompiler::compile, as a solo compile of the job's
/// module reports it), and mapping failures all surface through the same
/// struct, so a serving client switches on CompileErr exactly like an
/// embedding caller does (docs/SERVICE.md).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_DIAG_H
#define TPDE_SUPPORT_DIAG_H

#include "support/Common.h"

#include <string>

namespace tpde::support {

/// Pipeline-wide error codes. Keep stable: tests and external tooling key
/// off these values.
enum class CompileErr : u8 {
  Ok = 0,
  /// The verifier pre-pass rejected the module before codegen.
  VerifyFailed,
  /// A function contained an instruction the back-end cannot compile.
  UnsupportedInst,
  /// The assembler reported an error (bad fixup, duplicate symbol, ...).
  AssemblerError,
  /// A registered fault-injection site fired (test builds only).
  FaultInjected,
  /// Merging a worker fragment into the output assembler failed.
  MergeError,
  /// Mapping the compiled module for execution failed.
  JitMapFailed,
  /// An allocation failed (or a fault-injected arena growth threw).
  OutOfMemory,
  /// The compile service refused admission: its queue was full.
  Overloaded,
  /// The job's deadline expired: shed at dequeue before compilation, or
  /// the waiter timed out on an in-flight fingerprint.
  DeadlineExceeded,
  /// The compile service is shut down; the job was never compiled.
  ServiceShutdown,
};

inline const char *compileErrName(CompileErr E) {
  switch (E) {
  case CompileErr::Ok: return "ok";
  case CompileErr::VerifyFailed: return "verify-failed";
  case CompileErr::UnsupportedInst: return "unsupported-inst";
  case CompileErr::AssemblerError: return "assembler-error";
  case CompileErr::FaultInjected: return "fault-injected";
  case CompileErr::MergeError: return "merge-error";
  case CompileErr::JitMapFailed: return "jit-map-failed";
  case CompileErr::OutOfMemory: return "out-of-memory";
  case CompileErr::Overloaded: return "overloaded";
  case CompileErr::DeadlineExceeded: return "deadline-exceeded";
  case CompileErr::ServiceShutdown: return "service-shutdown";
  }
  return "unknown";
}

/// One diagnostic. Shard/Func are ~0u when not applicable (serial compile,
/// module-level failure). Symbol is the function symbol name when known.
///
/// The struct is reused across compiles (clear() keeps string capacity) so
/// the clean-compile steady state stays allocation-free.
struct CompileStatus {
  CompileErr Err = CompileErr::Ok;
  u32 Shard = ~0u;
  u32 Func = ~0u;
  std::string Symbol;
  std::string Message;

  [[nodiscard]] bool ok() const { return Err == CompileErr::Ok; }

  void clear() {
    Err = CompileErr::Ok;
    Shard = ~0u;
    Func = ~0u;
    Symbol.clear();
    Message.clear();
  }
};

} // namespace tpde::support

#endif // TPDE_SUPPORT_DIAG_H
