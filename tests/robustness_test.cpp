//===- tests/robustness_test.cpp - Failure paths & graceful degradation ---===//
///
/// The robustness suite for the compilation pipeline (docs/ROBUSTNESS.md).
/// Every failure it drives is a real one — an uncompilable function, a
/// duplicate strong definition, an allocation that throws — so every
/// test runs in the default build:
///
///  * Structured diagnostics: serial and parallel compiles of the same bad
///    module report the SAME first error (code, function index, symbol,
///    message) — deterministically, for every thread count and shard cut.
///  * Graceful degradation: a module with K bad functions still compiles
///    every good function (byte-identical to a serial compile of the good
///    subset), with exactly K precise diagnostics, and the pipeline stays
///    reusable and allocation-free afterwards. Out of memory at any
///    allocation size, on any thread, a compile still returns with a
///    diagnostic instead of throwing, and every out-of-memory handler of
///    the parallel driver is reached.
///  * Verifier gate: the adversarial genMalformed corpus is rejected by
///    the tir/uir verifier pre-pass on every entry point (serial and
///    parallel, x64 and a64) and never reaches the emitter.
///
/// The ASan/UBSan and TSan CI jobs run this binary too.
///
//===----------------------------------------------------------------------===//

#include "support/AllocCounter.h"
#include "tir/Verifier.h"
#include "tpde_tir/ParallelCompiler.h"
#include "uir/ParallelCompiler.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using support::CompileErr;
using support::CompileStatus;

namespace {

tir::Module makeModule(u64 Seed, u32 NumFuncs) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = Seed;
  P.NumFuncs = NumFuncs;
  P.SSAForm = true;
  P.CallPct = 12; // cross-shard references under failure
  workloads::genModule(M, P);
  return M;
}

uir::UModule makeQueryModule(u64 Seed, u32 NumQueries) {
  workloads::QueryProfile P;
  P.Seed = Seed;
  P.NumQueries = NumQueries;
  uir::UModule M;
  workloads::genQueryModule(M, P);
  return M;
}

/// Makes function \p FuncIdx uncompilable (Op::None has no instruction
/// compiler in any back-end) while keeping it verifier-clean and
/// structurally valid. Returns the sabotaged value index.
u32 sabotage(tir::Module &M, u32 FuncIdx) {
  tir::Function &F = M.Funcs[FuncIdx];
  for (u32 V = 0; V < F.Values.size(); ++V) {
    tir::Value &Val = F.Values[V];
    if (Val.Kind == tir::ValKind::Inst && Val.Opcode == tir::Op::Add) {
      Val.Opcode = tir::Op::None;
      return V;
    }
  }
  ADD_FAILURE() << "function " << FuncIdx << " has no Add to sabotage";
  return ~0u;
}

std::vector<u8> textOf(const asmx::Assembler &A) {
  return {A.text().Data.begin(), A.text().Data.end()};
}

std::vector<u8> roOf(const asmx::Assembler &A) {
  const asmx::Section &RO = A.section(asmx::SecKind::ROData);
  return {RO.Data.begin(), RO.Data.end()};
}

/// The cross-entry-point determinism contract: everything except the
/// shard index (meaningless for a serial compile) must agree.
void expectSameDiagnostic(const CompileStatus &A, const CompileStatus &B) {
  EXPECT_EQ(A.Err, B.Err);
  EXPECT_EQ(A.Func, B.Func);
  EXPECT_EQ(A.Symbol, B.Symbol);
  EXPECT_EQ(A.Message, B.Message);
}

} // namespace

// --- Structured diagnostics ------------------------------------------------

TEST(StructuredDiag, SerialReportsPreciseFunctionDiagnostic) {
  tir::Module M = makeModule(17, 8);
  sabotage(M, 3);
  asmx::Assembler Asm;
  CompileStatus St;
  EXPECT_FALSE(tpde_tir::compileModuleX64(M, Asm, /*Verify=*/false, &St));
  EXPECT_EQ(St.Err, CompileErr::UnsupportedInst);
  EXPECT_EQ(St.Func, 3u);
  EXPECT_EQ(St.Symbol, "f3");
  EXPECT_NE(St.Message.find("f3"), std::string::npos) << St.Message;
  EXPECT_EQ(St.Shard, ~0u) << "serial compiles have no shard";
}

/// The satellite-2 regression: the first reported error is keyed by shard
/// order, never thread arrival — with two bad functions in different
/// shards, every thread count (and the serial compile) must name the
/// lower-index one first, with an identical message.
TEST(StructuredDiag, FirstErrorIsDeterministicAcrossThreadCounts) {
  tir::Module M = makeModule(29, 12);
  sabotage(M, 2);
  sabotage(M, 9); // a later shard; a racing thread may well fail it first

  asmx::Assembler SerialAsm;
  CompileStatus SerialSt;
  ASSERT_FALSE(
      tpde_tir::compileModuleX64(M, SerialAsm, /*Verify=*/false, &SerialSt));
  ASSERT_EQ(SerialSt.Func, 2u);

  std::vector<CompileStatus> RefDiags;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    tpde_tir::ParallelCompileOptions Opts;
    Opts.NumThreads = Threads;
    tpde_tir::ParallelModuleCompiler PC(M, Opts);
    asmx::Assembler Out;
    EXPECT_FALSE(PC.compile(Out)) << "threads=" << Threads;
    expectSameDiagnostic(PC.status(), SerialSt);
    ASSERT_EQ(PC.diagnostics().size(), 2u) << "threads=" << Threads;
    EXPECT_EQ(PC.diagnostics()[0].Func, 2u);
    EXPECT_EQ(PC.diagnostics()[1].Func, 9u);
    EXPECT_EQ(PC.diagnostics()[1].Symbol, "f9");
    // The whole diagnostics list — including shard attribution, which is
    // a pure function of the module — must be identical per thread count.
    if (RefDiags.empty()) {
      RefDiags.assign(PC.diagnostics().begin(), PC.diagnostics().end());
    } else {
      for (size_t I = 0; I < RefDiags.size(); ++I) {
        expectSameDiagnostic(PC.diagnostics()[I], RefDiags[I]);
        EXPECT_EQ(PC.diagnostics()[I].Shard, RefDiags[I].Shard)
            << "threads=" << Threads;
      }
    }
  }
}

/// Two strong definitions of one name are a module-level assembler error,
/// which the serial compile reports once every function compiled: the
/// assembler's code and message, no function, no symbol. Every parallel
/// cut must report exactly that — both definitions in one shard, in one
/// run, or in runs of their own.
TEST(StructuredDiag, DuplicateDefinitionReportsTheSerialFirstError) {
  for (u32 Dup : {6u, 9u}) {
    tir::Module M = makeModule(31, 16);
    M.Funcs[Dup].Name = M.Funcs[5].Name;
    asmx::Assembler SerialAsm;
    CompileStatus SerialSt;
    ASSERT_FALSE(
        tpde_tir::compileModuleX64(M, SerialAsm, /*Verify=*/false, &SerialSt));
    ASSERT_EQ(SerialSt.Err, CompileErr::AssemblerError);
    ASSERT_EQ(SerialSt.Func, ~0u);

    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      for (u32 PerShard : {1u, 4u, 64u}) {
        SCOPED_TRACE("dup=" + std::to_string(Dup) +
                     " threads=" + std::to_string(Threads) +
                     " funcs/shard=" + std::to_string(PerShard));
        tpde_tir::ParallelModuleCompiler PC(
            M, {.NumThreads = Threads, .FuncsPerShard = PerShard});
        asmx::Assembler Out;
        EXPECT_FALSE(PC.compile(Out));
        EXPECT_EQ(PC.diagnostics().size(), 1u);
        expectSameDiagnostic(PC.status(), SerialSt);
        EXPECT_EQ(PC.status().Shard, ~0u) << "a module-level error";
      }
    }
  }
}

// --- Graceful degradation --------------------------------------------------

/// A module with K bad functions compiles all good functions: the merged
/// .text/.rodata must be byte-identical to a serial compile of the module
/// with the bad functions demoted to declarations, with exactly K
/// diagnostics — for every thread count.
TEST(GracefulDegradation, GoodSubsetByteIdenticalToDeclarationCompile) {
  tir::Module M = makeModule(43, 14);
  sabotage(M, 4);
  sabotage(M, 11);

  tir::Module Subset = M;
  Subset.Funcs[4].IsDeclaration = true;
  Subset.Funcs[11].IsDeclaration = true;
  asmx::Assembler SubsetAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(Subset, SubsetAsm));
  std::vector<u8> WantText = textOf(SubsetAsm);
  std::vector<u8> WantRO = roOf(SubsetAsm);
  ASSERT_FALSE(WantText.empty());

  for (unsigned Threads : {1u, 4u}) {
    tpde_tir::ParallelCompileOptions Opts;
    Opts.NumThreads = Threads;
    tpde_tir::ParallelModuleCompiler PC(M, Opts);
    asmx::Assembler Out;
    EXPECT_FALSE(PC.compile(Out)) << "threads=" << Threads;
    EXPECT_EQ(PC.diagnostics().size(), 2u);
    EXPECT_EQ(textOf(Out), WantText)
        << "good-subset .text diverged from the declaration compile, "
           "threads=" << Threads;
    EXPECT_EQ(roOf(Out), WantRO) << "threads=" << Threads;
  }
}

/// Same property through the a64 instantiation of the shared driver.
TEST(GracefulDegradation, A64GoodSubsetByteIdenticalToDeclarationCompile) {
  tir::Module M = makeModule(43, 10);
  sabotage(M, 5);

  tir::Module Subset = M;
  Subset.Funcs[5].IsDeclaration = true;
  asmx::Assembler SubsetAsm;
  ASSERT_TRUE(tpde_tir::compileModuleA64(Subset, SubsetAsm));

  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 2;
  tpde_tir::ParallelModuleCompilerA64 PC(M, Opts);
  asmx::Assembler Out;
  EXPECT_FALSE(PC.compile(Out));
  ASSERT_EQ(PC.diagnostics().size(), 1u);
  EXPECT_EQ(PC.diagnostics()[0].Func, 5u);
  EXPECT_EQ(PC.diagnostics()[0].Err, CompileErr::UnsupportedInst);
  EXPECT_EQ(textOf(Out), textOf(SubsetAsm));
  EXPECT_EQ(roOf(Out), roOf(SubsetAsm));
}

/// After a failed compile the pipeline must stay fully usable: repeated
/// failing compiles report identical diagnostics, fixing the module makes
/// the same pool produce the clean serial bytes, and the recovered pool
/// reaches the zero-allocation steady state of docs/PERF.md.
TEST(GracefulDegradation, PoolStaysReusableAndAllocationFreeAfterFailure) {
  tir::Module M = makeModule(59, 10);
  u32 Sabotaged = sabotage(M, 6);
  ASSERT_NE(Sabotaged, ~0u);

  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 1; // one worker sees every shard: exact steady state
  tpde_tir::ParallelModuleCompiler PC(M, Opts);
  asmx::Assembler Out;
  ASSERT_FALSE(PC.compile(Out));
  CompileStatus First = PC.status();
  ASSERT_FALSE(PC.compile(Out));
  expectSameDiagnostic(PC.status(), First);

  // Heal the module; the same pool must now match the serial compile.
  M.Funcs[6].Values[Sabotaged].Opcode = tir::Op::Add;
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_TRUE(PC.status().ok());
  EXPECT_EQ(textOf(Out), textOf(SerialAsm));

  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(PC.compile(Out));
  support::AllocWatch W;
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_EQ(W.newCalls(), 0u)
      << "pool did not return to the allocation-free steady state after a "
         "failed compile (" << W.newBytes() << " bytes)";
}

namespace {

/// The sizes an out-of-memory sweep fails allocations from, up to 1 MiB:
/// each size up to \p Dense bytes (a power of two), then eight steps per
/// doubling, each power of two among them.
std::vector<u64> oomThresholds(u64 Dense) {
  std::vector<u64> T;
  for (u64 B = 1; B <= Dense; ++B)
    T.push_back(B);
  for (u64 P = Dense; P < (u64{1} << 20); P *= 2)
    for (u64 Step = 1; Step <= 8; ++Step)
      T.push_back(P + P * Step / 8);
  return T;
}

/// What the out-of-memory sweeps observed: every diagnostic message, and
/// whether status() was ever the message-less OutOfMemory that stands in
/// for a first diagnostic the driver could not store.
struct OomSeen {
  std::set<std::string> Messages;
  bool Unstored = false;

  template <typename PoolT> void note(const PoolT &PC) {
    for (const CompileStatus &D : PC.diagnostics())
      Messages.insert(D.Message);
    Unstored |= PC.diagnostics().empty() && !PC.status().ok();
  }
};

/// Makes query \p FuncIdx uncompilable (the UIR back-end has no lowering
/// for Or) while keeping it structurally valid. Returns the value index.
u32 sabotageQuery(uir::UModule &M, u32 FuncIdx) {
  uir::UFunc &F = M.Funcs[FuncIdx];
  for (u32 V = 0; V < F.Vals.size(); ++V) {
    if (F.Vals[V].Op == uir::UOp::Add) {
      F.Vals[V].Op = uir::UOp::Or;
      return V;
    }
  }
  ADD_FAILURE() << "query " << FuncIdx << " has no Add to sabotage";
  return ~0u;
}

/// Compiles with every allocation of at least \p From bytes throwing, on
/// every thread. Sets \p Threw when an exception escaped compile().
template <typename PoolT>
bool compileFailingFrom(PoolT &PC, asmx::Assembler &Out, u64 From,
                        bool &Threw) {
  bool OK = false;
  Threw = false;
  support::AllocCounter::FailFromBytes.store(From);
  try {
    OK = PC.compile(Out);
  } catch (...) {
    Threw = true;
  }
  support::AllocCounter::FailFromBytes.store(0);
  return OK;
}

/// One driver at \p Threads workers under OutOfMemoryNeverEscapesCompile,
/// sweeping the recompile of a module with a bad function over
/// \p Thresholds. \p Serial compiles a module serially; \p Break(M, F)
/// makes function F of \p M uncompilable and returns a callable that
/// heals it again. \p M has \p Funcs functions.
template <typename PoolT, typename ModuleT, typename SerialFn,
          typename BreakFn>
void sweepOutOfMemory(ModuleT &M, u32 Funcs, unsigned Threads,
                      const std::vector<u64> &Thresholds,
                      const SerialFn &Serial, const BreakFn &Break,
                      OomSeen &Seen) {
  SCOPED_TRACE("threads=" + std::to_string(Threads));
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(Serial(M, SerialAsm));
  PoolT PC(M, {.NumThreads = Threads});
  asmx::Assembler Out;
  for (int I = 0; I < 2; ++I)
    ASSERT_TRUE(PC.compile(Out)) << PC.status().Message;
  bool Threw;

  // A compile that fails for want of memory reports OutOfMemory; one that
  // succeeds produces the serial bytes.
  auto ExpectSerialOrOom = [&](const PoolT &P, const asmx::Assembler &A,
                               bool OK, const std::string &Cell) {
    if (OK) {
      EXPECT_EQ(textOf(A), textOf(SerialAsm)) << Cell;
      EXPECT_EQ(roOf(A), roOf(SerialAsm)) << Cell;
    } else {
      EXPECT_EQ(P.status().Err, CompileErr::OutOfMemory)
          << Cell << ": " << support::compileErrName(P.status().Err) << " ("
          << P.status().Message << ")";
    }
  };

  // The warm pool into a new output assembler, as the compile service
  // compiles every job: the compile itself allocates nothing, the merge
  // into the output does.
  for (u64 From = 1; From <= (u64{1} << 20); From *= 2) {
    const std::string Cell = "new output, FailFromBytes=" +
                             std::to_string(From);
    asmx::Assembler NewOut;
    bool OK = compileFailingFrom(PC, NewOut, From, Threw);
    ASSERT_FALSE(Threw) << Cell;
    ExpectSerialOrOom(PC, NewOut, OK, Cell);
    Seen.note(PC);
  }

  // The pool recovers once from a bad function in its first shard, which
  // leaves the scratch assembler of the function-by-function retry warm.
  // Then it recompiles, for each threshold, a module whose bad function
  // is its last: with one worker, that shard's fragment has never held
  // code, so a retry merge into it runs out before the retry compiles do.
  {
    auto HealFirst = Break(M, 1);
    ASSERT_FALSE(PC.compile(Out));
    ASSERT_EQ(PC.status().Err, CompileErr::UnsupportedInst);
    HealFirst();
  }
  auto Heal = Break(M, Funcs - 1);
  for (u64 From : Thresholds) {
    bool OK = compileFailingFrom(PC, Out, From, Threw);
    ASSERT_FALSE(Threw) << "an exception escaped compile() at FailFromBytes="
                        << From;
    ASSERT_FALSE(OK) << "FailFromBytes=" << From;
    const CompileErr E = PC.status().Err;
    ASSERT_TRUE(E == CompileErr::UnsupportedInst ||
                E == CompileErr::OutOfMemory)
        << "FailFromBytes=" << From << ": " << support::compileErrName(E);
    Seen.note(PC);
  }
  Heal();
  ASSERT_TRUE(PC.compile(Out)) << PC.status().Message;
  EXPECT_EQ(textOf(Out), textOf(SerialAsm));
  EXPECT_EQ(roOf(Out), roOf(SerialAsm));

  // Fresh pools, whose first compile also sizes their scratch and builds
  // their module-level fragment.
  for (u64 From = 1; From <= (u64{1} << 20); From *= 2) {
    const std::string Cell = "fresh pool, FailFromBytes=" +
                             std::to_string(From);
    PoolT Fresh(M, {.NumThreads = Threads});
    asmx::Assembler FreshOut;
    bool OK = compileFailingFrom(Fresh, FreshOut, From, Threw);
    ASSERT_FALSE(Threw) << Cell;
    ExpectSerialOrOom(Fresh, FreshOut, OK, Cell);
    Seen.note(Fresh);
  }
}

} // namespace

/// Out of memory, compile() still returns. Every allocation of at least
/// FailFromBytes bytes throws, on every thread, the calling thread's final
/// merge included. A warm pool compiles into a new output assembler, then
/// recompiles a module with one bad function for each threshold, then
/// compiles the healed module to the serial bytes; fresh pools compile
/// for the first time. No exception may escape: a compile produces the
/// serial bytes, or reports the bad function or the lack of memory. This
/// runs for the TIR and the UIR driver at threads {1, 2, 4, 8}; the
/// one-worker TIR recompile takes every size up to 4096 bytes, the other
/// inputs every size up to 64 bytes (at more than one worker, which
/// thread an allocation fails on follows the schedule, so repeated runs
/// explore more than denser thresholds would). Together the cells must
/// reach every OutOfMemory diagnostic the driver records, and the
/// message-less status that stands in for one it could not store: a
/// handler no failure reaches fails this test instead of going dead
/// unnoticed.
TEST(GracefulDegradation, OutOfMemoryNeverEscapesCompile) {
  OomSeen Seen;
  const std::vector<u64> Every = oomThresholds(4096);
  const std::vector<u64> Coarse = oomThresholds(64);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    tir::Module M = makeModule(59, 10);
    sweepOutOfMemory<tpde_tir::ParallelModuleCompiler>(
        M, 10, Threads, Threads == 1 ? Every : Coarse,
        [](tir::Module &Mod, asmx::Assembler &A) {
          return tpde_tir::compileModuleX64(Mod, A);
        },
        [](tir::Module &Mod, u32 F) {
          u32 V = sabotage(Mod, F);
          return [&Mod, F, V] { Mod.Funcs[F].Values[V].Opcode = tir::Op::Add; };
        },
        Seen);

    uir::UModule Q = makeQueryModule(19, 12);
    sweepOutOfMemory<uir::ParallelModuleCompilerUir>(
        Q, 12, Threads, Coarse,
        [](uir::UModule &Mod, asmx::Assembler &A) {
          return uir::compileTpdeUir(Mod, A);
        },
        [](uir::UModule &Mod, u32 F) {
          u32 V = sabotageQuery(Mod, F);
          return [&Mod, F, V] { Mod.Funcs[F].Vals[V].Op = uir::UOp::Add; };
        },
        Seen);
  }

  for (const char *What :
       {"sizing the compile", "compiling module-level data",
        "compiling function", "merging function", "merging the module"})
    EXPECT_TRUE(Seen.Messages.count(std::string("allocation failed ") + What))
        << "no failure reached \"allocation failed " << What << "\"";
  EXPECT_TRUE(Seen.Unstored)
      << "no failure reached the message-less OutOfMemory status";
}

// --- Verifier gate + adversarial corpus (satellite 3) ----------------------

/// Every genMalformed mutation class is caught by the verifier pre-pass on
/// every entry point — serial and parallel, x64 and a64 — with a
/// VerifyFailed status, and the output assembler stays empty: malformed IR
/// never reaches the emitter.
TEST(VerifierGate, MalformedCorpusNeverReachesTheEmitter) {
  tir::Module Valid = makeModule(5, 3);
  for (u32 K = 0; K < workloads::NumMalformKinds; ++K) {
    auto Kind = static_cast<workloads::MalformKind>(K);
    SCOPED_TRACE(workloads::malformKindName(Kind));
    tir::Module M = makeModule(5, 3); // valid base: the gate must find the
    workloads::genMalformed(M, Kind); // one bad apple among good functions

    std::string Errors;
    EXPECT_FALSE(tir::verifyModule(M, Errors));
    EXPECT_FALSE(Errors.empty());

    asmx::Assembler SerialX64;
    CompileStatus St;
    EXPECT_FALSE(tpde_tir::compileModuleX64(M, SerialX64, /*Verify=*/true,
                                            &St));
    EXPECT_EQ(St.Err, CompileErr::VerifyFailed);
    EXPECT_FALSE(St.Message.empty());
    EXPECT_EQ(SerialX64.text().size(), 0u) << "x64 emitter ran on bad IR";

    asmx::Assembler SerialA64;
    EXPECT_FALSE(tpde_tir::compileModuleA64(M, SerialA64, /*Verify=*/true,
                                            &St));
    EXPECT_EQ(St.Err, CompileErr::VerifyFailed);
    EXPECT_EQ(SerialA64.text().size(), 0u) << "a64 emitter ran on bad IR";

    for (unsigned Threads : {1u, 4u}) {
      asmx::Assembler Out;
      EXPECT_FALSE(tpde_tir::compileModuleX64Parallel(M, Out, Threads,
                                                      /*Verify=*/true, &St));
      EXPECT_EQ(St.Err, CompileErr::VerifyFailed) << "threads=" << Threads;
      EXPECT_EQ(Out.text().size(), 0u) << "threads=" << Threads;
    }
    // A reused output that still holds an earlier module's image is
    // emptied too, not left next to the VerifyFailed status.
    asmx::Assembler Reused;
    ASSERT_TRUE(tpde_tir::compileModuleX64(Valid, Reused));
    ASSERT_GT(Reused.text().size(), 0u);
    EXPECT_FALSE(tpde_tir::compileModuleX64Parallel(M, Reused, 2,
                                                    /*Verify=*/true, &St));
    EXPECT_EQ(St.Err, CompileErr::VerifyFailed);
    EXPECT_EQ(Reused.text().size(), 0u) << "stale image kept";
    asmx::Assembler OutA64;
    EXPECT_FALSE(tpde_tir::compileModuleA64Parallel(M, OutA64, 2,
                                                    /*Verify=*/true, &St));
    EXPECT_EQ(St.Err, CompileErr::VerifyFailed);
    EXPECT_EQ(OutA64.text().size(), 0u);
  }
}

/// The gate must not reject valid modules, and running with the verifier
/// on must not change the produced bytes.
TEST(VerifierGate, ValidModulePassesWithVerifyOn) {
  tir::Module M = makeModule(7, 6);
  asmx::Assembler Plain, Verified;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, Plain));
  CompileStatus St;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, Verified, /*Verify=*/true, &St));
  EXPECT_TRUE(St.ok());
  EXPECT_EQ(textOf(Verified), textOf(Plain));

  asmx::Assembler Par;
  ASSERT_TRUE(
      tpde_tir::compileModuleX64Parallel(M, Par, 4, /*Verify=*/true, &St));
  EXPECT_TRUE(St.ok());
  EXPECT_EQ(textOf(Par), textOf(Plain));
}

// --- UIR verifier ----------------------------------------------------------

namespace {

/// Asserts that the mutated module is rejected by uir::verifyModule and by
/// the Verify-gated serial and parallel entry points before any codegen.
void expectUirRejected(uir::UModule &M, const char *What) {
  SCOPED_TRACE(What);
  std::string Errors;
  EXPECT_FALSE(uir::verifyModule(M, Errors));
  EXPECT_FALSE(Errors.empty());

  asmx::Assembler Serial;
  CompileStatus St;
  EXPECT_FALSE(uir::compileTpdeUir(M, Serial, /*Verify=*/true, &St));
  EXPECT_EQ(St.Err, CompileErr::VerifyFailed);
  EXPECT_EQ(Serial.text().size(), 0u) << "UIR emitter ran on bad IR";

  asmx::Assembler Par;
  EXPECT_FALSE(
      uir::compileModuleUirParallel(M, Par, 2, /*Verify=*/true, &St));
  EXPECT_EQ(St.Err, CompileErr::VerifyFailed);
  EXPECT_EQ(Par.text().size(), 0u);
}

} // namespace

TEST(UirVerifier, MutationsAreCaughtBeforeCodegen) {
  { // Dangling operand: an instruction pointing past the value table.
    uir::UModule M = makeQueryModule(3, 6);
    uir::UFunc &F = M.Funcs[2];
    bool Mutated = false;
    for (uir::UBlock &B : F.Blocks) {
      for (u32 V : B.Insts) {
        if (F.Vals[V].Ops[0] != ~0u) {
          F.Vals[V].Ops[0] = static_cast<u32>(F.Vals.size()) + 100;
          Mutated = true;
          break;
        }
      }
      if (Mutated)
        break;
    }
    ASSERT_TRUE(Mutated);
    expectUirRejected(M, "dangling operand");
  }
  { // Phi incoming block disagrees with the loop header's predecessors.
    uir::UModule M = makeQueryModule(3, 6);
    uir::UFunc &F = M.Funcs[1];
    ASSERT_FALSE(F.Blocks[1].Phis.empty()) << "query loop has no phis";
    uir::UInst &Phi = F.Vals[F.Blocks[1].Phis[0]];
    Phi.InBlock[0] = 2; // exit block is not a predecessor of the header
    expectUirRejected(M, "phi/pred mismatch");
  }
  { // Terminator/successor mismatch.
    uir::UModule M = makeQueryModule(3, 6);
    M.Funcs[0].Blocks[0].Succs.clear(); // entry ends in Br with no target
    expectUirRejected(M, "bad terminator successors");
  }
  { // Duplicate strong query names.
    uir::UModule M = makeQueryModule(3, 4);
    uir::QueryPlan P;
    P.Name = M.Funcs[1].Name; // collides
    P.Preds = {{0, uir::UOp::CmpLt, 7}};
    uir::compilePlan(M, P);
    expectUirRejected(M, "duplicate query name");
  }
}

TEST(UirVerifier, ValidQueryModulePassesWithVerifyOn) {
  uir::UModule M = makeQueryModule(11, 12);
  asmx::Assembler Plain, Verified;
  ASSERT_TRUE(uir::compileTpdeUir(M, Plain));
  CompileStatus St;
  ASSERT_TRUE(uir::compileTpdeUir(M, Verified, /*Verify=*/true, &St));
  EXPECT_TRUE(St.ok());
  EXPECT_EQ(textOf(Verified), textOf(Plain));

  asmx::Assembler Par;
  ASSERT_TRUE(
      uir::compileModuleUirParallel(M, Par, 4, /*Verify=*/true, &St));
  EXPECT_TRUE(St.ok());
  EXPECT_EQ(textOf(Par), textOf(Plain));
}
