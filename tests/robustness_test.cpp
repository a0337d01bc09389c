//===- tests/robustness_test.cpp - Fault injection & graceful degradation -===//
///
/// The robustness suite for the compilation pipeline (docs/ROBUSTNESS.md):
///
///  * Structured diagnostics: serial and parallel compiles of the same bad
///    module report the SAME first error (code, function index, symbol,
///    message) — deterministically, for every thread count.
///  * Graceful degradation: a module with K bad functions still compiles
///    every good function (byte-identical to a serial compile of the good
///    subset), with exactly K precise diagnostics, and the pipeline stays
///    reusable and allocation-free afterwards. Out of memory at any
///    allocation size, a recompile still returns with a diagnostic instead
///    of throwing.
///  * Verifier gate: the adversarial genMalformed corpus is rejected by
///    the tir/uir verifier pre-pass on every entry point (serial and
///    parallel, x64 and a64) and never reaches the emitter.
///  * Fault sweep (only in TPDE_FAULT_INJECTION builds): every registered
///    fault site, across thread counts {1,2,4,8}, either fully recovers
///    (byte-identical output) or fails with one clean structured error —
///    never a crash — and the pool compiles cleanly once disarmed.
///
/// The ASan/UBSan and TSan CI jobs run this binary with fault injection
/// compiled in.
///
//===----------------------------------------------------------------------===//

#include "asmx/JITMapper.h"
#include "support/AllocCounter.h"
#include "support/FaultInjector.h"
#include "tir/Verifier.h"
#include "tpde_tir/ParallelCompiler.h"
#include "uir/ParallelCompiler.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using support::CompileErr;
using support::CompileStatus;
using support::FaultInjector;
using support::FaultSite;

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

/// Out of memory, compile() still returns. A warm one-thread pool
/// recompiles a module with one bad function while every allocation of at
/// least FailFromBytes bytes throws, for every threshold from 1 to 4096
/// bytes and each power of two up to 1 MiB: no exception may escape, and
/// the compile reports either the bad function or the lack of memory.
/// The same pool then compiles the healed module to the serial bytes. A
/// fresh pool's first compile, which also sizes its scratch and builds
/// its module-level fragment for the first time, reports the lack of
/// memory as OutOfMemory too.
TEST(GracefulDegradation, OutOfMemoryNeverEscapesCompile) {
  tir::Module M = makeModule(59, 10);
  tpde_tir::ParallelModuleCompiler PC(M, {.NumThreads = 1});
  asmx::Assembler Out;
  for (int I = 0; I < 2; ++I)
    ASSERT_TRUE(PC.compile(Out)) << PC.status().Message;
  u32 Sabotaged = sabotage(M, 6);
  ASSERT_NE(Sabotaged, ~0u);

  std::vector<u64> Thresholds;
  for (u64 B = 1; B <= 4096; ++B)
    Thresholds.push_back(B);
  for (u64 B = 8192; B <= (u64{1} << 20); B *= 2)
    Thresholds.push_back(B);
  for (u64 From : Thresholds) {
    bool OK = true, Threw = false;
    support::AllocCounter::FailFromBytes.store(From);
    try {
      OK = PC.compile(Out);
    } catch (...) {
      Threw = true;
    }
    support::AllocCounter::FailFromBytes.store(0);
    ASSERT_FALSE(Threw) << "an exception escaped compile() at FailFromBytes="
                        << From;
    ASSERT_FALSE(OK) << "FailFromBytes=" << From;
    const CompileErr E = PC.status().Err;
    ASSERT_TRUE(E == CompileErr::UnsupportedInst ||
                E == CompileErr::OutOfMemory)
        << "FailFromBytes=" << From << ": " << support::compileErrName(E);
  }

  M.Funcs[6].Values[Sabotaged].Opcode = tir::Op::Add;
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  ASSERT_TRUE(PC.compile(Out)) << PC.status().Message;
  EXPECT_EQ(textOf(Out), textOf(SerialAsm));
  EXPECT_EQ(roOf(Out), roOf(SerialAsm));

  for (u64 From = 1; From <= (u64{1} << 20); From *= 2) {
    tpde_tir::ParallelModuleCompiler Fresh(M, {.NumThreads = 1});
    asmx::Assembler FreshOut;
    bool OK = true, Threw = false;
    support::AllocCounter::FailFromBytes.store(From);
    try {
      OK = Fresh.compile(FreshOut);
    } catch (...) {
      Threw = true;
    }
    support::AllocCounter::FailFromBytes.store(0);
    ASSERT_FALSE(Threw) << "fresh pool, FailFromBytes=" << From;
    if (!OK) {
      EXPECT_EQ(Fresh.status().Err, CompileErr::OutOfMemory)
          << "fresh pool, FailFromBytes=" << From << ": "
          << support::compileErrName(Fresh.status().Err) << " ("
          << Fresh.status().Message << ")";
    }
  }
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

uir::UModule makeQueryModule(u64 Seed, u32 NumQueries) {
  workloads::QueryProfile P;
  P.Seed = Seed;
  P.NumQueries = NumQueries;
  uir::UModule M;
  workloads::genQueryModule(M, P);
  return M;
}

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

// --- Fault sweep (TPDE_FAULT_INJECTION builds only) ------------------------

#if TPDE_FAULT_INJECTION

namespace {

/// RAII guard: no test leaves a site armed behind, even on assertion exit.
struct DisarmOnExit {
  ~DisarmOnExit() { FaultInjector::disarmAll(); }
};

} // namespace

/// The acceptance sweep: every compile-path fault site, for thread counts
/// {1,2,4,8} and two different hit positions, must either fully recover
/// (clean success, byte-identical output) or fail with one structured
/// diagnostic — and the pool must produce the reference bytes on the next
/// clean compile either way.
TEST(FaultSweep, EverySiteEveryThreadCountRecoversOrFailsCleanly) {
  DisarmOnExit Guard;
  tir::Module M = makeModule(31, 16);
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  std::vector<u8> RefText = textOf(SerialAsm);

  const FaultSite CompileSites[] = {FaultSite::ArenaGrow,
                                    FaultSite::ShardCompile,
                                    FaultSite::SymbolCreate,
                                    FaultSite::SectionMerge};
  for (FaultSite Site : CompileSites) {
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      for (u64 Nth : {u64(1), u64(5)}) {
        SCOPED_TRACE(std::string(support::faultSiteName(Site)) +
                     " threads=" + std::to_string(Threads) +
                     " nth=" + std::to_string(Nth));
        FaultInjector::disarmAll();
        tpde_tir::ParallelCompileOptions Opts;
        Opts.NumThreads = Threads;
        tpde_tir::ParallelModuleCompiler PC(M, Opts);
        asmx::Assembler Out;
        FaultInjector::arm(Site, Nth);
        bool OK = PC.compile(Out);
        FaultInjector::disarmAll();
        if (OK) {
          // Recovered: the fault was absorbed by the retry pass and the
          // output is indistinguishable from an unfaulted compile.
          EXPECT_TRUE(PC.status().ok());
          EXPECT_TRUE(PC.diagnostics().empty());
          EXPECT_EQ(textOf(Out), RefText);
        } else {
          // Clean structured error; nothing crashed, nothing leaked (the
          // sanitizer jobs enforce the latter).
          EXPECT_NE(PC.status().Err, CompileErr::Ok);
          EXPECT_FALSE(PC.status().Message.empty());
          EXPECT_FALSE(PC.diagnostics().empty());
        }
        // The pool must be reusable after the fault, with clean output.
        ASSERT_TRUE(PC.compile(Out));
        EXPECT_TRUE(PC.status().ok());
        EXPECT_EQ(textOf(Out), RefText) << "post-fault recompile diverged";
      }
    }
  }
}

/// The shard-compile site is always recoverable by construction: the
/// retry pass recompiles the poisoned shard serially, so the compile must
/// SUCCEED with byte-identical output — full graceful degradation.
TEST(FaultSweep, ShardCompileFaultFullyRecovers) {
  DisarmOnExit Guard;
  tir::Module M = makeModule(37, 12);
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));

  for (unsigned Threads : {1u, 4u}) {
    tpde_tir::ParallelCompileOptions Opts;
    Opts.NumThreads = Threads;
    tpde_tir::ParallelModuleCompiler PC(M, Opts);
    asmx::Assembler Out;
    FaultInjector::arm(FaultSite::ShardCompile);
    ASSERT_TRUE(PC.compile(Out)) << "threads=" << Threads;
    FaultInjector::disarmAll();
    EXPECT_TRUE(PC.diagnostics().empty());
    EXPECT_EQ(textOf(Out), textOf(SerialAsm)) << "threads=" << Threads;
  }
}

/// After a fault + recovery the pool must return to the zero-allocation
/// steady state: the error paths may allocate, the clean path never.
TEST(FaultSweep, SteadyStateIsAllocationFreeAfterRecovery) {
  DisarmOnExit Guard;
  tir::Module M = makeModule(41, 10);
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 1;
  tpde_tir::ParallelModuleCompiler PC(M, Opts);
  asmx::Assembler Out;
  ASSERT_TRUE(PC.compile(Out));
  FaultInjector::arm(FaultSite::ShardCompile);
  ASSERT_TRUE(PC.compile(Out)); // recovers via the retry pass
  FaultInjector::disarmAll();
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(PC.compile(Out));
  support::AllocWatch W;
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_EQ(W.newCalls(), 0u)
      << "recovery left the pool off the allocation-free steady state ("
      << W.newBytes() << " bytes)";
}

/// The JIT-mapping site: map() must refuse with a structured JitMapFailed/
/// FaultInjected status before taking any system resources, and succeed
/// on the next attempt.
TEST(FaultSweep, JitMapFaultIsACleanErrorAndRetrySucceeds) {
  DisarmOnExit Guard;
  tir::Module M = makeModule(47, 6);
  asmx::Assembler Asm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, Asm));

  asmx::JITMapper JIT;
  FaultInjector::arm(FaultSite::JitMap);
  EXPECT_FALSE(JIT.map(Asm));
  FaultInjector::disarmAll();
  EXPECT_EQ(JIT.status().Err, CompileErr::FaultInjected);
  EXPECT_FALSE(JIT.status().Message.empty());

  ASSERT_TRUE(JIT.map(Asm));
  EXPECT_TRUE(JIT.status().ok());
  auto *Fn = reinterpret_cast<u64 (*)(u64, u64)>(JIT.address("main_entry"));
  ASSERT_NE(Fn, nullptr);
  (void)Fn(1, 2); // executable after the faulted attempt
}

/// The UIR instantiation goes through the same driver, so a shard fault
/// must recover there too — the framework property, not a TIR one.
TEST(FaultSweep, UirShardFaultRecovers) {
  DisarmOnExit Guard;
  uir::UModule M = makeQueryModule(19, 24);
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(uir::compileTpdeUir(M, SerialAsm));

  uir::ParallelCompileOptions Opts;
  Opts.NumThreads = 4;
  uir::ParallelModuleCompilerUir PC(M, Opts);
  asmx::Assembler Out;
  FaultInjector::arm(FaultSite::ShardCompile);
  ASSERT_TRUE(PC.compile(Out));
  FaultInjector::disarmAll();
  EXPECT_EQ(textOf(Out), textOf(SerialAsm));
}

#else // !TPDE_FAULT_INJECTION

TEST(FaultSweep, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "configure with -DTPDE_FAULT_INJECTION=ON to run the "
                  "fault sweep";
}

#endif // TPDE_FAULT_INJECTION
