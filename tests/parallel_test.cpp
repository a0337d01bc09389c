//===- tests/parallel_test.cpp - Parallel module compilation tests --------===//
///
/// Concurrency test suite for the sharded module compiler: the merged
/// output must be byte-identical for every thread count and across
/// repeated runs (the determinism contract of
/// tpde_tir/ParallelCompiler.h), cross-shard calls must relocate
/// correctly end-to-end (JIT execution), and steady-state recompilation
/// must not touch the heap (docs/PERF.md). Also covers the work-stealing
/// range queue and the Assembler merge API underneath it.
///
/// The TSan CI job runs this binary to shake out data races in the
/// worker pool and the queue.
///
//===----------------------------------------------------------------------===//

#include "a64/Sim.h"
#include "asmx/ElfWriter.h"
#include "asmx/JITMapper.h"
#include "support/AllocCounter.h"
#include "support/WorkQueue.h"
#include "tir/Builder.h"
#include "tpde_tir/ParallelCompiler.h"
#include "uir/ParallelCompiler.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;

// --- Work-stealing range queue ---------------------------------------------

TEST(WorkQueue, SingleWorkerPopsInOrder) {
  support::WorkStealingRangeQueue Q;
  Q.reset(10, 1);
  u32 Out;
  for (u32 I = 0; I < 10; ++I) {
    ASSERT_TRUE(Q.pop(0, Out));
    EXPECT_EQ(Out, I);
  }
  EXPECT_FALSE(Q.pop(0, Out));
}

TEST(WorkQueue, ExhaustedWorkerStealsFromVictims) {
  support::WorkStealingRangeQueue Q;
  Q.reset(8, 2); // worker 0 owns [0,4), worker 1 owns [4,8)
  u32 Out;
  std::vector<bool> Seen(8, false);
  // Worker 0 drains everything: its own range first, then steals.
  for (u32 I = 0; I < 8; ++I) {
    ASSERT_TRUE(Q.pop(0, Out));
    ASSERT_LT(Out, 8u);
    EXPECT_FALSE(Seen[Out]) << "index " << Out << " claimed twice";
    Seen[Out] = true;
  }
  EXPECT_FALSE(Q.pop(0, Out));
  EXPECT_FALSE(Q.pop(1, Out));
}

TEST(WorkQueue, ConcurrentClaimsAreExactlyOnce) {
  constexpr u32 Count = 10000;
  constexpr unsigned NumThreads = 8;
  support::WorkStealingRangeQueue Q;
  Q.reset(Count, NumThreads);
  std::vector<std::atomic<u32>> Claims(Count);
  std::atomic<u64> Sum{0};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < NumThreads; ++W)
    Threads.emplace_back([&, W] {
      u32 Out;
      u64 Local = 0;
      while (Q.pop(W, Out)) {
        Claims[Out].fetch_add(1, std::memory_order_relaxed);
        Local += Out;
      }
      Sum.fetch_add(Local, std::memory_order_relaxed);
    });
  for (std::thread &T : Threads)
    T.join();
  for (u32 I = 0; I < Count; ++I)
    ASSERT_EQ(Claims[I].load(), 1u) << "index " << I;
  EXPECT_EQ(Sum.load(), static_cast<u64>(Count) * (Count - 1) / 2);
}

/// The static first split: each worker starts at the front of its own
/// contiguous range and keeps claiming from it, so a reused pool compiles
/// the same shards on the same thread every time. A single shared cursor
/// would hand worker 0 index 3 on its second pop.
TEST(WorkQueue, EachWorkerStartsAtItsOwnRangeEveryReset) {
  support::WorkStealingRangeQueue Q;
  u32 First[3] = {};
  for (int Round = 0; Round < 2; ++Round) {
    Q.reset(10, 3);
    u32 Out;
    for (unsigned W = 0; W < 3; ++W) {
      ASSERT_TRUE(Q.pop(W, Out));
      if (Round == 0)
        First[W] = Out;
      else
        EXPECT_EQ(Out, First[W]) << "worker " << W << " moved on reset";
    }
    EXPECT_EQ(First[0], 0u);
    EXPECT_LT(First[0], First[1]);
    EXPECT_LT(First[1], First[2]);
    for (unsigned W = 0; W < 3; ++W) {
      ASSERT_TRUE(Q.pop(W, Out));
      EXPECT_EQ(Out, First[W] + 1) << "worker " << W << " left its range";
    }
  }
}

TEST(WorkQueue, ResetReusesSlotStorage) {
  support::WorkStealingRangeQueue Q;
  Q.reset(100, 4);
  u32 Out;
  while (Q.pop(0, Out))
    ;
  support::AllocWatch W;
  Q.reset(100, 4);
  EXPECT_EQ(W.newCalls(), 0u) << "re-reset with same worker count allocated";
}

// --- Determinism of the merged module --------------------------------------

namespace {

/// Everything observable about an assembled module, for equality checks.
struct ModuleImage {
  std::vector<u8> Text, RO, Data;
  u64 BssSize = 0;
  std::vector<std::tuple<std::string, int, bool, bool, int, u64, u64>> Syms;
  std::vector<std::tuple<int, u64, int, u32, i64>> Relocs;

  bool operator==(const ModuleImage &) const = default;
};

ModuleImage imageOf(const asmx::Assembler &Asm) {
  ModuleImage Img;
  const asmx::Section &T = Asm.section(asmx::SecKind::Text);
  const asmx::Section &RO = Asm.section(asmx::SecKind::ROData);
  const asmx::Section &D = Asm.section(asmx::SecKind::Data);
  Img.Text.assign(T.Data.begin(), T.Data.end());
  Img.RO.assign(RO.Data.begin(), RO.Data.end());
  Img.Data.assign(D.Data.begin(), D.Data.end());
  Img.BssSize = Asm.section(asmx::SecKind::BSS).BssSize;
  for (const asmx::Symbol &S : Asm.symbols())
    Img.Syms.emplace_back(std::string(S.Name), static_cast<int>(S.Link),
                          S.Defined, S.IsFunc, static_cast<int>(S.Sec), S.Off,
                          S.Size);
  for (const asmx::Reloc &R : Asm.relocs())
    Img.Relocs.emplace_back(static_cast<int>(R.Sec), R.Off,
                            static_cast<int>(R.Kind), R.Sym.Idx, R.Addend);
  return Img;
}

tir::Module makeModule(u64 Seed, u32 NumFuncs, bool SSAForm) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = Seed;
  P.NumFuncs = NumFuncs;
  P.SSAForm = SSAForm;
  P.CallPct = 12; // cross-shard calls are the point of this suite
  workloads::genModule(M, P);
  return M;
}

/// Smaller dynamic footprint for tests that *execute* on the a64
/// simulator (~100x slower than native): shallow loops, fewer blocks.
tir::Module makeSimModule(u64 Seed, u32 NumFuncs, bool WithFloat) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = Seed;
  P.NumFuncs = NumFuncs;
  P.SSAForm = true;
  P.CallPct = 12;
  P.RegionBudget = 4;
  P.MaxLoopTrip = 3;
  // fptosi overflow semantics legitimately differ between the targets
  // (x86 "integer indefinite" vs AArch64 saturation; UB at the IR
  // level), so cross-back-end comparisons run without FP.
  if (!WithFloat)
    P.FloatPct = 0;
  workloads::genModule(M, P);
  return M;
}

/// Eight f64(f64) functions g0..g7, each using two FP constants of its
/// own and one all of them share, and each calling g[(i+5) % 8] — forward
/// and backward calls that cross every cut. Every fragment boundary then
/// falls between constant-pool entries and named symbols, where a merge
/// that orders the two kinds apart would reorder the symbol table.
tir::Module makeFpCallModule() {
  constexpr u32 N = 8;
  tir::Module M;
  for (u32 I = 0; I < N; ++I) {
    tir::FunctionBuilder B(M, "g" + std::to_string(I), tir::Type::F64,
                           {tir::Type::F64});
    B.setInsertPoint(B.addBlock());
    auto A = B.binop(tir::Op::FAdd, B.arg(0), B.constF64(I + 0.5));
    auto Mul = B.binop(tir::Op::FMul, A, B.constF64(I + 0.25));
    auto Sub = B.binop(tir::Op::FSub, Mul, B.constF64(1.0));
    B.ret(B.call((I + 5) % N, tir::Type::F64, {Sub}));
    B.finish();
  }
  return M;
}

/// Compiles makeFpCallModule() with every thread count and shard size of
/// the cut matrix through \p PoolT and expects each merged in-memory
/// image — symbols in table order, relocations with their symbol
/// indices, all sections — to equal \p Serial's.
template <typename PoolT>
void expectEveryCutImagesSerial(tir::Module &M,
                                const asmx::Assembler &Serial) {
  const ModuleImage Want = imageOf(Serial);
  for (unsigned Threads : {1u, 2u, 3u, 8u}) {
    for (u32 PerShard : {1u, 2u, 4u, 64u}) {
      PoolT PC(M, {.NumThreads = Threads, .FuncsPerShard = PerShard});
      asmx::Assembler Out;
      ASSERT_TRUE(PC.compile(Out)) << PC.status().Message;
      EXPECT_EQ(imageOf(Out), Want) << "threads=" << Threads
                                    << " funcs/shard=" << PerShard;
    }
  }
}

} // namespace

/// The tentpole property: one module, compiled with 1, 2, 4, and 8
/// threads, must produce a byte-identical merged image — sections,
/// symbol table, and relocations. The .text and .rodata bytes must
/// additionally match a serial single-assembler compile (rodata thanks
/// to the merge-time FP-pool dedup).
TEST(ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  for (bool SSA : {true, false}) {
    tir::Module M = makeModule(11, 26, SSA);

    asmx::Assembler SerialAsm;
    ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
    std::vector<u8> SerialText(SerialAsm.text().Data.begin(),
                               SerialAsm.text().Data.end());
    const asmx::Section &SerialROSec =
        SerialAsm.section(asmx::SecKind::ROData);
    std::vector<u8> SerialRO(SerialROSec.Data.begin(), SerialROSec.Data.end());

    ModuleImage Ref;
    bool HaveRef = false;
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      asmx::Assembler Out;
      ASSERT_TRUE(tpde_tir::compileModuleX64Parallel(M, Out, Threads))
          << "threads=" << Threads;
      ASSERT_FALSE(Out.hasError()) << Out.errorMessage();
      ModuleImage Img = imageOf(Out);
      EXPECT_EQ(Img.Text, SerialText)
          << "merged .text diverged from the serial compile, threads="
          << Threads;
      EXPECT_EQ(Img.RO, SerialRO)
          << "merged .rodata (FP pool) diverged from the serial compile, "
             "threads=" << Threads;
      if (!HaveRef) {
        Ref = std::move(Img);
        HaveRef = true;
      } else {
        EXPECT_EQ(Img, Ref) << "merged image differs at threads=" << Threads
                            << " (SSA=" << SSA << ")";
      }
    }
  }
}

/// The FP-pool dedup must actually fire: with FP constants shared across
/// functions in different shards, the merged pool equals the serial one
/// (which dedups per module) — not the concatenation of per-shard pools.
TEST(ParallelDeterminism, FpPoolMatchesSerialAcrossShards) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 71;
  P.NumFuncs = 20;
  P.FloatPct = 45; // plenty of FP constants in every shard
  P.SSAForm = true;
  workloads::genModule(M, P);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  const asmx::Section &SerialRO = SerialAsm.section(asmx::SecKind::ROData);
  ASSERT_GT(SerialRO.size(), 0u) << "profile generated no FP constants";

  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 4;
  Opts.FuncsPerShard = 2; // many shards -> many would-be duplicates
  tpde_tir::ParallelModuleCompiler PC(M, Opts);
  asmx::Assembler Out;
  ASSERT_TRUE(PC.compile(Out));
  ASSERT_GT(PC.shardCount(), 4u);
  const asmx::Section &MergedRO = Out.section(asmx::SecKind::ROData);
  EXPECT_EQ(MergedRO.size(), SerialRO.size())
      << "cross-shard FP-pool dedup did not restore the serial pool size";
  EXPECT_TRUE(std::equal(MergedRO.Data.begin(), MergedRO.Data.end(),
                         SerialRO.Data.begin(), SerialRO.Data.end()));
}

/// Where fragments are cut depends on the schedule (a worker's run ends
/// where it claims a non-consecutive shard), so the merged in-memory
/// image must not depend on the cut: for every thread count and shard
/// size it equals the serial compile's — the symbol table order and the
/// relocation symbol indices included, which the ELF writer's canonical
/// symbol order would hide.
TEST(ParallelDeterminism, MergedImageEqualsSerialForEveryCut) {
  tir::Module M = makeFpCallModule();
  asmx::Assembler Serial;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, Serial));
  ASSERT_GT(Serial.section(asmx::SecKind::ROData).size(), 0u);
  expectEveryCutImagesSerial<tpde_tir::ParallelModuleCompiler>(M, Serial);
}

TEST(A64ParallelDeterminism, MergedImageEqualsSerialForEveryCut) {
  tir::Module M = makeFpCallModule();
  asmx::Assembler Serial;
  ASSERT_TRUE(tpde_tir::compileModuleA64(M, Serial));
  ASSERT_GT(Serial.section(asmx::SecKind::ROData).size(), 0u);
  expectEveryCutImagesSerial<tpde_tir::ParallelModuleCompilerA64>(M, Serial);
}

/// Repeated compiles through one reused pipeline must also be identical —
/// the work-stealing schedule varies run to run, the output must not.
TEST(ParallelDeterminism, RepeatedRunsAreIdentical) {
  tir::Module M = makeModule(23, 19, true);
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 4;
  tpde_tir::ParallelModuleCompiler PC(M, Opts);

  asmx::Assembler Out;
  ASSERT_TRUE(PC.compile(Out));
  ModuleImage Ref = imageOf(Out);
  for (int Run = 0; Run < 5; ++Run) {
    ASSERT_TRUE(PC.compile(Out));
    ASSERT_EQ(imageOf(Out), Ref) << "run " << Run;
  }
}

/// End-to-end: the merged module must JIT-map and execute with the same
/// results as the serial compile — this exercises cross-shard call
/// relocations and global-address references resolved through the merge.
TEST(ParallelCorrectness, JITExecutionMatchesSerial) {
  tir::Module M = makeModule(37, 12, true);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  asmx::JITMapper SerialJIT;
  ASSERT_TRUE(SerialJIT.map(SerialAsm));
  auto *SerialFn =
      reinterpret_cast<u64 (*)(u64, u64)>(SerialJIT.address("main_entry"));
  ASSERT_NE(SerialFn, nullptr);

  asmx::Assembler ParAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64Parallel(M, ParAsm, 4));
  asmx::JITMapper ParJIT;
  ASSERT_TRUE(ParJIT.map(ParAsm));
  auto *ParFn =
      reinterpret_cast<u64 (*)(u64, u64)>(ParJIT.address("main_entry"));
  ASSERT_NE(ParFn, nullptr);

  // Identical input sequences against fresh mappings: both start from the
  // same initial global state, so all results must agree bit for bit.
  for (u64 I = 0; I < 6; ++I)
    ASSERT_EQ(ParFn(I, I * 7 + 3), SerialFn(I, I * 7 + 3)) << "input " << I;
}

/// Steady-state recompilation through a reused pipeline must not touch
/// the heap. Run single-threaded so the one worker visits every shard
/// during warmup and reaches its high-water mark — with work stealing,
/// which worker sees which shard varies by schedule, so a multi-threaded
/// worker may legitimately first meet a larger shard later. The
/// multi-thread variant below bounds the whole pipeline instead.
TEST(ParallelReuse, SteadyStateIsAllocationFreeSingleWorker) {
  tir::Module M = makeModule(5, 16, true);
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 1;
  tpde_tir::ParallelModuleCompiler PC(M, Opts);
  asmx::Assembler Out;
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(PC.compile(Out));
  support::AllocWatch W;
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state parallel recompilation allocated " << W.newCalls()
      << " times (" << W.newBytes() << " bytes)";
}

/// With several workers the schedule decides which worker grows which
/// buffer, so individual compiles may allocate while a worker warms up on
/// a shard it has not seen; but once every worker has compiled every
/// shard size, the pipeline must converge to zero as well. Compiling
/// many rounds makes convergence overwhelmingly likely; the test asserts
/// the *last* round is allocation-free.
TEST(ParallelReuse, SteadyStateConvergesMultiWorker) {
  tir::Module M = makeModule(5, 16, true);
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 2;
  Opts.FuncsPerShard = 8; // two shards: both workers see both sizes fast
  tpde_tir::ParallelModuleCompiler PC(M, Opts);
  asmx::Assembler Out;
  u64 Last = ~0ull;
  for (int I = 0; I < 20 && Last != 0; ++I) {
    support::AllocWatch W;
    ASSERT_TRUE(PC.compile(Out));
    Last = W.newCalls();
  }
  EXPECT_EQ(Last, 0u) << "multi-worker pipeline never reached steady state";
}

// --- Runs: consecutive shards share a fragment -----------------------------

/// One worker claims every shard in order, so the whole module is one
/// run: compiled like a serial compile and stitched once.
TEST(ParallelRuns, OneWorkerStitchesOneFragment) {
  tir::Module M = makeModule(7, 63, true); // + main_entry = 64 functions
  ASSERT_EQ(M.Funcs.size(), 64u);
  tpde_tir::ParallelModuleCompiler PC(M, {.NumThreads = 1,
                                          .FuncsPerShard = 4});
  asmx::Assembler Out;
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_EQ(PC.shardCount(), 16u);
  EXPECT_EQ(PC.emitStats().Fragments, 1u);
}

/// A bad function in shard 9 discards the run that reached it (shards
/// 0-9); recovery recompiles shards 0-8 whole, one fragment each, and
/// shard 9 function by function into its own. The worker's next run
/// (shards 10-15) is untouched. The one diagnostic names shard 9 and the
/// bad function, and the output is the serial compile of the good subset.
TEST(ParallelRuns, FailedRunIsCutAtTheBadShard) {
  tir::Module M = makeModule(7, 63, true); // + main_entry = 64 functions
  ASSERT_EQ(M.Funcs.size(), 64u);
  tpde_tir::ParallelModuleCompiler PC(M, {.NumThreads = 1,
                                          .FuncsPerShard = 4});
  asmx::Assembler Out;
  ASSERT_TRUE(PC.compile(Out));
  ASSERT_EQ(PC.shardCount(), 16u);
  u32 Bad = ~0u;
  for (u32 F = PC.shardBounds()[9]; F < PC.shardBounds()[10] && Bad == ~0u;
       ++F) {
    for (tir::Value &V : M.Funcs[F].Values) {
      if (V.Kind == tir::ValKind::Inst && V.Opcode == tir::Op::Add) {
        V.Opcode = tir::Op::None; // no instruction compiler for None
        Bad = F;
        break;
      }
    }
  }
  ASSERT_NE(Bad, ~0u) << "shard 9 has no Add to sabotage";
  const std::string Name = M.Funcs[Bad].Name;

  EXPECT_FALSE(PC.compile(Out));
  ASSERT_EQ(PC.diagnostics().size(), 1u);
  const support::CompileStatus &D = PC.diagnostics()[0];
  EXPECT_EQ(D.Err, support::CompileErr::UnsupportedInst);
  EXPECT_EQ(D.Shard, 9u);
  EXPECT_EQ(D.Func, Bad);
  EXPECT_EQ(D.Symbol, Name);
  EXPECT_EQ(D.Message, "unsupported instruction in function '" + Name + "'");
  EXPECT_EQ(PC.emitStats().Fragments, 9u + 1u + 1u);

  tir::Module Subset = M;
  Subset.Funcs[Bad].IsDeclaration = true;
  asmx::Assembler SubsetAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(Subset, SubsetAsm));
  EXPECT_EQ(imageOf(Out), imageOf(SubsetAsm));
}

// --- Deterministic size-weighted shard sizing ------------------------------

/// Weighted shard boundaries are a pure function of the module: same
/// bounds for every thread count, every shard non-empty, full coverage —
/// and the merged .text must still equal the serial compile (the merge
/// walks shards in function order regardless of where the cuts fall).
TEST(WeightedShards, DeterministicBoundsAndSerialText) {
  tir::Module M = makeModule(41, 21, true);
  // Skew the module: make one function much larger than the rest so the
  // weighted cut visibly deviates from the fixed-FuncsPerShard grid.
  {
    workloads::Profile Big;
    Big.Seed = 99;
    Big.NumFuncs = 1;
    Big.RegionBudget = 60;
    Big.InstsPerBlock = 16;
    workloads::genFunction(M, "whale", Big);
  }

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  std::vector<u8> SerialText(SerialAsm.text().Data.begin(),
                             SerialAsm.text().Data.end());

  std::vector<u32> RefBounds;
  for (unsigned Threads : {1u, 3u, 8u}) {
    tpde_tir::ParallelCompileOptions Opts;
    Opts.NumThreads = Threads;
    tpde_tir::ParallelModuleCompiler PC(M, Opts);
    asmx::Assembler Out;
    ASSERT_TRUE(PC.compile(Out));
    std::span<const u32> Bounds = PC.shardBounds();
    ASSERT_EQ(Bounds.size(), PC.shardCount() + 1u);
    EXPECT_EQ(Bounds.front(), 0u);
    EXPECT_EQ(Bounds.back(), static_cast<u32>(M.Funcs.size()));
    for (size_t I = 1; I < Bounds.size(); ++I)
      EXPECT_LT(Bounds[I - 1], Bounds[I]) << "empty shard " << I;
    if (RefBounds.empty())
      RefBounds.assign(Bounds.begin(), Bounds.end());
    else
      EXPECT_TRUE(std::equal(Bounds.begin(), Bounds.end(), RefBounds.begin(),
                             RefBounds.end()))
          << "shard bounds depend on thread count (threads=" << Threads << ")";
    std::vector<u8> Text(Out.text().Data.begin(), Out.text().Data.end());
    EXPECT_EQ(Text, SerialText) << "weighted shards broke the serial-text "
                                   "contract, threads=" << Threads;
  }
}

// --- AArch64: the driver's second instantiation ----------------------------

/// The tentpole parity property: the a64 back-end through the shared
/// driver template is byte-identical for every thread count, and its
/// merged .text equals the serial a64 compile.
TEST(A64ParallelDeterminism, ByteIdenticalAcrossThreadCounts) {
  for (bool SSA : {true, false}) {
    tir::Module M = makeModule(11, 26, SSA);

    asmx::Assembler SerialAsm;
    ASSERT_TRUE(tpde_tir::compileModuleA64(M, SerialAsm));
    std::vector<u8> SerialText(SerialAsm.text().Data.begin(),
                               SerialAsm.text().Data.end());
    const asmx::Section &SerialROSec =
        SerialAsm.section(asmx::SecKind::ROData);
    std::vector<u8> SerialRO(SerialROSec.Data.begin(), SerialROSec.Data.end());

    ModuleImage Ref;
    bool HaveRef = false;
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      asmx::Assembler Out;
      ASSERT_TRUE(tpde_tir::compileModuleA64Parallel(M, Out, Threads))
          << "threads=" << Threads;
      ASSERT_FALSE(Out.hasError()) << Out.errorMessage();
      ModuleImage Img = imageOf(Out);
      EXPECT_EQ(Img.Text, SerialText)
          << "merged a64 .text diverged from the serial compile, threads="
          << Threads;
      EXPECT_EQ(Img.RO, SerialRO)
          << "merged a64 .rodata diverged from the serial compile, threads="
          << Threads;
      if (!HaveRef) {
        Ref = std::move(Img);
        HaveRef = true;
      } else {
        EXPECT_EQ(Img, Ref) << "merged a64 image differs at threads="
                            << Threads << " (SSA=" << SSA << ")";
      }
    }
  }
}

/// End-to-end on the simulator: the merged a64 module must map and
/// execute with the same results as the serial a64 compile — cross-shard
/// call relocations and global references resolve through the merge.
TEST(A64ParallelCorrectness, SimExecutionMatchesSerial) {
  tir::Module M = makeSimModule(37, 12, /*WithFloat=*/true);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleA64(M, SerialAsm));
  a64::Sim SerialSim;
  a64::SimModule SerialMod;
  ASSERT_TRUE(SerialMod.map(SerialAsm, SerialSim));
  u64 SerialEntry = SerialMod.address("main_entry");
  ASSERT_NE(SerialEntry, 0u);

  asmx::Assembler ParAsm;
  ASSERT_TRUE(tpde_tir::compileModuleA64Parallel(M, ParAsm, 4));
  a64::Sim ParSim;
  a64::SimModule ParMod;
  ASSERT_TRUE(ParMod.map(ParAsm, ParSim));
  u64 ParEntry = ParMod.address("main_entry");
  ASSERT_NE(ParEntry, 0u);

  // Identical input sequences against fresh mappings: both start from the
  // same initial global state, so all results must agree bit for bit.
  for (u64 I = 0; I < 6; ++I) {
    u64 Serial = SerialSim.call(SerialEntry, {I, I * 7 + 3});
    u64 Par = ParSim.call(ParEntry, {I, I * 7 + 3});
    ASSERT_FALSE(SerialSim.Trapped);
    ASSERT_FALSE(ParSim.Trapped);
    ASSERT_EQ(Par, Serial) << "input " << I;
  }
}

/// Cross-back-end check: the a64 simulator execution must agree with the
/// natively JIT-executed x64 compile of the same module — the strongest
/// available oracle for the new instruction compilers. FP is excluded:
/// the targets' fptosi overflow results differ by architecture (see
/// makeSimModule).
TEST(A64ParallelCorrectness, SimExecutionMatchesX64JIT) {
  tir::Module M = makeSimModule(53, 10, /*WithFloat=*/false);

  asmx::Assembler X64Asm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, X64Asm));
  asmx::JITMapper JIT;
  ASSERT_TRUE(JIT.map(X64Asm));
  auto *X64Fn = reinterpret_cast<u64 (*)(u64, u64)>(JIT.address("main_entry"));
  ASSERT_NE(X64Fn, nullptr);

  asmx::Assembler A64Asm;
  ASSERT_TRUE(tpde_tir::compileModuleA64Parallel(M, A64Asm, 4));
  a64::Sim S;
  a64::SimModule Mod;
  ASSERT_TRUE(Mod.map(A64Asm, S));
  u64 Entry = Mod.address("main_entry");
  ASSERT_NE(Entry, 0u);

  for (u64 I = 0; I < 4; ++I) {
    u64 X64Res = X64Fn(I, I * 5 + 1);
    u64 A64Res = S.call(Entry, {I, I * 5 + 1});
    ASSERT_FALSE(S.Trapped);
    ASSERT_EQ(A64Res, X64Res) << "input " << I;
  }
}

/// Steady-state a64 recompilation through a reused pipeline must not
/// touch the heap — the allocation policy is a framework property the
/// second back-end inherits (docs/PERF.md).
TEST(A64ParallelReuse, SteadyStateIsAllocationFreeSingleWorker) {
  tir::Module M = makeModule(5, 16, true);
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 1;
  tpde_tir::ParallelModuleCompilerA64 PC(M, Opts);
  asmx::Assembler Out;
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(PC.compile(Out));
  support::AllocWatch W;
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state a64 parallel recompilation allocated " << W.newCalls()
      << " times (" << W.newBytes() << " bytes)";
}

/// A failing shard must fail the whole a64 compile, mirroring the x64
/// driver semantics (shared template, shared behavior).
TEST(A64ParallelCorrectness, FailedShardFailsTheCompile) {
  tir::Module M = makeModule(3, 4, true);
  tir::Function &F = M.Funcs[1];
  for (tir::Value &V : F.Values) {
    if (V.Kind == tir::ValKind::Inst && V.Opcode == tir::Op::Add) {
      V.Opcode = tir::Op::None; // no instruction compiler for None
      break;
    }
  }
  asmx::Assembler Out;
  EXPECT_FALSE(tpde_tir::compileModuleA64Parallel(M, Out, 2));
}

/// A module whose shard boundaries split mutually-calling functions needs
/// the cross-shard symbol resolution of Assembler::mergeFrom(); make sure
/// an undefined-but-called function surfaces as a JIT mapping failure
/// rather than silently mis-linking.
TEST(ParallelCorrectness, FailedShardFailsTheCompile) {
  tir::Module M = makeModule(3, 4, true);
  // Sabotage: an unsupported instruction (dynamic i128 shift) in one
  // function makes its shard fail; the whole compile must report failure.
  tir::Function &F = M.Funcs[1];
  for (tir::Value &V : F.Values) {
    if (V.Kind == tir::ValKind::Inst && V.Opcode == tir::Op::Add) {
      V.Opcode = tir::Op::None; // no instruction compiler for None
      break;
    }
  }
  asmx::Assembler Out;
  EXPECT_FALSE(tpde_tir::compileModuleX64Parallel(M, Out, 2));
}

// --- On-demand symbol materialization --------------------------------------

/// The tentpole property of on-demand symbols: a shard compile's symbol
/// table holds only the shard's own definitions plus what it actually
/// references — never the whole module table. With the old per-shard
/// registration pass this table held every function and global of the
/// module (an O(Funcs^2/FuncsPerShard) term over a module compile).
TEST(SparseShardSymbols, ShardTableIsProportionalToShardNotModule) {
  tir::Module M = makeModule(13, 300, true);
  tpde_tir::TirAdapter Adapter(M);
  asmx::Assembler Asm;
  tpde_tir::TirCompilerX64 Compiler(Adapter, Asm);
  ASSERT_TRUE(Compiler.compileRange(0, 2));
  EXPECT_LT(Asm.symbolCount(), 100u)
      << "a 2-function shard of a 300-function module materialized "
      << Asm.symbolCount() << " symbol records — the whole-module "
         "registration pass is back";
  // And the table really is usable: recompiling another range reuses the
  // rewound storage without heap traffic once warm.
  ASSERT_TRUE(Compiler.compileRange(2, 4));
  ASSERT_TRUE(Compiler.compileRange(0, 2));
  ASSERT_TRUE(Compiler.compileRange(2, 4));
  support::AllocWatch W;
  ASSERT_TRUE(Compiler.compileRange(0, 2));
  ASSERT_TRUE(Compiler.compileRange(2, 4));
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state sparse shard recompilation allocated";
}

/// The serial compile runs the same on-demand symbol mode as a shard: an
/// external declaration that nothing calls never becomes a symbol, a
/// function referenced only by a call appears as an undefined
/// declaration, and the serial ELF object equals the one-thread parallel
/// compile's.
TEST(SparseShardSymbols, SerialCompileHoldsOnlyDefinedAndReferenced) {
  tir::Module M;
  tir::declareFunc(M, "unused_decl", tir::Type::I64, {tir::Type::I64});
  u32 Callee =
      tir::declareFunc(M, "called_decl", tir::Type::I64, {tir::Type::I64});
  {
    tir::FunctionBuilder B(M, "caller", tir::Type::I64, {tir::Type::I64});
    B.setInsertPoint(B.addBlock());
    B.ret(B.call(Callee, tir::Type::I64, {B.arg(0)}));
    B.finish();
  }

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  std::vector<std::string> Names;
  for (const asmx::Symbol &S : SerialAsm.symbols())
    Names.emplace_back(S.Name);
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{"called_decl", "caller"}))
      << "the serial table must hold exactly the defined and referenced "
         "symbols";
  EXPECT_TRUE(SerialAsm.symbol(SerialAsm.findSymbol("caller")).Defined);
  EXPECT_FALSE(SerialAsm.symbol(SerialAsm.findSymbol("called_decl")).Defined);

  asmx::Assembler ParAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64Parallel(M, ParAsm, 1));
  EXPECT_EQ(asmx::writeElfObject(ParAsm, asmx::ElfMachine::X86_64),
            asmx::writeElfObject(SerialAsm, asmx::ElfMachine::X86_64));
}

// --- Large-module determinism (the 10k-function acceptance suite) ----------

namespace {

/// >= 10k small functions with call density: the scale where any
/// per-shard O(module) symbol work dominates a compile. Small bodies
/// keep the suite fast; CallPct keeps cross-shard references plentiful.
tir::Module makeLargeModule(u32 NumFuncs) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 91;
  P.NumFuncs = NumFuncs;
  P.SSAForm = true;
  P.CallPct = 12;
  P.RegionBudget = 2;
  P.InstsPerBlock = 4;
  P.MaxLoopDepth = 1;
  P.MaxLoopTrip = 2;
  workloads::genModule(M, P);
  return M;
}

constexpr u32 LargeFuncs = 10000;

} // namespace

/// Serial and parallel compiles of a 10k-function module must produce
/// byte-identical .text/.rodata AND symbol tables for thread counts
/// {1,2,4,8}. The symbol-table comparison is made at the strongest
/// level: the full relocatable ELF object (the writer's canonical
/// symbol order makes serial registration order and parallel
/// first-reference order converge).
TEST(LargeModuleDeterminism, ElfIdenticalToSerialX64) {
  tir::Module M = makeLargeModule(LargeFuncs);
  ASSERT_GE(M.Funcs.size(), 10000u);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  std::vector<u8> SerialObj =
      asmx::writeElfObject(SerialAsm, asmx::ElfMachine::X86_64);

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    asmx::Assembler Out;
    ASSERT_TRUE(tpde_tir::compileModuleX64Parallel(M, Out, Threads))
        << "threads=" << Threads;
    ASSERT_FALSE(Out.hasError()) << Out.errorMessage();
    EXPECT_TRUE(Out.text().Data.size() == SerialAsm.text().Data.size() &&
                std::equal(Out.text().Data.begin(), Out.text().Data.end(),
                           SerialAsm.text().Data.begin()))
        << "merged .text diverged, threads=" << Threads;
    std::vector<u8> Obj = asmx::writeElfObject(Out, asmx::ElfMachine::X86_64);
    EXPECT_EQ(Obj, SerialObj)
        << "merged ELF object (sections/symtab/relocs) diverged from the "
           "serial compile, threads=" << Threads;
  }
}

TEST(LargeModuleDeterminism, ElfIdenticalToSerialA64) {
  tir::Module M = makeLargeModule(LargeFuncs);
  ASSERT_GE(M.Funcs.size(), 10000u);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleA64(M, SerialAsm));
  std::vector<u8> SerialObj =
      asmx::writeElfObject(SerialAsm, asmx::ElfMachine::AArch64);

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    asmx::Assembler Out;
    ASSERT_TRUE(tpde_tir::compileModuleA64Parallel(M, Out, Threads))
        << "threads=" << Threads;
    ASSERT_FALSE(Out.hasError()) << Out.errorMessage();
    std::vector<u8> Obj = asmx::writeElfObject(Out, asmx::ElfMachine::AArch64);
    EXPECT_EQ(Obj, SerialObj)
        << "merged a64 ELF object diverged from the serial compile, "
           "threads=" << Threads;
  }
}

/// The two-pass emission path (reserve / parallel place / stitch) is the
/// merge resequenced — it must reproduce the serial module's full ELF
/// object, and emitStats() must report a plausible cost breakdown (bytes
/// placed never exceed the merged text+data, stitch visits every shard
/// reloc).
TEST(LargeModuleDeterminism, TwoPassEmissionStatsAndSerialElf) {
  tir::Module M = makeModule(13, 40, true);
  asmx::Assembler SerialAsm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, SerialAsm));
  std::vector<u8> SerialObj =
      asmx::writeElfObject(SerialAsm, asmx::ElfMachine::X86_64);

  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = 4;
  tpde_tir::ParallelModuleCompiler PC(M, Opts);
  asmx::Assembler Out;
  ASSERT_TRUE(PC.compile(Out));
  const core::EmitStats &St = PC.emitStats();
  EXPECT_GT(St.PlacedBytes, 0u);
  EXPECT_LE(St.PlacedBytes,
            Out.text().Data.size() +
                Out.section(asmx::SecKind::Data).Data.size())
      << "placed more bytes than the merged output holds";
  EXPECT_GT(St.StitchRelocs, 0u) << "shard relocs went unstitched";
  EXPECT_EQ(asmx::writeElfObject(Out, asmx::ElfMachine::X86_64), SerialObj)
      << "emission path diverged from the serial compile";
}

// --- UIR: the database back-end through the same driver --------------------

namespace {

/// A generated many-query UIR module (the §7 Umbra scenario at scale),
/// with FP predicates mixed in so shard compiles populate FP pools that
/// must content-dedup across the merge.
uir::UModule makeQueryModule(u64 Seed, u32 NumQueries,
                             std::vector<uir::QueryPlan> *PlansOut =
                                 nullptr) {
  workloads::QueryProfile P;
  P.Seed = Seed;
  P.NumQueries = NumQueries;
  uir::UModule M;
  workloads::genQueryModule(M, P); // the production/bench path
  if (PlansOut)
    *PlansOut = workloads::genQueryPlans(P); // deterministic in the seed
  return M;
}

} // namespace

/// The tentpole property for the UIR instantiation: a many-query module
/// compiled with 1, 2, 4, and 8 threads produces a byte-identical
/// relocatable ELF object — sections, symbol table, relocations — equal
/// to the serial compileTpdeUir() output (full-object comparison, per
/// the LargeModuleDeterminism pattern).
TEST(UirParallelDeterminism, ElfIdenticalToSerialAcrossThreadCounts) {
  uir::UModule M = makeQueryModule(51, 400);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(uir::compileTpdeUir(M, SerialAsm));
  const asmx::Section &SerialRO = SerialAsm.section(asmx::SecKind::ROData);
  ASSERT_GT(SerialRO.size(), 0u)
      << "query set generated no FP constants — the pool dedup is untested";
  std::vector<u8> SerialObj =
      asmx::writeElfObject(SerialAsm, asmx::ElfMachine::X86_64);

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    asmx::Assembler Out;
    ASSERT_TRUE(uir::compileModuleUirParallel(M, Out, Threads))
        << "threads=" << Threads;
    ASSERT_FALSE(Out.hasError()) << Out.errorMessage();
    EXPECT_TRUE(Out.text().Data.size() == SerialAsm.text().Data.size() &&
                std::equal(Out.text().Data.begin(), Out.text().Data.end(),
                           SerialAsm.text().Data.begin()))
        << "merged UIR .text diverged from the serial compile, threads="
        << Threads;
    std::vector<u8> Obj = asmx::writeElfObject(Out, asmx::ElfMachine::X86_64);
    EXPECT_EQ(Obj, SerialObj)
        << "merged UIR ELF object (sections/symtab/relocs) diverged from "
           "the serial compile, threads=" << Threads;
  }
}

/// The 10k-function acceptance bar for the database back-end too: a
/// 10k-query module (the §7 many-query Umbra shape at scale) through
/// the default in-place emission path produces a byte-identical full
/// ELF object for thread counts {1,2,4,8} — the same contract the TIR
/// back-ends meet in LargeModuleDeterminism.
TEST(UirParallelDeterminism, LargeQueryModuleElfIdenticalToSerial) {
  uir::UModule M = makeQueryModule(77, LargeFuncs);
  ASSERT_GE(M.Funcs.size(), 10000u);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(uir::compileTpdeUir(M, SerialAsm));
  std::vector<u8> SerialObj =
      asmx::writeElfObject(SerialAsm, asmx::ElfMachine::X86_64);

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    asmx::Assembler Out;
    ASSERT_TRUE(uir::compileModuleUirParallel(M, Out, Threads))
        << "threads=" << Threads;
    ASSERT_FALSE(Out.hasError()) << Out.errorMessage();
    EXPECT_EQ(asmx::writeElfObject(Out, asmx::ElfMachine::X86_64), SerialObj)
        << "merged 10k-query UIR ELF object diverged from the serial "
           "compile, threads=" << Threads;
  }
}

/// End-to-end: every query of a parallel-compiled module must execute
/// with the same result as the serial compile AND the UIR interpreter —
/// queries land in different shards, so this exercises the merged
/// module's symbol/reloc integrity and the FP-predicate path
/// (rematerialized f64 constants) under sharding.
TEST(UirParallelCorrectness, JITExecutionMatchesSerialAndInterpreter) {
  std::vector<uir::QueryPlan> Plans;
  uir::UModule M = makeQueryModule(63, 48, &Plans);
  uir::Table T(8, 4000, /*Seed=*/5);

  asmx::Assembler SerialAsm;
  ASSERT_TRUE(uir::compileTpdeUir(M, SerialAsm));
  asmx::JITMapper SerialJIT;
  ASSERT_TRUE(SerialJIT.map(SerialAsm));

  asmx::Assembler ParAsm;
  ASSERT_TRUE(uir::compileModuleUirParallel(M, ParAsm, 4));
  asmx::JITMapper ParJIT;
  ASSERT_TRUE(ParJIT.map(ParAsm));

  for (const uir::QueryPlan &P : Plans) {
    auto *SerialQ = reinterpret_cast<i64 (*)(const i64 *const *, i64)>(
        SerialJIT.address(P.Name));
    auto *ParQ = reinterpret_cast<i64 (*)(const i64 *const *, i64)>(
        ParJIT.address(P.Name));
    ASSERT_NE(SerialQ, nullptr) << P.Name;
    ASSERT_NE(ParQ, nullptr) << P.Name;
    i64 Expected = uir::evalPlan(P, T);
    i64 Serial = SerialQ(T.ColPtrs.data(), static_cast<i64>(T.Rows));
    i64 Par = ParQ(T.ColPtrs.data(), static_cast<i64>(T.Rows));
    EXPECT_EQ(Serial, Expected) << P.Name << " (serial vs interpreter)";
    EXPECT_EQ(Par, Expected) << P.Name << " (parallel vs interpreter)";
  }
}

/// Steady-state UIR recompilation through a reused pipeline must not
/// touch the heap — the allocation policy is a framework property the
/// database back-end inherits (docs/PERF.md).
TEST(UirParallelReuse, SteadyStateIsAllocationFreeSingleWorker) {
  uir::UModule M = makeQueryModule(5, 40);
  uir::ParallelCompileOptions Opts;
  Opts.NumThreads = 1;
  uir::ParallelModuleCompilerUir PC(M, Opts);
  asmx::Assembler Out;
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(PC.compile(Out));
  support::AllocWatch W;
  ASSERT_TRUE(PC.compile(Out));
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state UIR parallel recompilation allocated " << W.newCalls()
      << " times (" << W.newBytes() << " bytes)";
}

/// Serial recompiles hold the same contract for the database back-end:
/// recompiling a query module through one compiler and one assembler is
/// byte-identical and allocation-free once warm.
TEST(UirParallelReuse, SerialRecompileIsByteIdenticalAndAllocationFree) {
  uir::UModule M = makeQueryModule(7, 24);
  uir::UirAdapter A(M);
  asmx::Assembler Asm;
  uir::UirCompilerX64 C(A, Asm);
  ASSERT_TRUE(C.compile());
  std::vector<u8> First(Asm.text().Data.begin(), Asm.text().Data.end());
  for (int I = 0; I < 2; ++I)
    ASSERT_TRUE(C.compile());
  support::AllocWatch W;
  ASSERT_TRUE(C.compile());
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state UIR recompile allocated " << W.newCalls() << " times";
  EXPECT_TRUE(Asm.text().Data.size() == First.size() &&
              std::equal(Asm.text().Data.begin(), Asm.text().Data.end(),
                         First.begin()))
      << "recompiled .text diverged from the first compile";
}

/// UirAdapter reports External linkage with every function a definition,
/// so two queries sharing a name are duplicate strong definitions. The
/// sharded path must diagnose that (duplicate-strong error at merge),
/// never silently merge the queries — and the serial path must agree.
TEST(UirParallelCorrectness, DuplicateQueryNamesAreDiagnosed) {
  uir::QueryPlan P;
  P.Name = "dup_query";
  P.Preds = {{0, uir::UOp::CmpLt, 10}};
  uir::UModule M;
  uir::compilePlan(M, P);
  P.Preds[0].K = 99; // different body, same strong name
  uir::compilePlan(M, P);

  asmx::Assembler SerialAsm;
  EXPECT_FALSE(uir::compileTpdeUir(M, SerialAsm))
      << "serial compile silently merged duplicate query names";

  uir::ParallelCompileOptions Opts;
  Opts.NumThreads = 2;
  Opts.FuncsPerShard = 1; // force the definitions into different shards
  uir::ParallelModuleCompilerUir PC(M, Opts);
  asmx::Assembler Out;
  EXPECT_FALSE(PC.compile(Out))
      << "parallel compile silently merged duplicate query names";
  EXPECT_TRUE(Out.hasError());
  EXPECT_NE(Out.errorMessage().find("dup_query"), std::string_view::npos)
      << "error does not name the duplicate symbol: " << Out.errorMessage();
}
