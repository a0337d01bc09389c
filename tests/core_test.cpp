//===- tests/core_test.cpp - TPDE framework core unit tests ---------------===//
///
/// Unit tests for the framework-internal machinery: the analysis pass
/// (loop identification incl. irreducible CFGs, block layout, coarse
/// liveness), the register file, the frame allocator, and two caches the
/// code generation pass keeps over the analysis and the IR (the
/// assignment's free-from block and nextInst()).
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Assignment.h"
#include "core/RegFile.h"
#include "tir/Builder.h"
#include "tpde_tir/TirAdapter.h"
#include "workloads/Generator.h"
#include "x64/CompilerX64.h"

#include <gtest/gtest.h>

using namespace tpde;
using namespace tpde::core;
using namespace tpde::tir;

namespace {

/// Runs the analyzer over function 0 of \p M.
struct Analyzed {
  tpde_tir::TirAdapter A;
  Analyzer<tpde_tir::TirAdapter> An;
  explicit Analyzed(Module &M) : A(M), An(A) {
    A.switchFunc(0);
    An.analyze();
  }
};

} // namespace

TEST(Analyzer, SimpleLoopIsDetected) {
  Module M;
  FunctionBuilder B(M, "f", Type::I64, {Type::I64});
  BlockRef E = B.addBlock(), L = B.addBlock(), X = B.addBlock();
  B.setInsertPoint(E);
  B.br(L);
  B.setInsertPoint(L);
  ValRef I = B.phi(Type::I64);
  ValRef I2 = B.binop(Op::Add, I, B.constInt(Type::I64, 1));
  ValRef C = B.icmp(ICmp::Slt, I2, B.arg(0));
  B.condBr(C, L, X);
  B.setInsertPoint(X);
  B.ret(I2);
  B.addPhiIncoming(I, E, B.constInt(Type::I64, 0));
  B.addPhiIncoming(I, L, I2);
  B.finish();

  Analyzed Z(M);
  // Pseudo-root plus the real loop.
  EXPECT_EQ(Z.An.numLoops(), 2u);
  EXPECT_EQ(Z.An.loop(1).Level, 1u);
  // The loop body is one block; its interval is a single layout slot.
  EXPECT_EQ(Z.An.loop(1).Begin, Z.An.loop(1).End);
  // Layout: entry, loop, exit.
  EXPECT_EQ(Z.An.numBlocks(), 3u);
  EXPECT_EQ(Z.An.block(1).Loop, 1u);
  EXPECT_EQ(Z.An.block(0).Loop, 0u);
  EXPECT_EQ(Z.An.block(2).Loop, 0u);
  EXPECT_EQ(Z.An.block(1).NumPreds, 2u);
}

TEST(Analyzer, NestedLoopsGetContiguousLayout) {
  Module M;
  FunctionBuilder B(M, "f", Type::I64, {Type::I64});
  BlockRef E = B.addBlock(), OH = B.addBlock(), IH = B.addBlock(),
           OL = B.addBlock(), X = B.addBlock();
  B.setInsertPoint(E);
  B.br(OH);
  B.setInsertPoint(OH);
  ValRef I = B.phi(Type::I64);
  B.br(IH);
  B.setInsertPoint(IH);
  ValRef J = B.phi(Type::I64);
  ValRef J2 = B.binop(Op::Add, J, B.constInt(Type::I64, 1));
  ValRef CI = B.icmp(ICmp::Slt, J2, B.arg(0));
  B.condBr(CI, IH, OL);
  B.setInsertPoint(OL);
  ValRef I2 = B.binop(Op::Add, I, J2);
  ValRef CO = B.icmp(ICmp::Slt, I2, B.arg(0));
  B.condBr(CO, OH, X);
  B.setInsertPoint(X);
  B.ret(I2);
  B.addPhiIncoming(I, E, B.constInt(Type::I64, 0));
  B.addPhiIncoming(I, OL, I2);
  B.addPhiIncoming(J, OH, B.constInt(Type::I64, 0));
  B.addPhiIncoming(J, IH, J2);
  B.finish();

  Analyzed Z(M);
  ASSERT_EQ(Z.An.numLoops(), 3u);
  // Inner loop nested in outer: levels 1 and 2, intervals nested.
  u32 Outer = 0, Inner = 0;
  for (u32 L = 1; L < 3; ++L)
    (Z.An.loop(L).Level == 1 ? Outer : Inner) = L;
  ASSERT_NE(Outer, 0u);
  ASSERT_NE(Inner, 0u);
  EXPECT_EQ(Z.An.loop(Inner).Level, 2u);
  EXPECT_LE(Z.An.loop(Outer).Begin, Z.An.loop(Inner).Begin);
  EXPECT_GE(Z.An.loop(Outer).End, Z.An.loop(Inner).End);
}

TEST(Analyzer, IrreducibleCfgDoesNotCrash) {
  // Two blocks jumping into each other with two entries (irreducible).
  Module M;
  FunctionBuilder B(M, "f", Type::I64, {Type::I64});
  BlockRef E = B.addBlock(), A1 = B.addBlock(), A2 = B.addBlock(),
           X = B.addBlock();
  B.setInsertPoint(E);
  ValRef C = B.icmp(ICmp::Eq, B.arg(0), B.constInt(Type::I64, 0));
  B.condBr(C, A1, A2);
  B.setInsertPoint(A1);
  ValRef C1 = B.icmp(ICmp::Slt, B.arg(0), B.constInt(Type::I64, 10));
  B.condBr(C1, A2, X);
  B.setInsertPoint(A2);
  ValRef C2 = B.icmp(ICmp::Sgt, B.arg(0), B.constInt(Type::I64, -10));
  B.condBr(C2, A1, X);
  B.setInsertPoint(X);
  B.ret(B.arg(0));
  B.finish();

  Analyzed Z(M);
  EXPECT_EQ(Z.An.numBlocks(), 4u);
  // A loop must have been identified despite irreducibility.
  EXPECT_GE(Z.An.numLoops(), 2u);
}

TEST(Analyzer, UnreachableBlocksAreDropped) {
  Module M;
  FunctionBuilder B(M, "f", Type::I64, {});
  BlockRef E = B.addBlock(), Dead = B.addBlock();
  B.setInsertPoint(E);
  B.ret(B.constInt(Type::I64, 1));
  B.setInsertPoint(Dead);
  B.ret(B.constInt(Type::I64, 2));
  B.finish();
  Analyzed Z(M);
  EXPECT_EQ(Z.An.numBlocks(), 1u);
}

TEST(Analyzer, LivenessExtendsAcrossLoops) {
  // A value defined before a loop and used inside must be live through
  // the whole loop (LastFull).
  Module M;
  FunctionBuilder B(M, "f", Type::I64, {Type::I64});
  BlockRef E = B.addBlock(), L = B.addBlock(), X = B.addBlock();
  B.setInsertPoint(E);
  ValRef Pre = B.binop(Op::Add, B.arg(0), B.constInt(Type::I64, 3));
  B.br(L);
  B.setInsertPoint(L);
  ValRef I = B.phi(Type::I64);
  ValRef I2 = B.binop(Op::Add, I, Pre); // use inside the loop
  ValRef C = B.icmp(ICmp::Slt, I2, B.constInt(Type::I64, 100));
  B.condBr(C, L, X);
  B.setInsertPoint(X);
  B.ret(I2);
  B.addPhiIncoming(I, E, B.constInt(Type::I64, 0));
  B.addPhiIncoming(I, L, I2);
  B.finish();

  Analyzed Z(M);
  const auto &LR = Z.An.liveness(Pre);
  EXPECT_EQ(LR.First, 0u);
  EXPECT_EQ(LR.Last, 1u); // end of the loop block
  EXPECT_TRUE(LR.LastFull);
  // Phi liveness must cover the back edge too.
  const auto &PhiLR = Z.An.liveness(I);
  EXPECT_TRUE(PhiLR.LastFull);
}

// --- Register file -----------------------------------------------------------

TEST(RegFile, AllocateLockEvict) {
  RegFile<x64::X64Config> R;
  R.reset();
  Reg A = R.findFree(0);
  ASSERT_TRUE(A.isValid());
  EXPECT_EQ(A.Id, 0); // rax is the lowest allocatable
  R.markUsed(A, 7, 0);
  EXPECT_TRUE(R.isUsed(A));
  EXPECT_EQ(R.ownerVal(A), 7u);
  R.lock(A);
  // The locked register is not an eviction candidate.
  for (int I = 0; I < 20; ++I) {
    Reg C = R.pickEvictionCandidate(0);
    EXPECT_FALSE(C.isValid() && C == A);
    if (C.isValid())
      break;
  }
  R.unlock(A);
  R.markFree(A);
  EXPECT_FALSE(R.isUsed(A));
}

TEST(RegFile, RspRbpNeverAllocatable) {
  RegFile<x64::X64Config> R;
  R.reset();
  std::vector<u8> Got;
  for (;;) {
    Reg F = R.findFree(0);
    if (!F.isValid())
      break;
    Got.push_back(F.Id);
    R.markUsed(F, 1, 0);
  }
  EXPECT_EQ(Got.size(), 14u); // 16 GP minus rsp/rbp
  for (u8 Id : Got) {
    EXPECT_NE(Id, 4); // rsp
    EXPECT_NE(Id, 5); // rbp
  }
}

TEST(RegFile, RoundRobinEviction) {
  RegFile<x64::X64Config> R;
  R.reset();
  for (;;) {
    Reg F = R.findFree(0);
    if (!F.isValid())
      break;
    R.markUsed(F, F.Id, 0);
  }
  Reg C1 = R.pickEvictionCandidate(0);
  R.markFree(C1);
  R.markUsed(C1, 99, 0);
  Reg C2 = R.pickEvictionCandidate(0);
  EXPECT_FALSE(C1 == C2) << "round robin should rotate";
}

// --- Frame allocator -----------------------------------------------------------

TEST(FrameAllocator, BumpAndReuse) {
  FrameAllocator F;
  F.reset(-40);
  i32 S1 = F.alloc(8);
  i32 S2 = F.alloc(8);
  EXPECT_EQ(S1, -48);
  EXPECT_EQ(S2, -56);
  F.release(S1, 8);
  EXPECT_EQ(F.alloc(8), S1); // reused
  i32 W = F.alloc(16);
  EXPECT_EQ(W, -72);
  F.release(W, 16);
  EXPECT_EQ(F.alloc(16), W);
  // Positive offsets (incoming stack args) are never recycled.
  F.release(16, 8);
  EXPECT_EQ(F.alloc(8), -80);
  EXPECT_EQ(F.lowWaterMark(), -80);
}

TEST(FrameAllocator, SeparateSizeClasses) {
  FrameAllocator F;
  F.reset(0);
  i32 S8 = F.alloc(8);
  F.release(S8, 8);
  // A 16-byte request must not reuse the 8-byte slot.
  i32 S16 = F.alloc(16);
  EXPECT_NE(S16, S8);
}

// --- Code generation caches ------------------------------------------------

namespace {

/// A compiler that emits no instruction code. It runs the framework's
/// per-function driver (analysis, layout walk, block boundaries) and, from
/// inside it, checks two caches against the data they stand for:
///  * at a function's first instruction it initializes the assignment of
///    every value the analysis defined and checks that the cached
///    free-from block agrees with Analyzer::rangeEndsInBlock for every
///    layout block;
///  * at every instruction it checks nextInst() against the block's
///    instruction list: the following instruction, or null exactly on
///    the block's last one.
class CacheProbe
    : public x64::CompilerX64<tpde_tir::TirAdapter, CacheProbe> {
public:
  using Base = x64::CompilerX64<tpde_tir::TirAdapter, CacheProbe>;
  CacheProbe(tpde_tir::TirAdapter &A, asmx::Assembler &Asm) : Base(A, Asm) {}

  void defineGlobals() {}
  void declareGlobals() {}
  template <typename Fn> void forEachStackVar(Fn) {}
  void materializeConstLike(ValRef, u8, core::Reg) {}

  void beginFunc(asmx::SymRef Sym) {
    Base::beginFunc(Sym);
    FuncStart = true;
  }

  bool compileInst(ValRef I) {
    const u32 B = curBlockIdx();
    if (FuncStart || B != PosBlock) {
      PosBlock = B;
      Pos = 0;
    }
    if (FuncStart) {
      FuncStart = false;
      checkFreeFrom();
    }
    auto Block = A.blockInsts(An.block(B).Ref);
    EXPECT_EQ(Block[Pos], I);
    const ValRef *Next = nextInst();
    if (Pos + 1 == Block.size()) {
      EXPECT_EQ(Next, nullptr) << "block " << B << " last instruction";
    } else {
      EXPECT_EQ(Next, Block.data() + Pos + 1);
      ++NonLast;
    }
    ++Pos;
    ++Insts;
    return true;
  }

  u64 Insts = 0, NonLast = 0, ValuesChecked = 0;

private:
  void checkFreeFrom() {
    auto Check = [&](ValRef V) {
      if (A.isConstLike(V))
        return;
      u32 VN = A.valNumber(V);
      const core::Assignment &As = ensureAssignment(V, VN);
      for (u32 B = 0; B < An.numBlocks(); ++B)
        EXPECT_EQ(B >= As.FreeFrom, An.rangeEndsInBlock(VN, B))
            << "value " << VN << " block " << B;
      ++ValuesChecked;
    };
    for (ValRef V : A.funcArgs())
      Check(V);
    for (u32 B = 0; B < An.numBlocks(); ++B) {
      for (ValRef V : A.blockPhis(An.block(B).Ref))
        Check(V);
      for (ValRef V : A.blockInsts(An.block(B).Ref))
        Check(V);
    }
    // The probe compiles nothing, so no instruction consumes the
    // arguments: give their registers a stack copy before the next block
    // boundary drops them.
    spillAllDirty();
  }

  bool FuncStart = false;
  u32 PosBlock = 0;
  size_t Pos = 0;
};

/// Runs the probe over every function of \p M.
void probeModule(Module &M, u64 &Insts, u64 &NonLast, u64 &Values) {
  tpde_tir::TirAdapter A(M);
  asmx::Assembler Asm;
  CacheProbe C(A, Asm);
  ASSERT_TRUE(C.compile());
  Insts += C.Insts;
  NonLast += C.NonLast;
  Values += C.ValuesChecked;
}

} // namespace

TEST(CodegenCaches, SpecLikeModulesAgreeWithAnalysisAndBlocks) {
  u64 Insts = 0, NonLast = 0, Values = 0;
  for (bool O0 : {true, false}) {
    for (const workloads::NamedProfile &NP : workloads::specLikeProfiles(O0)) {
      Module M;
      workloads::genModule(M, NP.P);
      probeModule(M, Insts, NonLast, Values);
    }
  }
  // Every check above ran on real data: both nextInst() outcomes and the
  // free-from cache were exercised.
  EXPECT_GT(NonLast, 0u);
  EXPECT_GT(Insts, NonLast);
  EXPECT_GT(Values, 0u);
}

TEST(CodegenCaches, DifferentialSeedsAgreeWithAnalysisAndBlocks) {
  u64 Insts = 0, NonLast = 0, Values = 0;
  // The shapes of tests/differential_test.cpp's fuzz profiles.
  for (u64 Seed = 1; Seed <= 40; ++Seed) {
    for (bool SSA : {true, false}) {
      workloads::Profile P;
      P.Seed = Seed;
      P.NumFuncs = 4;
      P.RegionBudget = 8;
      P.InstsPerBlock = 6;
      P.MaxLoopDepth = 2;
      P.MemoryPct = 25;
      P.FloatPct = 10;
      P.CallPct = 8;
      P.BranchPct = 30;
      P.I128Pct = 5;
      P.NarrowPct = 15;
      P.SSAForm = SSA;
      Module M;
      workloads::genModule(M, P);
      probeModule(M, Insts, NonLast, Values);
    }
  }
  EXPECT_GT(NonLast, 0u);
  EXPECT_GT(Insts, NonLast);
  EXPECT_GT(Values, 0u);
}
