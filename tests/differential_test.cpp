//===- tests/differential_test.cpp - Interpreter vs TPDE JIT fuzzing -------===//
///
/// Property-based differential testing: random structured TIR programs are
/// executed by the reference interpreter and by TPDE-compiled machine code;
/// results must match bit-for-bit. Memory side effects on the scratch
/// global are compared as well. This is the main correctness oracle for
/// the register allocator and instruction compilers.
///
//===----------------------------------------------------------------------===//

#include "a64/Sim.h"
#include "asmx/JITMapper.h"
#include "baseline/Baseline.h"
#include "copypatch/CopyPatch.h"
#include "tir/Builder.h"
#include "tir/Interp.h"
#include "tir/Printer.h"
#include "tir/Verifier.h"
#include "tpde_tir/ParallelCompiler.h"
#include "tpde_tir/TirCompilerA64.h"
#include "tpde_tir/TirCompilerX64.h"
#include "workloads/Generator.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace tpde;
using namespace tpde::tir;
using namespace tpde::workloads;

namespace {

struct DiffParam {
  u64 Seed;
  bool SSAForm;
};

class Differential : public ::testing::TestWithParam<DiffParam> {};

enum class Backend { Tpde, TpdeParallel, BaselineO0, BaselineO1, CopyPatch };

bool compileWith(Backend BE, Module &M, asmx::Assembler &Asm,
                 unsigned Threads) {
  switch (BE) {
  case Backend::Tpde:
    return tpde_tir::compileModuleX64(M, Asm);
  case Backend::TpdeParallel: {
    // Sharded compilation with the merged-module output: one function
    // per shard guarantees every call in the module crosses a shard
    // boundary and is linked through Assembler::mergeFrom().
    tpde_tir::ParallelCompileOptions Opts;
    Opts.NumThreads = Threads;
    Opts.FuncsPerShard = 1;
    tpde_tir::ParallelModuleCompiler PC(M, Opts);
    return PC.compile(Asm);
  }
  case Backend::BaselineO0:
    return baseline::compileModule(M, Asm, baseline::OptLevel::O0);
  case Backend::BaselineO1:
    return baseline::compileModule(M, Asm, baseline::OptLevel::O1);
  case Backend::CopyPatch:
    return copypatch::compileModule(M, Asm);
  }
  TPDE_UNREACHABLE("bad backend");
}

/// \p Threads is the parallel driver's worker count (TpdeParallel only).
void runDifferential(const Profile &P, Backend BE = Backend::Tpde,
                     unsigned Threads = 1) {
  Module M;
  genModule(M, P);
  std::string Err;
  ASSERT_TRUE(verifyModule(M, Err)) << Err;

  asmx::Assembler Asm;
  ASSERT_TRUE(compileWith(BE, M, Asm, Threads))
      << "compilation failed, seed " << P.Seed;
  asmx::JITMapper JIT;
  ASSERT_TRUE(JIT.map(Asm));

  u32 ScratchIdx = 0;
  for (u32 I = 0; I < M.Globals.size(); ++I)
    if (M.Globals[I].Name == "wl_scratch")
      ScratchIdx = I;
  u8 *JitScratch = static_cast<u8 *>(JIT.address("wl_scratch"));
  ASSERT_NE(JitScratch, nullptr);

  u32 Entry = M.findFunc("main_entry");
  ASSERT_NE(Entry, ~0u);
  auto *F = reinterpret_cast<u64 (*)(u64, u64)>(
      JIT.address(M.Funcs[Entry].Name));
  ASSERT_NE(F, nullptr);

  const u64 Inputs[][2] = {
      {0, 0}, {1, 2}, {0xdeadbeef, 123456789}, {~0ull, 0x8000000000000000ull},
  };
  for (auto &In : Inputs) {
    // Fresh interpreter per input so global state starts identical.
    Interp Ip(M);
    u8 *IpScratch = Ip.globalStorage(ScratchIdx);
    std::vector<u8> InitialMem(IpScratch, IpScratch + 576);
    std::memcpy(JitScratch, InitialMem.data(), InitialMem.size());

    auto RefOut = Ip.run(Entry, {{In[0], 0}, {In[1], 0}});
    ASSERT_TRUE(RefOut.has_value()) << "interpreter trapped, seed " << P.Seed;
    u64 JitOut = F(In[0], In[1]);
    EXPECT_EQ(JitOut, RefOut->Lo)
        << "result mismatch, seed " << P.Seed << " inputs " << In[0] << ","
        << In[1];
    EXPECT_EQ(std::memcmp(JitScratch, IpScratch, 576), 0)
        << "memory side effects diverge, seed " << P.Seed;
  }
}

} // namespace

static Profile fuzzProfile(u64 Seed, bool SSAForm) {
  Profile P;
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
  P.SSAForm = SSAForm;
  return P;
}

TEST_P(Differential, TpdeMatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::Tpde);
}

/// One function per shard gives a fuzz module (four functions plus its
/// driver) five shards: 1 thread compiles them all, 3 split them and
/// steal, and 8 start some workers with an empty range.
TEST_P(Differential, TpdeParallelMatchesInterpreter) {
  DiffParam DP = GetParam();
  for (unsigned Threads : {1u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::TpdeParallel,
                    Threads);
  }
}

TEST_P(Differential, BaselineO0MatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::BaselineO0);
}

TEST_P(Differential, BaselineO1MatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::BaselineO1);
}

TEST_P(Differential, CopyPatchMatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::CopyPatch);
}

static std::vector<DiffParam> makeParams() {
  std::vector<DiffParam> Out;
  for (u64 S = 1; S <= 40; ++S) {
    Out.push_back({S, true});
    Out.push_back({S, false});
  }
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::ValuesIn(makeParams()),
                         [](const ::testing::TestParamInfo<DiffParam> &I) {
                           return std::string(I.param.SSAForm ? "ssa" : "o0") +
                                  "_seed" + std::to_string(I.param.Seed);
                         });

TEST(DifferentialSpec, SpecLikeProfilesCompileAndRun) {
  // The nine benchmark workloads themselves must compile and agree with
  // the interpreter on one input (smaller scale for test time).
  for (bool O0 : {true, false}) {
    for (auto &NP : specLikeProfiles(O0)) {
      Profile P = NP.P;
      P.NumFuncs = 3;
      P.RegionBudget = 6;
      runDifferential(P);
    }
  }
}

namespace {

/// A zero-argument caller passes 12 arguments, four rotations of {i64,
/// f64, i128}, to a defined callee, then calls a defined function that
/// returns i128. Both targets run out of GP argument registers, so i64
/// values and whole i128 values go to the stack (the i128 ones 16-byte
/// aligned), while the FP arguments stay in registers. Some arguments
/// are computed into registers first, others are constants materialized
/// by the call sequence itself.
void buildMixedArgCalls(Module &M) {
  const Type Kinds[3] = {Type::I64, Type::F64, Type::I128};
  std::vector<Type> Params;
  for (u32 Rot = 0; Rot < 4; ++Rot)
    for (u32 I = 0; I < 3; ++I)
      Params.push_back(Kinds[(I + Rot) % 3]);

  u32 Sum;
  {
    FunctionBuilder B(M, "sum12", Type::I64, Params);
    Sum = B.funcIndex();
    B.setInsertPoint(B.addBlock());
    ValRef K31 = B.constInt(Type::I64, 31);
    ValRef Acc = B.constInt(Type::I64, 7);
    auto Mix = [&](ValRef Part) {
      ValRef Scaled = B.binop(Op::Mul, Acc, K31);
      Acc = B.binop(Op::Add, Scaled, Part);
    };
    for (u32 I = 0; I < Params.size(); ++I) {
      ValRef A = B.arg(I);
      if (Params[I] == Type::F64) {
        Mix(B.cast(Op::Bitcast, Type::I64, A));
      } else if (Params[I] == Type::I128) {
        Mix(B.cast(Op::Trunc, Type::I64, A));
        ValRef Hi = B.binop(Op::LShr, A, B.constInt(Type::I128, 64));
        Mix(B.cast(Op::Trunc, Type::I64, Hi));
      } else {
        Mix(A);
      }
    }
    B.ret(Acc);
    B.finish();
  }

  u32 Wide;
  {
    FunctionBuilder B(M, "wide", Type::I128, {Type::I64});
    Wide = B.funcIndex();
    B.setInsertPoint(B.addBlock());
    ValRef X = B.arg(0);
    ValRef LoBits = B.binop(Op::Xor, X, B.constInt(Type::I64, 0x5bd1e995));
    ValRef HiBits = B.binop(Op::Mul, X, B.constInt(Type::I64, 3));
    ValRef Lo = B.cast(Op::Zext, Type::I128, LoBits);
    ValRef Hi = B.cast(Op::Zext, Type::I128, HiBits);
    ValRef HiShifted = B.binop(Op::Shl, Hi, B.constInt(Type::I128, 64));
    B.ret(B.binop(Op::Or, HiShifted, Lo));
    B.finish();
  }

  FunctionBuilder B(M, "caller", Type::I64, {});
  B.setInsertPoint(B.addBlock());
  ValRef Salt = B.constInt(Type::I64, 0x0123456789abcdefull);
  std::vector<ValRef> Args;
  for (u32 I = 0; I < Params.size(); ++I) {
    const u64 K = 0x9e3779b97f4a7c15ull * (I + 1);
    const bool InReg = I % 2 == 0;
    ValRef Bits = B.constInt(Type::I64, K);
    if (InReg)
      Bits = B.binop(Op::Xor, Bits, Salt);
    if (Params[I] == Type::I64) {
      Args.push_back(Bits);
    } else if (Params[I] == Type::F64) {
      ValRef Small = B.constInt(Type::I64, 7 * I + 1);
      Args.push_back(InReg ? B.cast(Op::SiToFp, Type::F64, Small)
                           : B.constF64(0.25 + 1.5 * I));
    } else {
      // i128 operands via Zext: the verifier rejects Sext to i128.
      ValRef Lo = B.cast(Op::Zext, Type::I128, Bits);
      ValRef HiBits = B.constInt(Type::I64, K >> 7);
      ValRef Hi = B.cast(Op::Zext, Type::I128, HiBits);
      ValRef HiShifted = B.binop(Op::Shl, Hi, B.constInt(Type::I128, 64));
      Args.push_back(B.binop(Op::Or, HiShifted, Lo));
    }
  }
  ValRef S = B.call(Sum, Type::I64, Args);
  ValRef W = B.call(Wide, Type::I128, {S});
  ValRef WHi = B.binop(Op::LShr, W, B.constInt(Type::I128, 64));
  ValRef Lo64 = B.cast(Op::Trunc, Type::I64, W);
  ValRef Hi64 = B.cast(Op::Trunc, Type::I64, WHi);
  ValRef Fold = B.binop(Op::Xor, Lo64, Hi64);
  B.ret(B.binop(Op::Add, Fold, S));
  B.finish();
}

} // namespace

TEST(DifferentialCalls, MixedArgsAndI128ReturnMatchInterpreterOnBothTargets) {
  Module M;
  buildMixedArgCalls(M);
  std::string Err;
  ASSERT_TRUE(verifyModule(M, Err)) << Err;
  u32 Caller = M.findFunc("caller");
  ASSERT_NE(Caller, ~0u);
  Interp Ip(M);
  auto Ref = Ip.run(Caller, {});
  ASSERT_TRUE(Ref.has_value());

  asmx::Assembler X64Asm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(M, X64Asm));
  asmx::JITMapper JIT;
  ASSERT_TRUE(JIT.map(X64Asm));
  auto *X64Fn = reinterpret_cast<u64 (*)()>(JIT.address("caller"));
  ASSERT_NE(X64Fn, nullptr);
  EXPECT_EQ(X64Fn(), Ref->Lo) << "x64 JIT diverges from the interpreter";

  asmx::Assembler A64Asm;
  ASSERT_TRUE(tpde_tir::compileModuleA64(M, A64Asm));
  a64::Sim Sim;
  a64::SimModule Mod;
  ASSERT_TRUE(Mod.map(A64Asm, Sim));
  u64 Entry = Mod.address("caller");
  ASSERT_NE(Entry, 0u);
  u64 A64Res = Sim.call(Entry);
  ASSERT_FALSE(Sim.Trapped);
  EXPECT_EQ(A64Res, Ref->Lo) << "a64 simulator diverges from the interpreter";
}
