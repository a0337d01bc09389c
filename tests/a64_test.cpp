//===- tests/a64_test.cpp - AArch64 encoder + simulator tests -------------===//
///
/// Golden-byte checks for the A64 encoder (words verified against the
/// architecture manual / an independent assembler) and execution tests
/// that run encoder output on the simulator. Because the simulator's
/// decoder is written against the architecture rather than against the
/// encoder, agreement of both with the golden words cross-checks them.
///
//===----------------------------------------------------------------------===//

#include "a64/Encoder.h"
#include "a64/Sim.h"
#include "support/AllocCounter.h"

#include <gtest/gtest.h>

#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using namespace tpde::a64;

namespace {

/// Collects the words emitted by one encoder call.
class EncTest : public ::testing::Test {
protected:
  asmx::Assembler Asm;
  Emitter E{Asm};

  u32 wordAt(size_t I) const { return Asm.text().readLE<u32>(4 * I); }
  size_t numWords() const { return Asm.text().size() / 4; }
};

TEST_F(EncTest, AddSubRegister) {
  E.addRRR(8, X0, X1, X2);
  E.addRRR(4, X0, X1, X2);
  E.addRRR(8, X0, X1, X2, /*SetFlags=*/true);
  E.subRRR(8, X0, X1, X2);
  E.subRRR(8, X0, X1, X2, /*SetFlags=*/true);
  E.cmpRR(8, X1, X2);
  EXPECT_EQ(wordAt(0), 0x8B020020u);
  EXPECT_EQ(wordAt(1), 0x0B020020u);
  EXPECT_EQ(wordAt(2), 0xAB020020u);
  EXPECT_EQ(wordAt(3), 0xCB020020u);
  EXPECT_EQ(wordAt(4), 0xEB020020u);
  EXPECT_EQ(wordAt(5), 0xEB02003Fu);
}

TEST_F(EncTest, AddSubImmediate) {
  E.addRI(8, X0, X1, 42);
  E.subRI(8, SP, SP, 16);
  E.addRI(8, X2, X3, 1u << 12); // shifted immediate form
  EXPECT_EQ(wordAt(0), 0x9100A820u);
  EXPECT_EQ(wordAt(1), 0xD10043FFu);
  EXPECT_EQ(wordAt(2), 0x91400462u);
}

TEST_F(EncTest, Moves) {
  E.movRR(8, X0, X1);
  E.movRR(4, X0, X1);
  E.movSP(FP, SP); // mov x29, sp
  E.movRI(X0, 1);
  E.movRI(X0, 0x12340000u);
  EXPECT_EQ(wordAt(0), 0xAA0103E0u);
  EXPECT_EQ(wordAt(1), 0x2A0103E0u);
  EXPECT_EQ(wordAt(2), 0x910003FDu);
  EXPECT_EQ(wordAt(3), 0xD2800020u);
  EXPECT_EQ(wordAt(4), 0xD2A24680u); // movz x0, #0x1234, lsl #16
}

TEST_F(EncTest, LogicalAndBitmask) {
  E.logicRI(LogicOp::And, 8, X0, X1, 1);
  E.logicRI(LogicOp::Orr, 4, X0, X1, 1);
  E.tstRI(8, X0, 1);
  E.logicRRR(LogicOp::Eor, 8, X0, X1, X2);
  E.mvnRR(8, X0, X1);
  EXPECT_EQ(wordAt(0), 0x92400020u);
  EXPECT_EQ(wordAt(1), 0x32000020u);
  EXPECT_EQ(wordAt(2), 0xF240001Fu);
  EXPECT_EQ(wordAt(3), 0xCA020020u);
  EXPECT_EQ(wordAt(4), 0xAA2103E0u);
}

TEST_F(EncTest, MulDiv) {
  E.maddRRRR(8, X0, X1, X2, X3);
  E.mulRRR(8, X0, X1, X2);
  E.sdivRRR(8, X0, X1, X2);
  E.udivRRR(4, X0, X1, X2);
  E.smulh(X0, X1, X2);
  E.umulh(X0, X1, X2);
  EXPECT_EQ(wordAt(0), 0x9B020C20u);
  EXPECT_EQ(wordAt(1), 0x9B027C20u);
  EXPECT_EQ(wordAt(2), 0x9AC20C20u);
  EXPECT_EQ(wordAt(3), 0x1AC20820u);
  EXPECT_EQ(wordAt(4), 0x9B427C20u);
  EXPECT_EQ(wordAt(5), 0x9BC27C20u);
}

TEST_F(EncTest, Shifts) {
  E.shiftRRR(ShiftOp::Lsl, 8, X0, X1, X2);
  E.shiftRI(ShiftOp::Lsl, 8, X0, X1, 4);
  E.shiftRI(ShiftOp::Lsr, 8, X0, X1, 4);
  E.shiftRI(ShiftOp::Asr, 4, X0, X1, 3);
  E.extrRRI(8, X0, X1, X2, 8);
  EXPECT_EQ(wordAt(0), 0x9AC22020u);
  EXPECT_EQ(wordAt(1), 0xD37CEC20u);
  EXPECT_EQ(wordAt(2), 0xD344FC20u);
  EXPECT_EQ(wordAt(3), 0x13037C20u);
  EXPECT_EQ(wordAt(4), 0x93C22020u);
}

TEST_F(EncTest, Extensions) {
  E.sxtb(X0, X1);
  E.sxth(X3, X2);
  E.sxtw(X0, X1);
  E.uxtb(X0, X1);
  EXPECT_EQ(wordAt(0), 0x93401C20u);
  EXPECT_EQ(wordAt(1), 0x93403C43u);
  EXPECT_EQ(wordAt(2), 0x93407C20u);
  EXPECT_EQ(wordAt(3), 0x53001C20u);
}

TEST_F(EncTest, Conditionals) {
  E.csel(8, X0, X1, X2, Cond::EQ);
  E.cset(X0, Cond::NE);
  E.adcsRRR(8, X0, X1, X2);
  E.sbcsRRR(8, X0, X1, X2);
  EXPECT_EQ(wordAt(0), 0x9A820020u);
  EXPECT_EQ(wordAt(1), 0x9A9F07E0u);
  EXPECT_EQ(wordAt(2), 0xBA020020u);
  EXPECT_EQ(wordAt(3), 0xFA020020u);
}

TEST_F(EncTest, LoadsStores) {
  E.ldr(8, X0, Mem(X1, 16));
  E.str(4, Mem(X1, 4), X0);
  E.ldr(1, X0, Mem(X1));
  E.ldr(8, X0, Mem(X1, -8));
  E.ldr(8, X0, Mem(X1, X2, 0));
  E.ldr(8, X0, Mem(X1, X2, 3));
  E.ldrSext(4, X0, Mem(X1));
  E.stpPre(FP, LR, SP, -16);
  E.ldpPost(FP, LR, SP, 16);
  EXPECT_EQ(wordAt(0), 0xF9400820u);
  EXPECT_EQ(wordAt(1), 0xB9000420u);
  EXPECT_EQ(wordAt(2), 0x39400020u);
  EXPECT_EQ(wordAt(3), 0xF85F8020u);
  EXPECT_EQ(wordAt(4), 0xF8626820u);
  EXPECT_EQ(wordAt(5), 0xF8627820u);
  EXPECT_EQ(wordAt(6), 0xB9800020u);
  EXPECT_EQ(wordAt(7), 0xA9BF7BFDu);
  EXPECT_EQ(wordAt(8), 0xA8C17BFDu);
}

TEST_F(EncTest, ControlFlow) {
  asmx::Label L = Asm.makeLabel();
  E.bLabel(L);      // forward by 8
  E.nop();          // skipped
  Asm.bindLabel(L);
  E.ret();
  E.brReg(X16);
  E.blrReg(X8);
  E.brk(0);
  EXPECT_EQ(wordAt(0), 0x14000002u);
  EXPECT_EQ(wordAt(1), 0xD503201Fu);
  EXPECT_EQ(wordAt(2), 0xD65F03C0u);
  EXPECT_EQ(wordAt(3), 0xD61F0200u);
  EXPECT_EQ(wordAt(4), 0xD63F0100u);
  EXPECT_EQ(wordAt(5), 0xD4200000u);
}

TEST_F(EncTest, CondBranch) {
  asmx::Label L = Asm.makeLabel();
  E.bcondLabel(Cond::EQ, L);
  E.cbzLabel(8, X0, L);
  Asm.bindLabel(L);
  EXPECT_EQ(wordAt(0), 0x54000040u); // b.eq .+8
  EXPECT_EQ(wordAt(1), 0xB4000020u); // cbz x0, .+4
}

TEST_F(EncTest, ScalarFP) {
  E.fpArith(FpOp::Add, 8, V0, V1, V2);
  E.fpArith(FpOp::Mul, 4, V0, V1, V2);
  E.fpArith(FpOp::Div, 8, V0, V1, V2);
  E.fpArith(FpOp::Sub, 8, V0, V1, V2);
  E.fpCmp(8, V1, V2);
  E.fmovToFp(8, V0, X1);
  E.fmovFromFp(8, X0, V1);
  E.cvtSiToFp(8, 8, V0, X1);
  E.cvtSiToFp(4, 8, V0, X1);
  E.cvtFpToSi(8, 4, X0, V1);
  E.fpCvt(4, V0, V1); // fcvt d0, s1
  E.fpCvt(8, V0, V1); // fcvt s0, d1
  E.fpNeg(8, V0, V1);
  E.fpMovRR(8, V0, V1);
  EXPECT_EQ(wordAt(0), 0x1E622820u);
  EXPECT_EQ(wordAt(1), 0x1E220820u);
  EXPECT_EQ(wordAt(2), 0x1E621820u);
  EXPECT_EQ(wordAt(3), 0x1E623820u);
  EXPECT_EQ(wordAt(4), 0x1E622020u);
  EXPECT_EQ(wordAt(5), 0x9E670020u);
  EXPECT_EQ(wordAt(6), 0x9E660020u);
  EXPECT_EQ(wordAt(7), 0x9E620020u);
  EXPECT_EQ(wordAt(8), 0x1E620020u);
  EXPECT_EQ(wordAt(9), 0x1E780020u);
  EXPECT_EQ(wordAt(10), 0x1E22C020u);
  EXPECT_EQ(wordAt(11), 0x1E624020u);
  EXPECT_EQ(wordAt(12), 0x1E614020u);
  EXPECT_EQ(wordAt(13), 0x1E604020u);
}

// Forms the golden codegen corpus does not reach.

TEST_F(EncTest, FpCselAndMultiplySubtract) {
  E.fpCsel(8, V0, V1, V2, Cond::EQ);
  E.fpCsel(4, V3, V4, V5, Cond::LT);
  E.msubRRRR(8, X0, X1, X2, X3);
  E.msubRRRR(4, X4, X5, X6, X7);
  EXPECT_EQ(wordAt(0), 0x1E620C20u); // fcsel d0, d1, d2, eq
  EXPECT_EQ(wordAt(1), 0x1E25BC83u); // fcsel s3, s4, s5, lt
  EXPECT_EQ(wordAt(2), 0x9B028C20u); // msub x0, x1, x2, x3
  EXPECT_EQ(wordAt(3), 0x1B069CA4u); // msub w4, w5, w6, w7
}

TEST_F(EncTest, LeaMem) {
  E.leaMem(X0, FP, -16);
  E.leaMem(X1, SP, 32);
  E.leaMem(X2, FP, -0x1010);   // two SUB immediates
  E.leaMem(X3, SP, 0x123456);  // two ADD immediates
  ASSERT_EQ(numWords(), 6u);
  EXPECT_EQ(wordAt(0), 0xD10043A0u);
  EXPECT_EQ(wordAt(1), 0x910083E1u);
  EXPECT_EQ(wordAt(2), 0xD10043A2u);
  EXPECT_EQ(wordAt(3), 0xD1400442u);
  EXPECT_EQ(wordAt(4), 0x91115BE3u);
  EXPECT_EQ(wordAt(5), 0x91448C63u);
}

TEST_F(EncTest, NegAndZeroExtensions) {
  E.negR(8, X0, X1);
  E.negR(4, X2, X3);
  E.uxth(X0, X1);
  E.uxth(X5, X9);
  E.uxtw(X0, X1);
  E.uxtw(X7, X8);
  EXPECT_EQ(wordAt(0), 0xCB0103E0u); // neg x0, x1
  EXPECT_EQ(wordAt(1), 0x4B0303E2u); // neg w2, w3
  EXPECT_EQ(wordAt(2), 0x53003C20u); // uxth w0, w1
  EXPECT_EQ(wordAt(3), 0x53003D25u);
  EXPECT_EQ(wordAt(4), 0x2A0103E0u); // mov w0, w1
  EXPECT_EQ(wordAt(5), 0x2A0803E7u);
}

TEST_F(EncTest, FrameSubPlaceholderAndPatch) {
  E.frameSubPlaceholder();
  ASSERT_EQ(numWords(), 2u);
  EXPECT_EQ(wordAt(0), 0xD10003FFu); // sub sp, sp, #0
  EXPECT_EQ(wordAt(1), 0xD14003FFu); // sub sp, sp, #0, lsl #12
  Emitter::patchFrameSub(Asm.text(), 0, 0x12340);
  EXPECT_EQ(wordAt(0), 0xD10D03FFu); // sub sp, sp, #0x340
  EXPECT_EQ(wordAt(1), 0xD1404BFFu); // sub sp, sp, #0x12, lsl #12
}

/// The write-cursor batching regression (mirrors the x64 encoder suite):
/// once the section reached its high-water mark, re-emitting the same
/// instruction stream — covering every multi-word path (immediate
/// materialization, X16 displacement fallbacks, relocations, NOP pads) —
/// must not touch the heap, and must produce identical bytes.
TEST(EncBatching, SteadyStateEmissionIsAllocationFreeAndByteStable) {
  asmx::Assembler Asm;
  Emitter E(Asm);
  auto EmitAll = [&] {
    asmx::SymRef S = Asm.createSymbol("g", asmx::Linkage::External, false);
    E.movRI(X0, 0x123456789ABCDEF0ull);    // MOVZ + 3x MOVK
    E.movRI(X1, ~u64(0x1234));             // MOVN path
    E.addRI(8, X0, X1, 0xFFFFFFFFull);     // X16 materialization
    E.addRI(8, X2, X3, (u64(5) << 12) | 7); // two-instruction imm24
    E.subRI(8, SP, SP, 1u << 13);          // shifted imm12
    E.logicRI(LogicOp::And, 8, X0, X1, 5); // unencodable -> X16
    E.logicRI(LogicOp::Orr, 8, X0, X1, 0xFF); // bitmask immediate
    E.cmpRI(8, X0, 123456789);             // X16 compare
    E.cmpRI(8, X0, 4097);                  // CMN path
    E.ldr(8, X0, Mem(X1, i64(1) << 20));   // X16 displacement
    E.str(8, Mem(X1, -4096), X0);
    E.leaSym(X0, S);                       // ADRP+ADD with relocations
    E.blSym(S);
    E.addRRR(8, X0, X1, X2);
    E.mulRRR(8, X0, X1, X2);
    E.fpArith(FpOp::Add, 8, V0, V1, V2);
    E.nops(72);                            // one reservation for the pad
  };
  EmitAll(); // grows buffers/symbol pool to the high-water mark
  std::vector<u8> First(Asm.text().Data.begin(), Asm.text().Data.end());
  Asm.reset();
  support::AllocWatch W;
  EmitAll();
  u64 Calls = W.newCalls(), Bytes = W.newBytes();
  EXPECT_EQ(Calls, 0u) << "steady-state a64 emission allocated " << Calls
                       << " times (" << Bytes << " bytes)";
  std::vector<u8> Second(Asm.text().Data.begin(), Asm.text().Data.end());
  EXPECT_EQ(First, Second);
}

TEST(LogicalImm, EncodableValues) {
  u32 N, Immr, Imms;
  EXPECT_TRUE(encodeLogicalImm(1, 64, N, Immr, Imms));
  EXPECT_EQ(N, 1u);
  EXPECT_EQ(Immr, 0u);
  EXPECT_EQ(Imms, 0u);
  EXPECT_TRUE(encodeLogicalImm(0xFF, 64, N, Immr, Imms));
  EXPECT_TRUE(encodeLogicalImm(0xFFFFFFFF00000000ull, 64, N, Immr, Imms));
  EXPECT_TRUE(encodeLogicalImm(0x5555555555555555ull, 64, N, Immr, Imms));
  EXPECT_TRUE(encodeLogicalImm(0x0000FFFF0000FFFFull, 64, N, Immr, Imms));
  EXPECT_TRUE(encodeLogicalImm(0x7, 32, N, Immr, Imms));
  EXPECT_FALSE(encodeLogicalImm(0, 64, N, Immr, Imms));
  EXPECT_FALSE(encodeLogicalImm(~0ull, 64, N, Immr, Imms));
  EXPECT_FALSE(encodeLogicalImm(0x123456789ABCDEF0ull, 64, N, Immr, Imms));
  EXPECT_FALSE(encodeLogicalImm(5, 64, N, Immr, Imms));
}

// ---------------------------------------------------------------------------
// Simulator execution tests: encode, map, run.
// ---------------------------------------------------------------------------

/// Builds a function from \p Gen, maps it, and provides call().
class SimRun {
public:
  template <typename Fn> explicit SimRun(Fn Gen) {
    Emitter E(Asm);
    asmx::SymRef Sym = Asm.createSymbol("f", asmx::Linkage::External, true);
    Asm.defineSymbol(Sym, asmx::SecKind::Text, 0, 0);
    Gen(E, S);
    bool OK = Mod.map(Asm, S);
    assert(OK && "mapping failed");
    (void)OK;
    Entry = Mod.address("f");
  }

  u64 call(std::vector<u64> Args = {}, std::vector<bool> Fp = {}) {
    return S.call(Entry, Args, Fp);
  }

  asmx::Assembler Asm;
  Sim S;
  SimModule Mod;
  u64 Entry = 0;
};

TEST(A64Sim, AddFunction) {
  SimRun R([](Emitter &E, Sim &) {
    E.addRRR(8, X0, X0, X1);
    E.ret();
  });
  EXPECT_EQ(R.call({5, 7}), 12u);
  EXPECT_EQ(R.call({~0ull, 1}), 0u);
}

TEST(A64Sim, MovRIValues) {
  for (u64 K : {u64(0), u64(1), u64(0xFFFF), u64(0x10000), u64(0xDEADBEEF),
                u64(0x123456789ABCDEF0ull), ~u64(0), u64(0) - 2,
                u64(0xFFFFFFFF00000000ull), u64(0x8000000000000000ull)}) {
    SimRun R([K](Emitter &E, Sim &) {
      E.movRI(X0, K);
      E.ret();
    });
    EXPECT_EQ(R.call(), K) << "imm " << K;
  }
}

TEST(A64Sim, LogicalImmSemantics) {
  for (u64 K : {u64(1), u64(0xFF), u64(0xF0F0F0F0F0F0F0F0ull), u64(0x7),
                u64(0x123456789ABCDEFull), u64(5)}) {
    SimRun R([K](Emitter &E, Sim &) {
      E.logicRI(LogicOp::And, 8, X0, X0, K);
      E.ret();
    });
    EXPECT_EQ(R.call({0xA5A5A5A5A5A5A5A5ull}), 0xA5A5A5A5A5A5A5A5ull & K);
  }
}

TEST(A64Sim, ShiftSemantics) {
  SimRun R([](Emitter &E, Sim &) {
    E.shiftRI(ShiftOp::Lsl, 8, X2, X0, 4);
    E.shiftRI(ShiftOp::Lsr, 8, X3, X0, 8);
    E.shiftRI(ShiftOp::Asr, 8, X4, X0, 8);
    E.addRRR(8, X0, X2, X3);
    E.addRRR(8, X0, X0, X4);
    E.ret();
  });
  u64 V = 0x8000000000001234ull;
  EXPECT_EQ(R.call({V}), (V << 4) + (V >> 8) +
                             static_cast<u64>(static_cast<i64>(V) >> 8));
}

TEST(A64Sim, VarShiftAndExtr) {
  SimRun R([](Emitter &E, Sim &) {
    E.shiftRRR(ShiftOp::Lsr, 8, X2, X0, X1); // x2 = a >> b
    E.extrRRI(8, X3, X0, X0, 8);             // x3 = ror(a, 8)
    E.addRRR(8, X0, X2, X3);
    E.ret();
  });
  u64 A = 0x1122334455667788ull;
  u64 Ror = (A >> 8) | (A << 56);
  EXPECT_EQ(R.call({A, 16}), (A >> 16) + Ror);
}

TEST(A64Sim, DivisionEdgeCases) {
  SimRun R([](Emitter &E, Sim &) {
    E.sdivRRR(8, X0, X0, X1);
    E.ret();
  });
  EXPECT_EQ(R.call({100, 7}), static_cast<u64>(100 / 7));
  EXPECT_EQ(R.call({static_cast<u64>(-100), 7}),
            static_cast<u64>(i64(-100) / 7));
  EXPECT_EQ(R.call({100, 0}), 0u); // A64 divide-by-zero yields 0
  EXPECT_EQ(R.call({0x8000000000000000ull, static_cast<u64>(-1)}),
            0x8000000000000000ull); // overflow case
}

TEST(A64Sim, CompareAndCset) {
  SimRun R([](Emitter &E, Sim &) {
    E.cmpRR(8, X0, X1);
    E.cset(X0, Cond::LT);
    E.ret();
  });
  EXPECT_EQ(R.call({1, 2}), 1u);
  EXPECT_EQ(R.call({2, 1}), 0u);
  EXPECT_EQ(R.call({static_cast<u64>(-5), 3}), 1u);
}

TEST(A64Sim, I128AddCarryChain) {
  // (x0:x1) + (x2:x3) -> x0 = lo, x1 = hi.
  SimRun R([](Emitter &E, Sim &) {
    E.addRRR(8, X0, X0, X2, /*SetFlags=*/true);
    E.adcsRRR(8, X1, X1, X3);
    E.ret();
  });
  R.S.X[0] = ~0ull;
  R.S.X[1] = 1;
  R.S.X[2] = 1;
  R.S.X[3] = 2;
  R.S.X[30] = 0;
  R.call({~0ull, 1, 1, 2});
  EXPECT_EQ(R.S.X[0], 0u);
  EXPECT_EQ(R.S.X[1], 4u); // 1 + 2 + carry
}

TEST(A64Sim, LoadStoreRoundTrip) {
  SimRun R([](Emitter &E, Sim &) {
    E.subRI(8, SP, SP, 32);
    E.str(8, Mem(SP, 8), X0);
    E.ldr(8, X1, Mem(SP, 8));
    E.str(1, Mem(SP), X0);
    E.ldr(1, X2, Mem(SP));
    E.ldrSext(1, X3, Mem(SP));
    E.addRI(8, SP, SP, 32);
    E.addRRR(8, X0, X1, X2);
    E.addRRR(8, X0, X0, X3);
    E.ret();
  });
  u64 V = 0xFFFFFFFFFFFFFF80ull; // low byte 0x80
  EXPECT_EQ(R.call({V}), V + 0x80 + static_cast<u64>(i64(-128)));
}

TEST(A64Sim, BranchesAndLoops) {
  // Sum 1..n via a loop.
  SimRun R([](Emitter &E, Sim &) {
    asmx::Label Loop = E.assembler().makeLabel();
    asmx::Label Done = E.assembler().makeLabel();
    E.movRI(X1, 0);
    E.assembler().bindLabel(Loop);
    E.cmpRI(8, X0, 0);
    E.bcondLabel(Cond::EQ, Done);
    E.addRRR(8, X1, X1, X0);
    E.subRI(8, X0, X0, 1);
    E.bLabel(Loop);
    E.assembler().bindLabel(Done);
    E.movRR(8, X0, X1);
    E.ret();
  });
  EXPECT_EQ(R.call({10}), 55u);
  EXPECT_EQ(R.call({0}), 0u);
  EXPECT_EQ(R.call({1000}), 500500u);
}

TEST(A64Sim, FloatingPoint) {
  SimRun R([](Emitter &E, Sim &) {
    E.fpArith(FpOp::Mul, 8, V0, V0, V1);
    E.fpArith(FpOp::Add, 8, V0, V0, V1);
    E.ret();
  });
  double A = 2.5, B = 4.0;
  u64 ABits, BBits;
  memcpy(&ABits, &A, 8);
  memcpy(&BBits, &B, 8);
  R.call({ABits, BBits}, {true, true});
  EXPECT_DOUBLE_EQ(R.S.d(0), 2.5 * 4.0 + 4.0);
}

TEST(A64Sim, FpCompareUnordered) {
  SimRun R([](Emitter &E, Sim &) {
    E.fpCmp(8, V0, V1);
    E.cset(X0, Cond::MI); // olt
    E.ret();
  });
  double NaN = __builtin_nan("");
  u64 NaNBits, OneBits;
  memcpy(&NaNBits, &NaN, 8);
  double One = 1.0;
  memcpy(&OneBits, &One, 8);
  EXPECT_EQ(R.call({NaNBits, OneBits}, {true, true}), 0u);
  double Half = 0.5;
  u64 HalfBits;
  memcpy(&HalfBits, &Half, 8);
  EXPECT_EQ(R.call({HalfBits, OneBits}, {true, true}), 1u);
}

TEST(A64Sim, ConvertIntFp) {
  SimRun R([](Emitter &E, Sim &) {
    E.cvtSiToFp(8, 8, V0, X0); // scvtf d0, x0
    E.fpArith(FpOp::Add, 8, V0, V0, V0);
    E.cvtFpToSi(8, 8, X0, V0); // fcvtzs x0, d0
    E.ret();
  });
  EXPECT_EQ(R.call({21}), 42u);
  EXPECT_EQ(R.call({static_cast<u64>(-21)}), static_cast<u64>(-42));
}

TEST(A64Sim, HostCallBridge) {
  SimRun R([](Emitter &E, Sim &S) {
    S.registerHost("ext_mul3", [](Sim &Sim) { Sim.X[0] = Sim.X[0] * 3; });
    // Call ext_mul3(x0 + 1).
    E.stpPre(FP, LR, SP, -16);
    E.addRI(8, X0, X0, 1);
    E.blSym(E.assembler().getOrCreateSymbol("ext_mul3"));
    E.addRI(8, X0, X0, 100);
    E.ldpPost(FP, LR, SP, 16);
    E.ret();
  });
  EXPECT_EQ(R.call({5}), (5 + 1) * 3 + 100u);
}

TEST(A64Sim, LargeFrameOffsets) {
  // Frame offsets beyond the 9-bit LDUR range go through X16.
  SimRun R([](Emitter &E, Sim &) {
    E.subRI(8, SP, SP, 4096);
    E.str(8, Mem(SP, 3000), X0);
    E.movRI(X0, 0);
    E.ldr(8, X0, Mem(SP, 3000));
    E.movSP(X1, SP);
    E.str(8, Mem(X1, -513), X0); // negative out-of-range -> X16 path
    E.ldr(8, X2, Mem(X1, -513));
    E.addRRR(8, X0, X0, X2);
    E.addRI(8, SP, SP, 4096);
    E.ret();
  });
  EXPECT_EQ(R.call({7}), 14u);
}

TEST(A64Sim, Uxtb32BitOps) {
  SimRun R([](Emitter &E, Sim &) {
    E.uxtb(X1, X0);
    E.sxtb(X2, X0);
    E.addRRR(4, X0, X1, X2); // 32-bit add zero-extends result
    E.ret();
  });
  u64 V = 0xFFFFFFFFFFFFFF80ull;
  u64 Expect = (0x80 + static_cast<u64>(i64(-128))) & 0xFFFFFFFFull;
  EXPECT_EQ(R.call({V}), Expect);
}

TEST(A64Sim, CselSemantics) {
  SimRun R([](Emitter &E, Sim &) {
    E.cmpRI(8, X0, 10);
    E.csel(8, X0, X1, X2, Cond::LO);
    E.ret();
  });
  EXPECT_EQ(R.call({5, 111, 222}), 111u);
  EXPECT_EQ(R.call({15, 111, 222}), 222u);
}

TEST(A64Sim, GlobalAddressing) {
  // leaSym/ADRP against a data symbol, then load through it.
  asmx::Assembler Asm;
  Emitter E(Asm);
  asmx::SymRef G = Asm.createSymbol("gvar", asmx::Linkage::Internal, false);
  asmx::Section &D = Asm.section(asmx::SecKind::Data);
  u64 Off = D.size();
  D.appendLE<u64>(0xCAFEBABEull);
  Asm.defineSymbol(G, asmx::SecKind::Data, Off, 8);
  asmx::SymRef F = Asm.createSymbol("f", asmx::Linkage::External, true);
  Asm.defineSymbol(F, asmx::SecKind::Text, 0, 0);
  E.leaSym(X1, G);
  E.ldr(8, X0, Mem(X1));
  E.ret();

  Sim S;
  SimModule Mod;
  ASSERT_TRUE(Mod.map(Asm, S));
  EXPECT_EQ(S.call(Mod.address("f")), 0xCAFEBABEull);
}

} // namespace
