//===- tests/x64_test.cpp - x86-64 encoder tests --------------------------===//
///
/// Two validation strategies: byte-exact golden encodings for representative
/// instructions, and end-to-end execution of small JIT-compiled functions on
/// the x86-64 host.
///
//===----------------------------------------------------------------------===//

#include "asmx/JITMapper.h"
#include "x64/Encoder.h"

#include <gtest/gtest.h>

using namespace tpde;
using namespace tpde::asmx;
using namespace tpde::x64;

namespace {

std::vector<u8> bytesOf(void (*Emit)(Emitter &)) {
  Assembler A;
  Emitter E(A);
  Emit(E);
  return std::vector<u8>(A.text().Data.begin(), A.text().Data.end());
}

#define EXPECT_BYTES(expr, ...)                                                \
  do {                                                                         \
    std::vector<u8> Got = bytesOf([](Emitter &E) { expr; });                   \
    std::vector<u8> Want = {__VA_ARGS__};                                      \
    EXPECT_EQ(Got, Want);                                                      \
  } while (0)

/// JIT-compiles whatever \p Emit emitted as function "f" and returns its
/// address, keeping the mapper alive via the out-parameter.
void *jitFunction(JITMapper &JIT, void (*Emit)(Emitter &),
                  const JITMapper::Resolver &R = nullptr) {
  // The assembler must outlive the mapper (address() reads its symbol
  // table), hence the static; free the previous test's instance so the
  // suite does not accumulate one leaked assembler per call (LeakSan).
  static Assembler *A = nullptr;
  delete A;
  A = new Assembler();
  Emitter E(*A);
  SymRef F = A->createSymbol("f", Linkage::External, true);
  A->defineSymbol(F, SecKind::Text, 0, 0);
  Emit(E);
  if (!JIT.map(*A, R))
    return nullptr;
  return JIT.address("f");
}

} // namespace

// --- Golden byte encodings (verified against GNU as) ---------------------

TEST(X64Encode, MovRR) {
  EXPECT_BYTES(E.movRR(8, RAX, RBX), 0x48, 0x89, 0xd8);
  EXPECT_BYTES(E.movRR(4, RAX, RBX), 0x89, 0xd8);
  EXPECT_BYTES(E.movRR(8, R8, R15), 0x4d, 0x89, 0xf8);
  EXPECT_BYTES(E.movRR(2, RCX, RDX), 0x66, 0x89, 0xd1);
  EXPECT_BYTES(E.movRR(1, RSI, RDI), 0x40, 0x88, 0xfe); // needs bare REX
}

TEST(X64Encode, MovRI) {
  EXPECT_BYTES(E.movRI(RAX, 42), 0xb8, 0x2a, 0x00, 0x00, 0x00);
  EXPECT_BYTES(E.movRI(R9, 1), 0x41, 0xb9, 0x01, 0x00, 0x00, 0x00);
  // Negative value needs sign-extended 64-bit form.
  EXPECT_BYTES(E.movRI(RAX, static_cast<u64>(-1)), 0x48, 0xc7, 0xc0, 0xff,
               0xff, 0xff, 0xff);
  // Full 64-bit immediate -> movabs.
  EXPECT_BYTES(E.movRI(RAX, 0x123456789abcdef0ull), 0x48, 0xb8, 0xf0, 0xde,
               0xbc, 0x9a, 0x78, 0x56, 0x34, 0x12);
}

TEST(X64Encode, LoadStore) {
  EXPECT_BYTES(E.load(8, RAX, Mem(RDI, 8)), 0x48, 0x8b, 0x47, 0x08);
  EXPECT_BYTES(E.store(4, Mem(RSI, -4), RDX), 0x89, 0x56, 0xfc);
  // RSP base requires SIB.
  EXPECT_BYTES(E.load(8, RAX, Mem(RSP, 16)), 0x48, 0x8b, 0x44, 0x24, 0x10);
  // RBP base with zero displacement still requires disp8.
  EXPECT_BYTES(E.load(8, RAX, Mem(RBP, 0)), 0x48, 0x8b, 0x45, 0x00);
  // R13 behaves like RBP, R12 like RSP.
  EXPECT_BYTES(E.load(8, RAX, Mem(R13, 0)), 0x49, 0x8b, 0x45, 0x00);
  EXPECT_BYTES(E.load(8, RAX, Mem(R12, 0)), 0x49, 0x8b, 0x04, 0x24);
  // Scaled index.
  EXPECT_BYTES(E.load(4, RCX, Mem(RDI, RSI, 4, 0)), 0x8b, 0x0c, 0xb7);
  // Large displacement.
  EXPECT_BYTES(E.load(8, RAX, Mem(RDI, 0x1000)), 0x48, 0x8b, 0x87, 0x00, 0x10,
               0x00, 0x00);
}

TEST(X64Encode, Alu) {
  EXPECT_BYTES(E.aluRR(AluOp::Add, 8, RAX, RBX), 0x48, 0x01, 0xd8);
  EXPECT_BYTES(E.aluRR(AluOp::Sub, 4, RCX, RDX), 0x29, 0xd1);
  EXPECT_BYTES(E.aluRR(AluOp::Cmp, 8, RDI, RSI), 0x48, 0x39, 0xf7);
  EXPECT_BYTES(E.aluRI(AluOp::Add, 8, RSP, 8), 0x48, 0x83, 0xc4, 0x08);
  EXPECT_BYTES(E.aluRI(AluOp::Sub, 8, RSP, 0x100), 0x48, 0x81, 0xec, 0x00,
               0x01, 0x00, 0x00);
  EXPECT_BYTES(E.aluRM(AluOp::Add, 8, RAX, Mem(RDI, 0)), 0x48, 0x03, 0x07);
}

TEST(X64Encode, ShiftsAndUnary) {
  EXPECT_BYTES(E.shiftRI(ShiftOp::Shl, 8, RAX, 4), 0x48, 0xc1, 0xe0, 0x04);
  EXPECT_BYTES(E.shiftRI(ShiftOp::Sar, 4, RDX, 1), 0xd1, 0xfa);
  EXPECT_BYTES(E.shiftRC(ShiftOp::Shr, 8, RBX), 0x48, 0xd3, 0xeb);
  EXPECT_BYTES(E.negR(8, RAX), 0x48, 0xf7, 0xd8);
  EXPECT_BYTES(E.notR(4, RCX), 0xf7, 0xd1);
}

TEST(X64Encode, MulDiv) {
  EXPECT_BYTES(E.imulRR(8, RAX, RBX), 0x48, 0x0f, 0xaf, 0xc3);
  EXPECT_BYTES(E.idivR(8, RCX), 0x48, 0xf7, 0xf9);
  EXPECT_BYTES(E.divR(4, RSI), 0xf7, 0xf6);
  EXPECT_BYTES(E.cwd(8), 0x48, 0x99);
  EXPECT_BYTES(E.cwd(4), 0x99);
}

TEST(X64Encode, SetccCmov) {
  EXPECT_BYTES(E.setcc(Cond::E, RAX), 0x0f, 0x94, 0xc0);
  EXPECT_BYTES(E.setcc(Cond::L, RSI), 0x40, 0x0f, 0x9c, 0xc6);
  EXPECT_BYTES(E.cmovcc(Cond::NE, 8, RAX, RBX), 0x48, 0x0f, 0x45, 0xc3);
}

TEST(X64Encode, Extensions) {
  EXPECT_BYTES(E.movzxRR(1, RAX, RCX), 0x0f, 0xb6, 0xc1);
  EXPECT_BYTES(E.movzxRR(4, RAX, RCX), 0x89, 0xc8);
  EXPECT_BYTES(E.movsxRR(4, RAX, RCX), 0x48, 0x63, 0xc1);
  EXPECT_BYTES(E.movsxRR(1, RDX, RBX), 0x48, 0x0f, 0xbe, 0xd3);
}

TEST(X64Encode, PushPopRet) {
  EXPECT_BYTES(E.push(RBP), 0x55);
  EXPECT_BYTES(E.push(R12), 0x41, 0x54);
  EXPECT_BYTES(E.pop(RBP), 0x5d);
  EXPECT_BYTES(E.ret(), 0xc3);
}

TEST(X64Encode, Lea) {
  EXPECT_BYTES(E.lea(RAX, Mem(RDI, RSI, 1, 0)), 0x48, 0x8d, 0x04, 0x37);
  EXPECT_BYTES(E.lea(RCX, Mem(RBP, -8)), 0x48, 0x8d, 0x4d, 0xf8);
}

TEST(X64Encode, SSE) {
  EXPECT_BYTES(E.fpArith(FpOp::Add, 8, XMM0, XMM1), 0xf2, 0x0f, 0x58, 0xc1);
  EXPECT_BYTES(E.fpArith(FpOp::Mul, 4, XMM2, XMM3), 0xf3, 0x0f, 0x59, 0xd3);
  EXPECT_BYTES(E.fpLoad(8, XMM0, Mem(RDI, 0)), 0xf2, 0x0f, 0x10, 0x07);
  EXPECT_BYTES(E.fpStore(4, Mem(RSI, 4), XMM1), 0xf3, 0x0f, 0x11, 0x4e, 0x04);
  EXPECT_BYTES(E.ucomis(8, XMM0, XMM1), 0x66, 0x0f, 0x2e, 0xc1);
  EXPECT_BYTES(E.xorps(XMM0, XMM0), 0x0f, 0x57, 0xc0);
  EXPECT_BYTES(E.cvtsi2fp(8, 8, XMM0, RAX), 0xf2, 0x48, 0x0f, 0x2a, 0xc0);
  EXPECT_BYTES(E.cvtfp2si(8, 4, RAX, XMM0), 0xf2, 0x0f, 0x2c, 0xc0);
  EXPECT_BYTES(E.movdToFp(8, XMM0, RAX), 0x66, 0x48, 0x0f, 0x6e, 0xc0);
  EXPECT_BYTES(E.movdFromFp(8, RAX, XMM0), 0x66, 0x48, 0x0f, 0x7e, 0xc0);
}

// Forms the golden codegen corpus does not reach: every operand size
// and extended registers.

TEST(X64Encode, ExtendingLoads) {
  EXPECT_BYTES(E.loadZext(1, RAX, Mem(RDI, 8)), 0x0f, 0xb6, 0x47, 0x08);
  EXPECT_BYTES(E.loadZext(2, R9, Mem(RBP, -16)), 0x44, 0x0f, 0xb7, 0x4d,
               0xf0);
  EXPECT_BYTES(E.loadZext(4, RCX, Mem(RSI, 0)), 0x8b, 0x0e);
  EXPECT_BYTES(E.loadZext(8, R12, Mem(RSP, 32)), 0x4c, 0x8b, 0x64, 0x24,
               0x20);
  EXPECT_BYTES(E.loadSext(1, RAX, Mem(RDI, 0)), 0x48, 0x0f, 0xbe, 0x07);
  EXPECT_BYTES(E.loadSext(2, RDX, Mem(R13, 4)), 0x49, 0x0f, 0xbf, 0x55, 0x04);
  EXPECT_BYTES(E.loadSext(4, R10, Mem(RBX, RCX, 4, 0x100)), 0x4c, 0x63, 0x94,
               0x8b, 0x00, 0x01, 0x00, 0x00);
  EXPECT_BYTES(E.loadSext(8, RSI, Mem(RBP, -8)), 0x48, 0x8b, 0x75, 0xf8);
}

TEST(X64Encode, StoreImm) {
  EXPECT_BYTES(E.storeImm(1, Mem(RDI, 0), 0x7f), 0xc6, 0x07, 0x7f);
  EXPECT_BYTES(E.storeImm(2, Mem(RBP, -2), 0x1234), 0x66, 0xc7, 0x45, 0xfe,
               0x34, 0x12);
  EXPECT_BYTES(E.storeImm(4, Mem(R8, 16), -1), 0x41, 0xc7, 0x40, 0x10, 0xff,
               0xff, 0xff, 0xff);
  EXPECT_BYTES(E.storeImm(8, Mem(RSP, 8), 0x12345678), 0x48, 0xc7, 0x44, 0x24,
               0x08, 0x78, 0x56, 0x34, 0x12);
}

TEST(X64Encode, XchgAndTest) {
  EXPECT_BYTES(E.xchgRR(8, RAX, RBX), 0x48, 0x87, 0xc3);
  EXPECT_BYTES(E.xchgRR(4, R8, RCX), 0x44, 0x87, 0xc1);
  EXPECT_BYTES(E.xchgRR(2, RDX, RSI), 0x66, 0x87, 0xd6);
  EXPECT_BYTES(E.xchgRR(1, RAX, RCX), 0x86, 0xc1);
  EXPECT_BYTES(E.testRR(8, RAX, RAX), 0x48, 0x85, 0xc0);
  EXPECT_BYTES(E.testRR(4, R9, RDX), 0x41, 0x85, 0xd1);
  EXPECT_BYTES(E.testRR(1, RSI, RDI), 0x40, 0x84, 0xfe);
  EXPECT_BYTES(E.testRR(2, RCX, RBX), 0x66, 0x85, 0xd9);
  EXPECT_BYTES(E.testRI(1, RAX, 1), 0xf6, 0xc0, 0x01);
  EXPECT_BYTES(E.testRI(1, RDI, 1), 0x40, 0xf6, 0xc7, 0x01);
  EXPECT_BYTES(E.testRI(2, RCX, 0x100), 0x66, 0xf7, 0xc1, 0x00, 0x01);
  EXPECT_BYTES(E.testRI(4, RDX, 0x80000), 0xf7, 0xc2, 0x00, 0x00, 0x08, 0x00);
  EXPECT_BYTES(E.testRI(8, R11, -16), 0x49, 0xf7, 0xc3, 0xf0, 0xff, 0xff,
               0xff);
}

TEST(X64Encode, MulForms) {
  EXPECT_BYTES(E.imulRRI(8, RAX, RBX, 10), 0x48, 0x6b, 0xc3, 0x0a);
  EXPECT_BYTES(E.imulRRI(4, R8, R9, 1000), 0x45, 0x69, 0xc1, 0xe8, 0x03, 0x00,
               0x00);
  EXPECT_BYTES(E.imulRRI(2, RCX, RDX, 300), 0x66, 0x69, 0xca, 0x2c, 0x01);
  EXPECT_BYTES(E.imulRRI(8, R15, RSI, -3), 0x4c, 0x6b, 0xfe, 0xfd);
  EXPECT_BYTES(E.mulR(8, RCX), 0x48, 0xf7, 0xe1);
  EXPECT_BYTES(E.mulR(4, R10), 0x41, 0xf7, 0xe2);
  EXPECT_BYTES(E.mulR(1, RSI), 0x40, 0xf6, 0xe6);
  EXPECT_BYTES(E.mulR(2, RBX), 0x66, 0xf7, 0xe3);
}

TEST(X64Encode, DoubleShiftsAndTrap) {
  EXPECT_BYTES(E.shldRRI(8, RAX, RDX, 4), 0x48, 0x0f, 0xa4, 0xd0, 0x04);
  EXPECT_BYTES(E.shldRRI(4, R8, RCX, 31), 0x41, 0x0f, 0xa4, 0xc8, 0x1f);
  EXPECT_BYTES(E.shrdRRI(8, RAX, RDX, 4), 0x48, 0x0f, 0xac, 0xd0, 0x04);
  EXPECT_BYTES(E.shrdRRI(8, R9, R10, 63), 0x4d, 0x0f, 0xac, 0xd1, 0x3f);
  EXPECT_BYTES(E.ud2(), 0x0f, 0x0b);
}

TEST(X64Encode, LeaSymRelocation) {
  EXPECT_BYTES(E.leaSym(RAX, E.assembler().createSymbol(
                                 "g", Linkage::External, false)),
               0x48, 0x8d, 0x05, 0x00, 0x00, 0x00, 0x00);
  Assembler A;
  Emitter E(A);
  SymRef S = A.createSymbol("g", Linkage::External, false);
  E.leaSym(R11, S, 24);
  std::vector<u8> Want = {0x4c, 0x8d, 0x1d, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(std::vector<u8>(A.text().Data.begin(), A.text().Data.end()), Want);
  ASSERT_EQ(A.relocs().size(), 1u);
  EXPECT_EQ(A.relocs()[0].Off, 3u);
  EXPECT_EQ(A.relocs()[0].Kind, RelocKind::PC32);
  EXPECT_EQ(A.relocs()[0].Addend, 20); // disp32 ends the instruction
}

TEST(X64Encode, SSEMovesArithMemAndConversion) {
  EXPECT_BYTES(E.fpMovRR(8, XMM0, XMM1), 0x0f, 0x28, 0xc1);
  EXPECT_BYTES(E.fpMovRR(4, XMM9, XMM2), 0x44, 0x0f, 0x28, 0xca);
  EXPECT_BYTES(E.fpMovRR(8, XMM3, XMM15), 0x41, 0x0f, 0x28, 0xdf);
  EXPECT_BYTES(E.fpArithMem(FpOp::Add, 8, XMM0, Mem(RBP, -24)), 0xf2, 0x0f,
               0x58, 0x45, 0xe8);
  EXPECT_BYTES(E.fpArithMem(FpOp::Mul, 4, XMM10, Mem(RDI, 0)), 0xf3, 0x44,
               0x0f, 0x59, 0x17);
  EXPECT_BYTES(E.fpArithMem(FpOp::Div, 8, XMM1, Mem(R8, RAX, 8, 0x200)), 0xf2,
               0x41, 0x0f, 0x5e, 0x8c, 0xc0, 0x00, 0x02, 0x00, 0x00);
  EXPECT_BYTES(E.cvtfp2fp(4, XMM0, XMM1), 0xf3, 0x0f, 0x5a, 0xc1);
  EXPECT_BYTES(E.cvtfp2fp(8, XMM2, XMM3), 0xf2, 0x0f, 0x5a, 0xd3);
  EXPECT_BYTES(E.cvtfp2fp(4, XMM8, XMM12), 0xf3, 0x45, 0x0f, 0x5a, 0xc4);
}

TEST(X64Encode, Nops) {
  for (unsigned N = 1; N <= 32; ++N) {
    Assembler A;
    Emitter E(A);
    E.nops(N);
    EXPECT_EQ(A.text().size(), N) << "nop length " << N;
  }
}

// --- Execution tests -------------------------------------------------------

TEST(X64Exec, Return42) {
  JITMapper JIT;
  auto *F = reinterpret_cast<int (*)()>(jitFunction(JIT, [](Emitter &E) {
    E.movRI(RAX, 42);
    E.ret();
  }));
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F(), 42);
}

TEST(X64Exec, AddArgs) {
  JITMapper JIT;
  auto *F =
      reinterpret_cast<long (*)(long, long)>(jitFunction(JIT, [](Emitter &E) {
        E.lea(RAX, Mem(RDI, RSI, 1, 0));
        E.ret();
      }));
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F(2, 40), 42);
  EXPECT_EQ(F(-5, 3), -2);
}

TEST(X64Exec, BranchMax) {
  JITMapper JIT;
  // max(a, b) with a conditional branch.
  auto *F =
      reinterpret_cast<long (*)(long, long)>(jitFunction(JIT, [](Emitter &E) {
        Assembler &A = E.assembler();
        Label L = A.makeLabel();
        E.movRR(8, RAX, RDI);
        E.aluRR(AluOp::Cmp, 8, RDI, RSI);
        E.jccLabel(Cond::GE, L);
        E.movRR(8, RAX, RSI);
        A.bindLabel(L);
        E.ret();
      }));
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F(3, 9), 9);
  EXPECT_EQ(F(9, 3), 9);
  EXPECT_EQ(F(-1, -2), -1);
}

TEST(X64Exec, LoopSum) {
  JITMapper JIT;
  // sum of 0..n-1
  auto *F = reinterpret_cast<long (*)(long)>(jitFunction(JIT, [](Emitter &E) {
    Assembler &A = E.assembler();
    Label Head = A.makeLabel(), End = A.makeLabel();
    E.movRI(RAX, 0);
    E.movRI(RCX, 0);
    A.bindLabel(Head);
    E.aluRR(AluOp::Cmp, 8, RCX, RDI);
    E.jccLabel(Cond::GE, End);
    E.aluRR(AluOp::Add, 8, RAX, RCX);
    E.aluRI(AluOp::Add, 8, RCX, 1);
    E.jmpLabel(Head);
    A.bindLabel(End);
    E.ret();
  }));
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F(10), 45);
  EXPECT_EQ(F(0), 0);
  EXPECT_EQ(F(1000), 499500);
}

static long externalHelper(long X) { return X * 3; }

TEST(X64Exec, CallExternalSymbol) {
  JITMapper JIT;
  auto *F = reinterpret_cast<long (*)(long)>(jitFunction(
      JIT,
      [](Emitter &E) {
        Assembler &A = E.assembler();
        SymRef H = A.getOrCreateSymbol("helper");
        E.push(RBP); // keep stack 16-byte aligned for the call
        E.callSym(H);
        E.pop(RBP);
        E.aluRI(AluOp::Add, 8, RAX, 1);
        E.ret();
      },
      [](std::string_view Name) -> void * {
        return Name == "helper" ? reinterpret_cast<void *>(&externalHelper)
                                : nullptr;
      }));
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F(10), 31);
}

TEST(X64Exec, FloatAdd) {
  JITMapper JIT;
  auto *F = reinterpret_cast<double (*)(double, double)>(
      jitFunction(JIT, [](Emitter &E) {
        E.fpArith(FpOp::Add, 8, XMM0, XMM1);
        E.ret();
      }));
  ASSERT_NE(F, nullptr);
  EXPECT_DOUBLE_EQ(F(1.5, 2.25), 3.75);
}

TEST(X64Exec, RodataConstant) {
  JITMapper JIT;
  auto *F =
      reinterpret_cast<double (*)()>(jitFunction(JIT, [](Emitter &E) {
        Assembler &A = E.assembler();
        Section &RO = A.section(SecKind::ROData);
        SymRef C = A.createSymbol("const_pi", Linkage::Internal, false);
        u64 Off = RO.size();
        double Pi = 3.14159;
        RO.append(&Pi, 8);
        A.defineSymbol(C, SecKind::ROData, Off, 8);
        E.fpLoadSym(8, XMM0, C);
        E.ret();
      }));
  ASSERT_NE(F, nullptr);
  EXPECT_DOUBLE_EQ(F(), 3.14159);
}

TEST(X64Exec, MemoryLoadStore) {
  JITMapper JIT;
  // *(long*)(p + 8) = *(long*)p + 1; returns old value
  auto *F =
      reinterpret_cast<long (*)(long *)>(jitFunction(JIT, [](Emitter &E) {
        E.load(8, RAX, Mem(RDI, 0));
        E.lea(RCX, Mem(RAX, 1));
        E.store(8, Mem(RDI, 8), RCX);
        E.ret();
      }));
  ASSERT_NE(F, nullptr);
  long Buf[2] = {41, 0};
  EXPECT_EQ(F(Buf), 41);
  EXPECT_EQ(Buf[1], 42);
}

TEST(X64Exec, DivisionSequence) {
  JITMapper JIT;
  // signed division rdi / rsi
  auto *F =
      reinterpret_cast<long (*)(long, long)>(jitFunction(JIT, [](Emitter &E) {
        E.movRR(8, RAX, RDI);
        E.cwd(8);
        E.idivR(8, RSI);
        E.ret();
      }));
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F(42, 7), 6);
  EXPECT_EQ(F(-42, 7), -6);
  EXPECT_EQ(F(7, -2), -3);
}

TEST(X64Exec, Conversions) {
  JITMapper JIT;
  auto *F = reinterpret_cast<double (*)(long)>(jitFunction(JIT, [](Emitter &E) {
    E.cvtsi2fp(8, 8, XMM0, RDI);
    E.ret();
  }));
  ASSERT_NE(F, nullptr);
  EXPECT_DOUBLE_EQ(F(7), 7.0);
  EXPECT_DOUBLE_EQ(F(-3), -3.0);
}
