//===- x64/Encoder.h - x86-64 instruction encoder ---------------*- C++ -*-===//
///
/// \file
/// A fast, direct x86-64 machine code encoder. The TPDE paper deliberately
/// avoids LLVM-MC ("due to its subpar performance", §4.1.3); this encoder
/// plays the role of TPDE's in-house assembler: every method appends the
/// final instruction bytes to the text section with no intermediate
/// representation.
///
/// Register numbering: general-purpose registers are 0..15 (RAX..R15),
/// SSE registers are 16..31 (XMM0..XMM15). The upper nibble doubles as the
/// register-bank index used by the framework's register allocator.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_X64_ENCODER_H
#define TPDE_X64_ENCODER_H

// tpde-lint: hot-path -- per-function compile loop; the zero-allocation
// policy (docs/PERF.md) is machine-enforced here by scripts/tpde_lint.py.

#include "asmx/Assembler.h"
#include "support/Common.h"

namespace tpde::x64 {

/// A machine register handle (GP bank 0: ids 0-15, FP bank 1: ids 16-31).
struct AsmReg {
  u8 Id = 0xFF;
  constexpr AsmReg() = default;
  constexpr AsmReg(u8 Id) : Id(Id) {}
  constexpr bool isValid() const { return Id != 0xFF; }
  /// Register bank: 0 = general purpose, 1 = SSE.
  constexpr u8 bank() const { return Id >> 4; }
  /// Index within the bank (hardware encoding 0-15).
  constexpr u8 hw() const { return Id & 15; }
  constexpr bool operator==(const AsmReg &O) const { return Id == O.Id; }
};

// Canonical register ids.
inline constexpr AsmReg RAX{0}, RCX{1}, RDX{2}, RBX{3}, RSP{4}, RBP{5},
    RSI{6}, RDI{7}, R8{8}, R9{9}, R10{10}, R11{11}, R12{12}, R13{13}, R14{14},
    R15{15};
inline constexpr AsmReg XMM0{16}, XMM1{17}, XMM2{18}, XMM3{19}, XMM4{20},
    XMM5{21}, XMM6{22}, XMM7{23}, XMM8{24}, XMM9{25}, XMM10{26}, XMM11{27},
    XMM12{28}, XMM13{29}, XMM14{30}, XMM15{31};
inline constexpr AsmReg NoReg{};

/// A memory operand: [Base + Index*Scale + Disp].
struct Mem {
  AsmReg Base = NoReg;
  AsmReg Index = NoReg;
  u8 Scale = 1; // 1, 2, 4, or 8
  i32 Disp = 0;

  constexpr Mem() = default;
  constexpr Mem(AsmReg Base, i32 Disp = 0) : Base(Base), Disp(Disp) {}
  constexpr Mem(AsmReg Base, AsmReg Index, u8 Scale, i32 Disp)
      : Base(Base), Index(Index), Scale(Scale), Disp(Disp) {}
};

/// x86 condition codes (the encoding value is the opcode low nibble).
enum class Cond : u8 {
  O = 0x0,
  NO = 0x1,
  B = 0x2, // unsigned <
  AE = 0x3, // unsigned >=
  E = 0x4,
  NE = 0x5,
  BE = 0x6, // unsigned <=
  A = 0x7, // unsigned >
  S = 0x8,
  NS = 0x9,
  P = 0xA,
  NP = 0xB,
  L = 0xC, // signed <
  GE = 0xD, // signed >=
  LE = 0xE, // signed <=
  G = 0xF, // signed >
};

/// Returns the negated condition (used for branch inversion).
inline Cond invert(Cond C) {
  return static_cast<Cond>(static_cast<u8>(C) ^ 1);
}

/// The two-operand ALU family sharing one encoding scheme.
enum class AluOp : u8 {
  Add = 0,
  Or = 1,
  Adc = 2,
  Sbb = 3,
  And = 4,
  Sub = 5,
  Xor = 6,
  Cmp = 7,
};

/// Shift/rotate family (the value is the /digit of group 2).
enum class ShiftOp : u8 { Rol = 0, Ror = 1, Shl = 4, Shr = 5, Sar = 7 };

/// Scalar SSE arithmetic family (the value is the final opcode byte).
enum class FpOp : u8 {
  Add = 0x58,
  Mul = 0x59,
  Sub = 0x5C,
  Min = 0x5D,
  Div = 0x5E,
  Max = 0x5F,
  Sqrt = 0x51,
};

/// Appends x86-64 instructions to the text section of an Assembler.
///
/// All integer operations take an operand size in bytes (1, 2, 4, or 8);
/// scalar FP operations take 4 (float) or 8 (double).
class Emitter {
public:
  explicit Emitter(asmx::Assembler &A) : A(A), T(A.text()) {}

  asmx::Assembler &assembler() { return A; }
  u64 offset() const { return T.size(); }

  // --- Integer moves ----------------------------------------------------
  void movRR(u8 Sz, AsmReg Dst, AsmReg Src);
  /// Materializes an immediate with the shortest usable encoding. A 32-bit
  /// operand size zero-extends; 8 with a value needing 64 bits uses movabs.
  void movRI(AsmReg Dst, u64 Imm);
  void load(u8 Sz, AsmReg Dst, Mem M);           // plain mov (4/8 bytes)
  void loadZext(u8 Sz, AsmReg Dst, Mem M);       // movzx for 1/2, mov else
  void loadSext(u8 Sz, AsmReg Dst, Mem M);       // movsx to 64 bits
  void store(u8 Sz, Mem M, AsmReg Src);
  void storeImm(u8 Sz, Mem M, i32 Imm);
  void movzxRR(u8 SrcSz, AsmReg Dst, AsmReg Src); // 1/2/4 -> 8
  void movsxRR(u8 SrcSz, AsmReg Dst, AsmReg Src); // 1/2/4 -> 8
  void lea(AsmReg Dst, Mem M);
  void xchgRR(u8 Sz, AsmReg A, AsmReg B);

  // --- Integer arithmetic -----------------------------------------------
  void aluRR(AluOp Op, u8 Sz, AsmReg Dst, AsmReg Src);
  void aluRI(AluOp Op, u8 Sz, AsmReg Dst, i64 Imm);
  void aluRM(AluOp Op, u8 Sz, AsmReg Dst, Mem M);
  void testRR(u8 Sz, AsmReg A, AsmReg B);
  void testRI(u8 Sz, AsmReg R, i32 Imm);
  void imulRR(u8 Sz, AsmReg Dst, AsmReg Src);     // Sz >= 2
  void imulRRI(u8 Sz, AsmReg Dst, AsmReg Src, i32 Imm);
  void mulR(u8 Sz, AsmReg Src);                   // rdx:rax = rax * src
  void divR(u8 Sz, AsmReg Src);                   // unsigned divide
  void idivR(u8 Sz, AsmReg Src);
  void cwd(u8 Sz);                                // cwd/cdq/cqo
  void negR(u8 Sz, AsmReg R);
  void notR(u8 Sz, AsmReg R);
  void shiftRI(ShiftOp Op, u8 Sz, AsmReg R, u8 Imm);
  void shiftRC(ShiftOp Op, u8 Sz, AsmReg R);      // count in CL
  void shldRRI(u8 Sz, AsmReg Dst, AsmReg Src, u8 Imm);
  void shrdRRI(u8 Sz, AsmReg Dst, AsmReg Src, u8 Imm);

  // --- Flags and conditionals --------------------------------------------
  void setcc(Cond C, AsmReg Dst8);
  void cmovcc(Cond C, u8 Sz, AsmReg Dst, AsmReg Src); // Sz >= 2

  // --- Control flow -------------------------------------------------------
  void jmpLabel(asmx::Label L);
  void jccLabel(Cond C, asmx::Label L);
  void callSym(asmx::SymRef S);
  void ret();
  void ud2();
  void push(AsmReg R);
  void pop(AsmReg R);
  /// Emits \p N bytes of NOP using the recommended multi-byte forms.
  void nops(unsigned N);

  // --- RIP-relative addressing -------------------------------------------
  /// lea Dst, [rip + Sym + Addend]
  void leaSym(AsmReg Dst, asmx::SymRef S, i64 Addend = 0);
  /// movss/movsd Dst, [rip + Sym]
  void fpLoadSym(u8 Sz, AsmReg Dst, asmx::SymRef S, i64 Addend = 0);

  // --- Scalar SSE ----------------------------------------------------------
  void fpMovRR(u8 Sz, AsmReg Dst, AsmReg Src);     // movaps-based copy
  void fpLoad(u8 Sz, AsmReg Dst, Mem M);           // movss/movsd
  void fpStore(u8 Sz, Mem M, AsmReg Src);
  void fpArith(FpOp Op, u8 Sz, AsmReg Dst, AsmReg Src);
  void fpArithMem(FpOp Op, u8 Sz, AsmReg Dst, Mem M);
  void ucomis(u8 Sz, AsmReg A, AsmReg B);
  void xorps(AsmReg Dst, AsmReg Src);
  void cvtsi2fp(u8 IntSz, u8 FpSz, AsmReg Dst, AsmReg Src); // int -> fp
  void cvtfp2si(u8 FpSz, u8 IntSz, AsmReg Dst, AsmReg Src); // truncating
  void cvtfp2fp(u8 SrcSz, AsmReg Dst, AsmReg Src);          // ss<->sd
  void movdToFp(u8 Sz, AsmReg Dst, AsmReg Src);   // GP -> XMM bit copy
  void movdFromFp(u8 Sz, AsmReg Dst, AsmReg Src); // XMM -> GP bit copy

  // --- Raw access (prologue patching etc.) --------------------------------
  asmx::Section &textSection() { return T; }

private:
  // --- Batched emission -------------------------------------------------
  // Every instruction reserves its maximum encoded length once (begin),
  // writes raw bytes through the returned cursor, and commits the final
  // length (commit): one bounds check per instruction instead of one per
  // byte (see support::ByteBuffer). The cursor lives in a local of the
  // emitting method and is passed to the byte helpers by reference, never
  // kept in a member: a u8 store may alias any object, so a member cursor
  // would be reloaded and stored back around every byte (docs/PERF.md).
  u8 *begin(size_t MaxBytes = 24) { return T.writeCursor(MaxBytes); }
  void commit(u8 *P) { T.commitCursor(P); }
  /// Emits mod=00 rm=101 (RIP-relative) with a PC32 relocation for S.
  void modRMRip(u8 *&P, u8 RegField, asmx::SymRef S, i64 Addend);

  asmx::Assembler &A;
  asmx::Section &T;
};

} // namespace tpde::x64

#endif // TPDE_X64_ENCODER_H
