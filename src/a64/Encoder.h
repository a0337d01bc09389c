//===- a64/Encoder.h - AArch64 instruction encoder --------------*- C++ -*-===//
///
/// \file
/// A fast, direct AArch64 (A64) machine code encoder, the second target of
/// the reproduction (paper §5: "targeting x86-64 and AArch64"). Like the
/// x86-64 encoder it appends final instruction words straight into the
/// text section with no intermediate representation, playing the role of
/// TPDE's in-house assembler (§4.1.3 rejects LLVM-MC for performance).
///
/// Register numbering: general-purpose registers are ids 0..30 (X0..X30),
/// id 31 is SP or XZR depending on the instruction (as in the
/// architecture); FP/SIMD registers are ids 32..63 (V0..V31). The upper
/// bits double as the register-bank index used by the framework's
/// register allocator.
///
/// X16/X17 (IP0/IP1) are reserved as encoder-internal scratch registers:
/// memory operands whose displacement does not fit the addressing mode and
/// unencodable logical immediates are routed through them, so callers can
/// pass arbitrary offsets and immediates.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_A64_ENCODER_H
#define TPDE_A64_ENCODER_H

// tpde-lint: hot-path -- per-function compile loop; the zero-allocation
// policy (docs/PERF.md) is machine-enforced here by scripts/tpde_lint.py.

#include "asmx/Assembler.h"
#include "support/Common.h"

namespace tpde::a64 {

/// A machine register handle (GP bank 0: ids 0-31, FP bank 1: ids 32-63).
struct AsmReg {
  u8 Id = 0xFF;
  constexpr AsmReg() = default;
  constexpr AsmReg(u8 Id) : Id(Id) {}
  constexpr bool isValid() const { return Id != 0xFF; }
  /// Register bank: 0 = general purpose, 1 = FP/SIMD.
  constexpr u8 bank() const { return Id >> 5; }
  /// Hardware encoding within the bank (0-31).
  constexpr u8 hw() const { return Id & 31; }
  constexpr bool operator==(const AsmReg &O) const { return Id == O.Id; }
};

// Canonical register ids. Id 31 encodes both SP and XZR; which one an
// instruction reads/writes follows the architectural rules.
inline constexpr AsmReg X0{0}, X1{1}, X2{2}, X3{3}, X4{4}, X5{5}, X6{6},
    X7{7}, X8{8}, X9{9}, X10{10}, X11{11}, X12{12}, X13{13}, X14{14}, X15{15},
    X16{16}, X17{17}, X18{18}, X19{19}, X20{20}, X21{21}, X22{22}, X23{23},
    X24{24}, X25{25}, X26{26}, X27{27}, X28{28}, FP{29}, LR{30}, SP{31},
    XZR{31};
inline constexpr AsmReg V0{32}, V1{33}, V2{34}, V3{35}, V4{36}, V5{37},
    V6{38}, V7{39}, V8{40}, V9{41}, V10{42}, V11{43}, V12{44}, V13{45},
    V14{46}, V15{47}, V16{48}, V17{49}, V18{50}, V19{51}, V20{52}, V21{53},
    V22{54}, V23{55}, V24{56}, V25{57}, V26{58}, V27{59}, V28{60}, V29{61},
    V30{62}, V31{63};
inline constexpr AsmReg NoReg{};

/// A64 condition codes (the architectural 4-bit encodings).
enum class Cond : u8 {
  EQ = 0x0,
  NE = 0x1,
  HS = 0x2, ///< unsigned >= (carry set)
  LO = 0x3, ///< unsigned <  (carry clear)
  MI = 0x4, ///< negative
  PL = 0x5, ///< positive or zero
  VS = 0x6, ///< overflow
  VC = 0x7, ///< no overflow
  HI = 0x8, ///< unsigned >
  LS = 0x9, ///< unsigned <=
  GE = 0xA, ///< signed >=
  LT = 0xB, ///< signed <
  GT = 0xC, ///< signed >
  LE = 0xD, ///< signed <=
  AL = 0xE,
};

/// Returns the negated condition (used for branch inversion).
inline Cond invert(Cond C) { return static_cast<Cond>(static_cast<u8>(C) ^ 1); }

/// A memory operand. Two forms are supported:
///  * Base + Disp: the encoder picks LDR/STR (scaled unsigned),
///    LDUR/STUR (signed 9-bit), or materializes Disp into X16 and uses a
///    register-offset access.
///  * Base + (Index << Shift): register-offset form. Shift must be 0 or
///    log2 of the access size.
struct Mem {
  AsmReg Base = NoReg;  ///< GP register or SP.
  AsmReg Index = NoReg; ///< If valid, addressing is Base + (Index << Shift).
  u8 Shift = 0;
  i64 Disp = 0; ///< Only used when Index is invalid.

  constexpr Mem() = default;
  constexpr Mem(AsmReg Base, i64 Disp = 0) : Base(Base), Disp(Disp) {}
  constexpr Mem(AsmReg Base, AsmReg Index, u8 Shift)
      : Base(Base), Index(Index), Shift(Shift) {}
};

/// Tries to encode \p Imm as an A64 logical ("bitmask") immediate for
/// \p RegSize-bit operations (32 or 64). On success fills N/immr/imms.
bool encodeLogicalImm(u64 Imm, unsigned RegSize, u32 &N, u32 &Immr, u32 &Imms);

/// The three shift-capable logical register operations plus the
/// flag-setting AND (opc field of the logical register/immediate class).
enum class LogicOp : u8 { And = 0, Orr = 1, Eor = 2, Ands = 3 };

/// Shift kinds for immediate shifts and the variable-shift instructions.
enum class ShiftOp : u8 { Lsl = 0, Lsr = 1, Asr = 2 };

/// Scalar FP arithmetic family (the value selects the opcode bits).
enum class FpOp : u8 { Add, Sub, Mul, Div, Min, Max };

/// Appends A64 instructions to the text section of an Assembler.
///
/// All integer operations take an operand size in bytes: 4 selects the
/// 32-bit (W) form, 8 the 64-bit (X) form. Loads and stores additionally
/// accept sizes 1 and 2. Scalar FP operations take 4 (S) or 8 (D).
class Emitter {
public:
  explicit Emitter(asmx::Assembler &A) : A(A), T(A.text()) {}

  asmx::Assembler &assembler() { return A; }
  u64 offset() const { return T.size(); }

  /// Appends a raw 32-bit instruction word (one bounds check).
  void word(u32 W) {
    u8 *P = begin(4);
    putW(P, W);
    commit(P);
  }

  // --- Moves and immediates ---------------------------------------------
  /// Register move via ORR; neither operand may be SP (use movSP).
  void movRR(u8 Sz, AsmReg Dst, AsmReg Src);
  /// Move involving SP on either side (ADD #0).
  void movSP(AsmReg Dst, AsmReg Src);
  /// Materializes a 64-bit immediate with the shortest MOVZ/MOVN/MOVK
  /// sequence (1-4 instructions).
  void movRI(AsmReg Dst, u64 Imm);

  // --- Integer arithmetic --------------------------------------------------
  /// Dst = Src1 +/- (Src2 << Shift); optionally setting flags. Register 31
  /// is XZR here.
  void addRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2, bool SetFlags = false,
              u8 Shift = 0);
  void subRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2, bool SetFlags = false,
              u8 Shift = 0);
  /// Dst = Src +/- Imm for arbitrary unsigned Imm; uses one or two
  /// ADD/SUB-immediate instructions, or X16 when Imm needs more than 24
  /// bits. Register 31 is SP here. SetFlags requires an imm12-encodable
  /// immediate.
  void addRI(u8 Sz, AsmReg Dst, AsmReg Src, u64 Imm, bool SetFlags = false);
  void subRI(u8 Sz, AsmReg Dst, AsmReg Src, u64 Imm, bool SetFlags = false);
  /// Add/subtract with carry, always flag-setting (ADCS/SBCS).
  void adcsRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2);
  void sbcsRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2);
  /// Dst = -Src.
  void negR(u8 Sz, AsmReg Dst, AsmReg Src) { subRRR(Sz, Dst, XZR, Src); }

  // --- Logical ----------------------------------------------------------
  void logicRRR(LogicOp Op, u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2);
  /// Logical with immediate; falls back to X16 materialization when the
  /// immediate is not a valid bitmask immediate.
  void logicRI(LogicOp Op, u8 Sz, AsmReg Dst, AsmReg Src, u64 Imm);
  /// Dst = ~Src (ORN with XZR).
  void mvnRR(u8 Sz, AsmReg Dst, AsmReg Src);

  // --- Compare / test --------------------------------------------------------
  void cmpRR(u8 Sz, AsmReg A, AsmReg B) { subRRR(Sz, XZR, A, B, true); }
  void cmpRI(u8 Sz, AsmReg R, u64 Imm);
  void tstRI(u8 Sz, AsmReg R, u64 Imm) { logicRI(LogicOp::Ands, Sz, XZR, R, Imm); }

  // --- Multiply / divide ----------------------------------------------------
  /// Dst = Src1 * Src2 + Acc (MADD); mul == madd with Acc = XZR.
  void maddRRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2, AsmReg Acc);
  /// Dst = Acc - Src1 * Src2 (MSUB).
  void msubRRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2, AsmReg Acc);
  void mulRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2) {
    maddRRRR(Sz, Dst, Src1, Src2, XZR);
  }
  void smulh(AsmReg Dst, AsmReg Src1, AsmReg Src2);
  void umulh(AsmReg Dst, AsmReg Src1, AsmReg Src2);
  void sdivRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2);
  void udivRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2);

  // --- Shifts -----------------------------------------------------------------
  /// Variable shift (LSLV/LSRV/ASRV); the count is taken modulo Sz*8.
  void shiftRRR(ShiftOp Op, u8 Sz, AsmReg Dst, AsmReg Src, AsmReg Amt);
  /// Immediate shift via UBFM/SBFM aliases; Amt must be < Sz*8.
  void shiftRI(ShiftOp Op, u8 Sz, AsmReg Dst, AsmReg Src, u8 Amt);
  /// Dst = extract of (Hi:Lo) starting at bit Lsb (EXTR; the SHRD analog).
  void extrRRI(u8 Sz, AsmReg Dst, AsmReg Hi, AsmReg Lo, u8 Lsb);

  // --- Extensions -----------------------------------------------------------
  void sxtb(AsmReg Dst, AsmReg Src); ///< i8  -> i64
  void sxth(AsmReg Dst, AsmReg Src); ///< i16 -> i64
  void sxtw(AsmReg Dst, AsmReg Src); ///< i32 -> i64
  void uxtb(AsmReg Dst, AsmReg Src);
  void uxth(AsmReg Dst, AsmReg Src);
  void uxtw(AsmReg Dst, AsmReg Src) { movRR(4, Dst, Src); }

  // --- Conditionals -----------------------------------------------------------
  void csel(u8 Sz, AsmReg Dst, AsmReg IfTrue, AsmReg IfFalse, Cond C);
  /// Dst = C ? 1 : 0 (CSINC Dst, XZR, XZR, !C).
  void cset(AsmReg Dst, Cond C);

  // --- Loads / stores -----------------------------------------------------------
  /// Load of Sz bytes (1/2/4/8). GP destinations zero-extend to 64 bits;
  /// FP destinations (bank 1) load S/D registers with Sz 4/8.
  void ldr(u8 Sz, AsmReg Dst, Mem M);
  /// Sign-extending load into a 64-bit GP register (Sz 1/2/4).
  void ldrSext(u8 Sz, AsmReg Dst, Mem M);
  /// Store of Sz bytes from a GP (any Sz) or FP (Sz 4/8) register.
  void str(u8 Sz, Mem M, AsmReg Src);
  /// STP/LDP of two 64-bit GP registers with writeback, for prologue
  /// (pre-decrement) and epilogue (post-increment).
  void stpPre(AsmReg R1, AsmReg R2, AsmReg Base, i32 Imm);
  void ldpPost(AsmReg R1, AsmReg R2, AsmReg Base, i32 Imm);

  // --- Address computation ------------------------------------------------------
  /// Dst = Base + Disp (Base may be SP/FP); arbitrary Disp.
  void leaMem(AsmReg Dst, AsmReg Base, i64 Disp);
  /// Dst = &Sym + Addend via ADRP + ADD with relocations.
  void leaSym(AsmReg Dst, asmx::SymRef S, i64 Addend = 0);

  // --- Control flow ---------------------------------------------------------------
  void bLabel(asmx::Label L);
  void bcondLabel(Cond C, asmx::Label L);
  void cbzLabel(u8 Sz, AsmReg R, asmx::Label L);
  void blSym(asmx::SymRef S);
  void blrReg(AsmReg R);
  void brReg(AsmReg R);
  void ret();
  void brk(u16 Imm = 0);
  void nop();
  /// Emits \p N bytes of NOPs; N must be a multiple of 4.
  void nops(unsigned N);

  // --- Scalar FP -------------------------------------------------------------------
  void fpMovRR(u8 Sz, AsmReg Dst, AsmReg Src);          ///< FMOV Dd/Sd, Dn/Sn
  void fpArith(FpOp Op, u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2);
  void fpNeg(u8 Sz, AsmReg Dst, AsmReg Src);
  void fpCmp(u8 Sz, AsmReg A, AsmReg B);                ///< FCMP
  void fpCsel(u8 Sz, AsmReg Dst, AsmReg IfTrue, AsmReg IfFalse, Cond C);
  void fpCvt(u8 SrcSz, AsmReg Dst, AsmReg Src);         ///< FCVT S<->D
  void cvtSiToFp(u8 IntSz, u8 FpSz, AsmReg Dst, AsmReg Src); ///< SCVTF
  void cvtFpToSi(u8 FpSz, u8 IntSz, AsmReg Dst, AsmReg Src); ///< FCVTZS
  void fmovToFp(u8 Sz, AsmReg Dst, AsmReg Src);   ///< GP -> FP bit copy
  void fmovFromFp(u8 Sz, AsmReg Dst, AsmReg Src); ///< FP -> GP bit copy

  // --- Raw access (prologue patching) ------------------------------------------------
  asmx::Section &textSection() { return T; }
  /// Patches the two-instruction `sub sp, sp, #lo; sub sp, sp, #hi, lsl 12`
  /// frame allocation emitted at \p Off for the final \p FrameSize.
  static void patchFrameSub(asmx::Section &T, u64 Off, u32 FrameSize);
  /// Emits the patchable frame allocation placeholder (8 bytes).
  void frameSubPlaceholder();

private:
  static constexpr u32 sf(u8 Sz) { return Sz == 8 ? (1u << 31) : 0; }

  // --- Batched emission -------------------------------------------------
  // Every emitter call reserves its maximum encoded length once (begin),
  // writes raw instruction words through the returned cursor (putW), and
  // commits the final length (commit): one bounds check per emitted
  // instruction sequence instead of one per word (see support::ByteBuffer),
  // exactly like the x64 encoder. The cursor is a local of the emitting
  // method, never a member: a byte store through a member cursor may alias
  // the member, so the compiler would reload and store it around every
  // byte (docs/PERF.md). Multi-word sequences (immediate materialization,
  // out-of-range displacements) reserve their worst case up front and
  // route through the *In() helpers, which take an open cursor and return
  // it advanced.
  u8 *begin(size_t MaxBytes = 4) { return T.writeCursor(MaxBytes); }
  void commit(u8 *P) { T.commitCursor(P); }
  static void putW(u8 *&P, u32 W) {
    P[0] = static_cast<u8>(W);
    P[1] = static_cast<u8>(W >> 8);
    P[2] = static_cast<u8>(W >> 16);
    P[3] = static_cast<u8>(W >> 24);
    P += 4;
  }

  /// movRI body writing through an open cursor (max 16 bytes).
  static u8 *movRIIn(u8 *P, AsmReg Dst, u64 Imm);
  /// ADD/SUB with arbitrary immediate through an open cursor (max 20
  /// bytes, including a possible X16 materialization).
  static u8 *addSubRIIn(u8 *P, u8 Sz, bool SubOp, AsmReg Dst, AsmReg Src,
                        u64 Imm, bool SetFlags);

  /// Emits a load/store for the operand size (SizeLog2), operation class
  /// opc, and register class V; handles all three addressing forms.
  void ldst(u8 SizeLog2, u32 Opc, bool V, AsmReg Rt, Mem M);

  asmx::Assembler &A;
  asmx::Section &T;
};

} // namespace tpde::a64

#endif // TPDE_A64_ENCODER_H
