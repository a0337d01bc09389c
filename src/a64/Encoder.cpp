//===- a64/Encoder.cpp - AArch64 instruction encoder ----------------------===//
//
// Every public method batches its instruction words through the section
// write cursor (Emitter::begin/putW/commit): space for the longest
// possible encoding is reserved up front, words are raw stores through a
// cursor held in a local, and the final length is committed once — one
// bounds check per emitter call (docs/PERF.md "Emission is batched"),
// matching the x64 encoder.
//
//===----------------------------------------------------------------------===//

#include "a64/Encoder.h"

using namespace tpde;
using namespace tpde::a64;

// ---------------------------------------------------------------------------
// Logical (bitmask) immediates
// ---------------------------------------------------------------------------

bool tpde::a64::encodeLogicalImm(u64 Imm, unsigned RegSize, u32 &N, u32 &Immr,
                                 u32 &Imms) {
  assert((RegSize == 32 || RegSize == 64) && "bad register size");
  if (RegSize == 32) {
    Imm &= 0xFFFFFFFFull;
    Imm |= Imm << 32;
  }
  if (Imm == 0 || Imm == ~0ull)
    return false; // all-zero / all-one patterns are not encodable

  // Find the smallest element size whose pattern replicates to the value.
  unsigned E = 64;
  while (E > 2) {
    unsigned Half = E / 2;
    u64 Mask = (u64(1) << Half) - 1;
    if ((Imm & Mask) != ((Imm >> Half) & Mask))
      break;
    E = Half;
  }
  u64 Mask = E == 64 ? ~0ull : (u64(1) << E) - 1;
  u64 P = Imm & Mask;
  unsigned K = popCount(P);
  if (K == 0 || K == E)
    return false;

  unsigned R;
  unsigned T = countTrailingZeros(P);
  u64 RunK = K == 64 ? ~0ull : (u64(1) << K) - 1;
  if ((P >> T) == RunK) {
    // Contiguous run of ones starting at bit T.
    R = (E - T) % E;
  } else {
    // Must be a wrapped run: the zeros form one contiguous run.
    u64 Z = ~P & Mask;
    unsigned TZ = countTrailingZeros(Z);
    if ((Z >> TZ) != (u64(1) << (E - K)) - 1)
      return false;
    unsigned CTO = countTrailingZeros(~P); // trailing ones of P
    R = K - CTO;
  }

  u32 ImmsBase;
  switch (E) {
  case 64:
    N = 1;
    ImmsBase = 0x00;
    break;
  case 32:
    N = 0;
    ImmsBase = 0x00;
    break;
  case 16:
    N = 0;
    ImmsBase = 0x20;
    break;
  case 8:
    N = 0;
    ImmsBase = 0x30;
    break;
  case 4:
    N = 0;
    ImmsBase = 0x38;
    break;
  case 2:
    N = 0;
    ImmsBase = 0x3C;
    break;
  default:
    TPDE_UNREACHABLE("bad element size");
  }
  Imms = ImmsBase | (K - 1);
  Immr = R & (E - 1);
  return true;
}

// ---------------------------------------------------------------------------
// Moves and immediates
// ---------------------------------------------------------------------------

void Emitter::movRR(u8 Sz, AsmReg Dst, AsmReg Src) {
  assert(Dst.bank() == 0 && Src.bank() == 0 && "GP move");
  // ORR Dst, XZR, Src. Register 31 is XZR in this form.
  word(sf(Sz) | 0x2A0003E0u | (u32(Src.hw()) << 16) | Dst.hw());
}

void Emitter::movSP(AsmReg Dst, AsmReg Src) {
  // ADD Dst, Src, #0 — register 31 is SP in the immediate form.
  word(0x91000000u | (u32(Src.hw()) << 5) | Dst.hw());
}

u8 *Emitter::movRIIn(u8 *P, AsmReg Dst, u64 Imm) {
  // Count 16-bit chunks equal to 0 and to 0xFFFF to pick MOVZ vs MOVN.
  unsigned ZeroChunks = 0, OneChunks = 0;
  for (unsigned I = 0; I < 4; ++I) {
    u16 C = static_cast<u16>(Imm >> (16 * I));
    ZeroChunks += C == 0;
    OneChunks += C == 0xFFFF;
  }
  const u32 Rd = Dst.hw();
  if (OneChunks > ZeroChunks) {
    // MOVN path: start from all-ones.
    bool First = true;
    for (unsigned I = 0; I < 4; ++I) {
      u16 C = static_cast<u16>(Imm >> (16 * I));
      if (C == 0xFFFF)
        continue;
      if (First) {
        putW(P, 0x92800000u | (u32(I) << 21) | (u32(u16(~C)) << 5) | Rd); // MOVN
        First = false;
      } else {
        putW(P, 0xF2800000u | (u32(I) << 21) | (u32(C) << 5) | Rd); // MOVK
      }
    }
    if (First)
      putW(P, 0x92800000u | Rd); // Imm == ~0: MOVN Dst, #0
    return P;
  }
  bool First = true;
  for (unsigned I = 0; I < 4; ++I) {
    u16 C = static_cast<u16>(Imm >> (16 * I));
    if (C == 0)
      continue;
    if (First) {
      putW(P, 0xD2800000u | (u32(I) << 21) | (u32(C) << 5) | Rd); // MOVZ
      First = false;
    } else {
      putW(P, 0xF2800000u | (u32(I) << 21) | (u32(C) << 5) | Rd); // MOVK
    }
  }
  if (First)
    putW(P, 0xD2800000u | Rd); // Imm == 0: MOVZ Dst, #0
  return P;
}

void Emitter::movRI(AsmReg Dst, u64 Imm) {
  u8 *P = begin(16); // at most MOVZ/MOVN + 3 MOVK
  commit(movRIIn(P, Dst, Imm));
}

// ---------------------------------------------------------------------------
// Integer arithmetic
// ---------------------------------------------------------------------------

void Emitter::addRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2,
                     bool SetFlags, u8 Shift) {
  u32 W = sf(Sz) | 0x0B000000u | (SetFlags ? (1u << 29) : 0);
  word(W | (u32(Src2.hw()) << 16) | (u32(Shift) << 10) |
       (u32(Src1.hw()) << 5) | Dst.hw());
}

void Emitter::subRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2,
                     bool SetFlags, u8 Shift) {
  u32 W = sf(Sz) | 0x4B000000u | (SetFlags ? (1u << 29) : 0);
  word(W | (u32(Src2.hw()) << 16) | (u32(Shift) << 10) |
       (u32(Src1.hw()) << 5) | Dst.hw());
}

/// Emits ADD/SUB immediate; \p SubOp selects subtraction.
static u32 addSubImmWord(u8 Sz, bool SubOp, bool SetFlags, AsmReg Dst,
                         AsmReg Src, u32 Imm12, bool Shift12) {
  u32 W = (Sz == 8 ? (1u << 31) : 0) | 0x11000000u;
  if (SubOp)
    W |= 1u << 30;
  if (SetFlags)
    W |= 1u << 29;
  if (Shift12)
    W |= 1u << 22;
  return W | (Imm12 << 10) | (u32(Src.hw()) << 5) | Dst.hw();
}

u8 *Emitter::addSubRIIn(u8 *P, u8 Sz, bool SubOp, AsmReg Dst, AsmReg Src,
                        u64 Imm, bool SetFlags) {
  if (Imm < 4096) {
    putW(P, addSubImmWord(Sz, SubOp, SetFlags, Dst, Src, static_cast<u32>(Imm),
                          false));
    return P;
  }
  assert(!SetFlags && "flag-setting add/sub requires an imm12 immediate");
  if ((Imm & 0xFFF) == 0 && Imm < (u64(4096) << 12)) {
    putW(P, addSubImmWord(Sz, SubOp, false, Dst, Src,
                          static_cast<u32>(Imm >> 12), true));
    return P;
  }
  if (Imm < (u64(4096) << 12)) {
    putW(P, addSubImmWord(Sz, SubOp, false, Dst, Src,
                          static_cast<u32>(Imm & 0xFFF), false));
    putW(P, addSubImmWord(Sz, SubOp, false, Dst, Dst,
                          static_cast<u32>(Imm >> 12), true));
    return P;
  }
  assert(!(Src == X16) && !(Dst == X16) && "X16 is encoder scratch");
  P = movRIIn(P, X16, Imm);
  const u32 OpBit = SubOp ? (1u << 30) : 0;
  if (Src.hw() == 31 || Dst.hw() == 31) {
    // ADD/SUB (extended register), UXTX: valid with SP.
    putW(P, sf(Sz) | 0x0B206000u | OpBit | (u32(X16.hw()) << 16) |
                (u32(Src.hw()) << 5) | Dst.hw());
  } else {
    // ADD/SUB (shifted register) with X16.
    putW(P, sf(Sz) | 0x0B000000u | OpBit | (u32(X16.hw()) << 16) |
                (u32(Src.hw()) << 5) | Dst.hw());
  }
  return P;
}

void Emitter::addRI(u8 Sz, AsmReg Dst, AsmReg Src, u64 Imm, bool SetFlags) {
  u8 *P = begin(20); // worst case: 4-word X16 materialization + the add
  commit(addSubRIIn(P, Sz, /*SubOp=*/false, Dst, Src, Imm, SetFlags));
}

void Emitter::subRI(u8 Sz, AsmReg Dst, AsmReg Src, u64 Imm, bool SetFlags) {
  u8 *P = begin(20);
  commit(addSubRIIn(P, Sz, /*SubOp=*/true, Dst, Src, Imm, SetFlags));
}

void Emitter::adcsRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  word(sf(Sz) | 0x3A000000u | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) |
       Dst.hw());
}

void Emitter::sbcsRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  word(sf(Sz) | 0x7A000000u | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) |
       Dst.hw());
}

// ---------------------------------------------------------------------------
// Logical
// ---------------------------------------------------------------------------

void Emitter::logicRRR(LogicOp Op, u8 Sz, AsmReg Dst, AsmReg Src1,
                       AsmReg Src2) {
  u32 W = sf(Sz) | 0x0A000000u | (u32(static_cast<u8>(Op)) << 29);
  word(W | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) | Dst.hw());
}

void Emitter::mvnRR(u8 Sz, AsmReg Dst, AsmReg Src) {
  // ORN Dst, XZR, Src.
  word(sf(Sz) | 0x2A2003E0u | (u32(Src.hw()) << 16) | Dst.hw());
}

void Emitter::logicRI(LogicOp Op, u8 Sz, AsmReg Dst, AsmReg Src, u64 Imm) {
  u8 *P = begin(20); // worst case: 4-word X16 materialization + the op
  u32 N, Immr, Imms;
  if (encodeLogicalImm(Imm, Sz == 8 ? 64 : 32, N, Immr, Imms)) {
    u32 W = sf(Sz) | 0x12000000u | (u32(static_cast<u8>(Op)) << 29);
    putW(P, W | (N << 22) | (Immr << 16) | (Imms << 10) |
                (u32(Src.hw()) << 5) | Dst.hw());
  } else {
    assert(!(Src == X16) && !(Dst == X16) && "X16 is encoder scratch");
    P = movRIIn(P, X16, Imm);
    putW(P, sf(Sz) | 0x0A000000u | (u32(static_cast<u8>(Op)) << 29) |
                (u32(X16.hw()) << 16) | (u32(Src.hw()) << 5) | Dst.hw());
  }
  commit(P);
}

void Emitter::cmpRI(u8 Sz, AsmReg R, u64 Imm) {
  u8 *P = begin(20); // worst case: 4-word X16 materialization + the compare
  if (Imm < 4096) {
    putW(P, addSubImmWord(Sz, true, true, XZR, R, static_cast<u32>(Imm), false));
    commit(P);
    return;
  }
  u64 Neg = Sz == 8 ? (0 - Imm) : ((0 - Imm) & 0xFFFFFFFFull);
  if (Neg < 4096) {
    // CMN.
    putW(P, addSubImmWord(Sz, false, true, XZR, R, static_cast<u32>(Neg),
                          false));
    commit(P);
    return;
  }
  assert(!(R == X16) && "X16 is encoder scratch");
  P = movRIIn(P, X16, Imm);
  // SUBS XZR, R, X16.
  putW(P, sf(Sz) | 0x6B000000u | (u32(X16.hw()) << 16) | (u32(R.hw()) << 5) |
              XZR.hw());
  commit(P);
}

// ---------------------------------------------------------------------------
// Multiply / divide
// ---------------------------------------------------------------------------

void Emitter::maddRRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2,
                       AsmReg Acc) {
  word(sf(Sz) | 0x1B000000u | (u32(Src2.hw()) << 16) | (u32(Acc.hw()) << 10) |
       (u32(Src1.hw()) << 5) | Dst.hw());
}

void Emitter::msubRRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2,
                       AsmReg Acc) {
  word(sf(Sz) | 0x1B008000u | (u32(Src2.hw()) << 16) | (u32(Acc.hw()) << 10) |
       (u32(Src1.hw()) << 5) | Dst.hw());
}

void Emitter::smulh(AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  word(0x9B407C00u | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) |
       Dst.hw());
}

void Emitter::umulh(AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  word(0x9BC07C00u | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) |
       Dst.hw());
}

void Emitter::sdivRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  word(sf(Sz) | 0x1AC00C00u | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) |
       Dst.hw());
}

void Emitter::udivRRR(u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  word(sf(Sz) | 0x1AC00800u | (u32(Src2.hw()) << 16) | (u32(Src1.hw()) << 5) |
       Dst.hw());
}

// ---------------------------------------------------------------------------
// Shifts and bitfields
// ---------------------------------------------------------------------------

void Emitter::shiftRRR(ShiftOp Op, u8 Sz, AsmReg Dst, AsmReg Src, AsmReg Amt) {
  u32 Op2;
  switch (Op) {
  case ShiftOp::Lsl:
    Op2 = 0x8;
    break;
  case ShiftOp::Lsr:
    Op2 = 0x9;
    break;
  case ShiftOp::Asr:
    Op2 = 0xA;
    break;
  default:
    TPDE_UNREACHABLE("bad shift op");
  }
  word(sf(Sz) | 0x1AC00000u | (u32(Amt.hw()) << 16) | (Op2 << 10) |
       (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::shiftRI(ShiftOp Op, u8 Sz, AsmReg Dst, AsmReg Src, u8 Amt) {
  unsigned Bits = Sz == 8 ? 64 : 32;
  assert(Amt < Bits && "shift amount out of range");
  u32 NBit = Sz == 8 ? (1u << 22) : 0;
  u32 Immr, Imms;
  u32 Base;
  switch (Op) {
  case ShiftOp::Lsl:
    Base = 0x53000000u; // UBFM
    Immr = (Bits - Amt) % Bits;
    Imms = Bits - 1 - Amt;
    break;
  case ShiftOp::Lsr:
    Base = 0x53000000u; // UBFM
    Immr = Amt;
    Imms = Bits - 1;
    break;
  case ShiftOp::Asr:
    Base = 0x13000000u; // SBFM
    Immr = Amt;
    Imms = Bits - 1;
    break;
  default:
    TPDE_UNREACHABLE("bad shift op");
  }
  word(sf(Sz) | Base | NBit | (Immr << 16) | (Imms << 10) |
       (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::extrRRI(u8 Sz, AsmReg Dst, AsmReg Hi, AsmReg Lo, u8 Lsb) {
  u32 NBit = Sz == 8 ? (1u << 22) : 0;
  word(sf(Sz) | 0x13800000u | NBit | (u32(Lo.hw()) << 16) |
       (u32(Lsb) << 10) | (u32(Hi.hw()) << 5) | Dst.hw());
}

void Emitter::sxtb(AsmReg Dst, AsmReg Src) {
  word(0x93401C00u | (u32(Src.hw()) << 5) | Dst.hw()); // SBFM x, #0, #7
}
void Emitter::sxth(AsmReg Dst, AsmReg Src) {
  word(0x93403C00u | (u32(Src.hw()) << 5) | Dst.hw()); // SBFM x, #0, #15
}
void Emitter::sxtw(AsmReg Dst, AsmReg Src) {
  word(0x93407C00u | (u32(Src.hw()) << 5) | Dst.hw()); // SBFM x, #0, #31
}
void Emitter::uxtb(AsmReg Dst, AsmReg Src) {
  word(0x53001C00u | (u32(Src.hw()) << 5) | Dst.hw()); // UBFM w, #0, #7
}
void Emitter::uxth(AsmReg Dst, AsmReg Src) {
  word(0x53003C00u | (u32(Src.hw()) << 5) | Dst.hw()); // UBFM w, #0, #15
}

// ---------------------------------------------------------------------------
// Conditionals
// ---------------------------------------------------------------------------

void Emitter::csel(u8 Sz, AsmReg Dst, AsmReg IfTrue, AsmReg IfFalse, Cond C) {
  word(sf(Sz) | 0x1A800000u | (u32(IfFalse.hw()) << 16) |
       (u32(static_cast<u8>(C)) << 12) | (u32(IfTrue.hw()) << 5) | Dst.hw());
}

void Emitter::cset(AsmReg Dst, Cond C) {
  // CSINC Dst, XZR, XZR, invert(C).
  word(sf(8) | 0x1A800400u | (u32(XZR.hw()) << 16) |
       (u32(static_cast<u8>(invert(C))) << 12) | (u32(XZR.hw()) << 5) |
       Dst.hw());
}

// ---------------------------------------------------------------------------
// Loads / stores
// ---------------------------------------------------------------------------

void Emitter::ldst(u8 SizeLog2, u32 Opc, bool V, AsmReg Rt, Mem M) {
  u8 *P = begin(20); // worst case: 4-word X16 displacement + the access
  const u32 Base = (u32(SizeLog2) << 30) | 0x38000000u |
                   (V ? (1u << 26) : 0) | (Opc << 22);
  const u32 RtRn = (u32(M.Base.hw()) << 5) | Rt.hw();
  if (M.Index.isValid()) {
    assert((M.Shift == 0 || M.Shift == SizeLog2) && "bad index shift");
    putW(P, Base | (1u << 21) | (u32(M.Index.hw()) << 16) | (0x3u << 13) |
                (M.Shift ? (1u << 12) : 0) | (0x2u << 10) | RtRn);
    commit(P);
    return;
  }
  const i64 D = M.Disp;
  const u32 Scale = u32(1) << SizeLog2;
  if (D >= 0 && (D & (Scale - 1)) == 0 && (D >> SizeLog2) < 4096) {
    // Scaled unsigned-offset form (bit 24 distinguishes it).
    putW(P, Base | (1u << 24) | (static_cast<u32>(D >> SizeLog2) << 10) | RtRn);
    commit(P);
    return;
  }
  if (D >= -256 && D <= 255) {
    // LDUR/STUR.
    putW(P, Base | ((static_cast<u32>(D) & 0x1FF) << 12) | RtRn);
    commit(P);
    return;
  }
  // Out-of-range displacement: X16 = Disp, register-offset access.
  assert(!(Rt == X16) && !(M.Base == X16) && "X16 is encoder scratch");
  P = movRIIn(P, X16, static_cast<u64>(D));
  putW(P, Base | (1u << 21) | (u32(X16.hw()) << 16) | (0x3u << 13) |
              (0x2u << 10) | RtRn);
  commit(P);
}

void Emitter::ldr(u8 Sz, AsmReg Dst, Mem M) {
  u8 SizeLog2 = Sz == 8 ? 3 : Sz == 4 ? 2 : Sz == 2 ? 1 : 0;
  ldst(SizeLog2, /*Opc=*/1, /*V=*/Dst.bank() == 1, Dst, M);
}

void Emitter::ldrSext(u8 Sz, AsmReg Dst, Mem M) {
  assert(Dst.bank() == 0 && Sz < 8 && "sign-extending GP load");
  u8 SizeLog2 = Sz == 4 ? 2 : Sz == 2 ? 1 : 0;
  ldst(SizeLog2, /*Opc=*/2, /*V=*/false, Dst, M); // LDRS* to 64 bits
}

void Emitter::str(u8 Sz, Mem M, AsmReg Src) {
  u8 SizeLog2 = Sz == 8 ? 3 : Sz == 4 ? 2 : Sz == 2 ? 1 : 0;
  ldst(SizeLog2, /*Opc=*/0, /*V=*/Src.bank() == 1, Src, M);
}

void Emitter::stpPre(AsmReg R1, AsmReg R2, AsmReg Base, i32 Imm) {
  assert(Imm % 8 == 0 && Imm / 8 >= -64 && Imm / 8 < 64 && "bad STP offset");
  word(0xA9800000u | ((static_cast<u32>(Imm / 8) & 0x7F) << 15) |
       (u32(R2.hw()) << 10) | (u32(Base.hw()) << 5) | R1.hw());
}

void Emitter::ldpPost(AsmReg R1, AsmReg R2, AsmReg Base, i32 Imm) {
  assert(Imm % 8 == 0 && Imm / 8 >= -64 && Imm / 8 < 64 && "bad LDP offset");
  word(0xA8C00000u | ((static_cast<u32>(Imm / 8) & 0x7F) << 15) |
       (u32(R2.hw()) << 10) | (u32(Base.hw()) << 5) | R1.hw());
}

// ---------------------------------------------------------------------------
// Address computation
// ---------------------------------------------------------------------------

void Emitter::leaMem(AsmReg Dst, AsmReg Base, i64 Disp) {
  if (Disp >= 0)
    addRI(8, Dst, Base, static_cast<u64>(Disp));
  else
    subRI(8, Dst, Base, 0 - static_cast<u64>(Disp)); // INT64_MIN-safe
}

void Emitter::leaSym(AsmReg Dst, asmx::SymRef S, i64 Addend) {
  u8 *P = begin(8);
  const u64 Off = T.cursorOffset(P);
  putW(P, 0x90000000u | Dst.hw()); // ADRP Dst, sym
  putW(P, 0x91000000u | (u32(Dst.hw()) << 5) | Dst.hw()); // ADD Dst, Dst, #lo12
  commit(P);
  A.addReloc(asmx::SecKind::Text, Off, asmx::RelocKind::A64AdrPage21, S,
             Addend);
  A.addReloc(asmx::SecKind::Text, Off + 4, asmx::RelocKind::A64AddLo12, S,
             Addend);
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

void Emitter::bLabel(asmx::Label L) {
  u64 Off = offset();
  word(0x14000000u); // committed before the fixup may patch it
  A.addFixup(L, asmx::FixupKind::A64Branch26, Off);
}

void Emitter::bcondLabel(Cond C, asmx::Label L) {
  u64 Off = offset();
  word(0x54000000u | static_cast<u8>(C));
  A.addFixup(L, asmx::FixupKind::A64Branch19, Off);
}

void Emitter::cbzLabel(u8 Sz, AsmReg R, asmx::Label L) {
  u64 Off = offset();
  word(sf(Sz) | 0x34000000u | R.hw());
  A.addFixup(L, asmx::FixupKind::A64Branch19, Off);
}

void Emitter::blSym(asmx::SymRef S) {
  u64 Off = offset();
  word(0x94000000u);
  A.addReloc(asmx::SecKind::Text, Off, asmx::RelocKind::A64Call26, S, 0);
}

void Emitter::blrReg(AsmReg R) { word(0xD63F0000u | (u32(R.hw()) << 5)); }
void Emitter::brReg(AsmReg R) { word(0xD61F0000u | (u32(R.hw()) << 5)); }
void Emitter::ret() { word(0xD65F03C0u); }
void Emitter::brk(u16 Imm) { word(0xD4200000u | (u32(Imm) << 5)); }
void Emitter::nop() { word(0xD503201Fu); }

void Emitter::nops(unsigned N) {
  assert(N % 4 == 0 && "NOP padding must be whole instructions");
  if (!N)
    return;
  u8 *P = begin(N); // one bounds check for the whole pad
  for (unsigned I = 0; I < N; I += 4)
    putW(P, 0xD503201Fu);
  commit(P);
}

// ---------------------------------------------------------------------------
// Scalar FP
// ---------------------------------------------------------------------------

/// Type field for scalar S (Sz 4) / D (Sz 8) operations (bits 23:22).
static u32 fpType(u8 Sz) { return Sz == 8 ? (1u << 22) : 0; }

void Emitter::fpMovRR(u8 Sz, AsmReg Dst, AsmReg Src) {
  word(0x1E204000u | fpType(Sz) | (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::fpArith(FpOp Op, u8 Sz, AsmReg Dst, AsmReg Src1, AsmReg Src2) {
  u32 OpBits;
  switch (Op) {
  case FpOp::Mul:
    OpBits = 0x0;
    break;
  case FpOp::Div:
    OpBits = 0x1;
    break;
  case FpOp::Add:
    OpBits = 0x2;
    break;
  case FpOp::Sub:
    OpBits = 0x3;
    break;
  case FpOp::Max:
    OpBits = 0x4;
    break;
  case FpOp::Min:
    OpBits = 0x5;
    break;
  default:
    TPDE_UNREACHABLE("bad fp op");
  }
  word(0x1E200800u | fpType(Sz) | (u32(Src2.hw()) << 16) | (OpBits << 12) |
       (u32(Src1.hw()) << 5) | Dst.hw());
}

void Emitter::fpNeg(u8 Sz, AsmReg Dst, AsmReg Src) {
  word(0x1E214000u | fpType(Sz) | (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::fpCmp(u8 Sz, AsmReg A, AsmReg B) {
  word(0x1E202000u | fpType(Sz) | (u32(B.hw()) << 16) | (u32(A.hw()) << 5));
}

void Emitter::fpCsel(u8 Sz, AsmReg Dst, AsmReg IfTrue, AsmReg IfFalse,
                     Cond C) {
  word(0x1E200C00u | fpType(Sz) | (u32(IfFalse.hw()) << 16) |
       (u32(static_cast<u8>(C)) << 12) | (u32(IfTrue.hw()) << 5) | Dst.hw());
}

void Emitter::fpCvt(u8 SrcSz, AsmReg Dst, AsmReg Src) {
  // FCVT between single and double precision.
  u32 W = SrcSz == 4 ? 0x1E22C000u  // FCVT Dd, Sn
                     : 0x1E624000u; // FCVT Sd, Dn
  word(W | (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::cvtSiToFp(u8 IntSz, u8 FpSz, AsmReg Dst, AsmReg Src) {
  // SCVTF <Sd|Dd>, <Wn|Xn>.
  u32 W = 0x1E220000u | fpType(FpSz) | (IntSz == 8 ? (1u << 31) : 0);
  word(W | (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::cvtFpToSi(u8 FpSz, u8 IntSz, AsmReg Dst, AsmReg Src) {
  // FCVTZS <Wd|Xd>, <Sn|Dn>.
  u32 W = 0x1E380000u | fpType(FpSz) | (IntSz == 8 ? (1u << 31) : 0);
  word(W | (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::fmovToFp(u8 Sz, AsmReg Dst, AsmReg Src) {
  u32 W = Sz == 8 ? 0x9E670000u : 0x1E270000u;
  word(W | (u32(Src.hw()) << 5) | Dst.hw());
}

void Emitter::fmovFromFp(u8 Sz, AsmReg Dst, AsmReg Src) {
  u32 W = Sz == 8 ? 0x9E660000u : 0x1E260000u;
  word(W | (u32(Src.hw()) << 5) | Dst.hw());
}

// ---------------------------------------------------------------------------
// Prologue patching
// ---------------------------------------------------------------------------

void Emitter::frameSubPlaceholder() {
  u8 *P = begin(8);
  putW(P, 0xD10003FFu); // sub sp, sp, #0
  putW(P, 0xD14003FFu); // sub sp, sp, #0, lsl #12
  commit(P);
}

void Emitter::patchFrameSub(asmx::Section &T, u64 Off, u32 FrameSize) {
  assert(FrameSize < (1u << 24) && "frame too large");
  u32 Lo = FrameSize & 0xFFF, Hi = FrameSize >> 12;
  T.patchLE<u32>(Off, 0xD10003FFu | (Lo << 10));
  T.patchLE<u32>(Off + 4, 0xD14003FFu | (Hi << 10));
}
