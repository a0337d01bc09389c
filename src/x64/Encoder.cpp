//===- x64/Encoder.cpp - x86-64 instruction encoder ----------------------===//
//
// Every public method batches its instruction bytes through the section
// write cursor: space for the longest possible encoding is reserved up
// front (Emitter::begin), bytes are raw stores through a cursor held in a
// local, and the final length is committed once (Emitter::commit) — one
// bounds check per instruction. The byte helpers below take that local by
// reference and inline, so the cursor stays in a register.
//
//===----------------------------------------------------------------------===//

#include "x64/Encoder.h"

using namespace tpde;
using namespace tpde::asmx;
using namespace tpde::x64;

namespace {

inline void put(u8 *&P, u8 B) { *P++ = B; }

template <typename V> inline void putLE(u8 *&P, V Val) {
  static_assert(std::is_integral_v<V>);
  for (unsigned I = 0; I < sizeof(V); ++I)
    P[I] = static_cast<u8>(static_cast<u64>(Val) >> (8 * I));
  P += sizeof(V);
}

inline void opSizePrefix(u8 *&P, u8 Sz) {
  if (Sz == 2)
    put(P, 0x66);
}

/// Emits a REX prefix if required. \p RegId/\p IdxId/\p BaseId are full
/// register ids (0xFF if absent); \p Force handles SPL/BPL/SIL/DIL.
inline void rex(u8 *&P, bool W, u8 RegId, u8 IdxId, u8 BaseId,
                bool Force = false) {
  u8 Rex = 0x40;
  if (W)
    Rex |= 0x08;
  if (RegId != 0xFF && (RegId & 0x8))
    Rex |= 0x04;
  if (IdxId != 0xFF && (IdxId & 0x8))
    Rex |= 0x02;
  if (BaseId != 0xFF && (BaseId & 0x8))
    Rex |= 0x01;
  if (Rex != 0x40 || Force)
    put(P, Rex);
}

inline bool rex8Needed(AsmReg R) { return R.bank() == 0 && R.hw() >= 4; }

inline void modRMReg(u8 *&P, u8 RegField, u8 RmReg) {
  put(P, 0xC0 | ((RegField & 7) << 3) | (RmReg & 7));
}

/// ModRM (+ SIB + displacement) for a memory operand. Takes and returns
/// the cursor by value so it stays in a register whether or not the call
/// is inlined.
u8 *modRMMem(u8 *P, u8 RegField, const Mem &M) {
  const u8 Reg = (RegField & 7) << 3;
  if (!M.Base.isValid() && !M.Index.isValid()) {
    // Absolute 32-bit address: mod=00, rm=100, SIB base=101 index=100.
    put(P, Reg | 0x04);
    put(P, 0x25);
    putLE<i32>(P, M.Disp);
    return P;
  }
  if (!M.Base.isValid()) {
    // Index-only: mod=00 rm=100, SIB with base=101 forces disp32.
    assert(M.Index.hw() != 4 && "RSP cannot be an index register");
    u8 ScaleBits = M.Scale == 1 ? 0 : M.Scale == 2 ? 1 : M.Scale == 4 ? 2 : 3;
    put(P, Reg | 0x04);
    put(P, static_cast<u8>((ScaleBits << 6) | ((M.Index.hw() & 7) << 3) | 0x05));
    putLE<i32>(P, M.Disp);
    return P;
  }

  const u8 BaseLow = M.Base.hw() & 7;
  const bool NeedSib = M.Index.isValid() || BaseLow == 4;
  // RBP/R13 as base cannot use the no-displacement form.
  u8 Mod;
  if (M.Disp == 0 && BaseLow != 5)
    Mod = 0x00;
  else if (isInt8(M.Disp))
    Mod = 0x40;
  else
    Mod = 0x80;

  if (!NeedSib) {
    put(P, Mod | Reg | BaseLow);
  } else {
    assert((!M.Index.isValid() || M.Index.hw() != 4) &&
           "RSP cannot be an index register");
    u8 ScaleBits = M.Scale == 1 ? 0 : M.Scale == 2 ? 1 : M.Scale == 4 ? 2 : 3;
    u8 IdxLow = M.Index.isValid() ? (M.Index.hw() & 7) : 4;
    put(P, Mod | Reg | 0x04);
    put(P, static_cast<u8>((ScaleBits << 6) | (IdxLow << 3) | BaseLow));
  }
  if (Mod == 0x40)
    put(P, static_cast<u8>(M.Disp));
  else if (Mod == 0x80)
    putLE<i32>(P, M.Disp);
  return P;
}

/// The one-operand F6/F7 group (mul/div/idiv/neg/not): opcode and
/// /digit only differ.
inline void group3(u8 *&P, u8 Sz, u8 Digit, AsmReg R) {
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, 0, 0xFF, R.Id, Sz == 1 && rex8Needed(R));
  put(P, Sz == 1 ? 0xF6 : 0xF7);
  modRMReg(P, Digit, R.Id);
}

u8 aluBase(AluOp Op) { return static_cast<u8>(Op) << 3; }

} // namespace

void Emitter::modRMRip(u8 *&Cur, u8 RegField, SymRef S, i64 Addend) {
  u8 *P = Cur;
  put(P, ((RegField & 7) << 3) | 0x05);
  u64 Off = T.cursorOffset(P);
  putLE<i32>(P, 0);
  Cur = P;
  // Off is the displacement field; the CPU adds from the end of the
  // instruction, which for all our uses is the end of the 4 disp bytes.
  A.addReloc(SecKind::Text, Off, RelocKind::PC32, S, Addend - 4);
}

// --- Integer moves -------------------------------------------------------

void Emitter::movRR(u8 Sz, AsmReg Dst, AsmReg Src) {
  assert(Dst.bank() == 0 && Src.bank() == 0 && "GP registers expected");
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && (rex8Needed(Dst) || rex8Needed(Src));
  rex(P, Sz == 8, Src.Id, 0xFF, Dst.Id, F8);
  put(P, Sz == 1 ? 0x88 : 0x89);
  modRMReg(P, Src.Id, Dst.Id);
  commit(P);
}

void Emitter::movRI(AsmReg Dst, u64 Imm) {
  u8 *P = begin();
  if (isUInt32(Imm)) {
    // mov r32, imm32 zero-extends to the full register.
    rex(P, false, 0xFF, 0xFF, Dst.Id);
    put(P, 0xB8 | (Dst.hw() & 7));
    putLE<u32>(P, static_cast<u32>(Imm));
  } else if (isInt32(static_cast<i64>(Imm))) {
    rex(P, true, 0, 0xFF, Dst.Id);
    put(P, 0xC7);
    modRMReg(P, 0, Dst.Id);
    putLE<i32>(P, static_cast<i32>(Imm));
  } else {
    rex(P, true, 0xFF, 0xFF, Dst.Id);
    put(P, 0xB8 | (Dst.hw() & 7));
    putLE<u64>(P, Imm);
  }
  commit(P);
}

void Emitter::load(u8 Sz, AsmReg Dst, Mem M) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(Dst);
  rex(P, Sz == 8, Dst.Id, M.Index.Id, M.Base.Id, F8);
  put(P, Sz == 1 ? 0x8A : 0x8B);
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::loadZext(u8 Sz, AsmReg Dst, Mem M) {
  if (Sz >= 4) {
    load(Sz, Dst, M);
    return;
  }
  u8 *P = begin();
  rex(P, false, Dst.Id, M.Index.Id, M.Base.Id);
  put(P, 0x0F);
  put(P, Sz == 1 ? 0xB6 : 0xB7);
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::loadSext(u8 Sz, AsmReg Dst, Mem M) {
  if (Sz == 8) {
    load(8, Dst, M);
    return;
  }
  u8 *P = begin();
  rex(P, true, Dst.Id, M.Index.Id, M.Base.Id);
  if (Sz == 4) {
    put(P, 0x63); // movsxd
  } else {
    put(P, 0x0F);
    put(P, Sz == 1 ? 0xBE : 0xBF);
  }
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::store(u8 Sz, Mem M, AsmReg Src) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(Src);
  rex(P, Sz == 8, Src.Id, M.Index.Id, M.Base.Id, F8);
  put(P, Sz == 1 ? 0x88 : 0x89);
  commit(modRMMem(P, Src.Id, M));
}

void Emitter::storeImm(u8 Sz, Mem M, i32 Imm) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, 0, M.Index.Id, M.Base.Id);
  put(P, Sz == 1 ? 0xC6 : 0xC7);
  P = modRMMem(P, 0, M);
  if (Sz == 1)
    put(P, static_cast<u8>(Imm));
  else if (Sz == 2)
    putLE<i16>(P, static_cast<i16>(Imm));
  else
    putLE<i32>(P, Imm);
  commit(P);
}

void Emitter::movzxRR(u8 SrcSz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  if (SrcSz == 4) {
    // mov r32, r32 zero-extends.
    rex(P, false, Src.Id, 0xFF, Dst.Id);
    put(P, 0x89);
    modRMReg(P, Src.Id, Dst.Id);
  } else {
    bool F8 = SrcSz == 1 && rex8Needed(Src);
    rex(P, false, Dst.Id, 0xFF, Src.Id, F8);
    put(P, 0x0F);
    put(P, SrcSz == 1 ? 0xB6 : 0xB7);
    modRMReg(P, Dst.Id, Src.Id);
  }
  commit(P);
}

void Emitter::movsxRR(u8 SrcSz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  bool F8 = SrcSz == 1 && rex8Needed(Src);
  rex(P, true, Dst.Id, 0xFF, Src.Id, F8);
  if (SrcSz == 4) {
    put(P, 0x63);
  } else {
    put(P, 0x0F);
    put(P, SrcSz == 1 ? 0xBE : 0xBF);
  }
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::lea(AsmReg Dst, Mem M) {
  u8 *P = begin();
  rex(P, true, Dst.Id, M.Index.Id, M.Base.Id);
  put(P, 0x8D);
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::xchgRR(u8 Sz, AsmReg RegA, AsmReg RegB) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, RegA.Id, 0xFF, RegB.Id);
  put(P, Sz == 1 ? 0x86 : 0x87);
  modRMReg(P, RegA.Id, RegB.Id);
  commit(P);
}

// --- Integer arithmetic ----------------------------------------------------

void Emitter::aluRR(AluOp Op, u8 Sz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && (rex8Needed(Dst) || rex8Needed(Src));
  rex(P, Sz == 8, Src.Id, 0xFF, Dst.Id, F8);
  put(P, aluBase(Op) + (Sz == 1 ? 0x00 : 0x01));
  modRMReg(P, Src.Id, Dst.Id);
  commit(P);
}

void Emitter::aluRI(AluOp Op, u8 Sz, AsmReg Dst, i64 Imm) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(Dst);
  rex(P, Sz == 8, 0, 0xFF, Dst.Id, F8);
  u8 Digit = static_cast<u8>(Op);
  if (Sz == 1) {
    put(P, 0x80);
    modRMReg(P, Digit, Dst.Id);
    put(P, static_cast<u8>(Imm));
  } else if (isInt8(Imm)) {
    put(P, 0x83);
    modRMReg(P, Digit, Dst.Id);
    put(P, static_cast<u8>(Imm));
  } else {
    put(P, 0x81);
    modRMReg(P, Digit, Dst.Id);
    if (Sz == 2) {
      putLE<i16>(P, static_cast<i16>(Imm));
    } else {
      assert(isInt32(Imm) && "ALU immediate exceeds 32 bits");
      putLE<i32>(P, static_cast<i32>(Imm));
    }
  }
  commit(P);
}

void Emitter::aluRM(AluOp Op, u8 Sz, AsmReg Dst, Mem M) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(Dst);
  rex(P, Sz == 8, Dst.Id, M.Index.Id, M.Base.Id, F8);
  put(P, aluBase(Op) + (Sz == 1 ? 0x02 : 0x03));
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::testRR(u8 Sz, AsmReg RegA, AsmReg RegB) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && (rex8Needed(RegA) || rex8Needed(RegB));
  rex(P, Sz == 8, RegB.Id, 0xFF, RegA.Id, F8);
  put(P, Sz == 1 ? 0x84 : 0x85);
  modRMReg(P, RegB.Id, RegA.Id);
  commit(P);
}

void Emitter::testRI(u8 Sz, AsmReg R, i32 Imm) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(R);
  rex(P, Sz == 8, 0, 0xFF, R.Id, F8);
  put(P, Sz == 1 ? 0xF6 : 0xF7);
  modRMReg(P, 0, R.Id);
  if (Sz == 1)
    put(P, static_cast<u8>(Imm));
  else if (Sz == 2)
    putLE<i16>(P, static_cast<i16>(Imm));
  else
    putLE<i32>(P, Imm);
  commit(P);
}

void Emitter::imulRR(u8 Sz, AsmReg Dst, AsmReg Src) {
  assert(Sz >= 2 && "8-bit imul must use the one-operand form");
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0xAF);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::imulRRI(u8 Sz, AsmReg Dst, AsmReg Src, i32 Imm) {
  assert(Sz >= 2 && "8-bit imul must use the one-operand form");
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, Dst.Id, 0xFF, Src.Id);
  if (isInt8(Imm)) {
    put(P, 0x6B);
    modRMReg(P, Dst.Id, Src.Id);
    put(P, static_cast<u8>(Imm));
  } else {
    put(P, 0x69);
    modRMReg(P, Dst.Id, Src.Id);
    if (Sz == 2)
      putLE<i16>(P, static_cast<i16>(Imm));
    else
      putLE<i32>(P, Imm);
  }
  commit(P);
}

void Emitter::mulR(u8 Sz, AsmReg Src) {
  u8 *P = begin();
  group3(P, Sz, 4, Src);
  commit(P);
}

void Emitter::divR(u8 Sz, AsmReg Src) {
  u8 *P = begin();
  group3(P, Sz, 6, Src);
  commit(P);
}

void Emitter::idivR(u8 Sz, AsmReg Src) {
  u8 *P = begin();
  group3(P, Sz, 7, Src);
  commit(P);
}

void Emitter::cwd(u8 Sz) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  if (Sz == 8)
    put(P, 0x48);
  put(P, 0x99);
  commit(P);
}

void Emitter::negR(u8 Sz, AsmReg R) {
  u8 *P = begin();
  group3(P, Sz, 3, R);
  commit(P);
}

void Emitter::notR(u8 Sz, AsmReg R) {
  u8 *P = begin();
  group3(P, Sz, 2, R);
  commit(P);
}

void Emitter::shiftRI(ShiftOp Op, u8 Sz, AsmReg R, u8 Imm) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(R);
  rex(P, Sz == 8, 0, 0xFF, R.Id, F8);
  u8 Digit = static_cast<u8>(Op);
  if (Imm == 1) {
    put(P, Sz == 1 ? 0xD0 : 0xD1);
    modRMReg(P, Digit, R.Id);
  } else {
    put(P, Sz == 1 ? 0xC0 : 0xC1);
    modRMReg(P, Digit, R.Id);
    put(P, Imm);
  }
  commit(P);
}

void Emitter::shiftRC(ShiftOp Op, u8 Sz, AsmReg R) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  bool F8 = Sz == 1 && rex8Needed(R);
  rex(P, Sz == 8, 0, 0xFF, R.Id, F8);
  put(P, Sz == 1 ? 0xD2 : 0xD3);
  modRMReg(P, static_cast<u8>(Op), R.Id);
  commit(P);
}

void Emitter::shldRRI(u8 Sz, AsmReg Dst, AsmReg Src, u8 Imm) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, Src.Id, 0xFF, Dst.Id);
  put(P, 0x0F);
  put(P, 0xA4);
  modRMReg(P, Src.Id, Dst.Id);
  put(P, Imm);
  commit(P);
}

void Emitter::shrdRRI(u8 Sz, AsmReg Dst, AsmReg Src, u8 Imm) {
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, Src.Id, 0xFF, Dst.Id);
  put(P, 0x0F);
  put(P, 0xAC);
  modRMReg(P, Src.Id, Dst.Id);
  put(P, Imm);
  commit(P);
}

// --- Flags and conditionals -------------------------------------------------

void Emitter::setcc(Cond C, AsmReg Dst8) {
  u8 *P = begin();
  rex(P, false, 0, 0xFF, Dst8.Id, rex8Needed(Dst8));
  put(P, 0x0F);
  put(P, 0x90 | static_cast<u8>(C));
  modRMReg(P, 0, Dst8.Id);
  commit(P);
}

void Emitter::cmovcc(Cond C, u8 Sz, AsmReg Dst, AsmReg Src) {
  assert(Sz >= 2 && "no 8-bit cmov");
  u8 *P = begin();
  opSizePrefix(P, Sz);
  rex(P, Sz == 8, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x40 | static_cast<u8>(C));
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

// --- Control flow -------------------------------------------------------------

void Emitter::jmpLabel(Label L) {
  u8 *P = begin();
  put(P, 0xE9);
  u64 Off = T.cursorOffset(P);
  putLE<i32>(P, 0);
  commit(P); // the fixup may patch immediately; the bytes must be live
  A.addFixup(L, FixupKind::Rel32, Off);
}

void Emitter::jccLabel(Cond C, Label L) {
  u8 *P = begin();
  put(P, 0x0F);
  put(P, 0x80 | static_cast<u8>(C));
  u64 Off = T.cursorOffset(P);
  putLE<i32>(P, 0);
  commit(P);
  A.addFixup(L, FixupKind::Rel32, Off);
}

void Emitter::callSym(SymRef S) {
  u8 *P = begin();
  put(P, 0xE8);
  u64 Off = T.cursorOffset(P);
  putLE<i32>(P, 0);
  commit(P);
  A.addReloc(SecKind::Text, Off, RelocKind::PC32, S, -4);
}

void Emitter::ret() {
  u8 *P = begin();
  put(P, 0xC3);
  commit(P);
}

void Emitter::ud2() {
  u8 *P = begin();
  put(P, 0x0F);
  put(P, 0x0B);
  commit(P);
}

void Emitter::push(AsmReg R) {
  u8 *P = begin();
  rex(P, false, 0xFF, 0xFF, R.Id);
  put(P, 0x50 | (R.hw() & 7));
  commit(P);
}

void Emitter::pop(AsmReg R) {
  u8 *P = begin();
  rex(P, false, 0xFF, 0xFF, R.Id);
  put(P, 0x58 | (R.hw() & 7));
  commit(P);
}

void Emitter::nops(unsigned N) {
  static constexpr u8 Seqs[9][9] = {
      {0x90},
      {0x66, 0x90},
      {0x0F, 0x1F, 0x00},
      {0x0F, 0x1F, 0x40, 0x00},
      {0x0F, 0x1F, 0x44, 0x00, 0x00},
      {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
      {0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
      {0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
      {0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  while (N > 0) {
    unsigned Chunk = N > 9 ? 9 : N;
    T.append(Seqs[Chunk - 1], Chunk);
    N -= Chunk;
  }
}

// --- RIP-relative addressing ----------------------------------------------

void Emitter::leaSym(AsmReg Dst, SymRef S, i64 Addend) {
  u8 *P = begin();
  rex(P, true, Dst.Id, 0xFF, 0xFF);
  put(P, 0x8D);
  modRMRip(P, Dst.Id, S, Addend);
  commit(P);
}

void Emitter::fpLoadSym(u8 Sz, AsmReg Dst, SymRef S, i64 Addend) {
  u8 *P = begin();
  put(P, Sz == 4 ? 0xF3 : 0xF2);
  rex(P, false, Dst.Id, 0xFF, 0xFF);
  put(P, 0x0F);
  put(P, 0x10);
  modRMRip(P, Dst.Id, S, Addend);
  commit(P);
}

// --- Scalar SSE ---------------------------------------------------------------

void Emitter::fpMovRR(u8 Sz, AsmReg Dst, AsmReg Src) {
  (void)Sz; // movaps copies all 128 bits; fine for scalar values.
  u8 *P = begin();
  rex(P, false, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x28);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::fpLoad(u8 Sz, AsmReg Dst, Mem M) {
  u8 *P = begin();
  put(P, Sz == 4 ? 0xF3 : 0xF2);
  rex(P, false, Dst.Id, M.Index.Id, M.Base.Id);
  put(P, 0x0F);
  put(P, 0x10);
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::fpStore(u8 Sz, Mem M, AsmReg Src) {
  u8 *P = begin();
  put(P, Sz == 4 ? 0xF3 : 0xF2);
  rex(P, false, Src.Id, M.Index.Id, M.Base.Id);
  put(P, 0x0F);
  put(P, 0x11);
  commit(modRMMem(P, Src.Id, M));
}

void Emitter::fpArith(FpOp Op, u8 Sz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  put(P, Sz == 4 ? 0xF3 : 0xF2);
  rex(P, false, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, static_cast<u8>(Op));
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::fpArithMem(FpOp Op, u8 Sz, AsmReg Dst, Mem M) {
  u8 *P = begin();
  put(P, Sz == 4 ? 0xF3 : 0xF2);
  rex(P, false, Dst.Id, M.Index.Id, M.Base.Id);
  put(P, 0x0F);
  put(P, static_cast<u8>(Op));
  commit(modRMMem(P, Dst.Id, M));
}

void Emitter::ucomis(u8 Sz, AsmReg RegA, AsmReg RegB) {
  u8 *P = begin();
  if (Sz == 8)
    put(P, 0x66);
  rex(P, false, RegA.Id, 0xFF, RegB.Id);
  put(P, 0x0F);
  put(P, 0x2E);
  modRMReg(P, RegA.Id, RegB.Id);
  commit(P);
}

void Emitter::xorps(AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  rex(P, false, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x57);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::cvtsi2fp(u8 IntSz, u8 FpSz, AsmReg Dst, AsmReg Src) {
  assert(IntSz == 4 || IntSz == 8);
  u8 *P = begin();
  put(P, FpSz == 4 ? 0xF3 : 0xF2);
  rex(P, IntSz == 8, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x2A);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::cvtfp2si(u8 FpSz, u8 IntSz, AsmReg Dst, AsmReg Src) {
  assert(IntSz == 4 || IntSz == 8);
  u8 *P = begin();
  put(P, FpSz == 4 ? 0xF3 : 0xF2);
  rex(P, IntSz == 8, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x2C);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::cvtfp2fp(u8 SrcSz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  put(P, SrcSz == 4 ? 0xF3 : 0xF2);
  rex(P, false, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x5A);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::movdToFp(u8 Sz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  put(P, 0x66);
  rex(P, Sz == 8, Dst.Id, 0xFF, Src.Id);
  put(P, 0x0F);
  put(P, 0x6E);
  modRMReg(P, Dst.Id, Src.Id);
  commit(P);
}

void Emitter::movdFromFp(u8 Sz, AsmReg Dst, AsmReg Src) {
  u8 *P = begin();
  put(P, 0x66);
  rex(P, Sz == 8, Src.Id, 0xFF, Dst.Id);
  put(P, 0x0F);
  put(P, 0x7E);
  modRMReg(P, Src.Id, Dst.Id);
  commit(P);
}
