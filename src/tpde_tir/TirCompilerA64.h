//===- tpde_tir/TirCompilerA64.h - TIR instruction compilers ----*- C++ -*-===//
///
/// \file
/// The TPDE-based back-end for TIR targeting AArch64 — the paper's second
/// target (§5: "targeting x86-64 and AArch64"), demonstrating the
/// framework's adaptability: this file provides only the AArch64 emitter
/// of each TIR opcode and the leaf hooks of the shared TIR lowering.
/// Register allocation, value tracking, phi moves, call lowering and the
/// module/range drivers (core/CompilerBase.h), and the opcode dispatch,
/// globals/FP-pool/stack-variable hooks and fusion decisions
/// (tpde_tir/TirLowering.h) are shared with the x64 back-end; the AAPCS64
/// tables and the prologue/epilogue live in a64/CompilerA64.h. The
/// backend-agnostic parallel driver (core/ParallelCompiler.h) therefore
/// instantiates over it unchanged.
///
/// The two fusions the paper calls out as critical (§3.4.4/§5.1.2) are
/// emitted here as integer compare + B.cond on live flags, and address
/// computations folded into the load/store addressing mode (base +
/// displacement, or base + index shifted by the access size).
///
/// A64 is a load/store three-operand ISA, so unlike the x64 compilers no
/// spilled-operand memory folding exists and destructive-source register
/// reuse is rarely needed; results generally allocate a fresh register
/// while the (locked) sources stay readable.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_TIRCOMPILERA64_H
#define TPDE_TPDE_TIR_TIRCOMPILERA64_H

#include "a64/CompilerA64.h"
#include "tpde_tir/TirLowering.h"

namespace tpde::tpde_tir {

class TirCompilerA64
    : public TirLowering<TirCompilerA64,
                         a64::CompilerA64<TirAdapter, TirCompilerA64>> {
public:
  using Lowering =
      TirLowering<TirCompilerA64, a64::CompilerA64<TirAdapter, TirCompilerA64>>;

  TirCompilerA64(TirAdapter &A, asmx::Assembler &Asm) : Lowering(A, Asm) {}

  void materializeConstLike(tir::ValRef V, u8 Part, core::Reg Dst) {
    const tir::Value &Val = this->A.val(V);
    switch (Val.Kind) {
    case tir::ValKind::ConstInt: {
      u64 Bits = Part == 0 ? Val.Aux : Val.Aux2;
      u32 W = tir::partSize(Val.Ty, Part);
      if (W < 8)
        Bits &= (u64(1) << (8 * W)) - 1;
      if (Val.Ty == tir::Type::I1)
        Bits &= 1;
      E.movRI(a64::ar(Dst), Bits);
      return;
    }
    case tir::ValKind::ConstFP: {
      u8 Sz = Val.Ty == tir::Type::F32 ? 4 : 8;
      // X17 is the instruction compilers' reserved scratch (never
      // allocated); the pool entry's address never outlives this load.
      E.leaSym(a64::X17, fpConstSym(Val.Aux, Sz));
      E.ldr(Sz, a64::ar(Dst), a64::Mem(a64::X17));
      return;
    }
    case tir::ValKind::GlobalAddr:
      E.leaSym(a64::ar(Dst), globalSym(static_cast<u32>(Val.Aux)));
      return;
    case tir::ValKind::StackVar:
      E.leaMem(a64::ar(Dst), a64::FP,
               this->stackVarOff(this->A.stackVarIdx(V)));
      return;
    default:
      TPDE_UNREACHABLE("not a constant-like value");
    }
  }

private:
  friend Lowering;

  // =====================================================================
  // Leaf hooks of the shared lowering (TirLowering.h)
  // =====================================================================

  void emitSetCond(a64::Cond CC, core::Reg Dst) { E.cset(a64::ar(Dst), CC); }
  a64::Cond emitTestBit0(core::Reg R) {
    E.tstRI(4, a64::ar(R), 1);
    return a64::Cond::NE;
  }
  void emitCondJump(a64::Cond CC, asmx::Label L) { E.bcondLabel(CC, L); }
  void emitTrap() { E.brk(0); }

  /// Does the PtrAdd fit an A64 addressing mode for \p MemInst: base +
  /// displacement, or base + index scaled by the access size with zero
  /// displacement?
  bool addrModeFits(const tir::Value &PtrAdd, const tir::Value &MemInst) {
    if (PtrAdd.NumOps <= 1)
      return true;
    // Register-offset form: scale must be 1 or the access size, and the
    // form has no displacement field.
    u32 Acc = memAccessSize(MemInst);
    if (Acc == 0 || (PtrAdd.Aux != 1 && PtrAdd.Aux != Acc) || PtrAdd.Aux2 != 0)
      return false;
    // A stack-variable base would need FP+off materialized first.
    return this->A.val(fn().operand(PtrAdd, 0)).Kind != tir::ValKind::StackVar;
  }

  /// Integer operand size for the W/X form selection: sub-32-bit
  /// operations run in the 32-bit form (high bits are don't-care, exactly
  /// like the x64 back-end's 32-bit ALU forms).
  static u8 opSz(u32 W) { return W < 8 ? 4 : 8; }

  static a64::Cond icmpCond(tir::ICmp P) {
    using tir::ICmp;
    using a64::Cond;
    switch (P) {
    case ICmp::Eq:
      return Cond::EQ;
    case ICmp::Ne:
      return Cond::NE;
    case ICmp::Ult:
      return Cond::LO;
    case ICmp::Ule:
      return Cond::LS;
    case ICmp::Ugt:
      return Cond::HI;
    case ICmp::Uge:
      return Cond::HS;
    case ICmp::Slt:
      return Cond::LT;
    case ICmp::Sle:
      return Cond::LE;
    case ICmp::Sgt:
      return Cond::GT;
    case ICmp::Sge:
      return Cond::GE;
    }
    TPDE_UNREACHABLE("bad icmp predicate");
  }

  static bool signedPred(tir::ICmp P) {
    return P == tir::ICmp::Slt || P == tir::ICmp::Sle ||
           P == tir::ICmp::Sgt || P == tir::ICmp::Sge;
  }

  /// Immediate-operand fold: on A64 every integer constant is usable —
  /// add/sub/cmp/logical immediates encode directly and everything else
  /// falls back to the encoder's X16 materialization — so folding is
  /// purely a question of the value being a constant (width <= 64).
  bool foldableImm(tir::ValRef V, u32 W, i64 *Out) {
    if (!this->A.isConstInt(V)) // metadata bit: no Value fetch
      return false;
    const tir::Value &Val = this->A.val(V);
    *Out = signExtend(Val.Aux, W >= 8 ? 64 : 8 * W);
    return true;
  }

  /// Zero/sign-extends the sub-32-bit value in \p Src into \p Dst.
  void extendNarrow(u32 W, bool Signed, a64::AsmReg Dst, a64::AsmReg Src) {
    if (W == 2)
      Signed ? E.sxth(Dst, Src) : E.uxth(Dst, Src);
    else
      Signed ? E.sxtb(Dst, Src) : E.uxtb(Dst, Src);
  }

  // --- Integer ALU (add/sub/and/or/xor) -----------------------------------

  bool compileIntAlu(tir::ValRef I, const tir::Value &V) {
    if (V.Ty == tir::Type::I128)
      return compileI128Alu(I, V);
    u32 W = tir::typeSize(V.Ty);
    u8 Sz = opSz(W);
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    bool Commutative = V.Opcode != tir::Op::Sub;
    i64 Imm;
    if (foldableImm(RV, W, &Imm) ||
        (Commutative && foldableImm(LV, W, &Imm))) {
      bool RhsImm = foldableImm(RV, W, &Imm);
      VPR ImmRef = this->valRef(RhsImm ? RV : LV, 0); // consume the use
      VPR Src = this->valRef(RhsImm ? LV : RV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      emitAluImm(V.Opcode, Sz, a64::ar(D), a64::ar(S), Imm);
      Res.setModified();
      return true;
    }
    VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg(), R = Rhs.asReg();
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    emitAluReg(V.Opcode, Sz, a64::ar(D), a64::ar(L), a64::ar(R));
    Res.setModified();
    return true;
  }

  void emitAluImm(tir::Op Op, u8 Sz, a64::AsmReg D, a64::AsmReg S, i64 Imm) {
    // Negation happens in the unsigned domain: Imm may be INT64_MIN,
    // whose signed negation is UB (its unsigned negation is itself, and
    // sub-by-0x8000000000000000 == add-by-it, so the result is right).
    u64 NegImm = 0 - static_cast<u64>(Imm);
    switch (Op) {
    case tir::Op::Add:
      Imm >= 0 ? E.addRI(Sz, D, S, static_cast<u64>(Imm))
               : E.subRI(Sz, D, S, NegImm);
      return;
    case tir::Op::Sub:
      Imm >= 0 ? E.subRI(Sz, D, S, static_cast<u64>(Imm))
               : E.addRI(Sz, D, S, NegImm);
      return;
    case tir::Op::And:
      E.logicRI(a64::LogicOp::And, Sz, D, S, static_cast<u64>(Imm));
      return;
    case tir::Op::Or:
      E.logicRI(a64::LogicOp::Orr, Sz, D, S, static_cast<u64>(Imm));
      return;
    case tir::Op::Xor:
      E.logicRI(a64::LogicOp::Eor, Sz, D, S, static_cast<u64>(Imm));
      return;
    default:
      TPDE_UNREACHABLE("not an ALU op");
    }
  }

  void emitAluReg(tir::Op Op, u8 Sz, a64::AsmReg D, a64::AsmReg L,
                  a64::AsmReg R) {
    switch (Op) {
    case tir::Op::Add:
      E.addRRR(Sz, D, L, R);
      return;
    case tir::Op::Sub:
      E.subRRR(Sz, D, L, R);
      return;
    case tir::Op::And:
      E.logicRRR(a64::LogicOp::And, Sz, D, L, R);
      return;
    case tir::Op::Or:
      E.logicRRR(a64::LogicOp::Orr, Sz, D, L, R);
      return;
    case tir::Op::Xor:
      E.logicRRR(a64::LogicOp::Eor, Sz, D, L, R);
      return;
    default:
      TPDE_UNREACHABLE("not an ALU op");
    }
  }

  bool compileI128Alu(tir::ValRef I, const tir::Value &V) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    VPR L0 = this->valRef(LV, 0), L1 = this->valRef(LV, 1);
    VPR R0 = this->valRef(RV, 0), R1 = this->valRef(RV, 1);
    core::Reg RL0 = L0.asReg(), RL1 = L1.asReg();
    core::Reg RR0 = R0.asReg(), RR1 = R1.asReg();
    VPR Res0 = this->resultRef(I, 0), Res1 = this->resultRef(I, 1);
    core::Reg D0 = Res0.allocReg(), D1 = Res1.allocReg();
    switch (V.Opcode) {
    case tir::Op::Add:
      // Low and high stay adjacent for the carry; register allocation
      // between them emits at most flag-preserving loads/stores.
      E.addRRR(8, a64::ar(D0), a64::ar(RL0), a64::ar(RR0), /*SetFlags=*/true);
      E.adcsRRR(8, a64::ar(D1), a64::ar(RL1), a64::ar(RR1));
      break;
    case tir::Op::Sub:
      E.subRRR(8, a64::ar(D0), a64::ar(RL0), a64::ar(RR0), /*SetFlags=*/true);
      E.sbcsRRR(8, a64::ar(D1), a64::ar(RL1), a64::ar(RR1));
      break;
    case tir::Op::And:
      E.logicRRR(a64::LogicOp::And, 8, a64::ar(D0), a64::ar(RL0), a64::ar(RR0));
      E.logicRRR(a64::LogicOp::And, 8, a64::ar(D1), a64::ar(RL1), a64::ar(RR1));
      break;
    case tir::Op::Or:
      E.logicRRR(a64::LogicOp::Orr, 8, a64::ar(D0), a64::ar(RL0), a64::ar(RR0));
      E.logicRRR(a64::LogicOp::Orr, 8, a64::ar(D1), a64::ar(RL1), a64::ar(RR1));
      break;
    case tir::Op::Xor:
      E.logicRRR(a64::LogicOp::Eor, 8, a64::ar(D0), a64::ar(RL0), a64::ar(RR0));
      E.logicRRR(a64::LogicOp::Eor, 8, a64::ar(D1), a64::ar(RL1), a64::ar(RR1));
      break;
    default:
      return false;
    }
    Res0.setModified();
    Res1.setModified();
    return true;
  }

  // --- Multiplication ------------------------------------------------------

  bool compileMul(tir::ValRef I, const tir::Value &V) {
    if (V.Ty == tir::Type::I128)
      return compileI128Mul(I, V);
    u8 Sz = opSz(tir::typeSize(V.Ty));
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    // No multiply-immediate on A64: asReg() materializes constants.
    VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg(), R = Rhs.asReg();
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    E.mulRRR(Sz, a64::ar(D), a64::ar(L), a64::ar(R));
    Res.setModified();
    return true;
  }

  bool compileI128Mul(tir::ValRef I, const tir::Value &V) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    // (a1:a0) * (b1:b0): lo = a0*b0, hi = umulh(a0,b0) + a0*b1 + a1*b0.
    VPR A0 = this->valRef(LV, 0), A1 = this->valRef(LV, 1);
    VPR B0 = this->valRef(RV, 0), B1 = this->valRef(RV, 1);
    core::Reg RA0 = A0.asReg(), RA1 = A1.asReg();
    core::Reg RB0 = B0.asReg(), RB1 = B1.asReg();
    Scratch Hi(this);
    core::Reg T = Hi.alloc(0);
    E.umulh(a64::ar(T), a64::ar(RA0), a64::ar(RB0));
    E.maddRRRR(8, a64::ar(T), a64::ar(RA0), a64::ar(RB1), a64::ar(T));
    E.maddRRRR(8, a64::ar(T), a64::ar(RA1), a64::ar(RB0), a64::ar(T));
    VPR Res0 = this->resultRef(I, 0), Res1 = this->resultRef(I, 1);
    core::Reg D0 = Res0.allocReg(), D1 = Res1.allocReg();
    E.mulRRR(8, a64::ar(D0), a64::ar(RA0), a64::ar(RB0));
    E.movRR(8, a64::ar(D1), a64::ar(T));
    Res0.setModified();
    Res1.setModified();
    return true;
  }

  // --- Division / remainder ----------------------------------------------

  bool compileDivRem(tir::ValRef I, const tir::Value &V) {
    if (V.Ty == tir::Type::I128)
      return false; // excluded from the supported subset
    u32 W = tir::typeSize(V.Ty);
    u8 Sz = opSz(W);
    bool Signed = V.Opcode == tir::Op::SDiv || V.Opcode == tir::Op::SRem;
    bool WantRem = V.Opcode == tir::Op::URem || V.Opcode == tir::Op::SRem;
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg(), R = Rhs.asReg();
    a64::AsmReg NumR = a64::ar(L), DenR = a64::ar(R);
    // Sub-32-bit division must see well-defined operands: widen to the
    // 32-bit form (the x64 back-end widens to 32 bits the same way).
    Scratch NumW(this), DenW(this);
    if (W < 4) {
      core::Reg TN = NumW.alloc(0), TD = DenW.alloc(0);
      extendNarrow(W, Signed, a64::ar(TN), NumR);
      extendNarrow(W, Signed, a64::ar(TD), DenR);
      NumR = a64::ar(TN);
      DenR = a64::ar(TD);
    }
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    if (!WantRem) {
      Signed ? E.sdivRRR(Sz, a64::ar(D), NumR, DenR)
             : E.udivRRR(Sz, a64::ar(D), NumR, DenR);
    } else {
      // rem = num - (num / den) * den (MSUB).
      Scratch Q(this);
      core::Reg TQ = Q.alloc(0);
      Signed ? E.sdivRRR(Sz, a64::ar(TQ), NumR, DenR)
             : E.udivRRR(Sz, a64::ar(TQ), NumR, DenR);
      E.msubRRRR(Sz, a64::ar(D), a64::ar(TQ), DenR, NumR);
    }
    Res.setModified();
    return true;
  }

  // --- Shifts ---------------------------------------------------------------

  bool compileShift(tir::ValRef I, const tir::Value &V) {
    u32 W = tir::typeSize(V.Ty);
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    const tir::Value &RVal = this->A.val(RV);
    bool ConstAmt = RVal.Kind == tir::ValKind::ConstInt;
    if (V.Ty == tir::Type::I128) {
      if (!ConstAmt)
        return false; // dynamic i128 shifts are not in the subset
      return compileI128ShiftConst(I, V, static_cast<u8>(RVal.Aux & 127));
    }
    u8 Sz = opSz(W);
    a64::ShiftOp SOp = V.Opcode == tir::Op::Shl    ? a64::ShiftOp::Lsl
                       : V.Opcode == tir::Op::LShr ? a64::ShiftOp::Lsr
                                                   : a64::ShiftOp::Asr;
    bool Right = V.Opcode != tir::Op::Shl;
    u8 Amt = ConstAmt ? static_cast<u8>(RVal.Aux & (8 * W - 1)) : 0;

    VPR AmtRef = this->valRef(RV, 0); // consumed either way
    core::Reg AmtR;
    if (!ConstAmt)
      AmtR = AmtRef.asReg();
    VPR Src = this->valRef(LV, 0);
    a64::AsmReg S = a64::ar(Src.asReg());
    // Right shifts of sub-32-bit values need a well-defined extension
    // before the 32-bit shift (left shifts don't care about high bits).
    Scratch Ext(this);
    if (W < 4 && Right) {
      core::Reg T = Ext.alloc(0);
      extendNarrow(W, V.Opcode == tir::Op::AShr, a64::ar(T), S);
      S = a64::ar(T);
    }
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    if (ConstAmt)
      Amt ? E.shiftRI(SOp, Sz, a64::ar(D), S, Amt)
          : E.movRR(Sz, a64::ar(D), S);
    else
      E.shiftRRR(SOp, Sz, a64::ar(D), S, a64::ar(AmtR));
    Res.setModified();
    return true;
  }

  bool compileI128ShiftConst(tir::ValRef I, const tir::Value &V, u8 Amt) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    VPR AmtRef = this->valRef(RV, 0); // consume the use
    bool Shl = V.Opcode == tir::Op::Shl;
    bool Arith = V.Opcode == tir::Op::AShr;
    VPR L0 = this->valRef(LV, 0), L1 = this->valRef(LV, 1);
    core::Reg RL0 = L0.asReg(), RL1 = L1.asReg();
    VPR Res0 = this->resultRef(I, 0), Res1 = this->resultRef(I, 1);
    core::Reg D0 = Res0.allocReg(), D1 = Res1.allocReg();
    if (Amt == 0) {
      E.movRR(8, a64::ar(D0), a64::ar(RL0));
      E.movRR(8, a64::ar(D1), a64::ar(RL1));
    } else if (Shl) {
      if (Amt < 64) {
        // hi = (hi:lo) << Amt -> EXTR(hi, lo, 64-Amt); lo <<= Amt.
        E.extrRRI(8, a64::ar(D1), a64::ar(RL1), a64::ar(RL0),
                  static_cast<u8>(64 - Amt));
        E.shiftRI(a64::ShiftOp::Lsl, 8, a64::ar(D0), a64::ar(RL0), Amt);
      } else {
        Amt > 64 ? E.shiftRI(a64::ShiftOp::Lsl, 8, a64::ar(D1), a64::ar(RL0),
                             static_cast<u8>(Amt - 64))
                 : E.movRR(8, a64::ar(D1), a64::ar(RL0));
        E.movRI(a64::ar(D0), 0);
      }
    } else {
      if (Amt < 64) {
        // lo = (hi:lo) >> Amt -> EXTR(hi, lo, Amt); hi >>=(l/a) Amt.
        E.extrRRI(8, a64::ar(D0), a64::ar(RL1), a64::ar(RL0), Amt);
        E.shiftRI(Arith ? a64::ShiftOp::Asr : a64::ShiftOp::Lsr, 8,
                  a64::ar(D1), a64::ar(RL1), Amt);
      } else {
        Amt > 64 ? E.shiftRI(Arith ? a64::ShiftOp::Asr : a64::ShiftOp::Lsr, 8,
                             a64::ar(D0), a64::ar(RL1),
                             static_cast<u8>(Amt - 64))
                 : E.movRR(8, a64::ar(D0), a64::ar(RL1));
        if (Arith)
          E.shiftRI(a64::ShiftOp::Asr, 8, a64::ar(D1), a64::ar(RL1), 63);
        else
          E.movRI(a64::ar(D1), 0);
      }
    }
    Res0.setModified();
    Res1.setModified();
    return true;
  }

  // --- Comparisons -----------------------------------------------------------

  /// Emits the flag-setting compare for an integer comparison and returns
  /// the condition code. Shared by the cset path and the fused
  /// compare-branch path.
  a64::Cond emitICmpFlags(const tir::Value &CmpV) {
    tir::ValRef LV = fn().operand(CmpV, 0), RV = fn().operand(CmpV, 1);
    tir::ICmp P = static_cast<tir::ICmp>(CmpV.Aux);
    tir::Type OpTy = this->A.val(LV).Ty;
    if (OpTy == tir::Type::I128)
      return emitI128CmpFlags(CmpV);
    u32 W = tir::typeSize(OpTy);
    if (W < 4) {
      // A64 has no 8/16-bit compare: extend both operands (by the
      // predicate's signedness) and compare in the 32-bit form.
      VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
      core::Reg L = Lhs.asReg(), R = Rhs.asReg();
      Scratch TL(this), TR(this);
      core::Reg EL = TL.alloc(0), ER = TR.alloc(0);
      extendNarrow(W, signedPred(P), a64::ar(EL), a64::ar(L));
      extendNarrow(W, signedPred(P), a64::ar(ER), a64::ar(R));
      E.cmpRR(4, a64::ar(EL), a64::ar(ER));
      return icmpCond(P);
    }
    u8 Sz = opSz(W);
    i64 Imm;
    if (foldableImm(RV, W, &Imm)) {
      VPR RhsConsume = this->valRef(RV, 0);
      VPR Lhs = this->valRef(LV, 0);
      E.cmpRI(Sz, a64::ar(Lhs.asReg()), static_cast<u64>(Imm));
      return icmpCond(P);
    }
    if (foldableImm(LV, W, &Imm)) {
      VPR LhsConsume = this->valRef(LV, 0);
      VPR Rhs = this->valRef(RV, 0);
      E.cmpRI(Sz, a64::ar(Rhs.asReg()), static_cast<u64>(Imm));
      return icmpCond(swapICmp(P));
    }
    VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg();
    E.cmpRR(Sz, a64::ar(L), a64::ar(Rhs.asReg()));
    return icmpCond(P);
  }

  a64::Cond emitI128CmpFlags(const tir::Value &CmpV) {
    tir::ValRef LV = fn().operand(CmpV, 0), RV = fn().operand(CmpV, 1);
    tir::ICmp P = static_cast<tir::ICmp>(CmpV.Aux);
    if (P == tir::ICmp::Eq || P == tir::ICmp::Ne) {
      VPR L0 = this->valRef(LV, 0), L1 = this->valRef(LV, 1);
      VPR R0 = this->valRef(RV, 0), R1 = this->valRef(RV, 1);
      core::Reg RL0 = L0.asReg(), RL1 = L1.asReg();
      core::Reg RR0 = R0.asReg(), RR1 = R1.asReg();
      Scratch T0(this), T1(this);
      core::Reg A = T0.alloc(0), B = T1.alloc(0);
      E.logicRRR(a64::LogicOp::Eor, 8, a64::ar(A), a64::ar(RL0), a64::ar(RR0));
      E.logicRRR(a64::LogicOp::Eor, 8, a64::ar(B), a64::ar(RL1), a64::ar(RR1));
      E.logicRRR(a64::LogicOp::Orr, 8, a64::ar(A), a64::ar(A), a64::ar(B));
      E.cmpRI(8, a64::ar(A), 0);
      return P == tir::ICmp::Eq ? a64::Cond::EQ : a64::Cond::NE;
    }
    // Relational: reduce to {ult, uge, slt, sge} by swapping operands,
    // then compute flags with a SUBS/SBCS borrow chain.
    bool Swap = P == tir::ICmp::Ugt || P == tir::ICmp::Ule ||
                P == tir::ICmp::Sgt || P == tir::ICmp::Sle;
    tir::ValRef A = Swap ? RV : LV, B = Swap ? LV : RV;
    tir::ICmp Q = Swap ? swapICmp(P) : P;
    VPR A0 = this->valRef(A, 0), A1 = this->valRef(A, 1);
    VPR B0 = this->valRef(B, 0), B1 = this->valRef(B, 1);
    core::Reg RA0 = A0.asReg(), RA1 = A1.asReg();
    core::Reg RB0 = B0.asReg(), RB1 = B1.asReg();
    E.cmpRR(8, a64::ar(RA0), a64::ar(RB0));
    E.sbcsRRR(8, a64::XZR, a64::ar(RA1), a64::ar(RB1));
    switch (Q) {
    case tir::ICmp::Ult:
      return a64::Cond::LO;
    case tir::ICmp::Uge:
      return a64::Cond::HS;
    case tir::ICmp::Slt:
      return a64::Cond::LT;
    case tir::ICmp::Sge:
      return a64::Cond::GE;
    default:
      TPDE_UNREACHABLE("unnormalized i128 predicate");
    }
  }

  bool compileFCmp(tir::ValRef I, const tir::Value &V) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    tir::FCmp P = static_cast<tir::FCmp>(V.Aux);
    u8 Sz = this->A.val(LV).Ty == tir::Type::F32 ? 4 : 8;
    VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg(), R = Rhs.asReg();
    E.fpCmp(Sz, a64::ar(L), a64::ar(R));
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    // After FCMP, unordered sets C and V: EQ/GT/GE/MI/LS all exclude the
    // unordered case, exactly matching the ordered predicates.
    switch (P) {
    case tir::FCmp::Oeq:
      E.cset(a64::ar(D), a64::Cond::EQ);
      break;
    case tir::FCmp::One: {
      // Ordered-and-unequal has no single condition: (a < b) || (a > b).
      Scratch T(this);
      core::Reg TR = T.alloc(0);
      E.cset(a64::ar(D), a64::Cond::MI);
      E.cset(a64::ar(TR), a64::Cond::GT);
      E.logicRRR(a64::LogicOp::Orr, 4, a64::ar(D), a64::ar(D), a64::ar(TR));
      break;
    }
    case tir::FCmp::Olt:
      E.cset(a64::ar(D), a64::Cond::MI);
      break;
    case tir::FCmp::Ole:
      E.cset(a64::ar(D), a64::Cond::LS);
      break;
    case tir::FCmp::Ogt:
      E.cset(a64::ar(D), a64::Cond::GT);
      break;
    case tir::FCmp::Oge:
      E.cset(a64::ar(D), a64::Cond::GE);
      break;
    }
    Res.setModified();
    return true;
  }

  // --- FP arithmetic ---------------------------------------------------------

  bool compileFpAlu(tir::ValRef I, const tir::Value &V) {
    u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
    a64::FpOp Op = V.Opcode == tir::Op::FAdd   ? a64::FpOp::Add
                   : V.Opcode == tir::Op::FSub ? a64::FpOp::Sub
                   : V.Opcode == tir::Op::FMul ? a64::FpOp::Mul
                                               : a64::FpOp::Div;
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    VPR Lhs = this->valRef(LV, 0), Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg(), R = Rhs.asReg();
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    E.fpArith(Op, Sz, a64::ar(D), a64::ar(L), a64::ar(R));
    Res.setModified();
    return true;
  }

  bool compileIntUnary(tir::ValRef I, const tir::Value &V) {
    u8 Sz = opSz(tir::typeSize(V.Ty));
    VPR Src = this->valRef(fn().operand(V, 0), 0);
    core::Reg S = Src.asReg();
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    if (V.Opcode == tir::Op::Neg)
      E.negR(Sz, a64::ar(D), a64::ar(S));
    else
      E.mvnRR(Sz, a64::ar(D), a64::ar(S));
    Res.setModified();
    return true;
  }

  bool compileFNeg(tir::ValRef I, const tir::Value &V) {
    u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
    VPR Src = this->valRef(fn().operand(V, 0), 0);
    core::Reg S = Src.asReg();
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    E.fpNeg(Sz, a64::ar(D), a64::ar(S));
    Res.setModified();
    return true;
  }

  // --- Casts -----------------------------------------------------------------

  bool compileCast(tir::ValRef I, const tir::Value &V) {
    tir::ValRef SV = fn().operand(V, 0);
    tir::Type SrcTy = this->A.val(SV).Ty;
    u32 SrcW = tir::typeSize(SrcTy), DstW = tir::typeSize(V.Ty);
    switch (V.Opcode) {
    case tir::Op::Zext: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res0 = this->resultRef(I, 0);
      core::Reg D0 = Res0.allocReg();
      emitZext(SrcW, a64::ar(D0), a64::ar(S));
      Res0.setModified();
      if (V.Ty == tir::Type::I128) {
        VPR Res1 = this->resultRef(I, 1);
        E.movRI(a64::ar(Res1.allocReg()), 0);
        Res1.setModified();
      }
      return true;
    }
    case tir::Op::Sext: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res0 = this->resultRef(I, 0);
      core::Reg D0 = Res0.allocReg();
      switch (SrcW) {
      case 1:
        E.sxtb(a64::ar(D0), a64::ar(S));
        break;
      case 2:
        E.sxth(a64::ar(D0), a64::ar(S));
        break;
      case 4:
        E.sxtw(a64::ar(D0), a64::ar(S));
        break;
      default:
        E.movRR(8, a64::ar(D0), a64::ar(S));
        break;
      }
      Res0.setModified();
      if (V.Ty == tir::Type::I128) {
        VPR Res1 = this->resultRef(I, 1);
        core::Reg D1 = Res1.allocReg();
        E.shiftRI(a64::ShiftOp::Asr, 8, a64::ar(D1), a64::ar(D0), 63);
        Res1.setModified();
      }
      return true;
    }
    case tir::Op::Trunc: {
      if (SrcTy == tir::Type::I128) {
        VPR HiConsume = this->valRef(SV, 1);
        (void)HiConsume;
      }
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      if (V.Ty == tir::Type::I1)
        E.logicRI(a64::LogicOp::And, 4, a64::ar(D), a64::ar(S), 1);
      else
        E.movRR(8, a64::ar(D), a64::ar(S));
      Res.setModified();
      return true;
    }
    case tir::Op::FpExt:
    case tir::Op::FpTrunc: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      E.fpCvt(V.Opcode == tir::Op::FpExt ? 4 : 8, a64::ar(D), a64::ar(S));
      Res.setModified();
      return true;
    }
    case tir::Op::FpToSi: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      E.cvtFpToSi(SrcW == 4 ? 4 : 8, DstW == 8 ? 8 : 4, a64::ar(D),
                  a64::ar(S));
      Res.setModified();
      return true;
    }
    case tir::Op::SiToFp: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      u8 FpSz = V.Ty == tir::Type::F32 ? 4 : 8;
      if (SrcW < 4) {
        Scratch T(this);
        core::Reg TR = T.alloc(0);
        extendNarrow(SrcW, /*Signed=*/true, a64::ar(TR), a64::ar(S));
        E.cvtSiToFp(8, FpSz, a64::ar(D), a64::ar(TR));
      } else {
        E.cvtSiToFp(static_cast<u8>(SrcW), FpSz, a64::ar(D), a64::ar(S));
      }
      Res.setModified();
      return true;
    }
    case tir::Op::Bitcast: {
      bool SrcFp = tir::isFloatType(SrcTy), DstFp = tir::isFloatType(V.Ty);
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      if (SrcFp == DstFp) {
        if (SrcFp)
          E.fpMovRR(8, a64::ar(D), a64::ar(S));
        else
          E.movRR(8, a64::ar(D), a64::ar(S));
      } else if (DstFp) {
        E.fmovToFp(static_cast<u8>(DstW), a64::ar(D), a64::ar(S));
      } else {
        E.fmovFromFp(static_cast<u8>(DstW), a64::ar(D), a64::ar(S));
      }
      Res.setModified();
      return true;
    }
    default:
      return false;
    }
  }

  void emitZext(u32 SrcW, a64::AsmReg D, a64::AsmReg S) {
    switch (SrcW) {
    case 1:
      E.uxtb(D, S);
      return;
    case 2:
      E.uxth(D, S);
      return;
    case 4:
      E.uxtw(D, S); // 32-bit move zero-extends
      return;
    default:
      E.movRR(8, D, S);
      return;
    }
  }

  // --- Select ----------------------------------------------------------------

  bool compileSelect(tir::ValRef I, const tir::Value &V) {
    tir::ValRef CV = fn().operand(V, 0), TV = fn().operand(V, 1),
                FV = fn().operand(V, 2);
    // Sources first; everything between the TST and the CSEL only emits
    // flag-preserving loads/stores/moves.
    VPR TRef = this->valRef(TV, 0), FRef = this->valRef(FV, 0);
    core::Reg TR = TRef.asReg(), FR = FRef.asReg();
    VPR T1, F1;
    core::Reg TR1, FR1;
    bool Wide = V.Ty == tir::Type::I128;
    if (Wide) {
      T1 = this->valRef(TV, 1);
      F1 = this->valRef(FV, 1);
      TR1 = T1.asReg();
      FR1 = F1.asReg();
    }
    {
      VPR Cond = this->valRef(CV, 0);
      E.tstRI(4, a64::ar(Cond.asReg()), 1);
    }
    if (tir::isFloatType(V.Ty)) {
      u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      E.fpCsel(Sz, a64::ar(D), a64::ar(TR), a64::ar(FR), a64::Cond::NE);
      Res.setModified();
      return true;
    }
    u8 Sz = Wide ? 8 : opSz(tir::typeSize(V.Ty));
    VPR Res0 = this->resultRef(I, 0);
    core::Reg D0 = Res0.allocReg();
    E.csel(Sz, a64::ar(D0), a64::ar(TR), a64::ar(FR), a64::Cond::NE);
    Res0.setModified();
    if (Wide) {
      VPR Res1 = this->resultRef(I, 1);
      core::Reg D1 = Res1.allocReg();
      E.csel(8, a64::ar(D1), a64::ar(TR1), a64::ar(FR1), a64::Cond::NE);
      Res1.setModified();
    }
    return true;
  }

  // --- Memory ----------------------------------------------------------------

  /// Builds the memory operand for a pointer value, folding fused PtrAdd
  /// instructions and stack variables. The returned refs keep source
  /// registers locked until the access is emitted.
  struct Addr {
    a64::Mem M;
    VPR BaseRef, IndexRef;
  };

  /// \p AccSizeLog2 is log2 of the access size — the only shift amount
  /// the register-offset addressing form supports besides 0.
  Addr computeAddr(tir::ValRef Ptr, u8 AccSizeLog2) {
    Addr Out;
    const tir::Value &PV = this->A.val(Ptr);
    if (Fused[Ptr]) {
      // Fused PtrAdd: base + disp, or base + (index << log2(size)) (§4.2).
      tir::ValRef BaseV = fn().operand(PV, 0);
      i64 Disp = static_cast<i64>(PV.Aux2);
      const tir::Value &BV = this->A.val(BaseV);
      if (PV.NumOps > 1) {
        // addrModeFits guaranteed: scale is 1 or the access size, no
        // displacement, base is not a stack variable.
        Out.BaseRef = this->valRef(BaseV, 0);
        Out.IndexRef = this->valRef(fn().operand(PV, 1), 0);
        u8 Shift = PV.Aux == 1 ? 0 : AccSizeLog2;
        // One asReg() per statement, index first as in the recorded
        // output: register allocation is order-sensitive and argument
        // evaluation order is unspecified.
        core::Reg Index = Out.IndexRef.asReg();
        core::Reg Base = Out.BaseRef.asReg();
        Out.M = a64::Mem(a64::ar(Base), a64::ar(Index), Shift);
        return Out;
      }
      if (BV.Kind == tir::ValKind::StackVar) {
        Out.M = a64::Mem(a64::FP,
                         this->stackVarOff(this->A.stackVarIdx(BaseV)) + Disp);
        return Out;
      }
      Out.BaseRef = this->valRef(BaseV, 0);
      Out.M = a64::Mem(a64::ar(Out.BaseRef.asReg()), Disp);
      return Out;
    }
    if (PV.Kind == tir::ValKind::StackVar) {
      Out.M = a64::Mem(a64::FP, this->stackVarOff(this->A.stackVarIdx(Ptr)));
      return Out;
    }
    Out.BaseRef = this->valRef(Ptr, 0);
    Out.M = a64::Mem(a64::ar(Out.BaseRef.asReg()), 0);
    return Out;
  }

  /// Access size (bytes) of the load/store \p NV for addressing purposes;
  /// 0 if the instruction's access cannot take an index operand (i128 is
  /// split into two displaced accesses).
  u32 memAccessSize(const tir::Value &NV) {
    tir::Type Ty =
        NV.Opcode == tir::Op::Load ? NV.Ty : this->A.val(fn().operand(NV, 0)).Ty;
    if (Ty == tir::Type::I128)
      return 0;
    return tir::typeSize(Ty);
  }

  bool compilePtrAdd(tir::ValRef I, const tir::Value &V) {
    tir::ValRef BaseV = fn().operand(V, 0);
    i64 Disp = static_cast<i64>(V.Aux2);
    if (V.NumOps == 1) {
      VPR Base = this->valRef(BaseV, 0);
      core::Reg B = Base.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg D = Res.allocReg();
      E.leaMem(a64::ar(D), a64::ar(B), Disp);
      Res.setModified();
      return true;
    }
    tir::ValRef IdxV = fn().operand(V, 1);
    u64 Scale = V.Aux;
    VPR Base = this->valRef(BaseV, 0), Idx = this->valRef(IdxV, 0);
    core::Reg B = Base.asReg(), X = Idx.asReg();
    VPR Res = this->resultRef(I, 0);
    core::Reg D = Res.allocReg();
    if (Scale && (Scale & (Scale - 1)) == 0 && Scale <= (u64(1) << 63)) {
      // Power-of-two scale: one shifted-register ADD.
      u8 Shift = static_cast<u8>(countTrailingZeros(Scale));
      E.addRRR(8, a64::ar(D), a64::ar(B), a64::ar(X), /*SetFlags=*/false,
               Shift);
    } else {
      // General scale: one MADD through the compiler scratch register.
      E.movRI(a64::X17, Scale);
      E.maddRRRR(8, a64::ar(D), a64::ar(X), a64::X17, a64::ar(B));
    }
    if (Disp)
      E.leaMem(a64::ar(D), a64::ar(D), Disp);
    Res.setModified();
    return true;
  }

  bool compileLoad(tir::ValRef I, const tir::Value &V) {
    if (tir::isFloatType(V.Ty)) {
      u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
      Addr A = computeAddr(fn().operand(V, 0), Sz == 4 ? 2 : 3);
      VPR Res = this->resultRef(I, 0);
      E.ldr(Sz, a64::ar(Res.allocReg()), A.M);
      Res.setModified();
      return true;
    }
    if (V.Ty == tir::Type::I128) {
      Addr A = computeAddr(fn().operand(V, 0), 3);
      VPR Res0 = this->resultRef(I, 0);
      E.ldr(8, a64::ar(Res0.allocReg()), A.M);
      Res0.setModified();
      a64::Mem Hi = A.M;
      Hi.Disp += 8;
      VPR Res1 = this->resultRef(I, 1);
      E.ldr(8, a64::ar(Res1.allocReg()), Hi);
      Res1.setModified();
      return true;
    }
    u32 W = tir::typeSize(V.Ty);
    u8 SzLog2 = W == 8 ? 3 : W == 4 ? 2 : W == 2 ? 1 : 0;
    Addr A = computeAddr(fn().operand(V, 0), SzLog2);
    VPR Res = this->resultRef(I, 0);
    E.ldr(static_cast<u8>(W), a64::ar(Res.allocReg()), A.M); // zero-extends
    Res.setModified();
    return true;
  }

  bool compileStore(tir::ValRef I, const tir::Value &V) {
    tir::ValRef SV = fn().operand(V, 0);
    tir::Type Ty = this->A.val(SV).Ty;
    if (tir::isFloatType(Ty)) {
      u8 Sz = Ty == tir::Type::F32 ? 4 : 8;
      Addr A = computeAddr(fn().operand(V, 1), Sz == 4 ? 2 : 3);
      VPR Src = this->valRef(SV, 0);
      E.str(Sz, A.M, a64::ar(Src.asReg()));
      return true;
    }
    if (Ty == tir::Type::I128) {
      Addr A = computeAddr(fn().operand(V, 1), 3);
      VPR S0 = this->valRef(SV, 0);
      E.str(8, A.M, a64::ar(S0.asReg()));
      S0.reset();
      a64::Mem Hi = A.M;
      Hi.Disp += 8;
      VPR S1 = this->valRef(SV, 1);
      E.str(8, Hi, a64::ar(S1.asReg()));
      return true;
    }
    u32 W = tir::typeSize(Ty);
    u8 SzLog2 = W == 8 ? 3 : W == 4 ? 2 : W == 2 ? 1 : 0;
    Addr A = computeAddr(fn().operand(V, 1), SzLog2);
    VPR Src = this->valRef(SV, 0);
    E.str(static_cast<u8>(W), A.M, a64::ar(Src.asReg()));
    return true;
  }
};

} // namespace tpde::tpde_tir

#include "tir/Verifier.h"

namespace tpde::tpde_tir {
/// Convenience entry point: compiles \p M into \p Asm with TPDE/AArch64.
/// With \p Verify the module is validated first (tir::verifyModule) so
/// malformed IR never reaches the emitter; \p StatusOut (optional)
/// receives the structured diagnostic on failure.
inline bool compileModuleA64(tir::Module &M, asmx::Assembler &Asm,
                             bool Verify = false,
                             support::CompileStatus *StatusOut = nullptr) {
  return core::compileModuleOneShot<TirCompilerA64>(M, Asm, Verify, StatusOut);
}
} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_TIRCOMPILERA64_H
