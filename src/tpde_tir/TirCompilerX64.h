//===- tpde_tir/TirCompilerX64.h - TIR instruction compilers ----*- C++ -*-===//
///
/// \file
/// The TPDE-based back-end for TIR targeting x86-64 (the paper's §5 case
/// study, with TIR standing in for LLVM-IR). Implements the x86-64
/// emitter of every TIR opcode on top of the framework's value/register
/// machinery, plus the leaf hooks of the shared TIR lowering
/// (tpde_tir/TirLowering.h), which owns the dispatch and decides the two
/// fusions the paper calls out as critical (§3.4.4/§5.1.2). This file
/// emits their fused forms: compare + jcc on live flags, and address
/// computations folded into memory operands (SIB addressing).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_TIRCOMPILERX64_H
#define TPDE_TPDE_TIR_TIRCOMPILERX64_H

#include "tpde_tir/TirLowering.h"
#include "x64/CompilerX64.h"

namespace tpde::tpde_tir {

class TirCompilerX64
    : public TirLowering<TirCompilerX64,
                         x64::CompilerX64<TirAdapter, TirCompilerX64>> {
public:
  using Lowering =
      TirLowering<TirCompilerX64, x64::CompilerX64<TirAdapter, TirCompilerX64>>;

  TirCompilerX64(TirAdapter &A, asmx::Assembler &Asm) : Lowering(A, Asm) {}

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
      E.movRI(x64::ax(Dst), Bits);
      return;
    }
    case tir::ValKind::ConstFP: {
      u8 Sz = Val.Ty == tir::Type::F32 ? 4 : 8;
      E.fpLoadSym(Sz, x64::ax(Dst), fpConstSym(Val.Aux, Sz));
      return;
    }
    case tir::ValKind::GlobalAddr:
      E.leaSym(x64::ax(Dst), globalSym(static_cast<u32>(Val.Aux)));
      return;
    case tir::ValKind::StackVar:
      E.lea(x64::ax(Dst),
            x64::Mem(x64::RBP, this->stackVarOff(this->A.stackVarIdx(V))));
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

  void emitSetCond(x64::Cond CC, core::Reg Dst) { E.setcc(CC, x64::ax(Dst)); }
  x64::Cond emitTestBit0(core::Reg R) {
    E.testRI(1, x64::ax(R), 1);
    return x64::Cond::NE;
  }
  void emitCondJump(x64::Cond CC, asmx::Label L) { E.jccLabel(CC, L); }
  void emitTrap() { E.ud2(); }
  /// base + index*{1,2,4,8} + disp32 (SIB addressing).
  bool addrModeFits(const tir::Value &PtrAdd, const tir::Value &MemInst) {
    u64 S = PtrAdd.Aux;
    if (PtrAdd.NumOps > 1 && S != 1 && S != 2 && S != 4 && S != 8)
      return false;
    return isInt32(static_cast<i64>(PtrAdd.Aux2));
  }

  static u8 opSz(u32 W) { return W < 4 ? 4 : static_cast<u8>(W); }

  static x64::Cond icmpCond(tir::ICmp P) {
    using tir::ICmp;
    using x64::Cond;
    switch (P) {
    case ICmp::Eq:
      return Cond::E;
    case ICmp::Ne:
      return Cond::NE;
    case ICmp::Ult:
      return Cond::B;
    case ICmp::Ule:
      return Cond::BE;
    case ICmp::Ugt:
      return Cond::A;
    case ICmp::Uge:
      return Cond::AE;
    case ICmp::Slt:
      return Cond::L;
    case ICmp::Sle:
      return Cond::LE;
    case ICmp::Sgt:
      return Cond::G;
    case ICmp::Sge:
      return Cond::GE;
    }
    TPDE_UNREACHABLE("bad icmp predicate");
  }

  /// Can the operand be folded as a 32-bit immediate for width \p W ops?
  bool foldableImm(tir::ValRef V, u32 W, i64 *Out) {
    if (!this->A.isConstInt(V)) // metadata bit: no Value fetch
      return false;
    const tir::Value &Val = this->A.val(V);
    i64 Imm = signExtend(Val.Aux, W >= 8 ? 64 : 8 * W);
    if (W >= 8 && !isInt32(Imm))
      return false;
    *Out = Imm;
    return true;
  }

  // --- Integer ALU (add/sub/and/or/xor) -----------------------------------

  bool compileIntAlu(tir::ValRef I, const tir::Value &V) {
    if (V.Ty == tir::Type::I128)
      return compileI128Alu(I, V);
    u32 W = tir::typeSize(V.Ty);
    u8 Sz = opSz(W);
    x64::AluOp Op = V.Opcode == tir::Op::Add   ? x64::AluOp::Add
                    : V.Opcode == tir::Op::Sub ? x64::AluOp::Sub
                    : V.Opcode == tir::Op::And ? x64::AluOp::And
                    : V.Opcode == tir::Op::Or  ? x64::AluOp::Or
                                               : x64::AluOp::Xor;
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    bool Commutative = V.Opcode != tir::Op::Sub;
    i64 Imm;
    if (foldableImm(RV, W, &Imm)) {
      VPR Rhs = this->valRef(RV, 0); // consume the use
      VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
      E.aluRI(Op, Sz, x64::ax(Res.curReg()), Imm);
      Res.setModified();
      return true;
    }
    if (Commutative && foldableImm(LV, W, &Imm)) {
      VPR Lhs = this->valRef(LV, 0);
      VPR Res = this->resultRefReuse(I, 0, this->valRef(RV, 0));
      E.aluRI(Op, Sz, x64::ax(Res.curReg()), Imm);
      Res.setModified();
      return true;
    }
    VPR Rhs = this->valRef(RV, 0);
    VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
    if (!DisableFusion && !Rhs.isConstLike() && !Rhs.hasReg() && Rhs.inMemory()) {
      // Fold the spilled operand as a memory operand (§4.2).
      E.aluRM(Op, Sz, x64::ax(Res.curReg()),
              x64::Mem(x64::RBP, Rhs.frameOff()));
    } else {
      core::Reg R = Rhs.asReg();
      E.aluRR(Op, Sz, x64::ax(Res.curReg()), x64::ax(R));
    }
    Res.setModified();
    return true;
  }

  bool compileI128Alu(tir::ValRef I, const tir::Value &V) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    x64::AluOp Lo, Hi;
    switch (V.Opcode) {
    case tir::Op::Add:
      Lo = x64::AluOp::Add;
      Hi = x64::AluOp::Adc;
      break;
    case tir::Op::Sub:
      Lo = x64::AluOp::Sub;
      Hi = x64::AluOp::Sbb;
      break;
    case tir::Op::And:
      Lo = Hi = x64::AluOp::And;
      break;
    case tir::Op::Or:
      Lo = Hi = x64::AluOp::Or;
      break;
    case tir::Op::Xor:
      Lo = Hi = x64::AluOp::Xor;
      break;
    default:
      return false;
    }
    // Low and high parts must stay adjacent for the carry flag; every
    // framework operation in between only emits flag-preserving moves.
    VPR R0 = this->valRef(RV, 0), R1 = this->valRef(RV, 1);
    core::Reg RR0 = R0.asReg(), RR1 = R1.asReg();
    VPR Res0 = this->resultRefReuse(I, 0, this->valRef(LV, 0));
    VPR Res1 = this->resultRefReuse(I, 1, this->valRef(LV, 1));
    E.aluRR(Lo, 8, x64::ax(Res0.curReg()), x64::ax(RR0));
    E.aluRR(Hi, 8, x64::ax(Res1.curReg()), x64::ax(RR1));
    Res0.setModified();
    Res1.setModified();
    return true;
  }

  // --- Multiplication ------------------------------------------------------

  bool compileMul(tir::ValRef I, const tir::Value &V) {
    if (V.Ty == tir::Type::I128)
      return compileI128Mul(I, V);
    u32 W = tir::typeSize(V.Ty);
    u8 Sz = opSz(W);
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    i64 Imm;
    if (foldableImm(RV, W, &Imm) || foldableImm(LV, W, &Imm)) {
      bool RhsImm = foldableImm(RV, W, &Imm);
      tir::ValRef Var = RhsImm ? LV : RV;
      tir::ValRef Cst = RhsImm ? RV : LV;
      VPR CstRef = this->valRef(Cst, 0); // consume
      VPR Src = this->valRef(Var, 0);
      core::Reg SrcR = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg ResR = Res.allocReg();
      E.imulRRI(Sz, x64::ax(ResR), x64::ax(SrcR), static_cast<i32>(Imm));
      Res.setModified();
      return true;
    }
    VPR Rhs = this->valRef(RV, 0);
    core::Reg R = Rhs.asReg();
    VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
    E.imulRR(Sz, x64::ax(Res.curReg()), x64::ax(R));
    Res.setModified();
    return true;
  }

  bool compileI128Mul(tir::ValRef I, const tir::Value &V) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    // (a1:a0) * (b1:b0) = (a0*b0)_128 + ((a0*b1 + a1*b0) << 64)
    Scratch Rax(this), Rdx(this);
    Rax.allocSpecific(core::Reg(0));
    Rdx.allocSpecific(core::Reg(2));
    VPR A0 = this->valRef(LV, 0), A1 = this->valRef(LV, 1);
    VPR B0 = this->valRef(RV, 0), B1 = this->valRef(RV, 1);
    core::Reg RA1 = A1.asReg(), RB0 = B0.asReg(), RB1 = B1.asReg();
    this->emitToReg(core::Reg(0), A0);
    core::Reg RA0copy;
    Scratch A0Copy(this);
    RA0copy = A0Copy.alloc(0);
    E.movRR(8, x64::ax(RA0copy), x64::RAX);
    E.mulR(8, x64::ax(RB0)); // rdx:rax = a0*b0
    Scratch HiTmp(this);
    core::Reg HT = HiTmp.alloc(0);
    E.movRR(8, x64::ax(HT), x64::RDX);
    // HT += a0*b1 + a1*b0
    Scratch T(this);
    core::Reg TR = T.alloc(0);
    E.movRR(8, x64::ax(TR), x64::ax(RA0copy));
    E.imulRR(8, x64::ax(TR), x64::ax(RB1));
    E.aluRR(x64::AluOp::Add, 8, x64::ax(HT), x64::ax(TR));
    E.movRR(8, x64::ax(TR), x64::ax(RA1));
    E.imulRR(8, x64::ax(TR), x64::ax(RB0));
    E.aluRR(x64::AluOp::Add, 8, x64::ax(HT), x64::ax(TR));
    VPR Res0 = this->resultRef(I, 0), Res1 = this->resultRef(I, 1);
    E.movRR(8, x64::ax(Res0.allocReg()), x64::RAX);
    E.movRR(8, x64::ax(Res1.allocReg()), x64::ax(HT));
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

    Scratch Rax(this), Rdx(this);
    Rax.allocSpecific(core::Reg(0));
    Rdx.allocSpecific(core::Reg(2));
    // Divisor into a register other than rax/rdx (both locked).
    VPR Rhs = this->valRef(RV, 0);
    core::Reg Divisor = Rhs.asReg();
    Scratch DivTmp(this);
    if (W < 4) {
      // Widen the divisor so a 32-bit divide is exact.
      core::Reg T = DivTmp.alloc(0);
      if (Signed)
        E.movsxRR(static_cast<u8>(W), x64::ax(T), x64::ax(Divisor));
      else
        E.movzxRR(static_cast<u8>(W), x64::ax(T), x64::ax(Divisor));
      Divisor = T;
    }
    {
      VPR Lhs = this->valRef(LV, 0);
      if (W < 4) {
        core::Reg LR = Lhs.asReg();
        if (Signed)
          E.movsxRR(static_cast<u8>(W), x64::RAX, x64::ax(LR));
        else
          E.movzxRR(static_cast<u8>(W), x64::RAX, x64::ax(LR));
      } else {
        this->emitToReg(core::Reg(0), Lhs);
      }
    }
    if (Signed) {
      E.cwd(Sz);
      E.idivR(Sz, x64::ax(Divisor));
    } else {
      E.aluRR(x64::AluOp::Xor, 4, x64::RDX, x64::RDX);
      E.divR(Sz, x64::ax(Divisor));
    }
    VPR Res = this->resultRef(I, 0);
    core::Reg R = Res.allocReg();
    E.movRR(8, x64::ax(R), WantRem ? x64::RDX : x64::RAX);
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
    u8 Amt = ConstAmt ? static_cast<u8>(RVal.Aux & (8 * W - 1)) : 0;

    if (V.Opcode == tir::Op::Shl) {
      if (ConstAmt) {
        VPR AmtRef = this->valRef(RV, 0);
        VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
        E.shiftRI(x64::ShiftOp::Shl, opSz(W), x64::ax(Res.curReg()), Amt);
        Res.setModified();
        return true;
      }
      Scratch CL(this);
      CL.allocSpecific(core::Reg(1)); // rcx
      {
        VPR AmtRef = this->valRef(RV, 0);
        this->emitToReg(core::Reg(1), AmtRef);
      }
      VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
      E.shiftRC(x64::ShiftOp::Shl, opSz(W), x64::ax(Res.curReg()));
      Res.setModified();
      return true;
    }

    // Right shifts of sub-32-bit values need a well-defined extension.
    bool Arith = V.Opcode == tir::Op::AShr;
    x64::ShiftOp SOp = Arith ? x64::ShiftOp::Sar : x64::ShiftOp::Shr;
    if (W < 4) {
      Scratch CL(this);
      if (!ConstAmt) {
        CL.allocSpecific(core::Reg(1));
        VPR AmtRef = this->valRef(RV, 0);
        this->emitToReg(core::Reg(1), AmtRef);
      } else {
        VPR AmtRef = this->valRef(RV, 0); // consume
      }
      VPR Src = this->valRef(LV, 0);
      core::Reg SR = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      if (Arith)
        E.movsxRR(static_cast<u8>(W), x64::ax(R), x64::ax(SR));
      else
        E.movzxRR(static_cast<u8>(W), x64::ax(R), x64::ax(SR));
      if (ConstAmt)
        E.shiftRI(SOp, 4, x64::ax(R), Amt);
      else
        E.shiftRC(SOp, 4, x64::ax(R));
      Res.setModified();
      return true;
    }
    u8 Sz = static_cast<u8>(W);
    if (ConstAmt) {
      VPR AmtRef = this->valRef(RV, 0);
      VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
      E.shiftRI(SOp, Sz, x64::ax(Res.curReg()), Amt);
      Res.setModified();
      return true;
    }
    Scratch CL(this);
    CL.allocSpecific(core::Reg(1));
    {
      VPR AmtRef = this->valRef(RV, 0);
      this->emitToReg(core::Reg(1), AmtRef);
    }
    VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
    E.shiftRC(SOp, Sz, x64::ax(Res.curReg()));
    Res.setModified();
    return true;
  }

  bool compileI128ShiftConst(tir::ValRef I, const tir::Value &V, u8 Amt) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    VPR AmtRef = this->valRef(RV, 0); // consume the use
    bool Shl = V.Opcode == tir::Op::Shl;
    bool Arith = V.Opcode == tir::Op::AShr;
    if (Shl) {
      if (Amt == 0 || Amt < 64) {
        VPR L0 = this->valRef(LV, 0);
        core::Reg RL0 = L0.asReg();
        VPR Res1 = this->resultRefReuse(I, 1, this->valRef(LV, 1));
        if (Amt)
          E.shldRRI(8, x64::ax(Res1.curReg()), x64::ax(RL0), Amt);
        VPR Res0 = this->resultRefReuse(I, 0, std::move(L0));
        if (Amt)
          E.shiftRI(x64::ShiftOp::Shl, 8, x64::ax(Res0.curReg()), Amt);
        Res0.setModified();
        Res1.setModified();
        return true;
      }
      // Amt >= 64: hi = lo << (Amt-64), lo = 0.
      VPR L1Consume = this->valRef(LV, 1);
      VPR Res1 = this->resultRefReuse(I, 1, this->valRef(LV, 0));
      if (Amt > 64)
        E.shiftRI(x64::ShiftOp::Shl, 8, x64::ax(Res1.curReg()),
                  static_cast<u8>(Amt - 64));
      VPR Res0 = this->resultRef(I, 0);
      core::Reg R0 = Res0.allocReg();
      E.aluRR(x64::AluOp::Xor, 4, x64::ax(R0), x64::ax(R0));
      Res0.setModified();
      Res1.setModified();
      return true;
    }
    // Right shifts.
    if (Amt == 0 || Amt < 64) {
      VPR L1 = this->valRef(LV, 1);
      core::Reg RL1 = L1.asReg();
      VPR Res0 = this->resultRefReuse(I, 0, this->valRef(LV, 0));
      if (Amt)
        E.shrdRRI(8, x64::ax(Res0.curReg()), x64::ax(RL1), Amt);
      VPR Res1 = this->resultRefReuse(I, 1, std::move(L1));
      if (Amt)
        E.shiftRI(Arith ? x64::ShiftOp::Sar : x64::ShiftOp::Shr, 8,
                  x64::ax(Res1.curReg()), Amt);
      Res0.setModified();
      Res1.setModified();
      return true;
    }
    // Amt >= 64: lo = hi >> (Amt-64); hi = sign/zero fill.
    VPR L0Consume = this->valRef(LV, 0);
    VPR L1 = this->valRef(LV, 1);
    L1.asReg(); // materialize + lock so the reuse below lands in a register
    VPR Res0 = this->resultRefReuse(I, 0, std::move(L1));
    if (Amt > 64)
      E.shiftRI(Arith ? x64::ShiftOp::Sar : x64::ShiftOp::Shr, 8,
                x64::ax(Res0.curReg()), static_cast<u8>(Amt - 64));
    VPR Res1 = this->resultRef(I, 1);
    core::Reg R1 = Res1.allocReg();
    if (Arith) {
      E.movRR(8, x64::ax(R1), x64::ax(Res0.curReg()));
      E.shiftRI(x64::ShiftOp::Sar, 8, x64::ax(R1), 63);
    } else {
      E.aluRR(x64::AluOp::Xor, 4, x64::ax(R1), x64::ax(R1));
    }
    Res0.setModified();
    Res1.setModified();
    return true;
  }

  // --- Comparisons -----------------------------------------------------------

  /// Emits the flag-setting compare for an integer comparison and returns
  /// the condition code. Shared by the setcc path and the fused
  /// compare-branch path.
  x64::Cond emitICmpFlags(const tir::Value &CmpV) {
    tir::ValRef LV = fn().operand(CmpV, 0), RV = fn().operand(CmpV, 1);
    tir::ICmp P = static_cast<tir::ICmp>(CmpV.Aux);
    tir::Type OpTy = this->A.val(LV).Ty;
    if (OpTy == tir::Type::I128)
      return emitI128CmpFlags(CmpV);
    u32 W = tir::typeSize(OpTy);
    u8 Sz = static_cast<u8>(W);
    i64 Imm;
    if (foldableImm(RV, W, &Imm)) {
      VPR RhsConsume = this->valRef(RV, 0);
      VPR Lhs = this->valRef(LV, 0);
      E.aluRI(x64::AluOp::Cmp, Sz, x64::ax(Lhs.asReg()), Imm);
      return icmpCond(P);
    }
    if (foldableImm(LV, W, &Imm)) {
      VPR LhsConsume = this->valRef(LV, 0);
      VPR Rhs = this->valRef(RV, 0);
      E.aluRI(x64::AluOp::Cmp, Sz, x64::ax(Rhs.asReg()), Imm);
      return icmpCond(swapICmp(P));
    }
    VPR Lhs = this->valRef(LV, 0);
    VPR Rhs = this->valRef(RV, 0);
    core::Reg L = Lhs.asReg();
    if (!DisableFusion && !Rhs.isConstLike() && !Rhs.hasReg() && Rhs.inMemory()) {
      E.aluRM(x64::AluOp::Cmp, Sz, x64::ax(L),
              x64::Mem(x64::RBP, Rhs.frameOff()));
    } else {
      E.aluRR(x64::AluOp::Cmp, Sz, x64::ax(L), x64::ax(Rhs.asReg()));
    }
    return icmpCond(P);
  }

  x64::Cond emitI128CmpFlags(const tir::Value &CmpV) {
    tir::ValRef LV = fn().operand(CmpV, 0), RV = fn().operand(CmpV, 1);
    tir::ICmp P = static_cast<tir::ICmp>(CmpV.Aux);
    if (P == tir::ICmp::Eq || P == tir::ICmp::Ne) {
      VPR L0 = this->valRef(LV, 0), L1 = this->valRef(LV, 1);
      VPR R0 = this->valRef(RV, 0), R1 = this->valRef(RV, 1);
      Scratch T0(this), T1(this);
      core::Reg A = T0.alloc(0), B = T1.alloc(0);
      this->emitToReg(A, L0);
      this->emitToReg(B, L1);
      E.aluRR(x64::AluOp::Xor, 8, x64::ax(A), x64::ax(R0.asReg()));
      E.aluRR(x64::AluOp::Xor, 8, x64::ax(B), x64::ax(R1.asReg()));
      E.aluRR(x64::AluOp::Or, 8, x64::ax(A), x64::ax(B));
      return P == tir::ICmp::Eq ? x64::Cond::E : x64::Cond::NE;
    }
    // Relational: reduce to {ult, uge, slt, sge} by swapping operands.
    bool Swap = P == tir::ICmp::Ugt || P == tir::ICmp::Ule ||
                P == tir::ICmp::Sgt || P == tir::ICmp::Sle;
    tir::ValRef A = Swap ? RV : LV, B = Swap ? LV : RV;
    tir::ICmp Q = Swap ? swapICmp(P) : P;
    // cmp a0,b0; sbb t(a1), b1 -> flags hold (a < b) style results.
    VPR A0 = this->valRef(A, 0), A1 = this->valRef(A, 1);
    VPR B0 = this->valRef(B, 0), B1 = this->valRef(B, 1);
    Scratch T(this);
    core::Reg TR = T.alloc(0);
    this->emitToReg(TR, A1);
    // One asReg() per statement, B0 first as in the recorded output:
    // register allocation is order-sensitive and argument evaluation
    // order is unspecified.
    core::Reg RB0 = B0.asReg();
    core::Reg RA0 = A0.asReg();
    E.aluRR(x64::AluOp::Cmp, 8, x64::ax(RA0), x64::ax(RB0));
    E.aluRR(x64::AluOp::Sbb, 8, x64::ax(TR), x64::ax(B1.asReg()));
    switch (Q) {
    case tir::ICmp::Ult:
      return x64::Cond::B;
    case tir::ICmp::Uge:
      return x64::Cond::AE;
    case tir::ICmp::Slt:
      return x64::Cond::L;
    case tir::ICmp::Sge:
      return x64::Cond::GE;
    default:
      TPDE_UNREACHABLE("unnormalized i128 predicate");
    }
  }

  bool compileFCmp(tir::ValRef I, const tir::Value &V) {
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    tir::FCmp P = static_cast<tir::FCmp>(V.Aux);
    u8 Sz = this->A.val(LV).Ty == tir::Type::F32 ? 4 : 8;
    // olt/ole are compiled as swapped ogt/oge so NaN yields false via CF.
    bool Swap = P == tir::FCmp::Olt || P == tir::FCmp::Ole;
    VPR Lhs = this->valRef(Swap ? RV : LV, 0);
    VPR Rhs = this->valRef(Swap ? LV : RV, 0);
    core::Reg L = Lhs.asReg(), R = Rhs.asReg();
    E.ucomis(Sz, x64::ax(L), x64::ax(R));
    VPR Res = this->resultRef(I, 0);
    core::Reg RR = Res.allocReg();
    switch (P) {
    case tir::FCmp::Oeq: {
      Scratch T(this);
      core::Reg TR = T.alloc(0);
      E.setcc(x64::Cond::E, x64::ax(RR));
      E.setcc(x64::Cond::NP, x64::ax(TR));
      E.aluRR(x64::AluOp::And, 4, x64::ax(RR), x64::ax(TR));
      break;
    }
    case tir::FCmp::One: {
      Scratch T(this);
      core::Reg TR = T.alloc(0);
      E.setcc(x64::Cond::NE, x64::ax(RR));
      E.setcc(x64::Cond::NP, x64::ax(TR));
      E.aluRR(x64::AluOp::And, 4, x64::ax(RR), x64::ax(TR));
      break;
    }
    case tir::FCmp::Ogt:
    case tir::FCmp::Olt:
      E.setcc(x64::Cond::A, x64::ax(RR));
      break;
    case tir::FCmp::Oge:
    case tir::FCmp::Ole:
      E.setcc(x64::Cond::AE, x64::ax(RR));
      break;
    }
    Res.setModified();
    return true;
  }

  // --- FP arithmetic -----------------------------------------------------------

  bool compileFpAlu(tir::ValRef I, const tir::Value &V) {
    u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
    x64::FpOp Op = V.Opcode == tir::Op::FAdd   ? x64::FpOp::Add
                   : V.Opcode == tir::Op::FSub ? x64::FpOp::Sub
                   : V.Opcode == tir::Op::FMul ? x64::FpOp::Mul
                                               : x64::FpOp::Div;
    tir::ValRef LV = fn().operand(V, 0), RV = fn().operand(V, 1);
    VPR Rhs = this->valRef(RV, 0);
    VPR Res = this->resultRefReuse(I, 0, this->valRef(LV, 0));
    if (!DisableFusion && !Rhs.isConstLike() && !Rhs.hasReg() && Rhs.inMemory()) {
      E.fpArithMem(Op, Sz, x64::ax(Res.curReg()),
                   x64::Mem(x64::RBP, Rhs.frameOff()));
    } else {
      E.fpArith(Op, Sz, x64::ax(Res.curReg()), x64::ax(Rhs.asReg()));
    }
    Res.setModified();
    return true;
  }

  bool compileIntUnary(tir::ValRef I, const tir::Value &V) {
    u32 W = tir::typeSize(V.Ty);
    VPR Res = this->resultRefReuse(I, 0, this->valRef(fn().operand(V, 0), 0));
    if (V.Opcode == tir::Op::Neg)
      E.negR(opSz(W), x64::ax(Res.curReg()));
    else
      E.notR(opSz(W), x64::ax(Res.curReg()));
    Res.setModified();
    return true;
  }

  bool compileFNeg(tir::ValRef I, const tir::Value &V) {
    u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
    VPR Res = this->resultRefReuse(I, 0, this->valRef(fn().operand(V, 0), 0));
    Scratch GP(this), Mask(this);
    core::Reg G = GP.alloc(0);
    core::Reg M = Mask.alloc(1);
    E.movRI(x64::ax(G), Sz == 4 ? 0x80000000ull : 0x8000000000000000ull);
    E.movdToFp(Sz, x64::ax(M), x64::ax(G));
    E.xorps(x64::ax(Res.curReg()), x64::ax(M));
    Res.setModified();
    return true;
  }

  // --- Casts --------------------------------------------------------------------

  bool compileCast(tir::ValRef I, const tir::Value &V) {
    tir::ValRef SV = fn().operand(V, 0);
    tir::Type SrcTy = this->A.val(SV).Ty;
    u32 SrcW = tir::typeSize(SrcTy), DstW = tir::typeSize(V.Ty);
    switch (V.Opcode) {
    case tir::Op::Zext: {
      if (V.Ty == tir::Type::I128) {
        VPR Res0 = this->resultRefReuse(I, 0, this->valRef(SV, 0));
        if (SrcW < 8)
          E.movzxRR(static_cast<u8>(SrcW), x64::ax(Res0.curReg()),
                    x64::ax(Res0.curReg()));
        VPR Res1 = this->resultRef(I, 1);
        core::Reg R1 = Res1.allocReg();
        E.aluRR(x64::AluOp::Xor, 4, x64::ax(R1), x64::ax(R1));
        Res0.setModified();
        Res1.setModified();
        return true;
      }
      VPR Res = this->resultRefReuse(I, 0, this->valRef(SV, 0));
      E.movzxRR(static_cast<u8>(SrcW < 8 ? SrcW : 4), x64::ax(Res.curReg()),
                x64::ax(Res.curReg()));
      Res.setModified();
      return true;
    }
    case tir::Op::Sext: {
      if (V.Ty == tir::Type::I128) {
        VPR Res0 = this->resultRefReuse(I, 0, this->valRef(SV, 0));
        if (SrcW < 8)
          E.movsxRR(static_cast<u8>(SrcW), x64::ax(Res0.curReg()),
                    x64::ax(Res0.curReg()));
        VPR Res1 = this->resultRef(I, 1);
        core::Reg R1 = Res1.allocReg();
        E.movRR(8, x64::ax(R1), x64::ax(Res0.curReg()));
        E.shiftRI(x64::ShiftOp::Sar, 8, x64::ax(R1), 63);
        Res0.setModified();
        Res1.setModified();
        return true;
      }
      VPR Res = this->resultRefReuse(I, 0, this->valRef(SV, 0));
      E.movsxRR(static_cast<u8>(SrcW < 8 ? SrcW : 4), x64::ax(Res.curReg()),
                x64::ax(Res.curReg()));
      Res.setModified();
      return true;
    }
    case tir::Op::Trunc: {
      if (SrcTy == tir::Type::I128) {
        VPR HiConsume = this->valRef(SV, 1);
        VPR Res = this->resultRefReuse(I, 0, this->valRef(SV, 0));
        if (V.Ty == tir::Type::I1)
          E.aluRI(x64::AluOp::And, 4, x64::ax(Res.curReg()), 1);
        Res.setModified();
        return true;
      }
      VPR Res = this->resultRefReuse(I, 0, this->valRef(SV, 0));
      if (V.Ty == tir::Type::I1)
        E.aluRI(x64::AluOp::And, 4, x64::ax(Res.curReg()), 1);
      Res.setModified();
      return true;
    }
    case tir::Op::FpExt:
    case tir::Op::FpTrunc: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      E.cvtfp2fp(V.Opcode == tir::Op::FpExt ? 4 : 8, x64::ax(R), x64::ax(S));
      Res.setModified();
      return true;
    }
    case tir::Op::FpToSi: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      E.cvtfp2si(SrcW == 4 ? 4 : 8, DstW == 8 ? 8 : 4, x64::ax(R),
                 x64::ax(S));
      Res.setModified();
      return true;
    }
    case tir::Op::SiToFp: {
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      u8 FpSz = V.Ty == tir::Type::F32 ? 4 : 8;
      if (SrcW < 4) {
        Scratch T(this);
        core::Reg TR = T.alloc(0);
        E.movsxRR(static_cast<u8>(SrcW), x64::ax(TR), x64::ax(S));
        E.cvtsi2fp(8, FpSz, x64::ax(R), x64::ax(TR));
      } else {
        E.cvtsi2fp(static_cast<u8>(SrcW), FpSz, x64::ax(R), x64::ax(S));
      }
      Res.setModified();
      return true;
    }
    case tir::Op::Bitcast: {
      bool SrcFp = tir::isFloatType(SrcTy), DstFp = tir::isFloatType(V.Ty);
      if (SrcFp == DstFp) {
        VPR Res = this->resultRefReuse(I, 0, this->valRef(SV, 0));
        Res.setModified();
        return true;
      }
      VPR Src = this->valRef(SV, 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      if (DstFp)
        E.movdToFp(static_cast<u8>(DstW), x64::ax(R), x64::ax(S));
      else
        E.movdFromFp(static_cast<u8>(DstW), x64::ax(R), x64::ax(S));
      Res.setModified();
      return true;
    }
    default:
      return false;
    }
  }

  // --- Select ------------------------------------------------------------------

  bool compileSelect(tir::ValRef I, const tir::Value &V) {
    tir::ValRef CV = fn().operand(V, 0), TV = fn().operand(V, 1),
                FV = fn().operand(V, 2);
    {
      VPR Cond = this->valRef(CV, 0);
      E.testRI(1, x64::ax(Cond.asReg()), 1);
    }
    // Everything below must only emit flag-preserving moves plus the
    // cmov/branch itself.
    if (tir::isFloatType(V.Ty)) {
      u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
      (void)Sz;
      VPR FRef = this->valRef(FV, 0);
      core::Reg FR = FRef.asReg();
      VPR Res = this->resultRefReuse(I, 0, this->valRef(TV, 0));
      asmx::Label Keep = this->Asm.makeLabel();
      E.jccLabel(x64::Cond::NE, Keep);
      E.fpMovRR(8, x64::ax(Res.curReg()), x64::ax(FR));
      this->Asm.bindLabel(Keep);
      Res.setModified();
      return true;
    }
    if (V.Ty == tir::Type::I128) {
      VPR T0 = this->valRef(TV, 0), T1 = this->valRef(TV, 1);
      core::Reg RT0 = T0.asReg(), RT1 = T1.asReg();
      VPR Res0 = this->resultRefReuse(I, 0, this->valRef(FV, 0));
      VPR Res1 = this->resultRefReuse(I, 1, this->valRef(FV, 1));
      E.cmovcc(x64::Cond::NE, 8, x64::ax(Res0.curReg()), x64::ax(RT0));
      E.cmovcc(x64::Cond::NE, 8, x64::ax(Res1.curReg()), x64::ax(RT1));
      Res0.setModified();
      Res1.setModified();
      return true;
    }
    u32 W = tir::typeSize(V.Ty);
    VPR TRef = this->valRef(TV, 0);
    core::Reg TR = TRef.asReg();
    VPR Res = this->resultRefReuse(I, 0, this->valRef(FV, 0));
    E.cmovcc(x64::Cond::NE, opSz(W), x64::ax(Res.curReg()), x64::ax(TR));
    Res.setModified();
    return true;
  }

  // --- Memory ---------------------------------------------------------------------

  /// Builds the memory operand for a pointer value, folding fused PtrAdd
  /// instructions and stack variables. The returned refs keep source
  /// registers locked until the access is emitted.
  struct Addr {
    x64::Mem M;
    VPR BaseRef, IndexRef;
  };

  Addr computeAddr(tir::ValRef Ptr) {
    Addr Out;
    const tir::Value &PV = this->A.val(Ptr);
    if (Fused[Ptr]) {
      // Fused PtrAdd: fold base + index*scale + disp (§4.2).
      tir::ValRef BaseV = fn().operand(PV, 0);
      i32 Disp = static_cast<i32>(static_cast<i64>(PV.Aux2));
      x64::AsmReg Base;
      const tir::Value &BV = this->A.val(BaseV);
      if (BV.Kind == tir::ValKind::StackVar) {
        Base = x64::RBP;
        Disp += this->stackVarOff(this->A.stackVarIdx(BaseV));
      } else {
        Out.BaseRef = this->valRef(BaseV, 0);
        Base = x64::ax(Out.BaseRef.asReg());
      }
      if (PV.NumOps > 1) {
        Out.IndexRef = this->valRef(fn().operand(PV, 1), 0);
        Out.M = x64::Mem(Base, x64::ax(Out.IndexRef.asReg()),
                         static_cast<u8>(PV.Aux), Disp);
      } else {
        Out.M = x64::Mem(Base, Disp);
      }
      return Out;
    }
    if (PV.Kind == tir::ValKind::StackVar) {
      Out.M = x64::Mem(x64::RBP, this->stackVarOff(this->A.stackVarIdx(Ptr)));
      return Out;
    }
    Out.BaseRef = this->valRef(Ptr, 0);
    Out.M = x64::Mem(x64::ax(Out.BaseRef.asReg()), 0);
    return Out;
  }

  bool compilePtrAdd(tir::ValRef I, const tir::Value &V) {
    tir::ValRef BaseV = fn().operand(V, 0);
    i64 Disp = static_cast<i64>(V.Aux2);
    if (V.NumOps == 1) {
      if (isInt32(Disp)) {
        VPR Res = this->resultRefReuse(I, 0, this->valRef(BaseV, 0));
        if (Disp)
          E.aluRI(x64::AluOp::Add, 8, x64::ax(Res.curReg()), Disp);
        Res.setModified();
        return true;
      }
      VPR Res = this->resultRefReuse(I, 0, this->valRef(BaseV, 0));
      Scratch T(this);
      core::Reg TR = T.alloc(0);
      E.movRI(x64::ax(TR), static_cast<u64>(Disp));
      E.aluRR(x64::AluOp::Add, 8, x64::ax(Res.curReg()), x64::ax(TR));
      Res.setModified();
      return true;
    }
    tir::ValRef IdxV = fn().operand(V, 1);
    u64 Scale = V.Aux;
    bool SibScale = Scale == 1 || Scale == 2 || Scale == 4 || Scale == 8;
    if (SibScale && isInt32(Disp)) {
      VPR Base = this->valRef(BaseV, 0);
      VPR Idx = this->valRef(IdxV, 0);
      core::Reg B = Base.asReg(), X = Idx.asReg();
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      E.lea(x64::ax(R), x64::Mem(x64::ax(B), x64::ax(X),
                                 static_cast<u8>(Scale),
                                 static_cast<i32>(Disp)));
      Res.setModified();
      return true;
    }
    // General form: res = base + idx*scale + disp.
    VPR Idx = this->valRef(IdxV, 0);
    core::Reg X = Idx.asReg();
    Scratch T(this);
    core::Reg TR = T.alloc(0);
    if (isInt32(static_cast<i64>(Scale))) {
      E.imulRRI(8, x64::ax(TR), x64::ax(X), static_cast<i32>(Scale));
    } else {
      E.movRI(x64::ax(TR), Scale);
      E.imulRR(8, x64::ax(TR), x64::ax(X));
    }
    VPR Res = this->resultRefReuse(I, 0, this->valRef(BaseV, 0));
    E.aluRR(x64::AluOp::Add, 8, x64::ax(Res.curReg()), x64::ax(TR));
    if (Disp) {
      if (isInt32(Disp)) {
        E.aluRI(x64::AluOp::Add, 8, x64::ax(Res.curReg()), Disp);
      } else {
        E.movRI(x64::ax(TR), static_cast<u64>(Disp));
        E.aluRR(x64::AluOp::Add, 8, x64::ax(Res.curReg()), x64::ax(TR));
      }
    }
    Res.setModified();
    return true;
  }

  bool compileLoad(tir::ValRef I, const tir::Value &V) {
    Addr A = computeAddr(fn().operand(V, 0));
    if (tir::isFloatType(V.Ty)) {
      u8 Sz = V.Ty == tir::Type::F32 ? 4 : 8;
      VPR Res = this->resultRef(I, 0);
      E.fpLoad(Sz, x64::ax(Res.allocReg()), A.M);
      Res.setModified();
      return true;
    }
    if (V.Ty == tir::Type::I128) {
      VPR Res0 = this->resultRef(I, 0);
      E.load(8, x64::ax(Res0.allocReg()), A.M);
      Res0.setModified();
      x64::Mem Hi = A.M;
      Hi.Disp += 8;
      VPR Res1 = this->resultRef(I, 1);
      E.load(8, x64::ax(Res1.allocReg()), Hi);
      Res1.setModified();
      return true;
    }
    u32 W = tir::typeSize(V.Ty);
    VPR Res = this->resultRef(I, 0);
    E.loadZext(static_cast<u8>(W), x64::ax(Res.allocReg()), A.M);
    Res.setModified();
    return true;
  }

  bool compileStore(tir::ValRef I, const tir::Value &V) {
    tir::ValRef SV = fn().operand(V, 0);
    tir::Type Ty = this->A.val(SV).Ty;
    Addr A = computeAddr(fn().operand(V, 1));
    if (tir::isFloatType(Ty)) {
      u8 Sz = Ty == tir::Type::F32 ? 4 : 8;
      VPR Src = this->valRef(SV, 0);
      E.fpStore(Sz, A.M, x64::ax(Src.asReg()));
      return true;
    }
    if (Ty == tir::Type::I128) {
      VPR S0 = this->valRef(SV, 0);
      E.store(8, A.M, x64::ax(S0.asReg()));
      S0.reset();
      x64::Mem Hi = A.M;
      Hi.Disp += 8;
      VPR S1 = this->valRef(SV, 1);
      E.store(8, Hi, x64::ax(S1.asReg()));
      return true;
    }
    u32 W = tir::typeSize(Ty);
    const tir::Value &SVal = this->A.val(SV);
    if (SVal.Kind == tir::ValKind::ConstInt &&
        (W < 8 || isInt32(static_cast<i64>(SVal.Aux)))) {
      VPR Consume = this->valRef(SV, 0);
      E.storeImm(static_cast<u8>(W), A.M, static_cast<i32>(SVal.Aux));
      return true;
    }
    VPR Src = this->valRef(SV, 0);
    E.store(static_cast<u8>(W), A.M, x64::ax(Src.asReg()));
    return true;
  }
};

} // namespace tpde::tpde_tir

#include "tir/Verifier.h"

namespace tpde::tpde_tir {
/// Convenience entry point: compiles \p M into \p Asm with TPDE. With
/// \p Verify the module is validated first (tir::verifyModule) so
/// malformed IR never reaches the emitter; \p StatusOut (optional)
/// receives the structured diagnostic on failure.
inline bool compileModuleX64(tir::Module &M, asmx::Assembler &Asm,
                             bool Verify = false,
                             support::CompileStatus *StatusOut = nullptr) {
  return core::compileModuleOneShot<TirCompilerX64>(M, Asm, Verify, StatusOut);
}
} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_TIRCOMPILERX64_H
