//===- tpde_tir/TirLowering.h - Target-independent TIR lowering -*- C++ -*-===//
///
/// \file
/// The IR-side half of the TIR back-ends, shared by every target: a CRTP
/// mixin between the target mixin (x64/CompilerX64.h, a64/CompilerA64.h)
/// and the leaf instruction compiler,
///
///   CompilerBase<TirAdapter, Derived, Config>  (core; calls, registers)
///      ^-- TargetBase                          (x64/a64 target mixin)
///             ^-- TirLowering<Derived, TargetBase>     (this file)
///                    ^-- Derived (TirCompilerX64, TirCompilerA64)
///
/// It owns what does not depend on the ISA:
///  * the framework hooks for module-level state: globals
///    (defineGlobals/declareGlobals/globalSym), the FP constant pool, the
///    static stack variables, and the per-function fusion marks;
///  * the opcode dispatch, with calls, returns and branches lowered
///    inline through the framework;
///  * the two fusion decisions the paper calls out (§3.4.4/§5.1.2): an
///    integer compare whose single user is the next instruction's
///    conditional branch, and a PtrAdd whose single user is the next
///    load/store;
///  * the conditional-branch skeleton and the compare-to-boolean path.
///
/// The target is a type parameter, not a template template parameter:
/// CompilerX64/CompilerA64 are constrained templates, which a template
/// template parameter does not portably match. Derived provides the
/// per-opcode emitters the dispatch names (compileIntAlu, compileMul,
/// compileDivRem, compileShift, compileFCmp, compileFpAlu,
/// compileIntUnary, compileFNeg, compileCast, compileSelect, compileLoad,
/// compileStore, compilePtrAdd), emitICmpFlags(cmp) -> Cond,
/// materializeConstLike(), and five leaf hooks:
///
///   emitSetCond(cond, dst)         dst = cond ? 1 : 0
///   emitTestBit0(reg) -> Cond      test bit 0; the returned condition
///                                  holds if it is set
///   emitCondJump(cond, label)      conditional jump
///   emitTrap()                     the Unreachable instruction
///   addrModeFits(ptrAdd, memInst)  can the PtrAdd fold into the access's
///                                  addressing mode?
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_TIRLOWERING_H
#define TPDE_TPDE_TIR_TIRLOWERING_H

#include "core/CompilerBase.h"
#include "support/DenseMap.h"
#include "tpde_tir/TirAdapter.h"
#include "tpde_tir/TirGlobals.h"

#include <span>
#include <vector>

namespace tpde::tpde_tir {

template <typename Derived, typename TargetBase>
class TirLowering : public TargetBase {
public:
  using VPR = typename TargetBase::ValuePartRef;
  using Scratch = typename TargetBase::ScratchReg;

  TirLowering(TirAdapter &A, asmx::Assembler &Asm) : TargetBase(A, Asm) {}

  // =====================================================================
  // Framework hooks
  // =====================================================================

  void defineGlobals() {
    // Constant-pool symbols refer into the assembler's symbol table,
    // which restarts per compile (capacity retained).
    FpPool.clear();
    sizeFusionMarks(this->A.maxValueCount());
    defineTirGlobals(this->Asm, this->A.module(), GlobalSyms,
                     this->moduleSymEpoch());
  }

  /// Range-compile variant of defineGlobals() (shard compiles): defines
  /// nothing — globalSym() materializes a global's symbol at its first
  /// reference, so a shard only pays for globals it touches.
  void declareGlobals() {
    FpPool.clear();
    sizeFusionMarks(this->A.maxValueCount());
    GlobalSyms.prepare(this->A.module());
  }

  /// On-demand global symbol (see TirGlobals.h).
  asmx::SymRef globalSym(u32 GI) {
    return GlobalSyms.sym(this->Asm, this->A.module(), GI,
                          this->moduleSymEpoch());
  }

  template <typename Fn> void forEachStackVar(Fn Cb) {
    const tir::Function &F = this->A.func();
    for (tir::ValRef SV : F.StackVars) {
      const tir::Value &V = F.val(SV);
      Cb(V.Aux, static_cast<u32>(V.Aux2));
    }
  }

  void beginFunc(asmx::SymRef Sym) {
    TargetBase::beginFunc(Sym);
    // Only the previous function's marks are cleared, not the table. The
    // guard covers an adapter whose capacity hint predates its module (a
    // service worker's module slot is refilled per job).
    for (tir::ValRef V : FusedMarks)
      Fused[V] = 0;
    FusedMarks.clear();
    sizeFusionMarks(this->A.valueCount());
  }

  // =====================================================================
  // Instruction dispatch
  // =====================================================================

  bool compileInst(tir::ValRef I) {
    if (Fused[I])
      return true;
    const tir::Value &V = this->A.val(I);
    Derived &D = *this->derived();
    switch (V.Opcode) {
    case tir::Op::Add:
    case tir::Op::Sub:
    case tir::Op::And:
    case tir::Op::Or:
    case tir::Op::Xor:
      return D.compileIntAlu(I, V);
    case tir::Op::Mul:
      return D.compileMul(I, V);
    case tir::Op::UDiv:
    case tir::Op::SDiv:
    case tir::Op::URem:
    case tir::Op::SRem:
      return D.compileDivRem(I, V);
    case tir::Op::Shl:
    case tir::Op::LShr:
    case tir::Op::AShr:
      return D.compileShift(I, V);
    case tir::Op::ICmpOp:
      return compileICmp(I, V);
    case tir::Op::FCmpOp:
      return D.compileFCmp(I, V);
    case tir::Op::FAdd:
    case tir::Op::FSub:
    case tir::Op::FMul:
    case tir::Op::FDiv:
      return D.compileFpAlu(I, V);
    case tir::Op::Neg:
    case tir::Op::Not:
      return D.compileIntUnary(I, V);
    case tir::Op::FNeg:
      return D.compileFNeg(I, V);
    case tir::Op::Zext:
    case tir::Op::Sext:
    case tir::Op::Trunc:
    case tir::Op::FpToSi:
    case tir::Op::SiToFp:
    case tir::Op::FpExt:
    case tir::Op::FpTrunc:
    case tir::Op::Bitcast:
      return D.compileCast(I, V);
    case tir::Op::Select:
      return D.compileSelect(I, V);
    case tir::Op::Load:
      return D.compileLoad(I, V);
    case tir::Op::Store:
      return D.compileStore(I, V);
    case tir::Op::PtrAdd:
      return tryFusePtrAdd(I, V) || D.compilePtrAdd(I, V);
    case tir::Op::Call: {
      const tir::Function &F = fn();
      std::span<const tir::ValRef> Args{F.OperandPool.data() + V.OpBegin,
                                        V.NumOps};
      asmx::SymRef Callee = this->funcSym(static_cast<u32>(V.Aux));
      this->genCall(Callee, Args, V.Ty != tir::Type::Void ? &I : nullptr);
      return true;
    }
    case tir::Op::Ret: {
      if (V.NumOps) {
        tir::ValRef RV = fn().operand(V, 0);
        this->emitReturn(&RV);
      } else {
        this->emitReturn(nullptr);
      }
      return true;
    }
    case tir::Op::Br:
      this->generateBranch(fn().Blocks[V.Block].Succs[0]);
      return true;
    case tir::Op::CondBr:
      return compileCondBr(V);
    case tir::Op::Unreachable:
      D.emitTrap();
      return true;
    default:
      return false; // unsupported
    }
  }

protected:
  const tir::Function &fn() const { return this->A.func(); }

  /// Predicate with swapped operands (a < b == b > a).
  static tir::ICmp swapICmp(tir::ICmp P) {
    using tir::ICmp;
    switch (P) {
    case ICmp::Eq:
    case ICmp::Ne:
      return P;
    case ICmp::Ult:
      return ICmp::Ugt;
    case ICmp::Ule:
      return ICmp::Uge;
    case ICmp::Ugt:
      return ICmp::Ult;
    case ICmp::Uge:
      return ICmp::Ule;
    case ICmp::Slt:
      return ICmp::Sgt;
    case ICmp::Sle:
      return ICmp::Sge;
    case ICmp::Sgt:
      return ICmp::Slt;
    case ICmp::Sge:
      return ICmp::Sle;
    }
    TPDE_UNREACHABLE("bad icmp predicate");
  }

  bool compileICmp(tir::ValRef I, const tir::Value &V) {
    // Compare-branch fusion (§5.1.2): if the single user is the condbr
    // immediately following, defer to the branch.
    const tir::ValRef *Nxt = this->nextInst();
    if (!DisableFusion && Nxt && this->analyzer().liveness(I).RefCount == 1) {
      const tir::Value &NV = this->A.val(*Nxt);
      if (NV.Opcode == tir::Op::CondBr && fn().operand(NV, 0) == I) {
        markFused(I);
        return true;
      }
    }
    auto CC = this->derived()->emitICmpFlags(V);
    VPR Res = this->resultRef(I, 0);
    core::Reg R = Res.allocReg();
    this->derived()->emitSetCond(CC, R);
    Res.setModified();
    return true;
  }

  /// Address fusion (§4.2): marks a PtrAdd as fused if its single use is
  /// the immediately following load/store in the same block and the
  /// computation fits that access's addressing mode.
  bool tryFusePtrAdd(tir::ValRef I, const tir::Value &V) {
    if (DisableFusion || this->analyzer().liveness(I).RefCount != 1)
      return false;
    const tir::ValRef *Nxt = this->nextInst();
    if (!Nxt)
      return false;
    const tir::Value &NV = this->A.val(*Nxt);
    bool IsLoad = NV.Opcode == tir::Op::Load && fn().operand(NV, 0) == I;
    bool IsStore = NV.Opcode == tir::Op::Store && fn().operand(NV, 1) == I &&
                   fn().operand(NV, 0) != I;
    if ((!IsLoad && !IsStore) || !this->derived()->addrModeFits(V, NV))
      return false;
    markFused(I);
    return true;
  }

  bool compileCondBr(const tir::Value &V) {
    const tir::Block &B = fn().Blocks[V.Block];
    tir::ValRef CV = fn().operand(V, 0);
    // A fused compare sets the flags right here; otherwise the i1 value's
    // bit 0 is tested.
    auto CC = Fused[CV] ? this->derived()->emitICmpFlags(this->A.val(CV))
                        : testBool(CV);
    this->generateCondBranch(B.Succs[0], B.Succs[1],
                             [&](asmx::Label L, bool Inv) {
                               this->derived()->emitCondJump(
                                   Inv ? invert(CC) : CC, L);
                             });
    return true;
  }

  asmx::SymRef fpConstSym(u64 Bits, u8 Size) {
    return fpPoolConstSym(this->Asm, FpPool, Bits, Size);
  }

  TirGlobalSyms GlobalSyms;
  support::DenseMap<u64, asmx::SymRef> FpPool;
  /// Per-value fusion mark of the current function, and the values marked
  /// so far (cleared at the next function's start).
  std::vector<u8> Fused;
  std::vector<tir::ValRef> FusedMarks;

private:
  void markFused(tir::ValRef I) {
    Fused[I] = 1;
    FusedMarks.push_back(I);
  }
  /// Grows the mark table (all zero) to cover \p N values; never shrinks.
  void sizeFusionMarks(u32 N) {
    if (Fused.size() >= N)
      return;
    Fused.resize(N, 0);
    // A fused instruction's single user is the next instruction, which is
    // never fused itself: at most every other value is marked.
    FusedMarks.reserve(N / 2 + 1);
  }

  auto testBool(tir::ValRef CV) {
    VPR Cond = this->valRef(CV, 0);
    return this->derived()->emitTestBit0(Cond.asReg());
  }
};

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_TIRLOWERING_H
