//===- uir/TpdeUir.h - TPDE adapter + compilers for Umbra-IR ----*- C++ -*-===//
///
/// \file
/// The §7 core claim: TPDE adapts directly to the database IR, skipping
/// any IR translation. The adapter is a thin wrapper over UIR's dense
/// arrays (like Umbra, which "already has unique per-function IDs for
/// instructions and blocks", §7.1.1); the instruction compilers cover the
/// small query-oriented op set including the checked-arithmetic traps.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_UIR_TPDEUIR_H
#define TPDE_UIR_TPDEUIR_H

#include "support/DenseMap.h"
#include "tir/TIR.h"
#include "tpde_tir/TirGlobals.h"
#include "uir/UIR.h"
#include "uir/Verifier.h"
#include "x64/CompilerX64.h"

#include <array>
#include <span>
#include <vector>

namespace tpde::uir {

class UirAdapter {
public:
  using ModuleT = UModule;
  using FuncRef = u32;
  using BlockRef = u32;
  using ValRef = u32;

  explicit UirAdapter(UModule &M) : M(M) {
    for (const UFunc &F : M.Funcs) {
      if (F.Vals.size() > MaxValues)
        MaxValues = static_cast<u32>(F.Vals.size());
      if (F.Blocks.size() > MaxBlocks)
        MaxBlocks = static_cast<u32>(F.Blocks.size());
    }
  }

  /// Capacity hints (largest function of the module): the framework uses
  /// these to size per-function scratch once instead of growing it
  /// piecemeal while ratcheting through the functions (docs/PERF.md).
  u32 maxValueCount() const { return MaxValues; }
  u32 maxBlockCount() const { return MaxBlocks; }

  u32 funcCount() const { return static_cast<u32>(M.Funcs.size()); }
  u32 funcValueCount(FuncRef F) const {
    return static_cast<u32>(M.Funcs[F].Vals.size());
  }
  FuncRef funcRef(u32 I) const { return I; }
  std::string_view funcName(FuncRef F) const { return M.Funcs[F].Name; }
  asmx::Linkage funcLinkage(FuncRef) const { return asmx::Linkage::External; }
  bool funcIsDefinition(FuncRef) const { return true; }

  void switchFunc(FuncRef FR) {
    F = &M.Funcs[FR];
    // Dense per-value metadata byte (ported from TirAdapter::Meta): the
    // value machinery queries bank and const-likeness for random values
    // on every use; one sequential pass here turns those into
    // single-byte reads instead of strided UInst fetches (docs/PERF.md).
    const u32 N = static_cast<u32>(F->Vals.size());
    Meta.reserve(MaxValues);
    Meta.resize(N);
    for (u32 I = 0; I < N; ++I) {
      const UInst &V = F->Vals[I];
      u8 B = 0;
      if (V.Ty == UTy::F64)
        B |= MetaFpBank;
      if (I >= 2 && (V.Op == UOp::ConstI || V.Op == UOp::ConstF))
        B |= MetaConstLike;
      if (I >= 2 && V.Op == UOp::ConstI)
        B |= MetaConstInt;
      Meta[I] = B;
    }
  }
  void finalizeFunc() {}

  u32 valueCount() const { return static_cast<u32>(F->Vals.size()); }
  u32 blockCount() const { return static_cast<u32>(F->Blocks.size()); }
  BlockRef blockRef(u32 I) const { return I; }
  u64 &blockAux(BlockRef B) { return F->Blocks[B].Aux; }
  std::span<const BlockRef> blockSuccs(BlockRef B) const {
    return F->Blocks[B].Succs;
  }
  std::span<const ValRef> blockPhis(BlockRef B) const {
    return F->Blocks[B].Phis;
  }
  std::span<const ValRef> blockInsts(BlockRef B) const {
    return F->Blocks[B].Insts;
  }
  std::span<const ValRef> funcArgs() const { return Args; }

  u32 valNumber(ValRef V) const { return V; }
  u32 valPartCount(ValRef) const { return 1; }
  u32 valPartSize(ValRef, u32) const { return 8; }
  u8 valPartBank(ValRef V, u32) const {
    return Meta[V] & MetaFpBank ? 1 : 0;
  }
  bool isConstLike(ValRef V) const { return Meta[V] & MetaConstLike; }
  /// Fast integer-constant test for immediate folding (no UInst fetch).
  bool isConstInt(ValRef V) const { return Meta[V] & MetaConstInt; }

  std::span<const ValRef> instOperands(ValRef V) const {
    // UInst::Ops is a true array (static_assert in UIR.h), so this span
    // is well-defined — it used to stride from a scalar field A into its
    // neighbor B, which only worked by layout accident (UB).
    const UInst &I = F->Vals[V];
    u32 N = I.Ops[0] == ~0u ? 0 : (I.Ops[1] == ~0u ? 1 : 2);
    return {I.Ops, N};
  }
  u32 phiIncomingCount(ValRef V) const {
    const UInst &I = F->Vals[V];
    return I.InVal[0] == ~0u ? 0 : (I.InVal[1] == ~0u ? 1 : 2);
  }
  BlockRef phiIncomingBlock(ValRef V, u32 I) const {
    return F->Vals[V].InBlock[I];
  }
  ValRef phiIncomingValue(ValRef V, u32 I) const {
    return F->Vals[V].InVal[I];
  }

  const UInst &val(ValRef V) const { return F->Vals[V]; }
  const UFunc &func() const { return *F; }

private:
  // Metadata byte layout: bit 0 FP bank, bit 1 const-like, bit 2 ConstI.
  static constexpr u8 MetaFpBank = 0x01;
  static constexpr u8 MetaConstLike = 0x02;
  static constexpr u8 MetaConstInt = 0x04;

  UModule &M;
  UFunc *F = nullptr;
  std::vector<u8> Meta;
  std::array<u32, 2> Args = {0, 1};
  u32 MaxValues = 0;
  u32 MaxBlocks = 0;
};

static_assert(core::IRAdapter<UirAdapter>);

class UirCompilerX64 : public x64::CompilerX64<UirAdapter, UirCompilerX64> {
public:
  using Base = x64::CompilerX64<UirAdapter, UirCompilerX64>;
  using VPR = Base::ValuePartRef;

  UirCompilerX64(UirAdapter &A, asmx::Assembler &Asm) : Base(A, Asm) {}

  /// UIR modules carry no globals (compileGlobals() emits an empty
  /// fragment); only the per-module FP constant pool has to restart with
  /// each compile.
  void defineGlobals() { FpPool.clear(); }
  /// Range-compile twin of defineGlobals() (shard compiles): nothing to
  /// define — the FP pool fills on demand per shard and
  /// Assembler::mergeFrom() content-deduplicates it across shards.
  void declareGlobals() { FpPool.clear(); }
  template <typename Fn> void forEachStackVar(Fn) {}

  void materializeConstLike(u32 V, u8, core::Reg Dst) {
    const UInst &Val = this->A.val(V);
    if (Val.Op == UOp::ConstF) {
      // FP-bank destination: load the f64 bits through the rodata FP
      // constant pool (same pool layout as the TIR targets, so the
      // cross-shard merge dedup applies). The old integer movRI here
      // emitted garbage for XMM register ids.
      E.fpLoadSym(8, x64::ax(Dst), fpConstSym(Val.Aux));
      return;
    }
    E.movRI(x64::ax(Dst), Val.Aux);
  }

  bool compileInst(u32 I) {
    const UInst &V = this->A.val(I);
    switch (V.Op) {
    case UOp::ColAddr: {
      VPR Base = this->valRef(V.Ops[0], 0);
      core::Reg B = Base.asReg();
      VPR Res = this->resultRef(I, 0);
      E.load(8, x64::ax(Res.allocReg()),
             x64::Mem(x64::ax(B), static_cast<i32>(8 * V.Aux)));
      Res.setModified();
      return true;
    }
    case UOp::PtrIdx: {
      VPR Base = this->valRef(V.Ops[0], 0);
      VPR Idx = this->valRef(V.Ops[1], 0);
      core::Reg B = Base.asReg(), X = Idx.asReg();
      VPR Res = this->resultRef(I, 0);
      E.lea(x64::ax(Res.allocReg()),
            x64::Mem(x64::ax(B), x64::ax(X), static_cast<u8>(V.Aux), 0));
      Res.setModified();
      return true;
    }
    case UOp::Load: {
      VPR Ptr = this->valRef(V.Ops[0], 0);
      core::Reg P = Ptr.asReg();
      VPR Res = this->resultRef(I, 0);
      E.load(8, x64::ax(Res.allocReg()), x64::Mem(x64::ax(P), 0));
      Res.setModified();
      return true;
    }
    case UOp::Add:
    case UOp::Sub:
    case UOp::Mul:
    case UOp::And:
    case UOp::SAddTrap: {
      const UInst &RV = this->A.val(V.Ops[1]);
      // isConstInt, not isConstLike: a ConstF operand must never be
      // folded as an integer immediate.
      bool RhsImm = this->A.isConstInt(V.Ops[1]) &&
                    isInt32(static_cast<i64>(RV.Aux));
      VPR Rhs = this->valRef(V.Ops[1], 0);
      VPR Res = this->resultRefReuse(I, 0, this->valRef(V.Ops[0], 0));
      if (V.Op == UOp::Mul) {
        E.imulRR(8, x64::ax(Res.curReg()), x64::ax(Rhs.asReg()));
      } else {
        x64::AluOp O = V.Op == UOp::Sub   ? x64::AluOp::Sub
                       : V.Op == UOp::And ? x64::AluOp::And
                                          : x64::AluOp::Add;
        if (RhsImm)
          E.aluRI(O, 8, x64::ax(Res.curReg()), static_cast<i64>(RV.Aux));
        else
          E.aluRR(O, 8, x64::ax(Res.curReg()), x64::ax(Rhs.asReg()));
      }
      if (V.Op == UOp::SAddTrap) {
        // Umbra semantics: overflow calls the runtime trap.
        asmx::Label Ok = this->Asm.makeLabel();
        E.jccLabel(x64::Cond::NO, Ok);
        E.ud2();
        this->Asm.bindLabel(Ok);
      }
      Res.setModified();
      return true;
    }
    case UOp::CmpLt:
    case UOp::CmpLe:
    case UOp::CmpEq:
    case UOp::CmpNe: {
      VPR Lhs = this->valRef(V.Ops[0], 0);
      VPR Rhs = this->valRef(V.Ops[1], 0);
      core::Reg L = Lhs.asReg();
      E.aluRR(x64::AluOp::Cmp, 8, x64::ax(L), x64::ax(Rhs.asReg()));
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      E.setcc(V.Op == UOp::CmpLt   ? x64::Cond::L
              : V.Op == UOp::CmpLe ? x64::Cond::LE
              : V.Op == UOp::CmpEq ? x64::Cond::E
                                   : x64::Cond::NE,
              x64::ax(R));
      E.movzxRR(1, x64::ax(R), x64::ax(R));
      Res.setModified();
      return true;
    }
    case UOp::I2F: {
      VPR Src = this->valRef(V.Ops[0], 0);
      core::Reg S = Src.asReg();
      VPR Res = this->resultRef(I, 0);
      E.cvtsi2fp(8, 8, x64::ax(Res.allocReg()), x64::ax(S));
      Res.setModified();
      return true;
    }
    case UOp::FAdd:
    case UOp::FMul: {
      VPR Rhs = this->valRef(V.Ops[1], 0);
      VPR Res = this->resultRefReuse(I, 0, this->valRef(V.Ops[0], 0));
      E.fpArith(V.Op == UOp::FAdd ? x64::FpOp::Add : x64::FpOp::Mul, 8,
                x64::ax(Res.curReg()), x64::ax(Rhs.asReg()));
      Res.setModified();
      return true;
    }
    case UOp::FCmpLt: {
      // a < b compiled as swapped b > a so NaN yields false via CF (same
      // trick as TirCompilerX64::compileFCmp for olt).
      VPR Lhs = this->valRef(V.Ops[1], 0);
      VPR Rhs = this->valRef(V.Ops[0], 0);
      core::Reg L = Lhs.asReg();
      E.ucomis(8, x64::ax(L), x64::ax(Rhs.asReg()));
      VPR Res = this->resultRef(I, 0);
      core::Reg R = Res.allocReg();
      E.setcc(x64::Cond::A, x64::ax(R));
      E.movzxRR(1, x64::ax(R), x64::ax(R));
      Res.setModified();
      return true;
    }
    case UOp::Br:
      this->generateBranch(this->A.func().Blocks[V.Block].Succs[0]);
      return true;
    case UOp::CondBr: {
      {
        VPR C = this->valRef(V.Ops[0], 0);
        core::Reg R = C.asReg();
        E.testRR(8, x64::ax(R), x64::ax(R));
      }
      const UBlock &B = this->A.func().Blocks[V.Block];
      this->generateCondBranch(B.Succs[0], B.Succs[1],
                               [&](asmx::Label L, bool Inv) {
                                 E.jccLabel(Inv ? x64::Cond::E
                                                : x64::Cond::NE,
                                            L);
                               });
      return true;
    }
    case UOp::Ret: {
      u32 RV = V.Ops[0];
      this->emitReturn(&RV);
      return true;
    }
    default:
      return false;
    }
  }

private:
  // --- Constant pool (shared layout with the TIR targets) ---------------

  asmx::SymRef fpConstSym(u64 Bits) {
    return tpde_tir::fpPoolConstSym(this->Asm, FpPool, Bits, /*Size=*/8);
  }

  support::DenseMap<u64, asmx::SymRef> FpPool;
};

/// Compiles UIR directly with TPDE (no IR translation). With \p Verify
/// the module is validated first (uir::verifyModule) so malformed query
/// IR never reaches the emitter; \p StatusOut (optional) receives the
/// structured diagnostic on failure.
inline bool compileTpdeUir(UModule &M, asmx::Assembler &Asm,
                           bool Verify = false,
                           support::CompileStatus *StatusOut = nullptr) {
  return core::compileModuleOneShot<UirCompilerX64>(M, Asm, Verify, StatusOut);
}

bool translateToTir(const UModule &M, tir::Module &Out);
bool compileDirectEmit(const UModule &M, asmx::Assembler &Asm);

} // namespace tpde::uir

#endif // TPDE_UIR_TPDEUIR_H
