//===- tpde_tir/TirAdapter.h - TPDE IR adapter for TIR ----------*- C++ -*-===//
///
/// \file
/// Implements the TPDE IR adapter interface (paper Fig. 2) for TIR. TIR
/// values are already densely numbered per function, blocks provide the
/// required 64-bit auxiliary storage, and all accessors are O(1) array
/// reads — the adapter is a thin veneer, demonstrating how cheap adapting
/// an array-based IR is (cf. §7.1.1 for Umbra IR).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_TIRADAPTER_H
#define TPDE_TPDE_TIR_TIRADAPTER_H

#include "core/Adapter.h"
#include "tir/TIR.h"

#include <array>
#include <span>

namespace tpde::tpde_tir {

class TirAdapter {
public:
  using ModuleT = tir::Module;
  using FuncRef = u32;
  using BlockRef = tir::BlockRef;
  using ValRef = tir::ValRef;

  explicit TirAdapter(tir::Module &M) : M(M) {
    for (const tir::Function &F : M.Funcs) {
      if (F.Values.size() > MaxValues)
        MaxValues = static_cast<u32>(F.Values.size());
      if (F.Blocks.size() > MaxBlocks)
        MaxBlocks = static_cast<u32>(F.Blocks.size());
    }
    StackVarIdx.resize(MaxValues);
    Meta.resize(MaxValues);
  }

  /// Capacity hints (largest function of the module): the framework uses
  /// these to size per-function scratch once instead of growing it
  /// piecemeal while ratcheting through the functions (docs/PERF.md).
  u32 maxValueCount() const { return MaxValues; }
  u32 maxBlockCount() const { return MaxBlocks; }

  tir::Module &module() { return M; }
  const tir::Function &func() const { return *F; }
  tir::Function &funcMutable() { return *F; }

  // --- Module-level ---------------------------------------------------
  u32 funcCount() const { return static_cast<u32>(M.Funcs.size()); }
  u32 funcValueCount(FuncRef F) const { return M.Funcs[F].valueCount(); }
  FuncRef funcRef(u32 I) const { return I; }
  std::string_view funcName(FuncRef F) const { return M.Funcs[F].Name; }
  asmx::Linkage funcLinkage(FuncRef F) const {
    switch (M.Funcs[F].Link) {
    case tir::Linkage::External:
      return asmx::Linkage::External;
    case tir::Linkage::Internal:
      return asmx::Linkage::Internal;
    case tir::Linkage::Weak:
      return asmx::Linkage::Weak;
    }
    TPDE_UNREACHABLE("bad linkage");
  }
  bool funcIsDefinition(FuncRef F) const { return !M.Funcs[F].IsDeclaration; }

  // --- Function switching ------------------------------------------------
  void switchFunc(FuncRef FR) {
    F = &M.Funcs[FR];
    const u32 N = static_cast<u32>(F->Values.size());
    // Both tables are sized for the module's largest function up front;
    // this grows them only for a module refilled after construction (a
    // service worker's module slot).
    if (Meta.size() < N) {
      Meta.resize(N);
      StackVarIdx.resize(N);
    }
    // Stack-variable index of a value; only stack-variable slots are
    // ever read, so only they are written.
    for (u32 I = 0; I < F->StackVars.size(); ++I)
      StackVarIdx[F->StackVars[I]] = I;
    // Dense per-value metadata byte: the analysis and value machinery
    // query part count/size/bank and const-likeness for random values on
    // every use; one sequential pass of two table lookups here turns
    // those into single-byte reads instead of strided Value fetches
    // (docs/PERF.md).
    const tir::Value *Vals = F->Values.data();
    u8 *Out = Meta.data();
    for (u32 I = 0; I < N; ++I)
      Out[I] = TypeMeta[static_cast<u8>(Vals[I].Ty)] |
               KindMeta[static_cast<u8>(Vals[I].Kind)];
  }
  void finalizeFunc() {}

  // --- Current function ----------------------------------------------------
  u32 valueCount() const { return F->valueCount(); }
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
  std::span<const ValRef> funcArgs() const { return F->Args; }

  // --- Values (all answered from the dense metadata byte) ---------------
  u32 valNumber(ValRef V) const { return V; }
  u32 valPartCount(ValRef V) const {
    return Meta[V] & MetaTwoParts ? 2 : 1;
  }
  u32 valPartSize(ValRef V, u32 P) const {
    return P ? 8 : (Meta[V] & MetaSizeMask);
  }
  u8 valPartBank(ValRef V, u32 P) const {
    return Meta[V] & MetaFpBank ? 1 : 0;
  }
  bool isConstLike(ValRef V) const { return Meta[V] & MetaConstLike; }
  /// Fast integer-constant test for immediate folding (no Value fetch).
  bool isConstInt(ValRef V) const { return Meta[V] & MetaConstInt; }

  // --- Instructions and phis ------------------------------------------------
  std::span<const ValRef> instOperands(ValRef V) const {
    const tir::Value &Val = F->val(V);
    return {F->OperandPool.data() + Val.OpBegin, Val.NumOps};
  }
  u32 phiIncomingCount(ValRef V) const { return F->val(V).NumOps; }
  BlockRef phiIncomingBlock(ValRef V, u32 I) const {
    return F->phiBlock(F->val(V), I);
  }
  ValRef phiIncomingValue(ValRef V, u32 I) const {
    return F->operand(F->val(V), I);
  }

  // --- Extras used by the TIR instruction compilers -----------------------
  const tir::Value &val(ValRef V) const { return F->val(V); }
  /// Index of stack variable \p V in the current function's StackVars.
  u32 stackVarIdx(ValRef V) const { return StackVarIdx[V]; }

private:
  // Metadata byte layout: bits 0-3 part-0 size in bytes, bit 4
  // const-like, bit 5 two parts (i128), bit 6 FP bank, bit 7 ConstInt.
  static constexpr u8 MetaSizeMask = 0x0F;
  static constexpr u8 MetaConstLike = 0x10;
  static constexpr u8 MetaTwoParts = 0x20;
  static constexpr u8 MetaFpBank = 0x40;
  static constexpr u8 MetaConstInt = 0x80;

  /// Metadata bits by type: part-0 size, two parts, FP bank.
  static constexpr auto TypeMeta = [] {
    std::array<u8, static_cast<u8>(tir::Type::Ptr) + 1> T{};
    for (u8 I = 0; I < T.size(); ++I) {
      auto Ty = static_cast<tir::Type>(I);
      T[I] = static_cast<u8>(tir::partSize(Ty, 0) & MetaSizeMask);
      if (Ty == tir::Type::I128)
        T[I] |= MetaTwoParts;
      if (tir::isFloatType(Ty))
        T[I] |= MetaFpBank;
    }
    return T;
  }();
  /// Metadata bits by value kind: const-like, integer constant.
  static constexpr auto KindMeta = [] {
    std::array<u8, static_cast<u8>(tir::ValKind::Inst) + 1> T{};
    T[static_cast<u8>(tir::ValKind::StackVar)] = MetaConstLike;
    T[static_cast<u8>(tir::ValKind::ConstInt)] = MetaConstLike | MetaConstInt;
    T[static_cast<u8>(tir::ValKind::ConstFP)] = MetaConstLike;
    T[static_cast<u8>(tir::ValKind::GlobalAddr)] = MetaConstLike;
    return T;
  }();

  tir::Module &M;
  tir::Function *F = nullptr;
  std::vector<u32> StackVarIdx;
  std::vector<u8> Meta;
  u32 MaxValues = 0;
  u32 MaxBlocks = 0;
};

static_assert(core::IRAdapter<TirAdapter>,
              "TirAdapter must satisfy the IR adapter concept");

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_TIRADAPTER_H
