//===- tpde_tir/Service.cpp - TIR compile-service binding -----------------===//

#include "tpde_tir/Service.h"

namespace tpde::tpde_tir {

static_assert(sizeof(tir::Type) == 1, "ParamTys are hashed as raw bytes");

support::Fp128 fingerprintModule(const tir::Module &M) {
  support::Hasher128 H;
  H.len(M.Funcs.size());
  for (const tir::Function &F : M.Funcs) {
    H.str(F.Name);
    H.u8v(static_cast<u8>(F.Link));
    H.u8v(F.IsDeclaration ? 1 : 0);
    H.u8v(static_cast<u8>(F.RetTy));
    H.len(F.ParamTys.size());
    H.bytes(F.ParamTys.data(), F.ParamTys.size());
    H.len(F.Values.size());
    for (const tir::Value &V : F.Values) {
      H.u64v(static_cast<u64>(V.Kind) | static_cast<u64>(V.Opcode) << 8 |
             static_cast<u64>(V.Ty) << 16);
      H.u64v(support::packWord(V.NumOps, V.Block));
      H.u64v(V.Aux);
      H.u64v(V.Aux2);
      if (V.NumOps == 0)
        continue;
      // Hash the operand *contents*, not OpBegin: two modules whose
      // operand pools are laid out differently but read identically must
      // fingerprint identically.
      H.u32run({F.OperandPool.data() + V.OpBegin, V.NumOps});
      if (V.Opcode == tir::Op::Phi)
        H.u32run({F.PhiBlockPool.data() + V.OpBegin, V.NumOps});
    }
    H.len(F.Blocks.size());
    for (const tir::Block &B : F.Blocks) {
      // Block::Aux is adapter scratch, Block::Name is debug-only — both
      // excluded (see header comment).
      H.u32s(B.Phis);
      H.u32s(B.Insts);
      H.u32s(B.Succs);
    }
    H.u32s(F.Args);
    H.u32s(F.StackVars);
  }
  H.len(M.Globals.size());
  for (const tir::Global &G : M.Globals) {
    H.str(G.Name);
    H.u8v(static_cast<u8>(G.Link));
    H.u64v(G.Size);
    H.u32v(G.Align);
    H.u8v(G.ReadOnly ? 1 : 0);
    H.u8v(G.Defined ? 1 : 0);
    H.len(G.Init.size());
    H.bytes(G.Init.data(), G.Init.size());
  }
  return H.digest();
}

static bool sameGlobal(const tir::Global &A, const tir::Global &B) {
  return A.Name == B.Name && A.Link == B.Link && A.Size == B.Size &&
         A.Align == B.Align && A.ReadOnly == B.ReadOnly &&
         A.Defined == B.Defined && A.Init == B.Init;
}

bool TirX64ServiceTraits::appendTo(tir::Module &Batch, const tir::Module &Job) {
  // Check first, mutate after: a rejected job must leave the batch usable.
  if (!Batch.Funcs.empty() || !Batch.Globals.empty()) {
    if (Batch.Globals.size() != Job.Globals.size())
      return false;
    for (size_t I = 0; I < Job.Globals.size(); ++I)
      if (!sameGlobal(Batch.Globals[I], Job.Globals[I]))
        return false;
  }
  for (size_t J = 0; J < Job.Funcs.size(); ++J) {
    for (const tir::Function &BF : Batch.Funcs)
      if (BF.Name == Job.Funcs[J].Name)
        return false;
    for (size_t K = J + 1; K < Job.Funcs.size(); ++K)
      if (Job.Funcs[J].Name == Job.Funcs[K].Name)
        return false;
  }

  const u32 FuncBase = static_cast<u32>(Batch.Funcs.size());
  if (Batch.Globals.empty())
    Batch.Globals = Job.Globals; // identical sets: global indices unchanged
  for (const tir::Function &F : Job.Funcs) {
    Batch.Funcs.push_back(F);
    if (FuncBase == 0)
      continue;
    // Call values name their callee by module-relative function index.
    for (tir::Value &V : Batch.Funcs.back().Values)
      if (V.Kind == tir::ValKind::Inst && V.Opcode == tir::Op::Call)
        V.Aux += FuncBase;
  }
  return true;
}

} // namespace tpde::tpde_tir
