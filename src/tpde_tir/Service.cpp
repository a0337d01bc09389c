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

} // namespace tpde::tpde_tir
