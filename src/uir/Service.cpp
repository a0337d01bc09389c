//===- uir/Service.cpp - UIR compile-service binding ----------------------===//

#include "uir/Service.h"

namespace tpde::uir {

support::Fp128 fingerprintModule(const UModule &M) {
  support::Hasher128 H;
  H.len(M.Funcs.size());
  for (const UFunc &F : M.Funcs) {
    H.str(F.Name);
    H.u32v(F.NumArgs);
    H.len(F.Vals.size());
    for (const UInst &I : F.Vals) {
      // Five whole words; every field as wide as its type.
      H.u64v(static_cast<u64>(I.Op) | static_cast<u64>(I.Ty) << 8 |
             u64{I.Block} << 32);
      H.u64v(support::packWord(I.Ops[0], I.Ops[1]));
      H.u64v(I.Aux);
      H.u64v(support::packWord(I.InBlock[0], I.InBlock[1]));
      H.u64v(support::packWord(I.InVal[0], I.InVal[1]));
    }
    H.len(F.Blocks.size());
    for (const UBlock &B : F.Blocks) {
      // UBlock::Aux is adapter scratch — mutated by compilation, not part
      // of the module's content.
      H.u32s(B.Phis);
      H.u32s(B.Insts);
      H.u32s(B.Succs);
    }
  }
  return H.digest();
}

} // namespace tpde::uir
