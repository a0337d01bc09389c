//===- tpde_tir/TirGlobals.h - Shared TIR global emission -------*- C++ -*-===//
///
/// \file
/// Module-level global handling shared by the TIR instruction compilers of
/// every target (x64, a64): the on-demand global-symbol cache, data/BSS
/// emission, and the FP constant pool. The logic is entirely
/// target-independent — it only touches the assembler's sections and
/// symbol table — so keeping it in one place guarantees the global data
/// and pool layout is identical across targets.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_TIRGLOBALS_H
#define TPDE_TPDE_TIR_TIRGLOBALS_H

#include "asmx/Assembler.h"
#include "support/DenseMap.h"
#include "tir/TIR.h"

#include <vector>

namespace tpde::tpde_tir {

/// Ablation switch (bench/ablation_fusion): disables compare-branch
/// fusion, address-mode folding, and (on x64) memory operands for spilled
/// values, for every TIR target back-end.
inline bool DisableFusion = false;

inline asmx::Linkage tirGlobalLinkage(const tir::Global &G) {
  return G.Link == tir::Linkage::Internal
             ? asmx::Linkage::Internal
             : (G.Link == tir::Linkage::Weak ? asmx::Linkage::Weak
                                             : asmx::Linkage::External);
}

/// Epoch-guarded global-symbol cache shared by the TIR targets — the
/// global-index twin of CompilerBase::funcSym(), built on the same
/// asmx::EpochSymCache (one place owns the invalidation contract). A
/// global's symbol is created at its definition (defineTirGlobals) or
/// its first reference (sym), so a shard that touches K globals pays
/// O(K) symbol records, never O(module). The epoch is
/// CompilerBase::moduleSymEpoch(): the per-compile bump invalidates every
/// slot without a per-global clear.
class TirGlobalSyms {
public:
  /// Sizes the cache; registers nothing. Steady-state no-op once the
  /// module's global count is stable.
  void prepare(const tir::Module &M) { Cache.resize(M.Globals.size()); }

  /// The symbol of global \p GI, materialized on demand (single
  /// interned-name probe via Assembler::createSymbol on a stale slot; a
  /// plain cached read otherwise).
  asmx::SymRef sym(asmx::Assembler &Asm, const tir::Module &M, u32 GI,
                   u64 Epoch) {
    return Cache.sym(GI, Epoch, [&] {
      const tir::Global &G = M.Globals[GI];
      return Asm.createSymbol(G.Name, tirGlobalLinkage(G), /*IsFunc=*/false);
    });
  }

private:
  asmx::EpochSymCache Cache;
};

/// Defines every module global with its data/rodata bytes or BSS range
/// (the defineGlobals() hook). External declarations are left to
/// TirGlobalSyms::sym(): like any other symbol, they appear only once
/// code references them.
inline void defineTirGlobals(asmx::Assembler &Asm, tir::Module &M,
                             TirGlobalSyms &GlobalSyms, u64 Epoch) {
  GlobalSyms.prepare(M);
  for (u32 GI = 0; GI < M.Globals.size(); ++GI) {
    const tir::Global &G = M.Globals[GI];
    if (!G.Defined)
      continue;
    asmx::SymRef S = GlobalSyms.sym(Asm, M, GI, Epoch);
    if (G.Init.empty() && !G.ReadOnly) {
      asmx::Section &BSS = Asm.section(asmx::SecKind::BSS);
      u64 Al = G.Align < 1 ? 1 : G.Align;
      BSS.BssSize = alignTo(BSS.BssSize, Al);
      // Keep the section alignment >= every member's alignment, like
      // alignToBoundary() does for data sections: ELF sh_addralign and
      // the mergeFrom() rebase both rely on it.
      if (Al > BSS.Align)
        BSS.Align = Al;
      Asm.defineSymbol(S, asmx::SecKind::BSS, BSS.BssSize, G.Size);
      BSS.BssSize += G.Size;
      continue;
    }
    asmx::SecKind K =
        G.ReadOnly ? asmx::SecKind::ROData : asmx::SecKind::Data;
    asmx::Section &Sec = Asm.section(K);
    Sec.alignToBoundary(G.Align < 1 ? 1 : G.Align);
    u64 Off = Sec.size();
    Sec.append(G.Init.data(), G.Init.size());
    if (G.Init.size() < G.Size)
      Sec.appendZeros(G.Size - G.Init.size());
    Asm.defineSymbol(S, K, Off, G.Size);
  }
}

/// Returns (creating on first use) the anonymous .rodata symbol holding
/// the FP constant \p Bits of \p Size bytes (4 or 8), deduplicated per
/// module compile through \p Pool. Shared by all targets so the pool
/// layout — entry order, alignment, anonymity — is identical everywhere;
/// Assembler::mergeFrom() additionally content-deduplicates these entries
/// across shard fragments.
inline asmx::SymRef fpPoolConstSym(asmx::Assembler &Asm,
                                   support::DenseMap<u64, asmx::SymRef> &Pool,
                                   u64 Bits, u8 Size) {
  u64 Key = Bits ^ (static_cast<u64>(Size) << 56);
  if (asmx::SymRef *Known = Pool.find(Key))
    return *Known;
  asmx::Section &RO = Asm.section(asmx::SecKind::ROData);
  RO.alignToBoundary(Size);
  u64 Off = RO.size();
  for (u8 B = 0; B < Size; ++B)
    RO.appendByte(static_cast<u8>(Bits >> (8 * B)));
  asmx::SymRef S =
      Asm.createSymbol("", asmx::Linkage::Internal, /*IsFunc=*/false);
  Asm.defineSymbol(S, asmx::SecKind::ROData, Off, Size);
  Pool.insert(Key, S);
  return S;
}

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_TIRGLOBALS_H
