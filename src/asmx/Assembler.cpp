//===- asmx/Assembler.cpp - Symbol table and label fixups ----------------===//

#include "asmx/Assembler.h"

#include <cstring>

using namespace tpde;
using namespace tpde::asmx;

namespace {

/// Content hash for rodata pool entries (FNV-1a over size, then bytes).
u64 roContentHash(const u8 *Bytes, u64 Size) {
  u64 H = 0xcbf29ce484222325ull ^ Size;
  for (u64 I = 0; I < Size; ++I)
    H = (H ^ Bytes[I]) * 0x100000001b3ull;
  return H;
}

} // namespace

SymRef Assembler::createSymbol(std::string_view Name, Linkage L, bool IsFunc) {
  if (!Name.empty()) {
    support::StringPool::StrId Id = Names.intern(Name);
    if (SymOfName.size() < Names.count())
      SymOfName.resize(Names.count(), ~0u);
    u32 &Existing = SymOfName[Id];
    if (Existing != ~0u) {
      // Merge with the prior registration instead of silently shadowing
      // it; definition conflicts are caught in defineSymbol(). Only an
      // undefined external placeholder adopts the new linkage — a
      // re-registration must never relax a defined or local symbol
      // (e.g. Internal -> Weak would change ELF binding and disable the
      // duplicate-strong-definition diagnostic).
      Symbol &S = Syms[Existing];
      if (!S.Defined && S.Link == Linkage::External)
        S.Link = L;
      S.IsFunc |= IsFunc;
      return SymRef{Existing};
    }
    // Map the name only once the symbol exists: a push_back that throws
    // bad_alloc must not leave a mapping that reset() cannot find (it
    // clears the names of the symbols in the table) and a later compile
    // into this assembler would follow past the table's end.
    u32 Idx = static_cast<u32>(Syms.size());
    Syms.push_back(Symbol{Names.str(Id), Id, L, false, IsFunc, SecKind::Text,
                          0, 0});
    Existing = Idx;
    return SymRef{Idx};
  }
  // Anonymous symbols (constant pool entries) are never looked up by name.
  u32 Idx = static_cast<u32>(Syms.size());
  Syms.push_back(Symbol{{}, ~0u, L, false, IsFunc, SecKind::Text, 0, 0});
  return SymRef{Idx};
}

void Assembler::reset() {
  for (const Symbol &S : Syms)
    if (S.NameId != ~0u)
      SymOfName[S.NameId] = ~0u;
  Syms.clear();
  for (Section &S : Secs)
    S.reset();
  Relocs.clear();
  Labels.clear();
  Fixups.clear();
  Err.clear();
  ErrCode = support::CompileErr::Ok;
  RoDedupSyms.clear();
}

bool Assembler::roDedupEligible(const Assembler &Src) {
  const Section &RO = Src.Secs[static_cast<unsigned>(SecKind::ROData)];
  if (RO.Data.empty())
    return false; // nothing to dedup; the wholesale path is a no-op
  for (const Reloc &R : Src.Relocs)
    if (R.Sec == SecKind::ROData)
      return false; // offset remapping of rodata relocs is not supported
  // The entries, taken in symbol-table (creation) order, must tile the
  // section exactly, counting the alignment padding alignToBoundary(entry
  // size) would have inserted — that is the layout fpPoolConstSym()
  // produces and the only one the piecewise re-append, which runs in
  // creation order, reproduces byte for byte.
  u64 End = 0;
  for (const Symbol &S : Src.Syms) {
    if (!S.Defined || S.Sec != SecKind::ROData)
      continue;
    if (S.NameId != ~0u)
      return false; // named rodata (global data): identity matters
    if (S.Size == 0 || S.Size > 16 || (S.Size & (S.Size - 1)))
      return false; // alignment is reconstructed as the pow2 entry size
    if (S.Off != alignTo(End, S.Size))
      return false;
    End = S.Off + S.Size;
  }
  return End == RO.Data.size(); // else bytes no pool entry covers
}

void Assembler::mergeFrom(const Assembler &Src) {
  // The copy merge is the two-pass merge with no concurrency: reserve the
  // slice, fill it immediately, stitch. One implementation — the in-place
  // driver path cannot drift from this one.
  MergePlan Plan;
  reserveFrom(Src, Plan);
  placeFrom(Src, Plan);
  stitchFrom(Src, Plan);
}

void Assembler::reserveFrom(const Assembler &Src, MergePlan &Plan) {
  assert(&Src != this && "cannot merge an assembler into itself");
#ifndef NDEBUG
  // Label fixups patch text in place once the label is bound; an unbound
  // label with pending fixups means half-finished code that must not be
  // merged. (Applied fixup records linger in the pool — that is fine.)
  for (const LabelInfo &L : Src.Labels)
    assert((L.Bound || L.FirstFixup == ~0u) &&
           "mergeFrom source has pending label fixups");
#endif
  // Lay the source sections behind the destination's, padded to the
  // source's alignment so intra-section offsets keep their alignment
  // guarantees (e.g. the 16-byte function starts in .text). Empty source
  // sections contribute nothing — not even padding — so a module's merged
  // image depends only on the fragments' content, never on how many empty
  // fragments took part. Read-only data is skipped entirely: stitchFrom()
  // merges it (wholesale or symbol-by-symbol constant-pool dedup) because
  // the dedup outcome — and therefore every later fragment's rodata base —
  // depends on the bytes earlier merges appended.
  for (unsigned I = 0; I < NumSections; ++I) {
    Section &D = Secs[I];
    const Section &S = Src.Secs[I];
    Plan.Bytes[I] = 0;
    if (static_cast<SecKind>(I) == SecKind::BSS) {
      Plan.Base[I] = 0;
      if (S.BssSize) {
        D.BssSize = alignTo(D.BssSize, S.Align);
        Plan.Base[I] = D.BssSize;
        D.BssSize += S.BssSize;
        Plan.Bytes[I] = S.BssSize;
        if (S.Align > D.Align)
          D.Align = S.Align;
      }
      continue;
    }
    Plan.Base[I] = D.size();
    if (S.Data.empty() || static_cast<SecKind>(I) == SecKind::ROData)
      continue;
    D.alignToBoundary(S.Align);
    Plan.Base[I] = D.size();
    Plan.Bytes[I] = S.Data.size();
    D.Data.extendUninit(S.Data.size());
  }
}

void Assembler::placeFrom(const Assembler &Src, const MergePlan &Plan) {
  for (unsigned I = 0; I < NumSections; ++I) {
    SecKind K = static_cast<SecKind>(I);
    if (K == SecKind::BSS || K == SecKind::ROData)
      continue;
    const Section &S = Src.Secs[I];
    if (S.Data.empty())
      continue;
    assert(Plan.Bytes[I] == S.Data.size() &&
           "fragment changed between reserveFrom and placeFrom");
    assert(Plan.Base[I] + Plan.Bytes[I] <= Secs[I].size() &&
           "placement slice out of bounds");
    std::memcpy(Secs[I].Data.data() + Plan.Base[I], S.Data.data(),
                S.Data.size());
  }
}

void Assembler::stitchFrom(const Assembler &Src, const MergePlan &Plan) {
  u64 Base[NumSections];
  for (unsigned I = 0; I < NumSections; ++I)
    Base[I] = Plan.Base[I];

  // Read-only data was deferred by reserveFrom(); merge it now. An
  // eligible section is merged symbol-by-symbol below instead
  // (constant-pool dedup).
  const bool RoPiecewise = roDedupEligible(Src);
  const unsigned RoI = static_cast<unsigned>(SecKind::ROData);
  Section &RO = Secs[RoI];
  const Section &SrcRO = Src.Secs[RoI];
  Base[RoI] = RO.size();
  if (!SrcRO.Data.empty() && !RoPiecewise) {
    RO.alignToBoundary(SrcRO.Align);
    Base[RoI] = RO.size();
    RO.append(SrcRO.Data.data(), SrcRO.Data.size());
  }

  // Symbols, in the source's creation order: resolve named ones against
  // the destination table, append anonymous ones. createSymbol() upgrades
  // an undefined external placeholder to the stronger registration;
  // defineSymbol() diagnoses duplicate strong definitions and keeps the
  // first weak one. Undefined symbols nothing in the source references
  // are dropped, like a linker would: a source that declares the whole
  // module's symbol table would otherwise copy every declaration into the
  // output, making a K-fragment merge quadratic in module size for no
  // information gain.
  //
  // Taking the pool entries in that same order, where the loop meets
  // them, keeps the merged table independent of where fragments were
  // cut: any contiguous cut of a serial compile stitches back to the
  // serial table and relocation symbol indices.
  MergeRefd.assign(Src.Syms.size(), 0);
  for (const Reloc &R : Src.Relocs)
    MergeRefd[R.Sym.Idx] = 1;
  MergeSymMap.clear();
  MergeSymMap.reserve(Src.Syms.size());
  for (size_t I = 0; I < Src.Syms.size(); ++I) {
    const Symbol &S = Src.Syms[I];
    if (RoPiecewise && S.Defined && S.Sec == SecKind::ROData) {
      MergeSymMap.push_back(stitchPoolEntry(S, SrcRO));
      continue;
    }
    if (!S.Defined && !MergeRefd[I]) {
      MergeSymMap.push_back(~0u);
      continue;
    }
    SymRef R = createSymbol(S.Name, S.Link, S.IsFunc);
    if (S.Defined)
      defineSymbol(R, S.Sec, Base[static_cast<unsigned>(S.Sec)] + S.Off,
                   S.Size);
    MergeSymMap.push_back(R.Idx);
  }

  for (const Reloc &R : Src.Relocs) {
    assert(MergeSymMap[R.Sym.Idx] != ~0u && "referenced symbol not merged");
    Relocs.push_back(Reloc{R.Sec, Base[static_cast<unsigned>(R.Sec)] + R.Off,
                           R.Kind, SymRef{MergeSymMap[R.Sym.Idx]}, R.Addend});
  }

  if (Src.hasError())
    setError(Src.ErrCode, std::string(Src.Err));
}

u32 Assembler::stitchPoolEntry(const Symbol &S, const Section &SrcRO) {
  // Constant-pool dedup: append the entry with its own alignment, unless
  // this module already holds an entry with identical bytes — then bind
  // to the existing one. RoDedupSyms accumulates across the merges of one
  // module, so fragments contribute each distinct constant once and the
  // merged pool matches a serial compile's.
  Section &RO = section(SecKind::ROData);
  const u8 *Bytes = SrcRO.Data.data() + S.Off;
  u64 H = roContentHash(Bytes, S.Size);
  if (u32 *Known = RoDedupSyms.find(H)) {
    const Symbol &K = Syms[*Known];
    if (K.Size == S.Size &&
        std::memcmp(RO.Data.data() + K.Off, Bytes, S.Size) == 0)
      return *Known;
    // Hash collision with different bytes: append without dedup.
  }
  RO.alignToBoundary(S.Size);
  u64 Off = RO.size();
  RO.append(Bytes, S.Size);
  SymRef R = createSymbol({}, S.Link, S.IsFunc);
  defineSymbol(R, SecKind::ROData, Off, S.Size);
  RoDedupSyms.insert(H, R.Idx);
  return R.Idx;
}

SymRef Assembler::getOrCreateSymbol(std::string_view Name) {
  // Single-probe path: createSymbol() interns once and indexes the
  // id-keyed symbol map directly; a lookup-then-create pair would hash
  // the name twice.
  return createSymbol(Name, Linkage::External, /*IsFunc=*/false);
}

SymRef Assembler::findSymbol(std::string_view Name) const {
  support::StringPool::StrId Id = Names.lookup(Name);
  if (Id == support::StringPool::InvalidId || Id >= SymOfName.size() ||
      SymOfName[Id] == ~0u)
    return SymRef{};
  return SymRef{SymOfName[Id]};
}

void Assembler::defineSymbol(SymRef S, SecKind Sec, u64 Off, u64 Size) {
  assert(S.isValid() && "invalid symbol");
  Symbol &Sym = Syms[S.Idx];
  if (Sym.Defined) {
    // Weak semantics: the first definition wins, later ones are ignored.
    // A second definition of a strong symbol is a module error.
    if (Sym.Link != Linkage::Weak)
      setError("duplicate definition of strong symbol '" +
               std::string(Sym.Name) + "'");
    return;
  }
  Sym.Defined = true;
  Sym.Sec = Sec;
  Sym.Off = Off;
  Sym.Size = Size;
}

void Assembler::setSymbolSize(SymRef S, u64 Size) {
  assert(S.isValid() && "invalid symbol");
  Syms[S.Idx].Size = Size;
}

Label Assembler::makeLabel() {
  Labels.push_back(LabelInfo{});
  return Label{static_cast<u32>(Labels.size() - 1)};
}

void Assembler::bindLabel(Label L) {
  assert(L.isValid() && L.Idx < Labels.size() && "invalid label");
  LabelInfo &Info = Labels[L.Idx];
  assert(!Info.Bound && "label bound twice");
  Info.Bound = true;
  Info.Off = text().size();
  for (u32 F = Info.FirstFixup; F != ~0u;) {
    const FixupInfo &Fix = Fixups[F];
    applyFixup(Fix.Off, Fix.Kind, Info.Off);
    F = Fix.Next;
  }
  Info.FirstFixup = ~0u;
}

void Assembler::addFixup(Label L, FixupKind K, u64 Off) {
  assert(L.isValid() && L.Idx < Labels.size() && "invalid label");
  LabelInfo &Info = Labels[L.Idx];
  if (Info.Bound) {
    applyFixup(Off, K, Info.Off);
    return;
  }
  Fixups.push_back(FixupInfo{Off, K, Info.FirstFixup});
  Info.FirstFixup = static_cast<u32>(Fixups.size() - 1);
}

void Assembler::applyFixup(u64 Off, FixupKind K, u64 Target) {
  Section &T = text();
  // Every fixup kind patches exactly 4 bytes. An out-of-range offset is an
  // assertion failure in debug builds; release builds take the checked
  // error path instead of writing out of bounds (see hasError()).
  if (Off + 4 > T.size()) {
    assert(false && "fixup patch out of bounds");
    setError(support::CompileErr::AssemblerError,
             "fixup patch out of bounds: offset " + std::to_string(Off) +
                 " + 4 > text size " + std::to_string(T.size()));
    return;
  }
  switch (K) {
  case FixupKind::Rel32: {
    i64 Rel = static_cast<i64>(Target) - static_cast<i64>(Off + 4);
    assert(isInt32(Rel) && "jump distance exceeds 32 bits");
    T.patchLE<i32>(Off, static_cast<i32>(Rel));
    return;
  }
  case FixupKind::A64Branch26: {
    i64 Rel = static_cast<i64>(Target) - static_cast<i64>(Off);
    assert((Rel & 3) == 0 && "unaligned branch target");
    i64 Words = Rel >> 2;
    assert(Words >= -(1 << 25) && Words < (1 << 25) && "branch out of range");
    u32 Inst = T.readLE<u32>(Off);
    Inst = (Inst & ~0x03FFFFFFu) | (static_cast<u32>(Words) & 0x03FFFFFFu);
    T.patchLE<u32>(Off, Inst);
    return;
  }
  case FixupKind::A64Branch19: {
    i64 Rel = static_cast<i64>(Target) - static_cast<i64>(Off);
    assert((Rel & 3) == 0 && "unaligned branch target");
    i64 Words = Rel >> 2;
    assert(Words >= -(1 << 18) && Words < (1 << 18) && "branch out of range");
    u32 Inst = T.readLE<u32>(Off);
    Inst = (Inst & ~(0x7FFFFu << 5)) |
           ((static_cast<u32>(Words) & 0x7FFFFu) << 5);
    T.patchLE<u32>(Off, Inst);
    return;
  }
  }
  TPDE_UNREACHABLE("unknown fixup kind");
}
