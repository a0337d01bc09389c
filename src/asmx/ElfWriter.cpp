//===- asmx/ElfWriter.cpp - ELF relocatable object emission --------------===//

#include "asmx/ElfWriter.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

using namespace tpde;
using namespace tpde::asmx;

namespace {

// Minimal ELF64 structure definitions (we do not rely on <elf.h> so the
// writer is self-contained and testable in isolation).
struct Elf64Ehdr {
  u8 Ident[16];
  u16 Type, Machine;
  u32 Version;
  u64 Entry, PhOff, ShOff;
  u32 Flags;
  u16 EhSize, PhEntSize, PhNum, ShEntSize, ShNum, ShStrNdx;
};
struct Elf64Shdr {
  u32 Name, Type;
  u64 Flags, Addr, Offset, Size;
  u32 Link, Info;
  u64 AddrAlign, EntSize;
};
struct Elf64Sym {
  u32 Name;
  u8 Info, Other;
  u16 Shndx;
  u64 Value, Size;
};
struct Elf64Rela {
  u64 Offset;
  u64 Info;
  i64 Addend;
};

constexpr u32 SHT_PROGBITS = 1, SHT_SYMTAB = 2, SHT_STRTAB = 3, SHT_RELA = 4,
              SHT_NOBITS = 8;
constexpr u64 SHF_WRITE = 1, SHF_ALLOC = 2, SHF_EXECINSTR = 4;

constexpr u8 STB_LOCAL = 0, STB_GLOBAL = 1, STB_WEAK = 2;
constexpr u8 STT_OBJECT = 1, STT_FUNC = 2;

/// ELF relocation type for a portable RelocKind on the given machine.
static u32 elfRelocType(RelocKind K, ElfMachine M) {
  if (M == ElfMachine::X86_64) {
    switch (K) {
    case RelocKind::Abs64:
      return 1; // R_X86_64_64
    case RelocKind::PC32:
      return 2; // R_X86_64_PC32
    default:
      TPDE_UNREACHABLE("AArch64 relocation in x86-64 object");
    }
  }
  switch (K) {
  case RelocKind::Abs64:
    return 257; // R_AARCH64_ABS64
  case RelocKind::A64Call26:
    return 283; // R_AARCH64_CALL26
  case RelocKind::A64AdrPage21:
    return 275; // R_AARCH64_ADR_PREL_PG_HI21
  case RelocKind::A64AddLo12:
    return 277; // R_AARCH64_ADD_ABS_LO12_NC
  default:
    TPDE_UNREACHABLE("x86-64 relocation in AArch64 object");
  }
}

class StrTab {
public:
  StrTab() { Bytes.push_back(0); }
  u32 add(std::string_view S) {
    if (S.empty())
      return 0;
    u32 Off = static_cast<u32>(Bytes.size());
    Bytes.insert(Bytes.end(), S.begin(), S.end());
    Bytes.push_back(0);
    return Off;
  }
  std::vector<u8> Bytes;
};

} // namespace

std::vector<u8> tpde::asmx::writeElfObject(const Assembler &A,
                                           ElfMachine Machine) {
  // Section header indices.
  enum : u16 {
    ShNull = 0,
    ShText,
    ShROData,
    ShData,
    ShBSS,
    ShRelaText,
    ShRelaROData,
    ShRelaData,
    ShSymTab,
    ShStrTab,
    ShShStrTab,
    ShCount
  };
  static constexpr u16 SecToShdr[NumSections] = {ShText, ShROData, ShData, ShBSS};

  // --- Symbol table: null, locals, then globals (ELF requirement). ------
  //
  // The emitted order is *canonical*: a pure function of the symbols'
  // content, independent of the assembler's insertion order, which
  // depends on how the output was assembled (one compile, or the
  // parallel driver's shard merges) — canonicalizing here makes the two
  // paths' objects byte-identical (the determinism contract of
  // core/ParallelCompiler.h). Undefined symbols no relocation references
  // are skipped entirely: they carry no linker-visible information, and
  // the on-demand compiles never create them in the first place.
  StrTab Str;
  std::vector<Elf64Sym> ElfSyms;
  ElfSyms.push_back(Elf64Sym{});
  const auto &Syms = A.symbols();
  std::vector<u32> SymMap(Syms.size(), 0);
  std::vector<u8> Referenced(Syms.size(), 0);
  for (const Reloc &R : A.relocs())
    Referenced[R.Sym.Idx] = 1;
  // Canonical content key; no two distinct emitted symbols compare equal
  // (defined symbols differ in (section, offset, size, name); names are
  // unique within one assembler for named symbols).
  auto canonLess = [&](u32 LI, u32 RI) {
    const Symbol &L = Syms[LI], &R = Syms[RI];
    auto key = [](const Symbol &S) {
      return std::tuple(!S.Defined, static_cast<u8>(S.Sec), S.Off, S.Size,
                        S.IsFunc, static_cast<u8>(S.Link), S.Name);
    };
    return key(L) < key(R);
  };
  std::vector<u32> Order[2]; // [0] locals, [1] globals (incl. weak)
  for (u32 I = 0; I < Syms.size(); ++I) {
    const Symbol &S = Syms[I];
    if (!S.Defined && !Referenced[I])
      continue; // unreferenced declaration: linker no-op, drop
    Order[S.Link == Linkage::Internal ? 0 : 1].push_back(I);
  }
  u32 FirstGlobal = 0;
  for (unsigned Class = 0; Class < 2; ++Class) {
    std::sort(Order[Class].begin(), Order[Class].end(), canonLess);
    if (Class == 1)
      FirstGlobal = static_cast<u32>(ElfSyms.size());
    for (u32 I : Order[Class]) {
      const Symbol &S = Syms[I];
      Elf64Sym ES{};
      ES.Name = Str.add(S.Name);
      u8 Bind = Class == 0 ? STB_LOCAL
                           : (S.Link == Linkage::Weak ? STB_WEAK : STB_GLOBAL);
      u8 Type = S.Defined ? (S.IsFunc ? STT_FUNC : STT_OBJECT) : 0;
      ES.Info = static_cast<u8>((Bind << 4) | Type);
      ES.Shndx = S.Defined ? SecToShdr[static_cast<unsigned>(S.Sec)] : 0;
      ES.Value = S.Defined ? S.Off : 0;
      ES.Size = S.Size;
      SymMap[I] = static_cast<u32>(ElfSyms.size());
      ElfSyms.push_back(ES);
    }
  }

  // --- Relocations, grouped by section. ---------------------------------
  std::vector<Elf64Rela> Relas[NumSections];
  for (const Reloc &R : A.relocs()) {
    Elf64Rela ER;
    ER.Offset = R.Off;
    ER.Info = (static_cast<u64>(SymMap[R.Sym.Idx]) << 32) |
              elfRelocType(R.Kind, Machine);
    ER.Addend = R.Addend;
    Relas[static_cast<unsigned>(R.Sec)].push_back(ER);
  }

  // --- Section name table. ----------------------------------------------
  StrTab ShStr;
  u32 NText = ShStr.add(".text"), NROData = ShStr.add(".rodata"),
      NData = ShStr.add(".data"), NBSS = ShStr.add(".bss"),
      NRelaText = ShStr.add(".rela.text"),
      NRelaROData = ShStr.add(".rela.rodata"),
      NRelaData = ShStr.add(".rela.data"), NSymTab = ShStr.add(".symtab"),
      NStrTab = ShStr.add(".strtab"), NShStrTab = ShStr.add(".shstrtab");

  const Section &Text = A.section(SecKind::Text);
  const Section &RO = A.section(SecKind::ROData);
  const Section &Data = A.section(SecKind::Data);
  const Section &BSS = A.section(SecKind::BSS);

  // --- Layout: header, section contents, section headers. ---------------
  //
  // Reserve the whole object up front (content + headers + worst-case
  // alignment pad per placed section) so a 10k-function module's image is
  // one allocation instead of a doubling ladder that briefly holds two
  // copies of .text.
  u64 Reserve = sizeof(Elf64Ehdr) + sizeof(Elf64Shdr) * ShCount +
                Text.Data.size() + RO.Data.size() + Data.Data.size() +
                Str.Bytes.size() + ShStr.Bytes.size() +
                ElfSyms.size() * sizeof(Elf64Sym) + 16 * ShCount + 8;
  for (const auto &V : Relas)
    Reserve += V.size() * sizeof(Elf64Rela);
  std::vector<u8> Out;
  Out.reserve(Reserve);
  Out.assign(sizeof(Elf64Ehdr), 0);
  auto alignOut = [&Out](u64 Align) {
    while (Out.size() % Align)
      Out.push_back(0);
  };
  auto appendBytes = [&Out](const void *P, size_t N) {
    const u8 *B = static_cast<const u8 *>(P);
    Out.insert(Out.end(), B, B + N);
  };

  Elf64Shdr Shdrs[ShCount] = {};
  auto placeSection = [&](u16 Idx, u32 Name, u32 Type, u64 Flags,
                          const void *Content, u64 Size, u64 Align, u32 Link,
                          u32 Info, u64 EntSize) {
    alignOut(Align ? Align : 1);
    Elf64Shdr &H = Shdrs[Idx];
    H.Name = Name;
    H.Type = Type;
    H.Flags = Flags;
    H.Offset = Out.size();
    H.Size = Size;
    H.Link = Link;
    H.Info = Info;
    H.AddrAlign = Align;
    H.EntSize = EntSize;
    if (Content && Type != SHT_NOBITS)
      appendBytes(Content, Size);
  };

  placeSection(ShText, NText, SHT_PROGBITS, SHF_ALLOC | SHF_EXECINSTR,
               Text.Data.data(), Text.Data.size(), 16, 0, 0, 0);
  placeSection(ShROData, NROData, SHT_PROGBITS, SHF_ALLOC, RO.Data.data(),
               RO.Data.size(), RO.Align, 0, 0, 0);
  placeSection(ShData, NData, SHT_PROGBITS, SHF_ALLOC | SHF_WRITE,
               Data.Data.data(), Data.Data.size(), Data.Align, 0, 0, 0);
  placeSection(ShBSS, NBSS, SHT_NOBITS, SHF_ALLOC | SHF_WRITE, nullptr,
               BSS.BssSize, BSS.Align, 0, 0, 0);
  auto placeRela = [&](u16 Idx, u32 Name, SecKind Sec, u16 TargetShdr) {
    auto &V = Relas[static_cast<unsigned>(Sec)];
    placeSection(Idx, Name, SHT_RELA, 0, V.data(),
                 V.size() * sizeof(Elf64Rela), 8, ShSymTab, TargetShdr,
                 sizeof(Elf64Rela));
  };
  placeRela(ShRelaText, NRelaText, SecKind::Text, ShText);
  placeRela(ShRelaROData, NRelaROData, SecKind::ROData, ShROData);
  placeRela(ShRelaData, NRelaData, SecKind::Data, ShData);
  placeSection(ShSymTab, NSymTab, SHT_SYMTAB, 0, ElfSyms.data(),
               ElfSyms.size() * sizeof(Elf64Sym), 8, ShStrTab, FirstGlobal,
               sizeof(Elf64Sym));
  placeSection(ShStrTab, NStrTab, SHT_STRTAB, 0, Str.Bytes.data(),
               Str.Bytes.size(), 1, 0, 0, 0);
  placeSection(ShShStrTab, NShStrTab, SHT_STRTAB, 0, ShStr.Bytes.data(),
               ShStr.Bytes.size(), 1, 0, 0, 0);

  alignOut(8);
  u64 ShOff = Out.size();
  appendBytes(Shdrs, sizeof(Shdrs));

  // --- ELF header. -------------------------------------------------------
  Elf64Ehdr Ehdr{};
  Ehdr.Ident[0] = 0x7f;
  Ehdr.Ident[1] = 'E';
  Ehdr.Ident[2] = 'L';
  Ehdr.Ident[3] = 'F';
  Ehdr.Ident[4] = 2; // ELFCLASS64
  Ehdr.Ident[5] = 1; // ELFDATA2LSB
  Ehdr.Ident[6] = 1; // EV_CURRENT
  Ehdr.Type = 1;     // ET_REL
  Ehdr.Machine = static_cast<u16>(Machine);
  Ehdr.Version = 1;
  Ehdr.ShOff = ShOff;
  Ehdr.EhSize = sizeof(Elf64Ehdr);
  Ehdr.ShEntSize = sizeof(Elf64Shdr);
  Ehdr.ShNum = ShCount;
  Ehdr.ShStrNdx = ShShStrTab;
  std::memcpy(Out.data(), &Ehdr, sizeof(Ehdr));
  return Out;
}

bool tpde::asmx::writeElfObjectToFile(const Assembler &A, ElfMachine Machine,
                                      const char *Path) {
  std::vector<u8> Bytes = writeElfObject(A, Machine);
  std::FILE *F = std::fopen(Path, "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  return Written == Bytes.size();
}
