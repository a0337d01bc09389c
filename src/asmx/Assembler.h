//===- asmx/Assembler.h - Sections, symbols, labels, relocations -*- C++ -*-===//
///
/// \file
/// Target-independent machine code container used by all back-ends in this
/// repository. It owns the section byte buffers, the symbol table, pending
/// label fixups, and relocations. Finished code can either be written to an
/// ELF relocatable object (ElfWriter) or mapped into memory for direct
/// execution (JITMapper), mirroring the "Object File Generation" and
/// "In-Memory Mapping (JIT)" boxes of Fig. 1 in the TPDE paper.
///
/// Everything here sits on the per-function compile hot path, so the data
/// structures follow the allocation policy of docs/PERF.md: symbol names
/// are interned through a support::StringPool (no string-keyed hashing, no
/// per-symbol string storage), and all tables are pooled — reset() rewinds
/// them without releasing capacity so a reused assembler compiles without
/// touching the heap.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_ASMX_ASSEMBLER_H
#define TPDE_ASMX_ASSEMBLER_H

#include "support/ByteBuffer.h"
#include "support/Common.h"
#include "support/DenseMap.h"
#include "support/Diag.h"
#include "support/StringPool.h"

#include <string>
#include <string_view>
#include <vector>

namespace tpde::asmx {

/// The four section kinds every back-end in this repo emits into.
enum class SecKind : u8 { Text = 0, ROData = 1, Data = 2, BSS = 3 };
constexpr unsigned NumSections = 4;

/// Symbol linkage, as required from the IR adapter (paper Fig. 2).
enum class Linkage : u8 { External, Internal, Weak };

/// Opaque handle to a symbol in the assembler's symbol table.
struct SymRef {
  u32 Idx = ~0u;
  bool isValid() const { return Idx != ~0u; }
  bool operator==(const SymRef &O) const { return Idx == O.Idx; }
};

/// Opaque handle to a text-section label (function-local jump target).
struct Label {
  u32 Idx = ~0u;
  bool isValid() const { return Idx != ~0u; }
};

/// Dense epoch-guarded SymRef cache for on-demand symbol
/// materialization. Slot I holds the symbol materialized for entity I
/// (function index, global index) during the compile identified by the
/// caller's epoch; one epoch bump invalidates every slot in O(1) — no
/// per-entity clear when the assembler's symbol table restarts between
/// compiles. The invalidation contract lives here, once, for
/// every user (CompilerBase::funcSym, tpde_tir::TirGlobalSyms): slots
/// start stamped 0 and callers' epochs start at 1, so a fresh or
/// resized cache never yields a stale SymRef.
class EpochSymCache {
public:
  /// Sizes the cache; steady-state no-op while the entity count is
  /// stable (docs/PERF.md). Re-sizing restamps to 0 — epochs are
  /// monotonic, so the slots read as stale.
  void resize(size_t N) {
    if (Syms.size() != N) {
      Syms.resize(N);
      Epochs.assign(N, 0);
    }
  }

  /// The symbol of entity \p I: a plain cached read when slot I was
  /// stamped with \p Epoch, otherwise \p Materialize() is called and
  /// its result cached.
  template <typename Fn>
  SymRef sym(u32 I, u64 Epoch, Fn Materialize) {
    if (Epochs[I] != Epoch) {
      Syms[I] = Materialize();
      Epochs[I] = Epoch;
    }
    return Syms[I];
  }

private:
  std::vector<SymRef> Syms;
  std::vector<u64> Epochs;
};

/// How a pending label fixup patches the instruction stream once the label
/// is bound.
enum class FixupKind : u8 {
  /// 32-bit PC-relative displacement; PC is the end of the 4 patched bytes.
  Rel32,
  /// AArch64 B/BL: imm26 word-offset in bits [25:0] of the instruction word.
  A64Branch26,
  /// AArch64 B.cond/CBZ: imm19 word-offset in bits [23:5].
  A64Branch19,
};

/// Relocation kinds; a portable subset sufficient for both targets.
enum class RelocKind : u8 {
  /// 64-bit absolute address: S + A.
  Abs64,
  /// 32-bit PC-relative: S + A - P (x86-64 call/jmp/RIP-relative).
  PC32,
  /// AArch64 BL/B: (S + A - P) >> 2 into imm26.
  A64Call26,
  /// AArch64 ADRP: page delta into imm21.
  A64AdrPage21,
  /// AArch64 ADD immediate: low 12 bits of S + A.
  A64AddLo12,
};

/// A byte buffer backing one section. Built on support::ByteBuffer so the
/// encoders can batch an instruction's bytes through a raw write cursor
/// (one bounds check per instruction, no per-byte zero-fill).
class Section {
public:
  support::ByteBuffer Data;
  /// Size of the section if it is BSS (no bytes stored).
  u64 BssSize = 0;
  u64 Align = 16;

  u64 size() const { return Data.size(); }

  /// Growth policy for the emission hot path: never grow by less than a
  /// page's worth, always geometrically, so steady-state emission is
  /// amortized allocation-free.
  void ensureSpace(size_t More) { Data.ensure(More); }

  void appendByte(u8 V) { Data.push_back(V); }
  void append(const void *Bytes, size_t N) { Data.append(Bytes, N); }
  template <typename T> void appendLE(T V) {
    static_assert(std::is_integral_v<T>);
    Data.ensure(sizeof(T));
    u8 *P = Data.writableEnd();
    for (unsigned I = 0; I < sizeof(T); ++I)
      P[I] = static_cast<u8>(static_cast<u64>(V) >> (8 * I));
    Data.setEnd(P + sizeof(T));
  }
  void appendZeros(size_t N) { Data.appendZeros(N); }
  /// Pads with zero bytes until the size is a multiple of \p A.
  void alignToBoundary(u64 A) {
    if (A > Align)
      Align = A;
    if (u64 Rem = Data.size() % A)
      Data.appendZeros(A - Rem);
  }

  // --- Write cursor (see support::ByteBuffer) -------------------------
  /// Reserves \p MaxBytes and returns a raw pointer to the section end;
  /// write at most MaxBytes and hand the advanced pointer to
  /// commitCursor(). No other section mutation may happen in between.
  u8 *writeCursor(size_t MaxBytes) {
    Data.ensure(MaxBytes);
    return Data.writableEnd();
  }
  void commitCursor(u8 *End) { Data.setEnd(End); }
  u64 cursorOffset(const u8 *P) const {
    return static_cast<u64>(P - Data.data());
  }

  /// Drops all bytes but keeps the buffer for reuse.
  void reset() {
    Data.clear();
    BssSize = 0;
    Align = 16;
  }

  template <typename T> void patchLE(u64 Off, T V) {
    assert(Off + sizeof(T) <= Data.size() && "patch out of bounds");
    for (unsigned I = 0; I < sizeof(T); ++I)
      Data[Off + I] = static_cast<u8>(static_cast<u64>(V) >> (8 * I));
  }
  template <typename T> T readLE(u64 Off) const {
    assert(Off + sizeof(T) <= Data.size() && "read out of bounds");
    u64 V = 0;
    for (unsigned I = 0; I < sizeof(T); ++I)
      V |= static_cast<u64>(Data[Off + I]) << (8 * I);
    return static_cast<T>(V);
  }
};

/// A symbol table entry. The name is a view into the assembler's string
/// pool and stays valid for the assembler's lifetime (across reset()).
struct Symbol {
  std::string_view Name;
  /// Interned-name id (StringPool::InvalidId for anonymous symbols); lets
  /// reset() drop the name->symbol mapping without hashing.
  u32 NameId = ~0u;
  Linkage Link = Linkage::External;
  bool Defined = false;
  bool IsFunc = false;
  SecKind Sec = SecKind::Text;
  u64 Off = 0;
  u64 Size = 0;
};

/// A relocation against a symbol, stored per section.
struct Reloc {
  SecKind Sec;
  u64 Off;
  RelocKind Kind;
  SymRef Sym;
  i64 Addend;
};

/// Byte-placement plan for one fragment, produced by
/// Assembler::reserveFrom(): the destination base offset and reserved
/// byte count per section. Text, data, and BSS are pre-reserved so the
/// fragment's bytes can later be placed in parallel (placeFrom) and the
/// serial merge tail (stitchFrom) touches only symbols and relocations.
/// Read-only data is deferred entirely to stitchFrom — the constant-pool
/// dedup decision depends on what *earlier* merges appended, so its base
/// cannot be planned ahead; Base[ROData] here is meaningless.
struct MergePlan {
  u64 Base[NumSections] = {};
  u64 Bytes[NumSections] = {};
};

/// Owns all emitted machine code and metadata for one module.
class Assembler {
public:
  Section &section(SecKind K) { return Secs[static_cast<unsigned>(K)]; }
  const Section &section(SecKind K) const {
    return Secs[static_cast<unsigned>(K)];
  }
  Section &text() { return section(SecKind::Text); }
  const Section &text() const { return section(SecKind::Text); }

  /// Creates (or merges into) the named symbol: get-or-create semantics
  /// on a single interned-name probe — the name is interned once and the
  /// pool id indexes straight into the symbol map, no lookup-then-create
  /// double hash. Registering a name that already exists returns the
  /// existing entry with linkage/kind updated — a later *definition*
  /// conflict is diagnosed in defineSymbol(). This is also the on-demand
  /// materialization entry point: the code generators call it at a
  /// definition's or reference's first use, so a compile only ever pays
  /// for symbols it actually touches (O(defined + referenced), never
  /// O(module)).
  SymRef createSymbol(std::string_view Name, Linkage L, bool IsFunc);
  /// Convenience form of createSymbol() for plain undefined-external
  /// data references.
  SymRef getOrCreateSymbol(std::string_view Name);
  /// Looks up a symbol by name; returns an invalid ref if absent.
  SymRef findSymbol(std::string_view Name) const;
  /// Marks \p S as defined at the given section offset. Defining a strong
  /// symbol twice is an error (see hasError()); for weak symbols the first
  /// definition wins.
  void defineSymbol(SymRef S, SecKind Sec, u64 Off, u64 Size);
  void setSymbolSize(SymRef S, u64 Size);

  const Symbol &symbol(SymRef S) const {
    assert(S.isValid() && S.Idx < Syms.size() && "invalid symbol");
    return Syms[S.Idx];
  }
  const std::vector<Symbol> &symbols() const { return Syms; }
  u32 symbolCount() const { return static_cast<u32>(Syms.size()); }

  /// True once any module-level inconsistency (e.g. a duplicate strong
  /// symbol definition) was recorded. Checked by callers at module
  /// boundaries; emission continues so all errors surface at once.
  bool hasError() const { return ErrCode != support::CompileErr::Ok; }
  std::string_view errorMessage() const { return Err; }
  /// Structured code of the first recorded error (Ok when clean). Module
  /// drivers lift this into their CompileStatus.
  support::CompileErr errorCode() const { return ErrCode; }

  void addReloc(SecKind Sec, u64 Off, RelocKind K, SymRef S, i64 Addend) {
    Relocs.push_back(Reloc{Sec, Off, K, S, Addend});
  }
  const std::vector<Reloc> &relocs() const { return Relocs; }

  // --- Labels (text section only) -------------------------------------
  Label makeLabel();
  /// Binds \p L to the current end of the text section and patches all
  /// pending fixups referring to it.
  void bindLabel(Label L);
  bool isBound(Label L) const { return Labels[L.Idx].Bound; }
  u64 labelOffset(Label L) const {
    assert(Labels[L.Idx].Bound && "label not bound");
    return Labels[L.Idx].Off;
  }
  /// Records that the instruction bytes at \p Off must be patched to reach
  /// \p L; patches immediately if the label is already bound.
  void addFixup(Label L, FixupKind K, u64 Off);

  /// Resets function-local state (labels). Symbols and sections persist.
  void resetLabels() {
    Labels.clear();
    Fixups.clear();
  }

  /// Rewinds the whole assembler to an empty module while keeping every
  /// buffer's capacity and the interned name pool, so the next compile
  /// into this assembler does not allocate. The cost is proportional to
  /// the symbol table being dropped, never to the name pool: createSymbol()
  /// is the only writer of the name->symbol map, so unmapping the table's
  /// own names empties it. A parallel worker whose previous shard created
  /// S symbols therefore pays O(S) to start the next shard, however many
  /// names its pool has accumulated across the module.
  void reset();

  /// Appends \p Src's sections, symbols, and relocations to this module.
  ///
  /// Section bytes land at the alignment-padded end of the corresponding
  /// destination section (BSS sizes are concatenated the same way), and
  /// relocation offsets are rebased accordingly. Named symbols are
  /// resolved against the destination table by interned name: an
  /// undefined reference in one input binds to the definition from
  /// another, which is what links calls between functions compiled into
  /// different assemblers (cross-shard symbol resolution). Duplicate
  /// strong definitions surface through hasError(); weak symbols keep the
  /// first definition, so merge order decides. Anonymous symbols are
  /// appended as fresh entries. Undefined source symbols that no source
  /// relocation references are dropped (linker semantics), so a merge
  /// carries only defined + actually-referenced records — with the
  /// code generators materializing symbols on demand the source table is
  /// already sparse, and merging K fragments stays O(defined +
  /// referenced) instead of O(K * module). Both assemblers must be
  /// label-finalized (no pending fixups). Steady-state merging into a
  /// reset() assembler does not allocate once all buffers reached their
  /// high-water mark.
  ///
  /// Cross-fragment constant-pool dedup: when the source's read-only data
  /// consists purely of anonymous defined symbols tiling the section in
  /// creation order (the shape of the FP constant pool a range compile
  /// emits), the section is merged symbol-by-symbol and entries whose
  /// bytes already exist in this module (appended by an earlier merge)
  /// are bound to the existing symbol instead of being copied — so K
  /// fragments that each materialized the same constant contribute it
  /// once, and the merged pool matches a serial whole-module compile.
  /// Each entry is stitched where the symbol loop meets it, in creation
  /// order, so the merged symbol table too is that of a serial compile
  /// however the module was cut into fragments. The decision depends only
  /// on fragment content and merge order, preserving the thread-count
  /// determinism contract. Sources with named rodata symbols, rodata
  /// relocations, or uncovered rodata bytes (e.g. the globals fragment)
  /// fall back to the wholesale section copy above.
  void mergeFrom(const Assembler &Src);

  // --- Two-pass (in-place) merge --------------------------------------
  //
  // mergeFrom(Src) == reserveFrom(Src, P) + placeFrom(Src, P) +
  // stitchFrom(Src, P), byte for byte. The split exists so a parallel
  // driver can reserve every fragment's slice serially (cheap: O(1) in
  // section bytes), place all fragments' text/data bytes concurrently,
  // and keep only the O(symbols + relocs) stitch on the serial path —
  // the zero-merge emission scheme of docs/PERF.md ("Two-pass
  // emission"). mergeFrom() above is the one-fragment form (the driver
  // merges its globals fragment and function-by-function recovery this
  // way) built from these primitives, so the two cannot drift.

  /// Pass 1: extends this module's text, data, and BSS exactly as
  /// mergeFrom(\p Src) would — alignment padding zero-filled, the
  /// fragment's own byte range *uninitialized* — and records the slice
  /// in \p Plan. Serial per destination (it moves the section ends).
  /// Read-only data is not reserved (see MergePlan).
  void reserveFrom(const Assembler &Src, MergePlan &Plan);

  /// Pass 2: copies \p Src's text and data bytes into the slice
  /// reserved by reserveFrom(). Safe to run concurrently for *distinct
  /// plans* of the same destination: it writes only this plan's
  /// disjoint byte ranges and touches no shared assembler state.
  void placeFrom(const Assembler &Src, const MergePlan &Plan);

  /// Pass 3 (serial, in fragment order): everything mergeFrom() does
  /// except the text/data/BSS byte copy — read-only data (wholesale
  /// append or constant-pool dedup), symbol resolution, relocation
  /// rebase, and error propagation. Cost is O(symbols + relocs) of
  /// \p Src, never O(section bytes); the only bytes it appends are
  /// rodata pool entries (each ≤ 16 bytes, one per symbol).
  void stitchFrom(const Assembler &Src, const MergePlan &Plan);

private:
  struct LabelInfo {
    u64 Off = 0;
    bool Bound = false;
    u32 FirstFixup = ~0u;
  };
  struct FixupInfo {
    u64 Off;
    FixupKind Kind;
    u32 Next;
  };

  void applyFixup(u64 Off, FixupKind K, u64 Target);
  /// First error wins: later errors are dropped so the reported diagnostic
  /// is the earliest one in emission order.
  void setError(support::CompileErr Code, std::string Msg) {
    if (ErrCode == support::CompileErr::Ok) {
      ErrCode = Code;
      Err = std::move(Msg);
    }
  }
  void setError(std::string Msg) {
    setError(support::CompileErr::AssemblerError, std::move(Msg));
  }

  Section Secs[NumSections];
  std::vector<Symbol> Syms;
  support::StringPool Names;
  /// Name id -> symbol index (~0 = none). Indexed by StringPool id, so it
  /// only ever grows with the pool; reset() unmaps the table's names.
  std::vector<u32> SymOfName;
  std::vector<Reloc> Relocs;
  std::vector<LabelInfo> Labels;
  std::vector<FixupInfo> Fixups;
  std::string Err;
  support::CompileErr ErrCode = support::CompileErr::Ok;
  /// True if \p Src's rodata is eligible for the symbol-by-symbol dedup
  /// merge (see mergeFrom): anonymous pool entries that, in creation
  /// order, tile the section.
  bool roDedupEligible(const Assembler &Src);
  /// Stitches one pool entry \p S of a source whose read-only data is
  /// \p SrcRO: appends it, or binds it to an equal entry already here.
  /// Returns its symbol index in this module.
  u32 stitchPoolEntry(const Symbol &S, const Section &SrcRO);

  /// Scratch for mergeFrom(): source symbol index -> merged index (~0 for
  /// dropped unreferenced declarations), and the reloc-referenced flags.
  /// Members so steady-state merges reuse their capacity (docs/PERF.md).
  std::vector<u32> MergeSymMap;
  std::vector<u8> MergeRefd;
  /// Content-hash -> destination symbol index of every anonymous rodata
  /// entry this module accumulated across merges; cleared with the
  /// emission state.
  support::DenseMap<u64, u32> RoDedupSyms;
};

} // namespace tpde::asmx

#endif // TPDE_ASMX_ASSEMBLER_H
