//===- asmx/JITMapper.h - In-memory code mapping for JIT --------*- C++ -*-===//
///
/// \file
/// Maps an Assembler's sections into executable memory and resolves
/// relocations against in-process symbols, implementing the "In-Memory
/// Mapping (JIT)" output path of the TPDE framework (Fig. 1).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_ASMX_JITMAPPER_H
#define TPDE_ASMX_JITMAPPER_H

#include "asmx/Assembler.h"
#include "support/Diag.h"

#include <functional>
#include <string_view>

namespace tpde::asmx {

/// Maps machine code into memory for direct execution.
///
/// Typical usage:
/// \code
///   JITMapper JIT;
///   bool OK = JIT.map(Asm, [](std::string_view Name) -> void * {
///     return Name == "memcpy" ? (void *)&memcpy : nullptr;
///   });
///   auto *Fn = (int (*)(int))JIT.address("my_func");
/// \endcode
///
/// Every image lies in its own run of pages, laid out so that each section
/// whose protection changes is a VMA of its own:
///
///   [guard] text + stubs [guard] rodata [guard] data BSS
///
/// A PROT_NONE guard page precedes and follows text (with its jump stubs)
/// and rodata when they are non-empty; text and rodata share the guard
/// between them. Data and BSS form one range that stays read+write. An
/// image therefore takes at most six map entries (three guards, text,
/// rodata, data with BSS), each W^X flip changes one whole VMA and never
/// splits or merges one, and code or data access that overruns text or
/// rodata faults on a guard page. mappedSize() counts section pages only,
/// never guard pages.
///
/// Runs come from, and return to, a process-wide pool keyed on the page
/// counts of text, rodata and data with BSS. map() takes the most recently
/// released run of exactly the image's page counts and creates one only
/// when none is free: one PROT_NONE mmap plus one read+write mprotect per
/// non-empty range. A recycled run is zeroed wherever the new image writes
/// nothing, so it reads exactly like a fresh mapping. The destructor,
/// move-assignment and a later map() release the held image: each
/// non-empty range flips back to read+write (a no-op for data and BSS
/// that still fails on a hole) and the run joins the pool, whose oldest
/// runs are unmapped to keep it within MaxPooledBytes; an image larger than
/// that bound, or one whose flip failed, is unmapped instead. An address
/// into an image is therefore valid only while its mapper lives: released
/// pages may back a later image, where an unmapped run would fault. W^X
/// holds throughout: text is read+execute, rodata read-only, data and BSS
/// read+write, and no page is ever writable and executable at once.
class JITMapper {
public:
  using Resolver = std::function<void *(std::string_view)>;

  /// Retention bound of the released-run pool. It holds a few dozen of the
  /// one- or two-page images a query service maps per cache miss, while a
  /// multi-megabyte module image is never pooled and at most a quarter MiB
  /// of released pages stays resident. A pool sized for large images would
  /// keep them resident after their mappers die.
  static constexpr u64 MaxPooledBytes = u64(256) << 10;

  /// Flavor of the jump stubs used to reach resolver-provided symbols that
  /// are out of direct branch range (x86-64 `jmp [rip]` vs AArch64
  /// `ldr x16, <literal>; br x16`).
  enum class StubArch : u8 { X64, A64 };

  JITMapper() = default;
  ~JITMapper();
  JITMapper(const JITMapper &) = delete;
  JITMapper &operator=(const JITMapper &) = delete;
  JITMapper(JITMapper &&O) noexcept { *this = std::move(O); }
  JITMapper &operator=(JITMapper &&O) noexcept;

  /// Releases any image this mapper holds, copies sections into a pooled or
  /// fresh run, resolves all relocations (consulting \p Resolve for
  /// undefined symbols), and makes text/rodata execute/read only. Returns
  /// false if an undefined symbol cannot be resolved, a relocation
  /// overflows, or a mapping syscall fails.
  bool map(const Assembler &A, const Resolver &Resolve = nullptr,
           StubArch Arch = StubArch::X64);

  /// Structured reason for the last map() failure (Ok after success).
  /// Symbol carries the unresolved/overflowing symbol name when known.
  const support::CompileStatus &status() const { return Status; }

  /// Address of a defined symbol; nullptr for unknown/undefined names.
  void *address(std::string_view Name) const;
  /// Address of a symbol handle (defined symbols only).
  void *address(SymRef S) const;

  /// Base address of the mapped section.
  u8 *sectionBase(SecKind K) const {
    return SecBase[static_cast<unsigned>(K)];
  }
  /// Bytes of the image's section pages, guard pages excluded.
  u64 mappedSize() const { return MapSize; }

private:
  /// Bytes, each a whole number of pages, of an image's three protection
  /// ranges: text with its stubs, rodata, and data with BSS. They key the
  /// run pool.
  struct Layout {
    u64 Text = 0, RO = 0, RW = 0;
    bool operator==(const Layout &) const = default;
  };
  friend class RunPool;

  /// Returns the held image, if any, to the pool.
  void release();

  const Assembler *Asm = nullptr;
  /// Start of the held run, its leading guard page included.
  u8 *MapBase = nullptr;
  Layout Pages;
  u64 MapSize = 0;
  u8 *SecBase[NumSections] = {};
  support::CompileStatus Status;
};

} // namespace tpde::asmx

#endif // TPDE_ASMX_JITMAPPER_H
