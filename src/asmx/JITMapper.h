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
/// Images come from, and return to, a process-wide pool of released
/// page runs. map() takes the most recently released run of exactly the
/// image's page count and calls mmap only when none is free; a recycled
/// run is zeroed wherever the new image writes nothing, so it reads
/// exactly like a fresh mapping. The destructor, move-assignment and a
/// later map() release the held image: its pages flip back to read+write
/// and join the pool, whose oldest runs are unmapped to keep it within
/// MaxPooledBytes. An address into an image is therefore valid only while
/// its mapper lives: released pages may back a later image, where an
/// unmapped run would fault. W^X is unchanged: text is read+execute,
/// rodata read-only, data and BSS read+write, and no page is ever
/// writable and executable at once.
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
  u64 mappedSize() const { return MapSize; }

private:
  /// Returns the held image, if any, to the pool.
  void release();

  const Assembler *Asm = nullptr;
  u8 *MapBase = nullptr;
  u64 MapSize = 0;
  u8 *SecBase[NumSections] = {};
  support::CompileStatus Status;
};

} // namespace tpde::asmx

#endif // TPDE_ASMX_JITMAPPER_H
