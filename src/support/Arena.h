//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
///
/// \file
/// A slab-based bump allocator for short-lived, homogeneous-lifetime data
/// on the compile hot path. Allocation is a pointer increment; deallocation
/// only happens wholesale via reset(), which retains every slab so a
/// compiler instance reaches a steady state where per-function work touches
/// the heap zero times (docs/PERF.md).
///
/// Arena::Scope provides stack-like nesting: everything allocated after
/// the scope opened is released (pointer-rewound) when it closes. Objects
/// placed in an arena never have destructors run; only use it for
/// trivially destructible payloads.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_ARENA_H
#define TPDE_SUPPORT_ARENA_H

#include "support/Common.h"

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace tpde::support {

class Arena {
public:
  explicit Arena(size_t SlabBytes = 64 * 1024) : SlabBytes(SlabBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  /// Moving hands the slabs over whole (what is allocated stays where it
  /// is); the source is left empty and usable.
  Arena(Arena &&O) noexcept { *this = std::move(O); }
  Arena &operator=(Arena &&O) noexcept {
    Slabs = std::exchange(O.Slabs, {});
    SlabBytes = O.SlabBytes;
    CurSlab = std::exchange(O.CurSlab, 0);
    CurOff = std::exchange(O.CurOff, 0);
    Allocated = std::exchange(O.Allocated, 0);
    return *this;
  }

  /// Allocates \p Size bytes with \p Align alignment (power of two).
  void *alloc(size_t Size, size_t Align = alignof(std::max_align_t)) {
    assert(isPowerOf2(Align) && "alignment must be a power of two");
    if (CurSlab < Slabs.size()) {
      // Align the absolute address — slab bases are only new[]-aligned.
      uintptr_t Base = reinterpret_cast<uintptr_t>(Slabs[CurSlab].Mem.get());
      size_t Off =
          (((Base + CurOff + Align - 1) & ~(uintptr_t(Align) - 1)) - Base);
      if (Off + Size <= Slabs[CurSlab].Size) {
        CurOff = Off + Size;
        Allocated += Size;
        return Slabs[CurSlab].Mem.get() + Off;
      }
    }
    return allocSlow(Size, Align);
  }

  /// Constructs a T in the arena. T must be trivially destructible.
  template <typename T, typename... Args> T *create(Args &&...A) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return new (alloc(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  /// Allocates an uninitialized array of \p N Ts.
  template <typename T> T *allocArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(alloc(N * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty. All slabs are kept for reuse; nothing is freed.
  void reset() {
    CurSlab = 0;
    CurOff = 0;
    Allocated = 0;
  }

  /// Total bytes handed out since construction/reset (not slab capacity).
  size_t bytesAllocated() const { return Allocated; }
  size_t slabCount() const { return Slabs.size(); }

  /// RAII region: rewinds the arena to the position at construction.
  class Scope {
  public:
    explicit Scope(Arena &A)
        : A(A), Slab(A.CurSlab), Off(A.CurOff), Bytes(A.Allocated) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() {
      A.CurSlab = Slab;
      A.CurOff = Off;
      A.Allocated = Bytes;
    }

  private:
    Arena &A;
    size_t Slab, Off, Bytes;
  };

private:
  struct Slab {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };

  void *allocSlow(size_t Size, size_t Align) {
    // Move to the next slab that fits; allocate one only if none does.
    // (Oversized requests get a dedicated slab of exactly the right size.)
    size_t Next = CurSlab < Slabs.size() ? CurSlab + 1 : CurSlab;
    while (Next < Slabs.size() && Slabs[Next].Size < Size + Align)
      ++Next;
    if (Next == Slabs.size()) {
      size_t Bytes = Size + Align > SlabBytes ? Size + Align : SlabBytes;
      Slabs.push_back(Slab{std::make_unique<char[]>(Bytes), Bytes});
    }
    CurSlab = Next;
    uintptr_t Base = reinterpret_cast<uintptr_t>(Slabs[CurSlab].Mem.get());
    size_t Off = ((Base + Align - 1) & ~(uintptr_t(Align) - 1)) - Base;
    assert(Off + Size <= Slabs[CurSlab].Size && "slab selection failed");
    CurOff = Off + Size;
    Allocated += Size;
    return Slabs[CurSlab].Mem.get() + Off;
  }

  std::vector<Slab> Slabs;
  size_t SlabBytes;
  size_t CurSlab = 0;
  size_t CurOff = 0;
  size_t Allocated = 0;
};

} // namespace tpde::support

#endif // TPDE_SUPPORT_ARENA_H
