//===- core/Assignment.h - Value assignments and frame slots ----*- C++ -*-===//
///
/// \file
/// Per-value state during the code generation pass (paper §3.4.1): the
/// stack frame slot used for spilling, the number of remaining uses, and
/// per-part register state. Assignments are stored in one dense array
/// indexed by the adapter-provided value number; single-part values are
/// compact, and up to two parts (e.g., i128) are stored inline.
///
/// Frame slots are handed out by a bump allocator with size-class free
/// lists so slots of dead values are reused (paper §3.3).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_ASSIGNMENT_H
#define TPDE_CORE_ASSIGNMENT_H

#include "support/Common.h"

#include <vector>

namespace tpde::core {

/// State of one value part.
struct ValuePart {
  /// Current register id, 0xFF if not in a register.
  u8 RegId = 0xFF;
  u8 Flags = 0;

  enum : u8 {
    /// The stack slot holds the current value; if clear and RegId is set,
    /// the register is the only location and must be spilled on eviction.
    StackValid = 1,
    /// The register is fixed for the value's whole live range (loop
    /// heuristic, §3.4.5); never evicted, never reset at block entry.
    FixedReg = 2,
  };

  bool inReg() const { return RegId != 0xFF; }
  bool stackValid() const { return Flags & StackValid; }
  bool isFixed() const { return Flags & FixedReg; }
};

/// Per-value assignment. PartCount <= 2 covers all IRs in this repo
/// (i128/data128 are the only multi-part values).
///
/// Assignments are initialized lazily per function: an entry is valid for
/// the current function iff its Epoch matches the compiler's epoch
/// counter. That way switching functions is an epoch bump instead of a
/// memset over the whole array (docs/PERF.md).
struct Assignment {
  static constexpr unsigned MaxParts = 2;

  /// Frame offset (relative to the frame pointer) of the spill slot;
  /// negative for locally allocated slots, positive for stack-passed
  /// arguments. 0 means "no slot allocated yet".
  i32 FrameOff = 0;
  u32 RefCount = 0;
  /// Function epoch this entry belongs to (0 = never initialized).
  u32 Epoch = 0;
  /// First layout block in which the value may be freed once RefCount
  /// reaches zero: the last block of its live range, or the block after
  /// it if the value is live to that block's end. Caches
  /// Analyzer::rangeEndsInBlock(VN, B) as B >= FreeFrom, so releasing a
  /// reference tests one field of the entry it already holds.
  u32 FreeFrom = 0;
  u8 PartCount = 0;
  ValuePart Parts[MaxParts];

  bool hasSlot() const { return FrameOff != 0; }
};

/// Bump allocator for spill slots with per-size free lists.
class FrameAllocator {
public:
  /// Starts allocation below \p FirstFree (a negative frame-pointer
  /// relative offset, e.g. after the callee-saved area and stack vars).
  void reset(i32 FirstFree) {
    Top = FirstFree;
    Free8.clear();
    Free16.clear();
    Bumped8 = Bumped16 = 0;
  }

  /// Allocates a slot of \p Size bytes (8 or 16); returns its offset.
  /// A new slot first makes room in its free list for its own release,
  /// so release() never allocates: it runs in the destructors of value
  /// references, where a bad_alloc would end the process.
  i32 alloc(u32 Size) {
    assert((Size == 8 || Size == 16) && "unsupported spill slot size");
    std::vector<i32> &FreeList = Size == 8 ? Free8 : Free16;
    if (!FreeList.empty()) {
      i32 Off = FreeList.back();
      FreeList.pop_back();
      return Off;
    }
    u32 &Bumped = Size == 8 ? Bumped8 : Bumped16;
    if (FreeList.capacity() <= Bumped)
      FreeList.reserve(2 * Bumped + 8);
    ++Bumped;
    Top -= static_cast<i32>(Size);
    return Top;
  }

  /// Returns a slot to the allocator. Positive offsets (incoming stack
  /// arguments) are not managed here and are ignored.
  void release(i32 Off, u32 Size) {
    if (Off >= 0)
      return;
    (Size == 8 ? Free8 : Free16).push_back(Off);
  }

  /// Bytes of frame used below the frame pointer so far.
  i32 lowWaterMark() const { return Top; }

private:
  i32 Top = 0;
  std::vector<i32> Free8;
  std::vector<i32> Free16;
  /// Slots of each size handed out since reset(): no free list can hold
  /// more, so each list's capacity is kept at least this large.
  u32 Bumped8 = 0, Bumped16 = 0;
};

} // namespace tpde::core

#endif // TPDE_CORE_ASSIGNMENT_H
