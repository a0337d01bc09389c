//===- a64/CompilerA64.h - AArch64 target mixin for TPDE --------*- C++ -*-===//
///
/// \file
/// The architecture-specific part of the TPDE framework for AArch64
/// (AAPCS64), composed as a CRTP mixin between CompilerBase and the
/// IR-specific instruction compilers (paper §3.1.4) — the second target
/// the paper's §5 case study supports. It provides:
///
///  * the register bank configuration (X0-X28 minus reserved, V0-V31),
///  * prologue/epilogue generation with end-of-function patching: frame
///    size and callee-saved saves/restores are only known after register
///    allocation, so placeholder space is reserved and padded with NOPs
///    (paper §3.4.2),
///  * the AAPCS64 tables (argument and return registers) and the three
///    leaf emitters of the framework's call lowering (core/CompilerBase.h),
///  * the spill/reload/move primitives the framework core requires.
///
/// X16/X17 are reserved: X16 as encoder-internal scratch for out-of-range
/// offsets/immediates, X17 for the instruction compilers (e.g., building
/// FP constants). X18 is the platform register, X29/X30 frame/link.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_A64_COMPILERA64_H
#define TPDE_A64_COMPILERA64_H

#include "a64/Encoder.h"
#include "core/CompilerBase.h"

namespace tpde::a64 {

/// Register bank configuration for AArch64. Ids 0-30 are X0..X30 (bank 0,
/// id 31 = SP, never allocated), 32-63 are V0..V31 (bank 1).
struct A64Config {
  static constexpr u8 NumBanks = 2;
  static constexpr u8 RegsPerBank = 32;
  static constexpr u8 regId(u8 Bank, u8 Idx) { return Bank * 32 + Idx; }
  static constexpr u8 bankOf(u8 Id) { return Id >> 5; }
  static constexpr u8 idxOf(u8 Id) { return Id & 31; }
  /// X0-X15 and X19-X28 (X16/X17 scratch, X18 platform, X29 FP, X30 LR).
  static constexpr u32 Allocatable[2] = {0x1FF8FFFFu, 0xFFFFFFFFu};
  static constexpr u32 CalleeSaved[2] = {0x1FF80000u, 0x0000FF00u};
  /// Callee-saved registers without special purpose, usable as fixed
  /// registers for loop values (§3.4.5); X19-X22 and V8-V11 stay general.
  static constexpr u32 FixedRegPool[2] = {0x1F800000u, 0x0000F000u};
  /// Save area for X19-X28 and V8-V15 below the frame pointer.
  static constexpr u32 CalleeSaveAreaSize = 144;
  /// AAPCS64 tables (core::CCAssigner and CompilerBase call lowering).
  static constexpr u8 GPArgRegs[8] = {0, 1, 2, 3, 4, 5, 6, 7}; // x0-x7
  static constexpr u8 NumFPArgRegs = 8;                        // v0-v7
  static constexpr u8 GPRetRegs[2] = {0, 1};                   // x0, x1
  static constexpr u8 FPRetRegs[2] = {32, 33};                 // v0, v1
};

inline AsmReg ar(core::Reg R) { return AsmReg(R.Id); }

template <core::IRAdapter Adapter, typename Derived>
class CompilerA64 : public core::CompilerBase<Adapter, Derived, A64Config> {
public:
  using Base = core::CompilerBase<Adapter, Derived, A64Config>;
  using Base::derived;

  CompilerA64(Adapter &A, asmx::Assembler &Asm) : Base(A, Asm), E(Asm) {}

  Emitter E;

  // =====================================================================
  // Primitives required by CompilerBase. Spill slots are always accessed
  // with the full 8 bytes so register contents round-trip bit-exactly.
  // =====================================================================

  void emitMoveRR(u8 Bank, u32 Size, core::Reg Dst, core::Reg Src) {
    if (Bank == 0)
      E.movRR(8, ar(Dst), ar(Src));
    else
      E.fpMovRR(8, ar(Dst), ar(Src));
  }
  void emitSlotStore(u8 Bank, u32 Size, i32 Off, core::Reg Src) {
    E.str(8, Mem(FP, Off), ar(Src));
  }
  void emitSlotLoad(u8 Bank, u32 Size, core::Reg Dst, i32 Off) {
    E.ldr(8, ar(Dst), Mem(FP, Off));
  }
  void emitJumpLabel(asmx::Label L) { E.bLabel(L); }

  // =====================================================================
  // Prologue / epilogue with end-of-function patching (§3.4.2)
  // =====================================================================

  void beginFunc(asmx::SymRef Sym) {
    asmx::Section &T = this->Asm.text();
    T.alignToBoundary(16);
    FuncStart = T.size();
    this->Asm.defineSymbol(Sym, asmx::SecKind::Text, FuncStart, 0);
    E.stpPre(FP, LR, SP, -16);
    E.movSP(FP, SP);
    FramePatchOff = T.size();
    E.frameSubPlaceholder();
    SaveAreaOff = T.size();
    E.nops(SaveRestoreBytes);
    RestoreAreaOffs.clear();
  }

  /// Emits an epilogue: placeholder restores, frame teardown, return.
  void emitEpilogue() {
    RestoreAreaOffs.push_back(E.offset());
    E.nops(SaveRestoreBytes);
    E.movSP(SP, FP);
    E.ldpPost(FP, LR, SP, 16);
    E.ret();
  }

  void finishFunc(asmx::SymRef Sym) {
    asmx::Section &T = this->Asm.text();
    this->Asm.setSymbolSize(Sym, T.size() - FuncStart);
    u32 FrameSize = static_cast<u32>(
        alignTo(static_cast<u64>(-this->Frame.lowWaterMark()), 16));
    Emitter::patchFrameSub(T, FramePatchOff, FrameSize);

    // Fill the save/restore areas with actual instructions for the
    // callee-saved registers that were used; pad the rest with NOPs. The
    // scratch assemblers are members reset (not freed) per function.
    asmx::Assembler &TmpSave = SaveScratchAsm, &TmpRestore = RestoreScratchAsm;
    TmpSave.reset();
    TmpRestore.reset();
    Emitter SaveE(TmpSave), RestoreE(TmpRestore);
    for (u8 Bank = 0; Bank < 2; ++Bank) {
      u32 CSRMask = this->UsedCalleeSaved[Bank] & A64Config::CalleeSaved[Bank];
      for (u32 M = CSRMask; M;) {
        u8 Idx = static_cast<u8>(countTrailingZeros(M));
        M &= M - 1;
        AsmReg R(A64Config::regId(Bank, Idx));
        SaveE.str(8, Mem(FP, csrSlotOff(Bank, Idx)), R);
        RestoreE.ldr(8, R, Mem(FP, csrSlotOff(Bank, Idx)));
      }
    }
    assert(TmpSave.text().size() <= SaveRestoreBytes && "save area overflow");
    SaveE.nops(SaveRestoreBytes - static_cast<unsigned>(TmpSave.text().size()));
    RestoreE.nops(SaveRestoreBytes -
                  static_cast<unsigned>(TmpRestore.text().size()));
    std::copy(TmpSave.text().Data.begin(), TmpSave.text().Data.end(),
              T.Data.begin() + SaveAreaOff);
    for (u64 Off : RestoreAreaOffs)
      std::copy(TmpRestore.text().Data.begin(), TmpRestore.text().Data.end(),
                T.Data.begin() + Off);
    derived()->emitUnwindInfo(Sym, FuncStart, T.size());
  }

  /// Default: no unwind info; overridden/extended by users that need it.
  void emitUnwindInfo(asmx::SymRef, u64, u64) {}

  /// Frame-pointer-relative slot of a callee-saved register.
  static i32 csrSlotOff(u8 Bank, u8 Idx) {
    if (Bank == 0) {
      assert(Idx >= 19 && Idx <= 28 && "not a callee-saved GP register");
      return -8 * static_cast<i32>(Idx - 18);
    }
    assert(Idx >= 8 && Idx <= 15 && "not a callee-saved FP register");
    return -(80 + 8 * static_cast<i32>(Idx - 7));
  }

  // =====================================================================
  // Call lowering leaf emitters (CompilerBase::genCall)
  // =====================================================================

  /// Moves SP by \p Delta bytes (negative allocates).
  void emitStackAdjust(i32 Delta) {
    if (Delta < 0)
      E.subRI(8, SP, SP, static_cast<u64>(-Delta));
    else
      E.addRI(8, SP, SP, static_cast<u64>(Delta));
  }
  void emitStackArgStore(u8 Bank, i32 Off, core::Reg Src) {
    E.str(8, Mem(SP, Off), ar(Src));
  }
  /// AAPCS64 needs no vector-register count for variadic calls.
  void emitCallSym(asmx::SymRef Callee, bool Vararg, u8 FPArgRegs) {
    E.blSym(Callee);
  }

protected:
  /// 10 GP + 8 FP callee-saved registers, one 4-byte STR/LDR each.
  static constexpr unsigned SaveRestoreBytes = 72;
  u64 FuncStart = 0;
  u64 FramePatchOff = 0;
  u64 SaveAreaOff = 0;
  std::vector<u64> RestoreAreaOffs;
  // Prologue/epilogue patching scratch (finishFunc).
  asmx::Assembler SaveScratchAsm, RestoreScratchAsm;
};

} // namespace tpde::a64

#endif // TPDE_A64_COMPILERA64_H
