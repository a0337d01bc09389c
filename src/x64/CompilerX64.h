//===- x64/CompilerX64.h - x86-64 target mixin for TPDE ---------*- C++ -*-===//
///
/// \file
/// The architecture-specific part of the TPDE framework for x86-64
/// (SysV ABI), composed as a CRTP mixin between CompilerBase and the
/// IR-specific instruction compilers (paper §3.1.4). It provides:
///
///  * the register bank configuration (16 GP + 16 SSE),
///  * prologue/epilogue generation with end-of-function patching: the
///    frame size and callee-saved register saves/restores are only known
///    after register allocation finishes, so placeholder space is reserved
///    and padded with NOPs (paper §3.4.2),
///  * the SysV ABI tables (argument and return registers) and the three
///    leaf emitters of the framework's call lowering (core/CompilerBase.h),
///  * the spill/reload/move primitives the framework core requires.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_X64_COMPILERX64_H
#define TPDE_X64_COMPILERX64_H

#include "core/CompilerBase.h"
#include "x64/Encoder.h"

namespace tpde::x64 {

/// Register bank configuration for x86-64. Ids 0-15 are RAX..R15 (bank 0),
/// 16-31 are XMM0..XMM15 (bank 1). RSP/RBP are reserved.
struct X64Config {
  static constexpr u8 NumBanks = 2;
  static constexpr u8 RegsPerBank = 16;
  static constexpr u8 regId(u8 Bank, u8 Idx) { return Bank * 16 + Idx; }
  static constexpr u8 bankOf(u8 Id) { return Id >> 4; }
  static constexpr u8 idxOf(u8 Id) { return Id & 15; }
  static constexpr u32 Allocatable[2] = {0xFFFF & ~((1u << 4) | (1u << 5)),
                                         0xFFFF};
  static constexpr u32 CalleeSaved[2] = {
      (1u << 3) | (1u << 12) | (1u << 13) | (1u << 14) | (1u << 15), 0};
  /// Callee-saved registers without special purpose, usable as fixed
  /// registers for loop values (§3.4.5); RBX stays general.
  static constexpr u32 FixedRegPool[2] = {
      (1u << 12) | (1u << 13) | (1u << 14) | (1u << 15), 0};
  /// Save area for rbx, r12-r15 below the frame pointer.
  static constexpr u32 CalleeSaveAreaSize = 40;
  /// SysV ABI tables (core::CCAssigner and CompilerBase call lowering).
  static constexpr u8 GPArgRegs[6] = {7, 6, 2, 1, 8, 9}; // rdi,rsi,rdx,rcx,r8,r9
  static constexpr u8 NumFPArgRegs = 8;                  // xmm0-xmm7
  static constexpr u8 GPRetRegs[2] = {0, 2};             // rax, rdx
  static constexpr u8 FPRetRegs[2] = {16, 17};           // xmm0, xmm1
};

inline AsmReg ax(core::Reg R) { return AsmReg(R.Id); }

/// SysV AMD64 argument assignment (also used by the baseline back-end).
using CCAssignerSysV = core::CCAssigner<X64Config>;

template <core::IRAdapter Adapter, typename Derived>
class CompilerX64 : public core::CompilerBase<Adapter, Derived, X64Config> {
public:
  using Base = core::CompilerBase<Adapter, Derived, X64Config>;
  using Base::derived;

  CompilerX64(Adapter &A, asmx::Assembler &Asm) : Base(A, Asm), E(Asm) {}

  Emitter E;

  // =====================================================================
  // Primitives required by CompilerBase. Spill slots are always accessed
  // with the full 8 bytes so register contents round-trip bit-exactly.
  // =====================================================================

  void emitMoveRR(u8 Bank, u32 Size, core::Reg Dst, core::Reg Src) {
    if (Bank == 0)
      E.movRR(8, ax(Dst), ax(Src));
    else
      E.fpMovRR(8, ax(Dst), ax(Src));
  }
  void emitSlotStore(u8 Bank, u32 Size, i32 Off, core::Reg Src) {
    if (Bank == 0)
      E.store(8, Mem(RBP, Off), ax(Src));
    else
      E.fpStore(8, Mem(RBP, Off), ax(Src));
  }
  void emitSlotLoad(u8 Bank, u32 Size, core::Reg Dst, i32 Off) {
    if (Bank == 0)
      E.load(8, ax(Dst), Mem(RBP, Off));
    else
      E.fpLoad(8, ax(Dst), Mem(RBP, Off));
  }
  void emitJumpLabel(asmx::Label L) { E.jmpLabel(L); }

  // =====================================================================
  // Prologue / epilogue with end-of-function patching (§3.4.2)
  // =====================================================================

  void beginFunc(asmx::SymRef Sym) {
    asmx::Section &T = this->Asm.text();
    T.alignToBoundary(16);
    FuncStart = T.size();
    this->Asm.defineSymbol(Sym, asmx::SecKind::Text, FuncStart, 0);
    E.push(RBP);
    E.movRR(8, RBP, RSP);
    // sub rsp, imm32 (always the 32-bit form so it can be patched).
    T.appendByte(0x48);
    T.appendByte(0x81);
    T.appendByte(0xEC);
    FramePatchOff = T.size();
    T.appendLE<u32>(0);
    // Placeholder for callee-saved register saves, patched at the end.
    SaveAreaOff = T.size();
    E.nops(SaveRestoreBytes);
    RestoreAreaOffs.clear();
  }

  /// Emits an epilogue: placeholder restores, then `leave; ret`.
  void emitEpilogue() {
    RestoreAreaOffs.push_back(E.offset());
    E.nops(SaveRestoreBytes);
    this->Asm.text().appendByte(0xC9); // leave
    E.ret();
  }

  void finishFunc(asmx::SymRef Sym) {
    asmx::Section &T = this->Asm.text();
    this->Asm.setSymbolSize(Sym, T.size() - FuncStart);
    u32 FrameSize = static_cast<u32>(
        alignTo(static_cast<u64>(-this->Frame.lowWaterMark()), 16));
    T.patchLE<u32>(FramePatchOff, FrameSize);

    // Fill the save/restore areas with actual instructions for the
    // callee-saved registers that were used; pad the rest with NOPs. The
    // scratch assemblers are members reset (not freed) per function.
    u32 CSRMask = this->UsedCalleeSaved[0] & X64Config::CalleeSaved[0];
    asmx::Assembler &TmpSave = SaveScratchAsm, &TmpRestore = RestoreScratchAsm;
    TmpSave.reset();
    TmpRestore.reset();
    Emitter SaveE(TmpSave), RestoreE(TmpRestore);
    for (u32 M = CSRMask; M;) {
      u8 Idx = static_cast<u8>(countTrailingZeros(M));
      M &= M - 1;
      SaveE.store(8, Mem(RBP, csrSlotOff(Idx)), AsmReg(Idx));
      RestoreE.load(8, AsmReg(Idx), Mem(RBP, csrSlotOff(Idx)));
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
  static i32 csrSlotOff(u8 Idx) {
    switch (Idx) {
    case 3:
      return -8; // rbx
    case 12:
      return -16;
    case 13:
      return -24;
    case 14:
      return -32;
    case 15:
      return -40;
    }
    TPDE_UNREACHABLE("not a callee-saved register");
  }

  // =====================================================================
  // Call lowering leaf emitters (CompilerBase::genCall)
  // =====================================================================

  /// Moves RSP by \p Delta bytes (negative allocates).
  void emitStackAdjust(i32 Delta) {
    if (Delta < 0)
      E.aluRI(AluOp::Sub, 8, RSP, -Delta);
    else
      E.aluRI(AluOp::Add, 8, RSP, Delta);
  }
  void emitStackArgStore(u8 Bank, i32 Off, core::Reg Src) {
    if (Bank == 0)
      E.store(8, Mem(RSP, Off), ax(Src));
    else
      E.fpStore(8, Mem(RSP, Off), ax(Src));
  }
  void emitCallSym(asmx::SymRef Callee, bool Vararg, u8 FPArgRegs) {
    // Variadic calls pass the number of vector registers in AL.
    if (Vararg)
      E.movRI(RAX, FPArgRegs);
    E.callSym(Callee);
  }

protected:
  static constexpr unsigned SaveRestoreBytes = 20;
  u64 FuncStart = 0;
  u64 FramePatchOff = 0;
  u64 SaveAreaOff = 0;
  std::vector<u64> RestoreAreaOffs;
  // Prologue/epilogue patching scratch (finishFunc).
  asmx::Assembler SaveScratchAsm, RestoreScratchAsm;
};

} // namespace tpde::x64

#endif // TPDE_X64_COMPILERX64_H
