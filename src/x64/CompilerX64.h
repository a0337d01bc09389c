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
///  * SysV argument/return assignment and full call sequence generation,
///  * the spill/reload/move primitives the framework core requires.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_X64_COMPILERX64_H
#define TPDE_X64_COMPILERX64_H

#include "core/CompilerBase.h"
#include "x64/Encoder.h"

#include <span>

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
};

inline AsmReg ax(core::Reg R) { return AsmReg(R.Id); }

/// SysV AMD64 argument assignment.
class CCAssignerSysV {
public:
  struct Loc {
    bool InReg = false;
    u8 RegId = 0xFF;
    i32 StackOff = 0;
  };

  /// Assigns all parts of one value. Multi-part values go either entirely
  /// to registers or entirely to the stack.
  void assignValue(const u8 *Banks, u8 NumParts, Loc *Out) {
    u8 NeedGP = 0, NeedFP = 0;
    for (u8 P = 0; P < NumParts; ++P)
      (Banks[P] == 0 ? NeedGP : NeedFP) += 1;
    if (GPUsed + NeedGP <= 6 && FPUsed + NeedFP <= 8) {
      for (u8 P = 0; P < NumParts; ++P) {
        Out[P].InReg = true;
        if (Banks[P] == 0)
          Out[P].RegId = GPArgRegs[GPUsed++];
        else
          Out[P].RegId = static_cast<u8>(16 + FPUsed++);
      }
      return;
    }
    if (NumParts > 1)
      StackBytes = static_cast<u32>(alignTo(StackBytes, 16));
    for (u8 P = 0; P < NumParts; ++P) {
      Out[P].InReg = false;
      Out[P].StackOff = static_cast<i32>(StackBytes);
      StackBytes += 8;
    }
  }

  u8 fpRegsUsed() const { return FPUsed; }
  u32 stackBytes() const { return StackBytes; }

  static constexpr u8 GPArgRegs[6] = {7, 6, 2, 1, 8, 9}; // rdi,rsi,rdx,rcx,r8,r9
  static constexpr u8 GPRetRegs[2] = {0, 2};             // rax, rdx
  static constexpr u8 FPRetRegs[2] = {16, 17};           // xmm0, xmm1

private:
  u8 GPUsed = 0, FPUsed = 0;
  u32 StackBytes = 0;
};

template <core::IRAdapter Adapter, typename Derived>
class CompilerX64 : public core::CompilerBase<Adapter, Derived, X64Config> {
public:
  using Base = core::CompilerBase<Adapter, Derived, X64Config>;
  using ValRef = typename Adapter::ValRef;
  using ValuePartRef = typename Base::ValuePartRef;
  using PendingMove = typename Base::PendingMove;
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
  // Arguments (SysV)
  // =====================================================================

  void setupArguments() {
    CCAssignerSysV CC;
    for (ValRef V : this->A.funcArgs()) {
      u32 VN = this->A.valNumber(V);
      this->ensureAssignment(V, VN);
      core::Assignment &As = this->Assigns[VN];
      const u8 N = As.PartCount;
      if (N > core::Assignment::MaxParts)
        TPDE_UNREACHABLE("too many value parts");
      u8 Banks[core::Assignment::MaxParts] = {};
      CCAssignerSysV::Loc Locs[core::Assignment::MaxParts];
      for (u8 P = 0; P < N; ++P)
        Banks[P] = this->A.valPartBank(V, P);
      CC.assignValue(Banks, N, Locs);
      for (u8 P = 0; P < N; ++P) {
        if (Locs[P].InReg) {
          core::Reg R(Locs[P].RegId);
          this->Regs.markUsed(R, VN, P);
          As.Parts[P].RegId = R.Id;
        } else {
          // Incoming stack slot: [rbp + 16 + off]; parts are consecutive.
          if (P == 0)
            As.FrameOff = 16 + Locs[P].StackOff;
          As.Parts[P].Flags |= core::ValuePart::StackValid;
        }
      }
      if (As.RefCount == 0)
        this->freeValue(VN);
    }
  }

  // =====================================================================
  // Calls (SysV)
  // =====================================================================

  /// Generates a complete call sequence: argument assignment and moves
  /// (parallel-move safe), caller-saved spilling, stack arguments, the
  /// call itself, and result binding. \p Result may be null for void.
  void genCall(asmx::SymRef Callee, std::span<const ValRef> Args,
               const ValRef *Result, bool Vararg = false) {
    CCAssignerSysV CC;
    auto &Places = CallPlaces; // scratch member (docs/PERF.md)
    Places.clear();
    for (ValRef V : Args) {
      u8 N = static_cast<u8>(this->A.valPartCount(V));
      u8 Banks[core::Assignment::MaxParts] = {};
      CCAssignerSysV::Loc Locs[core::Assignment::MaxParts];
      for (u8 P = 0; P < N; ++P)
        Banks[P] = this->A.valPartBank(V, P);
      CC.assignValue(Banks, N, Locs);
      for (u8 P = 0; P < N; ++P)
        Places.push_back(Place{V, P, Locs[P], Banks[P]});
    }

    // 1. All dirty caller-saved registers holding values must be spilled:
    //    the call clobbers them.
    this->forEachOwnedReg([&](core::Reg R, u32 VN, u8 Part) {
      if (isCallerSaved(R))
        this->spillPart(VN, Part);
    });

    // 2. Stack arguments.
    u32 StackBytes = static_cast<u32>(alignTo(CC.stackBytes(), 16));
    if (StackBytes)
      E.aluRI(AluOp::Sub, 8, RSP, StackBytes);
    for (Place &P : Places) {
      if (P.L.InReg)
        continue;
      ValuePartRef Ref = this->valRef(P.V, P.Part);
      core::Reg R = Ref.asReg();
      if (P.Bank == 0)
        E.store(8, Mem(RSP, P.L.StackOff), ax(R));
      else
        E.fpStore(8, Mem(RSP, P.L.StackOff), ax(R));
    }

    // 3. Register arguments as a parallel move set.
    u32 ArgRegMask[2] = {0, 0};
    for (const Place &P : Places)
      if (P.L.InReg)
        ArgRegMask[X64Config::bankOf(P.L.RegId)] |=
            u32(1) << X64Config::idxOf(P.L.RegId);
    auto &Moves = CallMoves;
    auto &Holds = CallHolds;
    Moves.clear();
    Holds.clear();
    for (Place &P : Places) {
      if (!P.L.InReg)
        continue;
      ValuePartRef Ref = this->valRef(P.V, P.Part);
      Ref.lockReg();
      PendingMove Mv;
      Mv.Dst = core::MoveLoc::reg(core::Reg(P.L.RegId));
      Mv.Src = Ref.loc();
      Mv.SrcVal = P.V;
      Mv.SrcPart = P.Part;
      Mv.Bank = P.Bank;
      Moves.push_back(Mv);
      Holds.push_back(std::move(Ref));
    }
    // Evict argument registers whose current holders are not move sources.
    for (u8 Bank = 0; Bank < 2; ++Bank) {
      for (u32 M = ArgRegMask[Bank]; M;) {
        u8 Idx = static_cast<u8>(countTrailingZeros(M));
        M &= M - 1;
        core::Reg R(X64Config::regId(Bank, Idx));
        if (this->Regs.isUsed(R) && !this->Regs.isLocked(R))
          this->evictSpecific(R);
      }
    }
    std::array<u32, 2> Allow = {~ArgRegMask[0], ~ArgRegMask[1]};
    this->resolveParallelMoves(Moves, Allow);
    Holds.clear(); // unlock sources, consume uses

    // 4. Clear every caller-saved association (clobbered by the call).
    this->forEachOwnedReg([&](core::Reg R, u32 VN, u8 Part) {
      if (!isCallerSaved(R))
        return;
      core::ValuePart &VP = this->Assigns[VN].Parts[Part];
      assert((VP.stackValid() || this->Assigns[VN].RefCount == 0) &&
             "live value lost across call");
      VP.RegId = 0xFF;
      this->Regs.markFree(R);
    });

    // 5. Variadic calls pass the number of vector registers in AL.
    if (Vararg)
      E.movRI(RAX, CC.fpRegsUsed());

    E.callSym(Callee);
    if (StackBytes)
      E.aluRI(AluOp::Add, 8, RSP, StackBytes);

    // 6. Bind results (rax/rdx, xmm0/xmm1).
    if (Result) {
      ValRef RV = *Result;
      u32 VN = this->A.valNumber(RV);
      this->ensureAssignment(RV, VN);
      core::Assignment &As = this->Assigns[VN];
      if (As.RefCount != 0) {
        u8 GPUsed = 0, FPUsed = 0;
        for (u8 P = 0; P < As.PartCount; ++P) {
          u8 Bank = this->A.valPartBank(RV, P);
          core::Reg RetR(Bank == 0 ? CCAssignerSysV::GPRetRegs[GPUsed++]
                                   : CCAssignerSysV::FPRetRegs[FPUsed++]);
          if (As.Parts[P].isFixed()) {
            emitMoveRR(Bank, 8, core::Reg(As.Parts[P].RegId), RetR);
            As.Parts[P].Flags &= ~core::ValuePart::StackValid;
          } else {
            this->Regs.markUsed(RetR, VN, P);
            As.Parts[P].RegId = RetR.Id;
            As.Parts[P].Flags &= ~core::ValuePart::StackValid;
          }
        }
      }
    }
  }

  /// Moves the (optional) return value into the SysV return registers and
  /// emits an epilogue.
  void emitReturn(const ValRef *RetVal) {
    if (RetVal) {
      u8 N = static_cast<u8>(this->A.valPartCount(*RetVal));
      auto &Moves = CallMoves;
      auto &Holds = CallHolds;
      Moves.clear();
      Holds.clear();
      u8 GPUsed = 0, FPUsed = 0;
      u32 RetMask[2] = {0, 0};
      for (u8 P = 0; P < N; ++P) {
        ValuePartRef Ref = this->valRef(*RetVal, P);
        u8 Bank = Ref.bank();
        u8 RegId = Bank == 0 ? CCAssignerSysV::GPRetRegs[GPUsed++]
                             : CCAssignerSysV::FPRetRegs[FPUsed++];
        RetMask[Bank] |= u32(1) << X64Config::idxOf(RegId);
        Ref.lockReg();
        PendingMove Mv;
        Mv.Dst = core::MoveLoc::reg(core::Reg(RegId));
        Mv.Src = Ref.loc();
        Mv.SrcVal = *RetVal;
        Mv.SrcPart = P;
        Mv.Bank = Bank;
        Moves.push_back(Mv);
        Holds.push_back(std::move(Ref));
      }
      std::array<u32, 2> Allow = {~RetMask[0], ~RetMask[1]};
      this->resolveParallelMoves(Moves, Allow);
      Holds.clear();
    }
    emitEpilogue();
  }

  static bool isCallerSaved(core::Reg R) {
    u8 Bank = X64Config::bankOf(R.Id);
    u32 Bit = u32(1) << X64Config::idxOf(R.Id);
    return (X64Config::Allocatable[Bank] & Bit) &&
           !(X64Config::CalleeSaved[Bank] & Bit);
  }

protected:
  static constexpr unsigned SaveRestoreBytes = 20;
  u64 FuncStart = 0;
  u64 FramePatchOff = 0;
  u64 SaveAreaOff = 0;
  std::vector<u64> RestoreAreaOffs;

  struct Place {
    ValRef V;
    u8 Part;
    CCAssignerSysV::Loc L;
    u8 Bank;
  };
  // Per-call scratch, reused across calls/functions (docs/PERF.md).
  support::SmallVector<Place, 16> CallPlaces;
  typename Base::MoveVec CallMoves;
  support::SmallVector<ValuePartRef, 16> CallHolds;
  // Prologue/epilogue patching scratch (finishFunc).
  asmx::Assembler SaveScratchAsm, RestoreScratchAsm;
};

} // namespace tpde::x64

#endif // TPDE_X64_COMPILERX64_H
