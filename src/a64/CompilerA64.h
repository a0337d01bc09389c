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
///  * AAPCS64 argument/return assignment and call sequence generation,
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

#include <span>

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
};

inline AsmReg ar(core::Reg R) { return AsmReg(R.Id); }

/// AAPCS64 argument assignment: X0-X7 and V0-V7, then the stack.
class CCAssignerAAPCS {
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
    if (GPUsed + NeedGP <= 8 && FPUsed + NeedFP <= 8) {
      for (u8 P = 0; P < NumParts; ++P) {
        Out[P].InReg = true;
        if (Banks[P] == 0)
          Out[P].RegId = GPUsed++;
        else
          Out[P].RegId = static_cast<u8>(32 + FPUsed++);
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

  u32 stackBytes() const { return StackBytes; }

  static constexpr u8 GPRetRegs[2] = {0, 1};   // x0, x1
  static constexpr u8 FPRetRegs[2] = {32, 33}; // v0, v1

private:
  u8 GPUsed = 0, FPUsed = 0;
  u32 StackBytes = 0;
};

template <core::IRAdapter Adapter, typename Derived>
class CompilerA64 : public core::CompilerBase<Adapter, Derived, A64Config> {
public:
  using Base = core::CompilerBase<Adapter, Derived, A64Config>;
  using ValRef = typename Adapter::ValRef;
  using ValuePartRef = typename Base::ValuePartRef;
  using PendingMove = typename Base::PendingMove;
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
  // Arguments (AAPCS64)
  // =====================================================================

  void setupArguments() {
    CCAssignerAAPCS CC;
    for (ValRef V : this->A.funcArgs()) {
      u32 VN = this->A.valNumber(V);
      this->ensureAssignment(V, VN);
      core::Assignment &As = this->Assigns[VN];
      const u8 N = As.PartCount;
      if (N > core::Assignment::MaxParts)
        TPDE_UNREACHABLE("too many value parts");
      u8 Banks[core::Assignment::MaxParts] = {};
      CCAssignerAAPCS::Loc Locs[core::Assignment::MaxParts];
      for (u8 P = 0; P < N; ++P)
        Banks[P] = this->A.valPartBank(V, P);
      CC.assignValue(Banks, N, Locs);
      for (u8 P = 0; P < N; ++P) {
        if (Locs[P].InReg) {
          core::Reg R(Locs[P].RegId);
          this->Regs.markUsed(R, VN, P);
          As.Parts[P].RegId = R.Id;
        } else {
          // Incoming stack slot: [x29 + 16 + off]; parts are consecutive.
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
  // Calls (AAPCS64)
  // =====================================================================

  /// Generates a complete call sequence: argument assignment and moves
  /// (parallel-move safe), caller-saved spilling, stack arguments, the
  /// call itself, and result binding. \p Result may be null for void.
  void genCall(asmx::SymRef Callee, std::span<const ValRef> Args,
               const ValRef *Result, bool Vararg = false) {
    (void)Vararg; // AAPCS64 needs no vector-register count
    CCAssignerAAPCS CC;
    auto &Places = CallPlaces; // scratch member (docs/PERF.md)
    Places.clear();
    for (ValRef V : Args) {
      u8 N = static_cast<u8>(this->A.valPartCount(V));
      u8 Banks[core::Assignment::MaxParts] = {};
      CCAssignerAAPCS::Loc Locs[core::Assignment::MaxParts];
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
      E.subRI(8, SP, SP, StackBytes);
    for (Place &P : Places) {
      if (P.L.InReg)
        continue;
      ValuePartRef Ref = this->valRef(P.V, P.Part);
      core::Reg R = Ref.asReg();
      E.str(8, Mem(SP, P.L.StackOff), ar(R));
    }

    // 3. Register arguments as a parallel move set.
    u32 ArgRegMask[2] = {0, 0};
    for (const Place &P : Places)
      if (P.L.InReg)
        ArgRegMask[A64Config::bankOf(P.L.RegId)] |=
            u32(1) << A64Config::idxOf(P.L.RegId);
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
        core::Reg R(A64Config::regId(Bank, Idx));
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

    E.blSym(Callee);
    if (StackBytes)
      E.addRI(8, SP, SP, StackBytes);

    // 5. Bind results (x0/x1, v0/v1).
    if (Result) {
      ValRef RV = *Result;
      u32 VN = this->A.valNumber(RV);
      this->ensureAssignment(RV, VN);
      core::Assignment &As = this->Assigns[VN];
      if (As.RefCount != 0) {
        u8 GPUsed = 0, FPUsed = 0;
        for (u8 P = 0; P < As.PartCount; ++P) {
          u8 Bank = this->A.valPartBank(RV, P);
          core::Reg RetR(Bank == 0 ? CCAssignerAAPCS::GPRetRegs[GPUsed++]
                                   : CCAssignerAAPCS::FPRetRegs[FPUsed++]);
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

  /// Moves the (optional) return value into the AAPCS64 return registers
  /// and emits an epilogue.
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
        u8 RegId = Bank == 0 ? CCAssignerAAPCS::GPRetRegs[GPUsed++]
                             : CCAssignerAAPCS::FPRetRegs[FPUsed++];
        RetMask[Bank] |= u32(1) << A64Config::idxOf(RegId);
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
    u8 Bank = A64Config::bankOf(R.Id);
    u32 Bit = u32(1) << A64Config::idxOf(R.Id);
    return (A64Config::Allocatable[Bank] & Bit) &&
           !(A64Config::CalleeSaved[Bank] & Bit);
  }

protected:
  /// 10 GP + 8 FP callee-saved registers, one 4-byte STR/LDR each.
  static constexpr unsigned SaveRestoreBytes = 72;
  u64 FuncStart = 0;
  u64 FramePatchOff = 0;
  u64 SaveAreaOff = 0;
  std::vector<u64> RestoreAreaOffs;

  struct Place {
    ValRef V;
    u8 Part;
    CCAssignerAAPCS::Loc L;
    u8 Bank;
  };
  // Per-call scratch, reused across calls/functions (docs/PERF.md).
  support::SmallVector<Place, 16> CallPlaces;
  typename Base::MoveVec CallMoves;
  support::SmallVector<ValuePartRef, 16> CallHolds;
  // Prologue/epilogue patching scratch (finishFunc).
  asmx::Assembler SaveScratchAsm, RestoreScratchAsm;
};

} // namespace tpde::a64

#endif // TPDE_A64_COMPILERA64_H
