//===- core/CompilerBase.h - TPDE single-pass code generator ----*- C++ -*-===//
///
/// \file
/// The code generation pass of the TPDE framework (paper §3.4). It drives
/// compilation of whole modules, or of function ranges for the parallel
/// driver's shards: each compile resets its assembler (appendRange()
/// continues the previous one instead) and creates symbols at first
/// use, then for every function runs the analysis pass and
/// compiles block by block in layout order, calling back into the
/// derived compiler for instruction semantics. The framework owns
/// register allocation (greedy, round-robin eviction, fixed-register loop
/// heuristic), value spilling, stack frame slots, phi moves with
/// parallel-move/cycle resolution, block-boundary register state, and
/// call lowering: argument binding (setupArguments), call sequences
/// (genCall) and returns (emitReturn), driven by the ABI tables in Config.
///
/// Class layering (all static, via CRTP — no virtual calls, §3.1.4):
///
///   CompilerBase<Adapter, Derived, Config>     (this file; IR/target agnostic)
///      ^-- CompilerX64<Adapter, Derived>       (target mixin: ABI tables,
///                                               prologue, leaf emitters)
///             ^-- <IR>CompilerX64              (instruction compilers)
///
/// Config provides the register banks (NumBanks, regId/bankOf/idxOf,
/// Allocatable, CalleeSaved, FixedRegPool, CalleeSaveAreaSize) and the ABI
/// tables: GPArgRegs (in assignment order), NumFPArgRegs (bank-1 registers
/// 0..N-1), GPRetRegs and FPRetRegs.
///
/// Derived must provide:
///   emitMoveRR(bank, size, dst, src)       register-register copy
///   emitSlotStore(bank, size, off, src)    spill store to [fp + off]
///   emitSlotLoad(bank, size, dst, off)     reload from [fp + off]
///   emitJumpLabel(label)                   unconditional jump
///   emitStackAdjust(delta)                 move the stack pointer (calls)
///   emitStackArgStore(bank, off, src)      outgoing stack argument store
///   emitCallSym(sym, vararg, fpArgRegs)    the call instruction
///   emitEpilogue()                         frame teardown and return
///   materializeConstLike(val, part, dst)   constants/globals/stack vars
///   beginFunc(sym) / finishFunc(sym)       prologue placeholder + patching
///   compileInst(val) -> bool               one IR instruction
///   defineGlobals()                        module-level data emission
///   declareGlobals()                       range compiles only: prepare
///                                          on-demand global symbols
///   forEachStackVar(cb(size, align))       static stack variables
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_COMPILERBASE_H
#define TPDE_CORE_COMPILERBASE_H

#include "asmx/Assembler.h"
#include "core/Adapter.h"
#include "core/Analyzer.h"
#include "core/Assignment.h"
#include "core/RegFile.h"
#include "support/Diag.h"
#include "support/SmallVector.h"

#include <array>
#include <span>
#include <string>
#include <vector>

namespace tpde::core {

/// Ablation switch (bench/ablation_fixed_regs): disables the §3.4.5
/// fixed-register heuristic for loop-carried values.
inline bool DisableFixedRegHeuristic = false;

/// A location a value (part) can occupy for parallel-move resolution.
struct MoveLoc {
  enum Kind : u8 { None, InReg, Slot, Const } K = None;
  u8 RegId = 0xFF;
  i32 Off = 0;

  static MoveLoc reg(Reg R) { return MoveLoc{InReg, R.Id, 0}; }
  static MoveLoc slot(i32 Off) { return MoveLoc{Slot, 0xFF, Off}; }
  static MoveLoc konst() { return MoveLoc{Const, 0xFF, 0}; }
  bool operator==(const MoveLoc &O) const {
    return K == O.K && RegId == O.RegId && Off == O.Off;
  }
};

/// Argument assignment driven by a target's ABI tables (SysV and AAPCS64
/// differ only in them): GP parts take Config::GPArgRegs in order, FP
/// parts the first Config::NumFPArgRegs registers of bank 1, and the rest
/// go to 8-byte stack slots. Multi-part values go either entirely to
/// registers or entirely to the stack.
template <typename Config> class CCAssigner {
public:
  struct Loc {
    bool InReg = false;
    u8 RegId = 0xFF;
    i32 StackOff = 0;
  };

  /// Assigns all parts of one value.
  void assignValue(const u8 *Banks, u8 NumParts, Loc *Out) {
    u8 NeedGP = 0, NeedFP = 0;
    for (u8 P = 0; P < NumParts; ++P)
      (Banks[P] == 0 ? NeedGP : NeedFP) += 1;
    if (GPUsed + NeedGP <= NumGPArgRegs &&
        FPUsed + NeedFP <= Config::NumFPArgRegs) {
      for (u8 P = 0; P < NumParts; ++P) {
        Out[P].InReg = true;
        if (Banks[P] == 0)
          Out[P].RegId = Config::GPArgRegs[GPUsed++];
        else
          Out[P].RegId = Config::regId(1, FPUsed++);
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

private:
  static constexpr u8 NumGPArgRegs = std::size(Config::GPArgRegs);
  u8 GPUsed = 0, FPUsed = 0;
  u32 StackBytes = 0;
};

template <IRAdapter Adapter, typename Derived, typename Config>
class CompilerBase {
public:
  using AdapterT = Adapter;
  using ValRef = typename Adapter::ValRef;
  using BlockRef = typename Adapter::BlockRef;
  using AnalyzerT = Analyzer<Adapter>;

  /// A pending parallel move (phi edges, call arguments, returns).
  struct PendingMove {
    MoveLoc Dst;
    MoveLoc Src;
    ValRef SrcVal{}; ///< For constant materialization.
    u8 SrcPart = 0;
    u8 Bank = 0;
    u8 Size = 8;
    bool Done = false;
  };

  /// Pending-move buffer type; inline storage covers typical phi/call
  /// cardinalities so collecting moves does not allocate.
  using MoveVec = support::SmallVector<PendingMove, 16>;

  CompilerBase(Adapter &A, asmx::Assembler &Asm) : A(A), Asm(Asm), An(A) {}

  Derived *derived() { return static_cast<Derived *>(this); }

  // =====================================================================
  // Value part references (paper §3.4.3). RAII: holding a reference locks
  // the register; dropping a use decrements the remaining-use count and
  // frees registers/slots when the value dies.
  //
  // A reference holds the value's Assignment by pointer (Assigns is sized
  // before codegen starts and never moves during a function), so the hot
  // paths — register lookup, locking, release — touch that one entry and
  // never re-index Assigns or the analyzer's liveness table. Reload and
  // constant materialization are defined out of line, below the class.
  // =====================================================================
  class ValuePartRef {
  public:
    ValuePartRef() = default;
    /// Reference to an assigned value (use or definition).
    ValuePartRef(CompilerBase *C, ValRef V, u32 VN, Assignment *As, u8 Part,
                 bool IsUse)
        : C(C), As(As), Val(V), VN(VN), Part(Part), IsUse(IsUse) {
      Bank = C->A.valPartBank(V, Part);
      Size = static_cast<u8>(C->A.valPartSize(V, Part));
    }
    /// Reference to a constant-like value (no assignment).
    ValuePartRef(CompilerBase *C, ValRef V, u8 Part)
        : C(C), Val(V), Part(Part), IsUse(true) {
      Bank = C->A.valPartBank(V, Part);
      Size = static_cast<u8>(C->A.valPartSize(V, Part));
    }
    ValuePartRef(ValuePartRef &&O) noexcept { take(O); }
    ValuePartRef &operator=(ValuePartRef &&O) noexcept {
      if (this != &O) {
        reset();
        take(O);
      }
      return *this;
    }
    ValuePartRef(const ValuePartRef &) = delete;
    ValuePartRef &operator=(const ValuePartRef &) = delete;
    ~ValuePartRef() { reset(); }

    bool valid() const { return C != nullptr; }
    /// True for constants/globals/stack-var addresses: no assignment; the
    /// derived compiler materializes them on demand.
    bool isConstLike() const { return As == nullptr; }
    /// The IR value handle (e.g., for immediate-operand folding).
    ValRef irValue() const { return Val; }
    u8 part() const { return Part; }
    u8 bank() const { return Bank; }
    u8 size() const { return Size; }
    u32 valNum() const { return VN; }

    bool hasReg() const {
      return As ? As->Parts[Part].inReg() : TmpReg.isValid();
    }
    Reg curReg() const { return As ? Reg(As->Parts[Part].RegId) : TmpReg; }
    /// True if the value currently has a valid stack-slot copy.
    bool inMemory() const { return As && As->Parts[Part].stackValid(); }
    /// Frame offset of this part's slot (requires inMemory()).
    i32 frameOff() const {
      assert(inMemory() && "no valid stack copy");
      return As->FrameOff + 8 * Part;
    }

    /// Ensures the value part is in a register (reloading or materializing
    /// as needed), locks it, and returns it.
    Reg asReg() {
      assert(C && "empty reference");
      if (!As)
        return materialize();
      u8 Id = As->Parts[Part].RegId;
      if (Id == 0xFF)
        Id = reload();
      lockIfNeeded(Id);
      return Reg(Id);
    }

    /// For definitions: allocates a register for the result (no load).
    Reg allocReg() {
      assert(As && !IsUse && "allocReg on a use/constant");
      u8 Id = As->Parts[Part].RegId;
      if (Id == 0xFF)
        Id = C->allocPartReg(*As, VN, Part, Bank).Id;
      lockIfNeeded(Id);
      return Reg(Id);
    }

    /// Marks the register contents as modified: the stack copy (if any)
    /// no longer matches and must be rewritten on eviction.
    void setModified() {
      if (As)
        As->Parts[Part].Flags &= ~ValuePart::StackValid;
    }

    /// Releases the reference early (unlock, use-count bookkeeping).
    void reset() {
      if (!C)
        return;
      if (As) {
        if (Locked)
          C->Regs.unlock(Reg(As->Parts[Part].RegId));
        if (IsUse) {
          assert(As->RefCount > 0 && "use count underflow");
          --As->RefCount;
        }
        if (As->RefCount == 0 && C->CurBlock >= As->FreeFrom)
          C->freeValue(*As);
      } else if (TmpReg.isValid()) {
        C->Regs.unlock(TmpReg);
        C->Regs.markFree(TmpReg);
      }
      C = nullptr;
    }

    /// Remaining uses including the one held by this reference.
    u32 remainingUses() const { return As ? As->RefCount : 0; }
    /// True if this use is the last one and the live range ends here, so
    /// the register may be overwritten/reused (paper §3.4.3 step 3).
    bool canReuseReg() const {
      return As && IsUse && As->RefCount == 1 &&
             C->CurBlock >= As->FreeFrom && !As->Parts[Part].isFixed();
    }

    /// Locks the current register (if any) for this reference's lifetime,
    /// preventing eviction during parallel-move collection.
    void lockReg() {
      if (As && As->Parts[Part].inReg())
        lockIfNeeded(As->Parts[Part].RegId);
    }

    /// Current location for parallel-move collection.
    MoveLoc loc() const {
      if (!As)
        return TmpReg.isValid() ? MoveLoc::reg(TmpReg) : MoveLoc::konst();
      if (As->Parts[Part].inReg())
        return MoveLoc::reg(Reg(As->Parts[Part].RegId));
      assert(inMemory() && "value lost");
      return MoveLoc::slot(As->FrameOff + 8 * Part);
    }

  private:
    void take(ValuePartRef &O) {
      C = O.C;
      As = O.As;
      Val = O.Val;
      VN = O.VN;
      Part = O.Part;
      Bank = O.Bank;
      Size = O.Size;
      IsUse = O.IsUse;
      Locked = O.Locked;
      TmpReg = O.TmpReg;
      O.C = nullptr;
    }
    void lockIfNeeded(u8 Id) {
      if (Locked)
        return;
      C->Regs.lock(Reg(Id));
      Locked = true;
    }
    // Cold paths, defined after the class so they stay out of the inline
    // fast path of asReg().
    u8 reload();
    Reg materialize();

    friend class CompilerBase;
    CompilerBase *C = nullptr;
    /// The value's assignment; null for constant-like values.
    Assignment *As = nullptr;
    ValRef Val{};
    u32 VN = ~0u;
    u8 Part = 0;
    u8 Bank = 0;
    u8 Size = 8;
    bool IsUse = false;
    bool Locked = false;
    Reg TmpReg;
  };

  /// An unevictable temporary register (paper §3.4.3 step 4).
  class ScratchReg {
  public:
    ScratchReg() = default;
    explicit ScratchReg(CompilerBase *C) : C(C) {}
    ScratchReg(ScratchReg &&O) noexcept { *this = std::move(O); }
    ScratchReg &operator=(ScratchReg &&O) noexcept {
      if (this == &O)
        return *this;
      reset();
      C = O.C;
      R = O.R;
      O.R = Reg();
      return *this;
    }
    ScratchReg(const ScratchReg &) = delete;
    ScratchReg &operator=(const ScratchReg &) = delete;
    ~ScratchReg() { reset(); }

    /// Allocates any register from \p Bank (optionally restricted).
    Reg alloc(u8 Bank, u32 AllowMask = ~0u) {
      assert(C && !R.isValid() && "scratch already allocated");
      R = C->allocRegRaw(Bank, AllowMask);
      C->Regs.markUsed(R, ~0u, 0);
      C->Regs.lock(R);
      return R;
    }
    /// Claims a specific register, evicting its current owner.
    Reg allocSpecific(Reg Want) {
      assert(C && !R.isValid() && "scratch already allocated");
      C->evictSpecific(Want);
      R = Want;
      C->Regs.markUsed(R, ~0u, 0);
      C->Regs.lock(R);
      return R;
    }
    Reg cur() const { return R; }
    bool isValid() const { return R.isValid(); }
    void reset() {
      if (R.isValid()) {
        C->Regs.unlock(R);
        C->Regs.markFree(R);
        R = Reg();
      }
    }

  private:
    friend class CompilerBase;
    CompilerBase *C = nullptr;
    Reg R;
  };

  // =====================================================================
  // Public API for instruction compilers
  // =====================================================================

  /// Handle for operand \p Part of value \p V (a use).
  ValuePartRef valRef(ValRef V, u8 Part) {
    if (A.isConstLike(V))
      return ValuePartRef(this, V, Part);
    u32 VN = A.valNumber(V);
    Assignment &As = Assigns[VN];
    assert(As.Epoch == CurEpoch && "use before definition");
    return ValuePartRef(this, V, VN, &As, Part, /*IsUse=*/true);
  }

  /// Handle for result \p Part of value \p V (a definition).
  ValuePartRef resultRef(ValRef V, u8 Part) {
    u32 VN = A.valNumber(V);
    return ValuePartRef(this, V, VN, &ensureAssignment(V, VN), Part,
                        /*IsUse=*/false);
  }

  /// Result handle that tries to reuse \p Op's register when this is its
  /// last use (paper Listing 1, result_ref_will_overwrite): on success the
  /// register is transferred; otherwise a fresh register is allocated and
  /// the operand's value copied into it. Either way the returned reference
  /// has a register holding the operand value, ready to be overwritten.
  ValuePartRef resultRefReuse(ValRef V, u8 Part, ValuePartRef &&Op) {
    ValuePartRef Res = resultRef(V, Part);
    ValuePart &RP = Res.As->Parts[Part];
    if (!RP.inReg() && Op.canReuseReg() && Op.hasReg() &&
        Op.bank() == Res.bank()) {
      // Transfer the register from the dying operand to the result.
      Reg R = Op.curReg();
      if (Op.Locked) {
        Regs.unlock(R);
        Op.Locked = false;
      }
      Op.As->Parts[Op.Part].RegId = 0xFF;
      Regs.markFree(R);
      Regs.markUsed(R, Res.VN, Part);
      RP.RegId = R.Id;
      RP.Flags &= ~ValuePart::StackValid;
      Regs.lock(R);
      Res.Locked = true;
      Op.reset();
      return Res;
    }
    // Copy path.
    Reg Dst = Res.allocReg();
    emitToReg(Dst, Op);
    Res.setModified();
    Op.reset();
    return Res;
  }

  ScratchReg scratch() { return ScratchReg(this); }

  /// Copies the current value of \p Op into \p Dst.
  void emitToReg(Reg Dst, ValuePartRef &Op) {
    if (Op.isConstLike() && !Op.hasReg()) {
      derived()->materializeConstLike(Op.irValue(), Op.part(), Dst);
      return;
    }
    if (Op.hasReg()) {
      if (!(Op.curReg() == Dst))
        derived()->emitMoveRR(Op.bank(), 8, Dst, Op.curReg());
      return;
    }
    assert(Op.inMemory() && "operand value lost");
    derived()->emitSlotLoad(Op.bank(), 8, Dst, Op.frameOff());
  }

  /// Evicts whatever occupies \p R (spilling if dirty); afterwards R is
  /// free. Used for instructions with fixed register constraints.
  void evictSpecific(Reg R) {
    if (!Regs.isUsed(R))
      return;
    assert(!Regs.isLocked(R) && "evicting a locked register");
    assert(!Regs.isFixed(R) && "evicting a fixed register");
    u32 Owner = Regs.ownerVal(R);
    assert(Owner != ~0u && "evicting an anonymous scratch register");
    spillPart(Owner, Regs.ownerPart(R));
    Assigns[Owner].Parts[Regs.ownerPart(R)].RegId = 0xFF;
    Regs.markFree(R);
  }

  /// Label of a successor block (bound when the block is compiled).
  asmx::Label blockLabel(BlockRef B) {
    return BlockLabels[static_cast<u32>(A.blockAux(B))];
  }
  u32 blockIdx(BlockRef B) { return static_cast<u32>(A.blockAux(B)); }
  u32 curBlockIdx() const { return CurBlock; }
  bool blockIsNext(BlockRef B) { return blockIdx(B) == CurBlock + 1; }

  const AnalyzerT &analyzer() const { return An; }
  Adapter &adapter() { return A; }
  asmx::Assembler &assembler() { return Asm; }

  /// Symbol of function \p FuncIdx, created at first use (its definition
  /// or its first call) and a plain cached read afterwards — a compile
  /// touching K functions pays O(K) symbol records, never O(module). The
  /// cache is epoch-guarded (asmx::EpochSymCache), so invalidating it
  /// between compiles is O(1).
  asmx::SymRef funcSym(u32 FuncIdx) {
    return FuncSyms.sym(FuncIdx, SymEpoch, [&] {
      auto F = A.funcRef(FuncIdx);
      return Asm.createSymbol(A.funcName(F), A.funcLinkage(F),
                              /*IsFunc=*/true);
    });
  }

  /// Epoch of the current compile's symbol materialization caches
  /// (funcSym and the derived compiler's global-symbol table). Bumped
  /// with every compile, which restarts the assembler's symbol table; a
  /// cache slot stamped with an older epoch holds a stale SymRef and
  /// must be re-created.
  u64 moduleSymEpoch() const { return SymEpoch; }

  /// Frame offset of stack variable index \p I.
  i32 stackVarOff(u32 I) const { return StackVarOffs[I]; }

  // =====================================================================
  // Branch generation (paper §3.4.5)
  // =====================================================================

  /// True if edges into \p B give up the register state: the target has
  /// multiple predecessors or does not immediately follow in layout.
  bool branchNeedsSpill(BlockRef B) {
    u32 Idx = blockIdx(B);
    return An.block(Idx).NumPreds > 1 || Idx != CurBlock + 1;
  }

  /// Spills all dirty registers whose values are live at the entry of any
  /// spill-needing successor; fixed registers are exempt.
  void spillBeforeBranch(std::initializer_list<BlockRef> Succs) {
    u32 NeedIdx[4];
    unsigned NumNeed = 0;
    for (BlockRef S : Succs)
      if (branchNeedsSpill(S))
        NeedIdx[NumNeed++] = blockIdx(S);
    if (!NumNeed)
      return;
    forEachOwnedReg([&](Reg R, u32 VN, u8 Part) {
      if (Regs.isFixed(R))
        return;
      for (unsigned I = 0; I < NumNeed; ++I) {
        if (An.liveAt(VN, NeedIdx[I])) {
          spillPart(VN, Part);
          return;
        }
      }
    });
  }

  /// Spills every dirty, non-fixed register. Used before conditional
  /// branches with per-edge phi moves: the move code of one edge must not
  /// implicitly spill state the other edge relies on.
  void spillAllDirty() {
    forEachOwnedReg([&](Reg R, u32 VN, u8 Part) {
      if (!Regs.isFixed(R))
        spillPart(VN, Part);
    });
  }

  /// Emits an unconditional branch to \p Target: spill, phi moves, jump
  /// (elided on fallthrough).
  void generateBranch(BlockRef Target) {
    spillBeforeBranch({Target});
    movePhis(Target);
    if (!blockIsNext(Target))
      derived()->emitJumpLabel(blockLabel(Target));
  }

  /// Emits a two-way conditional branch. \p EmitJcc emits the conditional
  /// jump to a label, optionally with inverted condition; the framework
  /// handles spilling, per-edge phi moves (critical edges become inline
  /// move blocks, equivalent to edge splitting), and fallthrough.
  template <typename EmitJccFn>
  void generateCondBranch(BlockRef TrueB, BlockRef FalseB, EmitJccFn EmitJcc) {
    if (blockIdx(TrueB) == blockIdx(FalseB)) {
      generateBranch(TrueB);
      return;
    }
    spillBeforeBranch({TrueB, FalseB});
    bool MovesT = edgeHasPhiMoves(TrueB);
    bool MovesF = edgeHasPhiMoves(FalseB);
    if (MovesT || MovesF) {
      // Per-edge move code must not spill (the other path would see stale
      // StackValid flags); make everything clean up front.
      spillAllDirty();
    }
    if (!MovesT && !MovesF) {
      if (blockIsNext(FalseB)) {
        EmitJcc(blockLabel(TrueB), false);
      } else if (blockIsNext(TrueB)) {
        EmitJcc(blockLabel(FalseB), true);
      } else {
        EmitJcc(blockLabel(TrueB), false);
        derived()->emitJumpLabel(blockLabel(FalseB));
      }
      return;
    }
    if (MovesT && !MovesF) {
      asmx::Label Skip =
          blockIsNext(FalseB) ? Asm.makeLabel() : blockLabel(FalseB);
      EmitJcc(Skip, true);
      movePhis(TrueB);
      derived()->emitJumpLabel(blockLabel(TrueB));
      if (blockIsNext(FalseB))
        Asm.bindLabel(Skip);
      return;
    }
    if (!MovesT && MovesF) {
      EmitJcc(blockLabel(TrueB), false);
      movePhis(FalseB);
      if (!blockIsNext(FalseB))
        derived()->emitJumpLabel(blockLabel(FalseB));
      return;
    }
    asmx::Label TakenMoves = Asm.makeLabel();
    EmitJcc(TakenMoves, false);
    movePhis(FalseB);
    derived()->emitJumpLabel(blockLabel(FalseB));
    Asm.bindLabel(TakenMoves);
    movePhis(TrueB);
    if (!blockIsNext(TrueB))
      derived()->emitJumpLabel(blockLabel(TrueB));
  }

  // =====================================================================
  // Calling convention: arguments, calls, returns. The ABI is Config's
  // register tables (through CCAssigner); the derived compiler supplies
  // only the stack-pointer adjust, the stack-argument store and the call
  // instruction.
  // =====================================================================

  /// Binds the current function's incoming arguments to their ABI
  /// registers or stack slots.
  void setupArguments() {
    CCAssigner<Config> CC;
    for (ValRef V : A.funcArgs()) {
      u32 VN = A.valNumber(V);
      Assignment &As = ensureAssignment(V, VN);
      const u8 N = As.PartCount;
      if (N > Assignment::MaxParts)
        TPDE_UNREACHABLE("too many value parts");
      u8 Banks[Assignment::MaxParts] = {};
      typename CCAssigner<Config>::Loc Locs[Assignment::MaxParts];
      for (u8 P = 0; P < N; ++P)
        Banks[P] = A.valPartBank(V, P);
      CC.assignValue(Banks, N, Locs);
      for (u8 P = 0; P < N; ++P) {
        if (Locs[P].InReg) {
          Reg R(Locs[P].RegId);
          Regs.markUsed(R, VN, P);
          As.Parts[P].RegId = R.Id;
        } else {
          // Incoming stack slot: [fp + 16 + off], above the saved frame
          // pointer and return address; parts are consecutive.
          if (P == 0)
            As.FrameOff = 16 + Locs[P].StackOff;
          As.Parts[P].Flags |= ValuePart::StackValid;
        }
      }
      if (As.RefCount == 0)
        freeValue(As);
    }
  }

  /// Generates a complete call sequence: argument assignment and moves
  /// (parallel-move safe), caller-saved spilling, stack arguments, the
  /// call itself, and result binding. \p Result may be null for void.
  void genCall(asmx::SymRef Callee, std::span<const ValRef> Args,
               const ValRef *Result, bool Vararg = false) {
    CCAssigner<Config> CC;
    auto &Places = CallPlaces; // scratch member (docs/PERF.md)
    Places.clear();
    for (ValRef V : Args) {
      u8 N = static_cast<u8>(A.valPartCount(V));
      u8 Banks[Assignment::MaxParts] = {};
      typename CCAssigner<Config>::Loc Locs[Assignment::MaxParts];
      for (u8 P = 0; P < N; ++P)
        Banks[P] = A.valPartBank(V, P);
      CC.assignValue(Banks, N, Locs);
      for (u8 P = 0; P < N; ++P)
        Places.push_back(CallPlace{V, P, Locs[P], Banks[P]});
    }

    // 1. All dirty caller-saved registers holding values must be spilled:
    //    the call clobbers them.
    forEachOwnedReg([&](Reg R, u32 VN, u8 Part) {
      if (isCallerSaved(R))
        spillPart(VN, Part);
    });

    // 2. Stack arguments.
    u32 StackBytes = static_cast<u32>(alignTo(CC.stackBytes(), 16));
    if (StackBytes)
      derived()->emitStackAdjust(-static_cast<i32>(StackBytes));
    for (CallPlace &P : Places) {
      if (P.L.InReg)
        continue;
      ValuePartRef Ref = valRef(P.V, P.Part);
      Reg R = Ref.asReg();
      derived()->emitStackArgStore(P.Bank, P.L.StackOff, R);
    }

    // 3. Register arguments as a parallel move set.
    u32 ArgRegMask[Config::NumBanks] = {};
    for (const CallPlace &P : Places)
      if (P.L.InReg)
        ArgRegMask[Config::bankOf(P.L.RegId)] |= u32(1)
                                                 << Config::idxOf(P.L.RegId);
    auto &Moves = CallMoves;
    auto &Holds = CallHolds;
    Moves.clear();
    Holds.clear();
    for (CallPlace &P : Places) {
      if (!P.L.InReg)
        continue;
      ValuePartRef Ref = valRef(P.V, P.Part);
      Ref.lockReg();
      PendingMove Mv;
      Mv.Dst = MoveLoc::reg(Reg(P.L.RegId));
      Mv.Src = Ref.loc();
      Mv.SrcVal = P.V;
      Mv.SrcPart = P.Part;
      Mv.Bank = P.Bank;
      Moves.push_back(Mv);
      Holds.push_back(std::move(Ref));
    }
    // Evict argument registers whose current holders are not move sources.
    std::array<u32, Config::NumBanks> Allow;
    for (u8 Bank = 0; Bank < Config::NumBanks; ++Bank) {
      for (u32 M = ArgRegMask[Bank]; M;) {
        u8 Idx = static_cast<u8>(countTrailingZeros(M));
        M &= M - 1;
        Reg R(Config::regId(Bank, Idx));
        if (Regs.isUsed(R) && !Regs.isLocked(R))
          evictSpecific(R);
      }
      Allow[Bank] = ~ArgRegMask[Bank];
    }
    resolveParallelMoves(Moves, Allow);
    Holds.clear(); // unlock sources, consume uses

    // 4. Clear every caller-saved association (clobbered by the call).
    forEachOwnedReg([&](Reg R, u32 VN, u8 Part) {
      if (!isCallerSaved(R))
        return;
      ValuePart &VP = Assigns[VN].Parts[Part];
      assert((VP.stackValid() || Assigns[VN].RefCount == 0) &&
             "live value lost across call");
      VP.RegId = 0xFF;
      Regs.markFree(R);
    });

    derived()->emitCallSym(Callee, Vararg, CC.fpRegsUsed());
    if (StackBytes)
      derived()->emitStackAdjust(static_cast<i32>(StackBytes));

    // 5. Bind results to Config's return registers.
    if (Result) {
      ValRef RV = *Result;
      u32 VN = A.valNumber(RV);
      Assignment &As = ensureAssignment(RV, VN);
      if (As.RefCount != 0) {
        u8 GPUsed = 0, FPUsed = 0;
        for (u8 P = 0; P < As.PartCount; ++P) {
          u8 Bank = A.valPartBank(RV, P);
          Reg RetR(Bank == 0 ? Config::GPRetRegs[GPUsed++]
                             : Config::FPRetRegs[FPUsed++]);
          if (As.Parts[P].isFixed()) {
            derived()->emitMoveRR(Bank, 8, Reg(As.Parts[P].RegId), RetR);
            As.Parts[P].Flags &= ~ValuePart::StackValid;
          } else {
            Regs.markUsed(RetR, VN, P);
            As.Parts[P].RegId = RetR.Id;
            As.Parts[P].Flags &= ~ValuePart::StackValid;
          }
        }
      }
    }
  }

  /// Moves the (optional) return value into Config's return registers and
  /// emits an epilogue.
  void emitReturn(const ValRef *RetVal) {
    if (RetVal) {
      u8 N = static_cast<u8>(A.valPartCount(*RetVal));
      auto &Moves = CallMoves;
      auto &Holds = CallHolds;
      Moves.clear();
      Holds.clear();
      u8 GPUsed = 0, FPUsed = 0;
      u32 RetMask[Config::NumBanks] = {};
      for (u8 P = 0; P < N; ++P) {
        ValuePartRef Ref = valRef(*RetVal, P);
        u8 Bank = Ref.bank();
        u8 RegId = Bank == 0 ? Config::GPRetRegs[GPUsed++]
                             : Config::FPRetRegs[FPUsed++];
        RetMask[Bank] |= u32(1) << Config::idxOf(RegId);
        Ref.lockReg();
        PendingMove Mv;
        Mv.Dst = MoveLoc::reg(Reg(RegId));
        Mv.Src = Ref.loc();
        Mv.SrcVal = *RetVal;
        Mv.SrcPart = P;
        Mv.Bank = Bank;
        Moves.push_back(Mv);
        Holds.push_back(std::move(Ref));
      }
      std::array<u32, Config::NumBanks> Allow;
      for (u8 Bank = 0; Bank < Config::NumBanks; ++Bank)
        Allow[Bank] = ~RetMask[Bank];
      resolveParallelMoves(Moves, Allow);
      Holds.clear();
    }
    derived()->emitEpilogue();
  }

  static bool isCallerSaved(Reg R) {
    u8 Bank = Config::bankOf(R.Id);
    u32 Bit = u32(1) << Config::idxOf(R.Id);
    return (Config::Allocatable[Bank] & Bit) &&
           !(Config::CalleeSaved[Bank] & Bit);
  }

  // =====================================================================
  // Module driver
  // =====================================================================
  //
  // Every entry point but appendRange() resets the assembler itself (at
  // a cost proportional to the previous compile's symbol table) and
  // creates function and global symbols on first use — funcSym() and
  // the derived compiler's global-symbol accessor. A compile's symbol
  // table, and with it the parallel driver's merge cost, therefore holds
  // exactly what the compile defines or references: O(defined +
  // referenced), never O(module). References across fragments still
  // relocate by name: Assembler::mergeFrom() binds a fragment's
  // declarations to the defining fragment's symbols.

  /// Compiles all functions of the adapter's module, plus its global
  /// data, into the assembler. Returns false if any instruction could
  /// not be compiled.
  bool compile() {
    return compileModuleImpl</*EmitData=*/true>(0, A.funcCount());
  }

  /// Shard entry point for the parallel module driver: compiles and
  /// defines only the functions in [Begin, End). Global *data* is not
  /// emitted — the driver merges it from a compileGlobals() fragment.
  bool compileRange(u32 Begin, u32 End) {
    return compileModuleImpl</*EmitData=*/false>(Begin, End);
  }

  /// Continues the last successful compileRange()/appendRange() with
  /// functions [Begin, End): no reset, no new symbol epoch, no globals
  /// hook, so the symbol caches and the FP constant pool carry over
  /// exactly as they do between two functions of one serial compile. The
  /// parallel driver appends each next shard a worker claims this way.
  bool appendRange(u32 Begin, u32 End) {
    Status.clear();
    return compileFuncs(Begin, End);
  }

  /// Emits the module-level fragment only: the global data/BSS
  /// definitions. Counterpart of compileRange() for the parallel driver.
  bool compileGlobals() { return compileModuleImpl</*EmitData=*/true>(0, 0); }

  /// Structured diagnostic of the last failed compile (Ok after success).
  /// Func is the module-order function index; Shard is filled in by the
  /// parallel driver, not here. The status (and its strings) is reused
  /// across compiles, keeping the clean-compile path allocation-free.
  const support::CompileStatus &status() const { return Status; }

  /// Resets the assembler and compiles functions [Begin, End) into it.
  /// EmitData only chooses how globals are set up: defineGlobals() emits their
  /// data and definitions, declareGlobals() just prepares the on-demand
  /// global-symbol cache. The latter is required only where range
  /// compiles are instantiated — a hard compile error at the call site,
  /// so plain compile() works for back-ends that have not opted into
  /// parallel range compilation.
  template <bool EmitData> bool compileModuleImpl(u32 Begin, u32 End) {
    Status.clear();
    // Optional adapter capacity hints: size the per-function scratch for
    // the module's largest function up front so the compile loop never
    // grows it incrementally (docs/PERF.md).
    if constexpr (requires { A.maxValueCount(); A.maxBlockCount(); }) {
      Assigns.reserve(A.maxValueCount());
      BlockLabels.reserve(A.maxBlockCount());
      An.reserve(A.maxValueCount(), A.maxBlockCount());
    }
    // The table restarts, so one epoch bump makes every cached SymRef
    // (funcSym, the derived global table) stale.
    Asm.reset();
    ++SymEpoch;
    const u32 N = A.funcCount();
    FuncSyms.resize(N);
    if constexpr (EmitData)
      derived()->defineGlobals();
    else
      derived()->declareGlobals();
    return compileFuncs(Begin, End);
  }

  /// The function loop shared by every entry point: compiles functions
  /// [Begin, End) into the assembler as it stands.
  bool compileFuncs(u32 Begin, u32 End) {
    const u32 N = A.funcCount();
    if (End > N)
      End = N;
    for (u32 I = Begin; I < End; ++I) {
      auto F = A.funcRef(I);
      if (!A.funcIsDefinition(F))
        continue;
      if (!compileFunc(F, funcSym(I))) {
        // Built from the module-order function index and name only, so a
        // serial compile and any parallel shard compile of the same bad
        // function produce the identical diagnostic.
        Status.Err = support::CompileErr::UnsupportedInst;
        Status.Func = I;
        Status.Symbol.assign(A.funcName(F));
        Status.Message.assign("unsupported instruction in function '");
        Status.Message.append(A.funcName(F));
        Status.Message.push_back('\'');
        return false;
      }
    }
    // Module-level inconsistencies (e.g. duplicate strong symbol
    // definitions) are collected, not aborted on — fail the compile here.
    if (Asm.hasError()) {
      Status.Err = Asm.errorCode();
      Status.Message.assign(Asm.errorMessage());
      return false;
    }
    return true;
  }

  bool compileFunc(typename Adapter::FuncRef F, asmx::SymRef Sym) {
    A.switchFunc(F);
    An.analyze();

    // Lazy per-function assignment state: bumping the epoch invalidates
    // every entry at once; ensureAssignment() re-initializes on demand.
    if (Assigns.size() < A.valueCount())
      Assigns.resize(A.valueCount());
    ++CurEpoch;
    Regs.reset();
    for (u8 B = 0; B < Config::NumBanks; ++B) {
      FixedPoolFree[B] = Config::FixedRegPool[B];
      UsedCalleeSaved[B] = 0;
    }
    FixedActive.clear();
    CurBlock = 0;

    // Stack variables get fixed frame offsets below the callee-save area.
    i32 Off = -static_cast<i32>(Config::CalleeSaveAreaSize);
    StackVarOffs.clear();
    derived()->forEachStackVar([&](u64 Size, u32 Align) {
      u32 Al = Align < 8 ? 8 : Align;
      Off = -static_cast<i32>(alignTo(static_cast<u64>(-Off) + Size, Al));
      StackVarOffs.push_back(Off);
    });
    Frame.reset(Off);

    Asm.resetLabels();
    BlockLabels.clear();
    for (u32 B = 0; B < An.numBlocks(); ++B)
      BlockLabels.push_back(Asm.makeLabel());

    derived()->beginFunc(Sym);
    setupArguments();

    bool PrevFallsThrough = true; // the prologue falls into the entry block
    for (u32 B = 0; B < An.numBlocks(); ++B) {
      CurBlock = B;
      Asm.bindLabel(BlockLabels[B]);
      bool KeepRegs =
          B == 0 || (An.block(B).NumPreds == 1 && PrevFallsThrough);
      if (!KeepRegs)
        resetRegisterState();
      sweepFixedRegs();
      auto Insts = A.blockInsts(An.block(B).Ref);
      CurInstEnd = Insts.data() + Insts.size();
      for (CurInst = Insts.data(); CurInst != CurInstEnd; ++CurInst)
        if (!derived()->compileInst(*CurInst))
          return false;
      PrevFallsThrough = blockFallsThrough(B);
    }
    derived()->finishFunc(Sym);
    A.finalizeFunc();
    return true;
  }

  // =====================================================================
  // Internal register/assignment machinery (used by the mixins too)
  // =====================================================================

  Assignment &assignment(u32 VN) { return Assigns[VN]; }

  /// The instruction after the one being compiled, within the current
  /// block; null while compiling the block's last instruction. Instruction
  /// compilers use it for fusion (§3.4.4: they "will only want to look at
  /// immediately following instructions; the framework provides access to
  /// this list").
  const ValRef *nextInst() const {
    return CurInst + 1 != CurInstEnd ? CurInst + 1 : nullptr;
  }

  /// Returns the current function's assignment of \p V, initializing it
  /// at the value's first touch in this function (epoch mismatch).
  Assignment &ensureAssignment(ValRef V, u32 VN) {
    Assignment &As = Assigns[VN];
    if (As.Epoch != CurEpoch)
      initAssignment(V, VN, As);
    return As;
  }

  void initAssignment(ValRef V, u32 VN, Assignment &As) {
    const auto &LR = An.liveness(VN);
    As.Epoch = CurEpoch;
    As.PartCount = static_cast<u8>(A.valPartCount(V));
    assert(As.PartCount <= Assignment::MaxParts && "too many value parts");
    As.RefCount = LR.RefCount;
    // Same predicate as Analyzer::rangeEndsInBlock, as one comparison.
    As.FreeFrom = LR.Last + (LR.LastFull ? 1 : 0);
    As.FrameOff = 0;
    for (ValuePart &P : As.Parts)
      P = ValuePart{};
    // Fixed-register heuristic (§3.4.5): multi-block live range fully
    // inside the innermost loop of the definition.
    if (LR.Last == LR.First || DisableFixedRegHeuristic)
      return;
    u32 Loop = An.block(LR.First).Loop;
    if (Loop == 0 || LR.Last > An.loop(Loop).End)
      return;
    for (u8 P = 0; P < As.PartCount; ++P) {
      u8 Bank = A.valPartBank(V, P);
      u32 Pool = FixedPoolFree[Bank] & ~Regs.usedMask(Bank);
      if (!Pool)
        continue; // only currently-free pool registers
      u8 Idx = static_cast<u8>(countTrailingZeros(Pool));
      Reg R(Config::regId(Bank, Idx));
      FixedPoolFree[Bank] &= ~(u32(1) << Idx);
      Regs.markUsed(R, VN, P);
      Regs.markFixed(R);
      As.Parts[P].RegId = R.Id;
      As.Parts[P].Flags |= ValuePart::FixedReg;
      UsedCalleeSaved[Bank] |= u32(1) << Idx;
    }
    FixedActive.push_back(VN);
  }

  /// Allocates a register in \p Bank (free or by eviction); raw: the
  /// caller must mark it used.
  Reg allocRegRaw(u8 Bank, u32 AllowMask = ~0u) {
    Reg R = Regs.findFree(Bank, AllowMask);
    if (!R.isValid())
      R = evictForAlloc(Bank, AllowMask);
    u8 Idx = Config::idxOf(R.Id);
    if ((Config::CalleeSaved[Bank] >> Idx) & 1)
      UsedCalleeSaved[Bank] |= u32(1) << Idx;
    return R;
  }

  /// Frees a register of \p Bank for allocRegRaw by spilling the owner of
  /// the round-robin eviction candidate (defined out of line).
  Reg evictForAlloc(u8 Bank, u32 AllowMask);

  /// Allocates a register for part \p Part of value \p VN (assignment
  /// \p As) and records ownership.
  Reg allocPartReg(Assignment &As, u32 VN, u8 Part, u8 Bank) {
    Reg R = allocRegRaw(Bank);
    Regs.markUsed(R, VN, Part);
    As.Parts[Part].RegId = R.Id;
    return R;
  }

  /// Writes the register copy of (VN, Part) to its stack slot if dirty.
  void spillPart(u32 VN, u8 Part) {
    Assignment &As = Assigns[VN];
    ValuePart &P = As.Parts[Part];
    if (P.stackValid() || !P.inReg() || P.isFixed())
      return;
    if (!As.hasSlot())
      As.FrameOff = Frame.alloc(As.PartCount > 1 ? 16 : 8);
    derived()->emitSlotStore(Config::bankOf(P.RegId), 8,
                             As.FrameOff + 8 * Part, Reg(P.RegId));
    P.Flags |= ValuePart::StackValid;
  }

  void decRef(Assignment &As) {
    assert(As.RefCount > 0 && "use count underflow");
    if (--As.RefCount == 0 && CurBlock >= As.FreeFrom)
      freeValue(As);
  }

  /// Releases all registers and the frame slot of a dead value.
  void freeValue(Assignment &As) {
    freePartReg(As.Parts[0]);
    if (As.PartCount > 1)
      freePartReg(As.Parts[1]);
    if (As.hasSlot()) {
      Frame.release(As.FrameOff, As.PartCount > 1 ? 16 : 8);
      As.FrameOff = 0;
    }
  }

  /// Frees the register of a dead value's part unless a live reference
  /// still locks it (then the last reference to drop frees it).
  void freePartReg(ValuePart &Part) {
    if (!Part.inReg())
      return;
    Reg R(Part.RegId);
    if (Regs.isLocked(R))
      return;
    if (Part.isFixed())
      FixedPoolFree[Config::bankOf(R.Id)] |= u32(1) << Config::idxOf(R.Id);
    Regs.markFree(R);
    Part.RegId = 0xFF;
    Part.Flags &= ~ValuePart::FixedReg;
  }

  /// Clears all non-fixed register associations (block entry with unknown
  /// register state, §3.4.5).
  void resetRegisterState() {
    forEachOwnedReg([&](Reg R, u32 VN, u8 Part) {
      if (Regs.isFixed(R))
        return;
      assert(!Regs.isLocked(R) && "locked register at block boundary");
      ValuePart &P = Assigns[VN].Parts[Part];
      assert((P.stackValid() || Assigns[VN].RefCount == 0) &&
             "dirty live register dropped at block boundary");
      P.RegId = 0xFF;
      Regs.markFree(R);
    });
  }

  /// Frees fixed registers whose values died in earlier blocks.
  void sweepFixedRegs() {
    for (size_t I = 0; I < FixedActive.size();) {
      u32 VN = FixedActive[I];
      if (An.liveness(VN).Last >= CurBlock) {
        ++I;
        continue;
      }
      Assignment &As = Assigns[VN];
      for (u8 P = 0; P < As.PartCount; ++P) {
        ValuePart &Part = As.Parts[P];
        if (Part.isFixed() && Part.inReg()) {
          Reg R(Part.RegId);
          FixedPoolFree[Config::bankOf(R.Id)] |= u32(1) << Config::idxOf(R.Id);
          Regs.markFree(R);
          Part.RegId = 0xFF;
          Part.Flags &= ~ValuePart::FixedReg;
        }
      }
      if (As.hasSlot()) {
        Frame.release(As.FrameOff, As.PartCount > 1 ? 16 : 8);
        As.FrameOff = 0;
      }
      FixedActive[I] = FixedActive.back();
      FixedActive.pop_back();
    }
  }

  /// Iterates (register, owner value, part) over all value-owned registers.
  template <typename Fn> void forEachOwnedReg(Fn Cb) {
    for (u8 Bank = 0; Bank < Config::NumBanks; ++Bank) {
      for (u32 M = Regs.usedMask(Bank); M;) {
        u8 Idx = static_cast<u8>(countTrailingZeros(M));
        M &= M - 1;
        Reg R(Config::regId(Bank, Idx));
        u32 VN = Regs.ownerVal(R);
        if (VN != ~0u)
          Cb(R, VN, Regs.ownerPart(R));
      }
    }
  }

  // =====================================================================
  // Parallel moves (phi edges §3.4.5, call arguments, returns)
  // =====================================================================

  /// Emits the pending moves respecting read-before-write order; cycles
  /// are broken with scratch registers. Scratch allocation can be
  /// restricted per bank via \p ScratchAllow (e.g., to avoid call
  /// argument registers).
  void resolveParallelMoves(MoveVec &Moves,
                            const std::array<u32, Config::NumBanks>
                                &ScratchAllow) {
    auto &CycleTemps = MoveCycleTemps; // scratch member; not reentrant
    assert(CycleTemps.empty() && "parallel move resolution is not reentrant");
    unsigned Remaining = 0;
    for (const PendingMove &M : Moves)
      if (!M.Done)
        ++Remaining;
    while (Remaining) {
      bool Progress = false;
      for (PendingMove &M : Moves) {
        if (M.Done)
          continue;
        bool Blocked = false;
        for (const PendingMove &O : Moves)
          if (!O.Done && &O != &M && O.Src == M.Dst)
            Blocked = true;
        if (Blocked)
          continue;
        emitLocMove(M, ScratchAllow);
        M.Done = true;
        --Remaining;
        Progress = true;
      }
      if (Progress)
        continue;
      // Cycle: save one destination into a temp and redirect its readers.
      PendingMove *M = nullptr;
      for (PendingMove &Cand : Moves)
        if (!Cand.Done) {
          M = &Cand;
          break;
        }
      assert(M && "no pending move in cycle");
      ScratchReg Temp(this);
      Reg T = Temp.alloc(M->Bank, ScratchAllow[M->Bank]);
      if (M->Dst.K == MoveLoc::InReg)
        derived()->emitMoveRR(M->Bank, 8, T, Reg(M->Dst.RegId));
      else
        derived()->emitSlotLoad(M->Bank, 8, T, M->Dst.Off);
      MoveLoc TempLoc = MoveLoc::reg(T);
      for (PendingMove &O : Moves)
        if (!O.Done && O.Src == M->Dst)
          O.Src = TempLoc;
      CycleTemps.push_back(std::move(Temp));
    }
    CycleTemps.clear(); // releases the cycle-breaking registers
  }

  void emitLocMove(const PendingMove &M,
                   const std::array<u32, Config::NumBanks> &ScratchAllow) {
    if (M.Dst.K == MoveLoc::InReg) {
      Reg D(M.Dst.RegId);
      switch (M.Src.K) {
      case MoveLoc::Const:
        derived()->materializeConstLike(M.SrcVal, M.SrcPart, D);
        return;
      case MoveLoc::InReg:
        if (M.Src.RegId != M.Dst.RegId)
          derived()->emitMoveRR(M.Bank, 8, D, Reg(M.Src.RegId));
        return;
      case MoveLoc::Slot:
        derived()->emitSlotLoad(M.Bank, 8, D, M.Src.Off);
        return;
      default:
        TPDE_UNREACHABLE("bad source location");
      }
    }
    assert(M.Dst.K == MoveLoc::Slot && "bad destination location");
    if (M.Src.K == MoveLoc::InReg) {
      derived()->emitSlotStore(M.Bank, 8, M.Dst.Off, Reg(M.Src.RegId));
      return;
    }
    // Memory/const to memory: via scratch.
    ScratchReg Temp(this);
    Reg T = Temp.alloc(M.Bank, ScratchAllow[M.Bank]);
    if (M.Src.K == MoveLoc::Const)
      derived()->materializeConstLike(M.SrcVal, M.SrcPart, T);
    else
      derived()->emitSlotLoad(M.Bank, 8, T, M.Src.Off);
    derived()->emitSlotStore(M.Bank, 8, M.Dst.Off, T);
  }

  bool edgeHasPhiMoves(BlockRef Succ) { return !A.blockPhis(Succ).empty(); }

  /// Moves incoming values into the phi locations of \p Succ for the edge
  /// from the current block.
  void movePhis(BlockRef Succ) {
    auto Phis = A.blockPhis(Succ);
    if (Phis.empty())
      return;

    // Scratch members, reused across edges/functions (docs/PERF.md).
    auto &Moves = PhiMoves;
    auto &Holds = PhiHolds; // keeps locks and use counts
    auto &StaleRegPhis = PhiStaleRegs;
    Moves.clear();
    Holds.clear();
    StaleRegPhis.clear();

    for (ValRef Phi : Phis) {
      u32 PhiVN = A.valNumber(Phi);
      Assignment &PhiAs = ensureAssignment(Phi, PhiVN);
      ValRef In{};
      bool Found = false;
      u32 NumInc = A.phiIncomingCount(Phi);
      for (u32 I = 0; I < NumInc; ++I) {
        if (static_cast<u32>(A.blockAux(A.phiIncomingBlock(Phi, I))) ==
            CurBlock) {
          In = A.phiIncomingValue(Phi, I);
          Found = true;
          break;
        }
      }
      assert(Found && "no phi incoming for this edge");
      (void)Found;
      bool SelfRef = !A.isConstLike(In) && A.valNumber(In) == PhiVN;

      if (SelfRef) {
        // Value unchanged on this edge; ensure the canonical location is
        // up to date, then consume the phi-edge use.
        for (u8 P = 0; P < PhiAs.PartCount; ++P) {
          ValuePart &DP = PhiAs.Parts[P];
          if (!DP.isFixed() && DP.inReg() && !DP.stackValid()) {
            if (!PhiAs.hasSlot())
              PhiAs.FrameOff = Frame.alloc(PhiAs.PartCount > 1 ? 16 : 8);
            derived()->emitSlotStore(A.valPartBank(Phi, P), 8,
                                     PhiAs.FrameOff + 8 * P, Reg(DP.RegId));
            DP.Flags |= ValuePart::StackValid;
          }
        }
        decRef(PhiAs);
        continue;
      }

      bool AnyNonFixedReg = false;
      for (u8 P = 0; P < PhiAs.PartCount; ++P) {
        ValuePart &DstPart = PhiAs.Parts[P];
        ValuePartRef SrcRef = valRef(In, P);
        PendingMove Mv;
        if (DstPart.isFixed()) {
          Mv.Dst = MoveLoc::reg(Reg(DstPart.RegId));
        } else {
          if (!PhiAs.hasSlot())
            PhiAs.FrameOff = Frame.alloc(PhiAs.PartCount > 1 ? 16 : 8);
          Mv.Dst = MoveLoc::slot(PhiAs.FrameOff + 8 * P);
          AnyNonFixedReg |= DstPart.inReg();
        }
        Mv.SrcVal = In;
        Mv.SrcPart = P;
        Mv.Bank = SrcRef.bank();
        Mv.Size = SrcRef.size();
        if (!SrcRef.isConstLike() && SrcRef.hasReg()) {
          Regs.lock(SrcRef.curReg());
          SrcRef.Locked = true;
        }
        Mv.Src = SrcRef.loc();
        Moves.push_back(Mv);
        Holds.push_back(std::move(SrcRef));
      }
      if (AnyNonFixedReg)
        StaleRegPhis.push_back(PhiVN);
      // The canonical location is rewritten on this edge.
      for (u8 P = 0; P < PhiAs.PartCount; ++P) {
        if (PhiAs.Parts[P].isFixed())
          PhiAs.Parts[P].Flags &= ~ValuePart::StackValid;
        else
          PhiAs.Parts[P].Flags |= ValuePart::StackValid;
      }
    }

    std::array<u32, Config::NumBanks> Allow;
    Allow.fill(~0u);
    resolveParallelMoves(Moves, Allow);

    // Drop stale (pre-move) register associations of rewritten phis.
    for (u32 PhiVN : StaleRegPhis) {
      Assignment &As = Assigns[PhiVN];
      for (u8 P = 0; P < As.PartCount; ++P) {
        ValuePart &Part = As.Parts[P];
        if (Part.inReg() && !Part.isFixed()) {
          Reg R(Part.RegId);
          if (!Regs.isLocked(R)) {
            Regs.markFree(R);
            Part.RegId = 0xFF;
          }
        }
      }
    }
    Holds.clear(); // drop locks/use counts before the next collection
    Moves.clear();
  }

protected:
  /// Whether execution can continue from block \p B into block B+1 with
  /// the compile-time register state remaining valid for that edge.
  bool blockFallsThrough(u32 B) {
    if (B + 1 >= An.numBlocks())
      return false;
    for (BlockRef S : A.blockSuccs(An.block(B).Ref))
      if (static_cast<u32>(A.blockAux(S)) == B + 1)
        return true;
    return false;
  }

  Adapter &A;
  asmx::Assembler &Asm;
  AnalyzerT An;
  std::vector<Assignment> Assigns;
  FrameAllocator Frame;
  RegFile<Config> Regs;
  std::vector<asmx::Label> BlockLabels;
  /// Per-function symbol cache for funcSym(); invalidated by SymEpoch.
  asmx::EpochSymCache FuncSyms;
  /// Diagnostic of the last failed module/range compile (see status()).
  support::CompileStatus Status;
  std::vector<i32> StackVarOffs;
  std::vector<u32> FixedActive;
  // Scratch buffers reused across phi edges and functions; cleared, never
  // freed (allocation policy: docs/PERF.md).
  MoveVec PhiMoves;
  support::SmallVector<ValuePartRef, 16> PhiHolds;
  support::SmallVector<u32, 16> PhiStaleRegs;
  support::SmallVector<ScratchReg, 4> MoveCycleTemps;
  // Per-call scratch, reused across calls and functions (docs/PERF.md).
  struct CallPlace {
    ValRef V;
    u8 Part;
    typename CCAssigner<Config>::Loc L;
    u8 Bank;
  };
  support::SmallVector<CallPlace, 16> CallPlaces;
  MoveVec CallMoves;
  support::SmallVector<ValuePartRef, 16> CallHolds;
  u32 FixedPoolFree[Config::NumBanks] = {};
  u32 UsedCalleeSaved[Config::NumBanks] = {};
  u32 CurBlock = 0;
  /// The instruction being compiled and the end of its block's
  /// instruction span (nextInst()).
  const ValRef *CurInst = nullptr;
  const ValRef *CurInstEnd = nullptr;
  /// Current function epoch for lazy Assigns invalidation (never 0).
  u32 CurEpoch = 0;
  /// Epoch of the funcSym()/global-symbol caches; bumped by every compile
  /// (the assembler's symbol table restarts), which invalidates every
  /// slot in O(1). Starts at 0 with all slots stamped 0 — the first
  /// compile bumps before any lookup.
  u64 SymEpoch = 0;
};

template <IRAdapter Adapter, typename Derived, typename Config>
Reg CompilerBase<Adapter, Derived, Config>::evictForAlloc(u8 Bank,
                                                          u32 AllowMask) {
  Reg R = Regs.pickEvictionCandidate(Bank, AllowMask);
  assert(R.isValid() && "all registers locked/fixed");
  u32 Owner = Regs.ownerVal(R);
  assert(Owner != ~0u && "unowned used register");
  spillPart(Owner, Regs.ownerPart(R));
  Assigns[Owner].Parts[Regs.ownerPart(R)].RegId = 0xFF;
  Regs.markFree(R);
  return R;
}

/// Loads a spilled part into a fresh register; returns its id.
template <IRAdapter Adapter, typename Derived, typename Config>
u8 CompilerBase<Adapter, Derived, Config>::ValuePartRef::reload() {
  Reg R = C->allocPartReg(*As, VN, Part, Bank);
  assert(As->Parts[Part].stackValid() &&
         "value lost: neither register nor stack");
  C->derived()->emitSlotLoad(Bank, 8, R, As->FrameOff + 8 * Part);
  return R.Id;
}

/// Materializes a constant-like value into a locked temporary (once per
/// reference).
template <IRAdapter Adapter, typename Derived, typename Config>
Reg CompilerBase<Adapter, Derived, Config>::ValuePartRef::materialize() {
  if (!TmpReg.isValid()) {
    TmpReg = C->allocRegRaw(Bank);
    C->Regs.markUsed(TmpReg, ~0u, 0);
    C->Regs.lock(TmpReg);
    C->derived()->materializeConstLike(Val, Part, TmpReg);
  }
  return TmpReg;
}

/// The verify-then-compile step of every one-shot entry point
/// (compileModuleOneShot, compileModuleParallel). With \p Verify the
/// module is validated first — verifyModule is found by argument-dependent
/// lookup in the IR's namespace — so malformed IR never reaches the
/// emitter. \p Compile(St) runs the compile and fills St on failure;
/// \p StatusOut (optional) receives the structured diagnostic (Ok after a
/// clean compile).
template <typename ModuleT, typename CompileFn>
bool compileVerified(ModuleT &M, bool Verify, support::CompileStatus *StatusOut,
                     CompileFn &&Compile) {
  support::CompileStatus St;
  std::string Errors;
  bool OK = false;
  if (Verify && !verifyModule(M, Errors)) {
    St.Err = support::CompileErr::VerifyFailed;
    St.Message = std::move(Errors);
  } else {
    OK = Compile(St);
  }
  if (StatusOut)
    *StatusOut = std::move(St);
  return OK;
}

/// The one-shot serial module compile behind every back-end's convenience
/// entry point (tpde_tir::compileModuleX64/A64, uir::compileTpdeUir).
template <typename CompilerT, typename ModuleT>
bool compileModuleOneShot(ModuleT &M, asmx::Assembler &Asm, bool Verify,
                          support::CompileStatus *StatusOut) {
  return compileVerified(M, Verify, StatusOut,
                         [&](support::CompileStatus &St) {
    typename CompilerT::AdapterT Adapter(M);
    CompilerT Compiler(Adapter, Asm);
    try {
      if (Compiler.compile())
        return true;
    } catch (...) { // arena growth (interned names) can throw bad_alloc
      St.Err = support::CompileErr::OutOfMemory;
      St.Message = "allocation failed during module compile";
      return false;
    }
    St = Compiler.status();
    return false;
  });
}

} // namespace tpde::core

#endif // TPDE_CORE_COMPILERBASE_H
