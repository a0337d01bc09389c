//===- core/Analyzer.h - TPDE analysis pass ---------------------*- C++ -*-===//
///
/// \file
/// The analysis pass of the TPDE framework (paper §3.3). For one function
/// it performs, in order:
///
///  1. A temporary numbering of all (reachable) basic blocks, stored in the
///     adapter-provided per-block auxiliary storage.
///  2. Loop identification with the DFS-based algorithm of Wei et al.
///     [SAS'07], which also handles irreducible loops; the whole function
///     is wrapped in one pseudo-loop and a loop tree is built (like Kohn
///     et al. [ICDE'18]).
///  3. Block layout: reverse post-order, with each loop laid out
///     contiguously. The final layout index of each block is written back
///     into the auxiliary storage; the framework refers to blocks by this
///     index from then on.
///  4. Coarse liveness: every value gets a contiguous live range
///     [First, Last] of layout indices, a flag whether liveness ends at the
///     end of the Last block, and its number of uses. Uses inside a loop
///     that does not contain the definition extend the range to the end of
///     that loop.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_ANALYZER_H
#define TPDE_CORE_ANALYZER_H

#include "core/Adapter.h"
#include "support/Common.h"

#include <vector>

namespace tpde::core {

/// Result data of the analysis pass; lives until the next analyze() call.
template <typename Adapter> class Analyzer {
public:
  using BlockRef = typename Adapter::BlockRef;
  using ValRef = typename Adapter::ValRef;

  struct BlockInfo {
    BlockRef Ref;
    u32 Loop = 0;     ///< Innermost containing loop (0 = pseudo-root).
    u32 NumPreds = 0; ///< Number of CFG predecessors (reachable ones).
  };

  struct LoopInfo {
    u32 Parent = 0;
    u32 Level = 0; ///< 0 for the pseudo-root wrapping the function.
    u32 Begin = 0; ///< First layout index belonging to the loop.
    u32 End = 0;   ///< Last layout index belonging to the loop (inclusive).
  };

  struct LiveRange {
    u32 First = 0;
    u32 Last = 0;
    u32 RefCount = 0;
    /// True if liveness extends to the end of block Last (loop-carried or
    /// phi-edge use); false if it ends at the last in-block use.
    bool LastFull = false;
    bool HasDef = false;
  };

  explicit Analyzer(Adapter &A) : A(A) {}

  /// Runs the full analysis for the adapter's current function.
  void analyze() {
    numberBlocks();
    findLoops();
    layoutBlocks();
    computeLiveness();
  }

  /// Pre-sizes all scratch for functions up to the given value/block
  /// counts so steady-state analyze() calls never allocate.
  void reserve(u32 MaxValues, u32 MaxBlocks) {
    Live.reserve(MaxValues);
    TmpBlocks.reserve(MaxBlocks);
    ILoop.reserve(MaxBlocks);
    IsHeader.reserve(MaxBlocks);
    Dfsp.reserve(MaxBlocks);
    PostOrder.reserve(MaxBlocks);
    Layout.reserve(MaxBlocks);
    Visited.reserve(MaxBlocks);
    LoopOfHeader.reserve(MaxBlocks);
    TmpToLayout.reserve(MaxBlocks);
  }

  u32 numBlocks() const { return static_cast<u32>(Layout.size()); }
  const BlockInfo &block(u32 LayoutIdx) const { return Layout[LayoutIdx]; }
  u32 numLoops() const { return static_cast<u32>(Loops.size()); }
  const LoopInfo &loop(u32 Idx) const { return Loops[Idx]; }
  const LiveRange &liveness(u32 ValNum) const { return Live[ValNum]; }

  /// Layout index of a block (only valid after analyze()).
  u32 layoutIdx(BlockRef B) const {
    return static_cast<u32>(const_cast<Adapter &>(A).blockAux(B));
  }

  /// True if the value is live-in at the entry of layout block \p B.
  bool liveAt(u32 ValNum, u32 B) const {
    const LiveRange &L = Live[ValNum];
    return L.HasDef && L.First < B && B <= L.Last;
  }

  /// True if the value's live range is over at (the end of) instruction
  /// processing in block \p CurBlock once its RefCount reaches zero. The
  /// code generator caches this per value as Assignment::FreeFrom.
  bool rangeEndsInBlock(u32 ValNum, u32 CurBlock) const {
    const LiveRange &L = Live[ValNum];
    return L.Last < CurBlock || (L.Last == CurBlock && !L.LastFull);
  }

private:
  // --- Step 1: temporary numbering -------------------------------------
  void numberBlocks() {
    // Reachability walk from the entry; unreachable blocks are skipped
    // entirely. The adapter's aux storage holds the temporary number
    // (~0 marks "not yet reached").
    TmpBlocks.clear();
    u32 N = A.blockCount();
    for (u32 I = 0; I < N; ++I)
      A.blockAux(A.blockRef(I)) = ~u64(0);
    BlockRef Entry = A.blockRef(0);
    A.blockAux(Entry) = 0;
    TmpBlocks.push_back(Entry);
    WalkStack.clear();
    WalkStack.push_back(Entry);
    while (!WalkStack.empty()) {
      BlockRef B = WalkStack.back();
      WalkStack.pop_back();
      for (BlockRef S : A.blockSuccs(B)) {
        if (A.blockAux(S) == ~u64(0)) {
          A.blockAux(S) = TmpBlocks.size();
          TmpBlocks.push_back(S);
          WalkStack.push_back(S);
        }
      }
    }
  }

  u32 tmpIdx(BlockRef B) { return static_cast<u32>(A.blockAux(B)); }

  // --- Step 2: loop identification (Wei et al.) --------------------------
  void findLoops() {
    const u32 N = static_cast<u32>(TmpBlocks.size());
    ILoop.assign(N, ~0u);
    IsHeader.assign(N, false);
    Dfsp.assign(N, 0);
    PostOrder.clear();
    PostOrder.reserve(N);

    auto &Stack = DfsStack;
    Stack.clear();
    Visited.assign(N, 0);
    Stack.push_back({0, 0});
    Visited[0] = 1;
    Dfsp[0] = 1;
    while (!Stack.empty()) {
      DfsFrame &F = Stack.back();
      auto Succs = A.blockSuccs(TmpBlocks[F.B]);
      if (F.SuccIdx < Succs.size()) {
        u32 S = tmpIdx(Succs[F.SuccIdx++]);
        if (!Visited[S]) {
          Visited[S] = 1;
          Dfsp[S] = static_cast<u32>(Stack.size()) + 1;
          Stack.push_back({S, 0});
          continue;
        }
        if (Dfsp[S] > 0) {
          // Back edge: S is a loop header.
          IsHeader[S] = true;
          tagLoopHeader(F.B, S);
        } else if (ILoop[S] != ~0u) {
          u32 H = ILoop[S];
          if (Dfsp[H] > 0) {
            tagLoopHeader(F.B, H);
          } else {
            // Re-entry into an already-closed loop: irreducible. Climb the
            // loop chain to find an active enclosing header.
            while (ILoop[H] != ~0u) {
              H = ILoop[H];
              if (Dfsp[H] > 0) {
                tagLoopHeader(F.B, H);
                break;
              }
            }
          }
        }
        continue;
      }
      // Finished B.
      Dfsp[F.B] = 0;
      PostOrder.push_back(F.B);
      u32 Inner = ILoop[F.B];
      Stack.pop_back();
      if (!Stack.empty())
        tagLoopHeader(Stack.back().B, Inner);
    }
  }

  /// Wei et al. tag_lhead: records that \p B is inside the loop headed by
  /// \p H, maintaining innermost-first chains.
  void tagLoopHeader(u32 B, u32 H) {
    if (H == ~0u || B == H)
      return;
    u32 Cur1 = B, Cur2 = H;
    while (ILoop[Cur1] != ~0u) {
      u32 IH = ILoop[Cur1];
      if (IH == Cur2)
        return;
      if (Dfsp[IH] < Dfsp[Cur2]) {
        ILoop[Cur1] = Cur2;
        Cur1 = Cur2;
        Cur2 = IH;
      } else {
        Cur1 = IH;
      }
    }
    ILoop[Cur1] = Cur2;
  }

  // --- Step 3: layout ------------------------------------------------------
  void layoutBlocks() {
    const u32 N = static_cast<u32>(TmpBlocks.size());
    // Loop table: pseudo-root is loop 0.
    LoopOfHeader.assign(N, 0);
    Loops.clear();
    Loops.push_back(LoopInfo{0, 0, 0, N ? N - 1 : 0});
    for (u32 B = 0; B < N; ++B) {
      if (IsHeader[B]) {
        LoopOfHeader[B] = static_cast<u32>(Loops.size());
        Loops.push_back(LoopInfo{});
      }
    }
    // Loop of any block; parent of each loop.
    auto loopOfBlock = [&](u32 B) -> u32 {
      if (IsHeader[B])
        return LoopOfHeader[B];
      u32 H = ILoop[B];
      return H == ~0u ? 0 : LoopOfHeader[H];
    };
    for (u32 B = 0; B < N; ++B) {
      if (!IsHeader[B])
        continue;
      u32 L = LoopOfHeader[B];
      u32 PH = ILoop[B];
      Loops[L].Parent = PH == ~0u ? 0 : LoopOfHeader[PH];
    }
    for (u32 L = 1; L < Loops.size(); ++L) {
      // Levels: chains are short; a simple walk suffices.
      u32 Level = 0, P = L;
      while (P != 0) {
        P = Loops[P].Parent;
        ++Level;
      }
      Loops[L].Level = Level;
    }

    // Build per-loop item lists in RPO order: a block item or, at the
    // first encounter of an inner loop, a loop item. The outer and inner
    // item vectors are scratch members: reused across functions, so a
    // steady-state analyze() performs no allocation.
    if (Items.size() < Loops.size())
      Items.resize(Loops.size());
    for (size_t I = 0; I < Loops.size(); ++I)
      Items[I].clear();
    LoopAdded.assign(Loops.size(), 0);
    LoopAdded[0] = 1;
    auto ensureLoopAdded = [&](u32 L, auto &&Self) -> void {
      if (LoopAdded[L])
        return;
      LoopAdded[L] = 1;
      Self(Loops[L].Parent, Self);
      Items[Loops[L].Parent].push_back(Item{true, L});
    };
    for (auto It = PostOrder.rbegin(); It != PostOrder.rend(); ++It) {
      u32 B = *It;
      u32 L = loopOfBlock(B);
      ensureLoopAdded(L, ensureLoopAdded);
      Items[L].push_back(Item{false, B});
    }

    // Emit: blocks of a loop are contiguous in the layout.
    Layout.clear();
    Layout.reserve(N);
    TmpToLayout.assign(N, 0);
    auto emit = [&](u32 L, auto &&Self) -> void {
      Loops[L].Begin = static_cast<u32>(Layout.size());
      for (const Item &It : Items[L]) {
        if (It.IsLoop) {
          Self(It.Idx, Self);
        } else {
          TmpToLayout[It.Idx] = static_cast<u32>(Layout.size());
          BlockInfo BI;
          BI.Ref = TmpBlocks[It.Idx];
          BI.Loop = loopOfBlock(It.Idx);
          Layout.push_back(BI);
        }
      }
      Loops[L].End = static_cast<u32>(Layout.size()) - 1;
    };
    emit(0, emit);
    assert(Layout.size() == N && "layout dropped blocks");

    // Publish the final numbering through the adapter aux field and count
    // predecessors.
    for (u32 I = 0; I < N; ++I)
      A.blockAux(Layout[I].Ref) = I;
    for (u32 I = 0; I < N; ++I)
      for (BlockRef S : A.blockSuccs(Layout[I].Ref))
        ++Layout[static_cast<u32>(A.blockAux(S))].NumPreds;
  }

  // --- Step 4: liveness ---------------------------------------------------

  /// Extends \p L to cover a use in layout block \p UseBlock; crosses
  /// loops that contain the use but not the definition (L.First).
  void extendRange(LiveRange &L, u32 UseBlock, bool AtEnd) {
    u32 Ext = UseBlock;
    bool Full = AtEnd;
    u32 DefBlock = L.First;
    u32 Loop = Layout[UseBlock].Loop;
    while (Loop != 0 &&
           !(Loops[Loop].Begin <= DefBlock && DefBlock <= Loops[Loop].End)) {
      Ext = Loops[Loop].End;
      Full = true;
      Loop = Loops[Loop].Parent;
    }
    if (Ext > L.Last) {
      L.Last = Ext;
      L.LastFull = Full;
    } else if (Ext == L.Last) {
      L.LastFull |= Full;
    }
  }

  void computeLiveness() {
    // Entries are only ever read for values with a definition in the
    // CURRENT function (liveAt/rangeEndsInBlock run on register-owning
    // values, liveness() on assigned ones), and def() below
    // (re-)initializes every field — so switching functions only grows
    // the array; no per-function memset. Constant-like values never get
    // a def and are never queried.
    if (Live.size() < A.valueCount())
      Live.resize(A.valueCount());

    // All definitions are recorded before any use is scanned, so the def
    // can simply initialize the range.
    auto def = [&](ValRef V, u32 B) {
      LiveRange &L = Live[A.valNumber(V)];
      L.First = B;
      L.Last = B;
      L.RefCount = 0;
      L.LastFull = false;
      L.HasDef = true;
    };

    // Definitions: arguments in the entry block, then phis/instructions.
    for (ValRef V : A.funcArgs())
      def(V, 0);
    for (u32 B = 0; B < Layout.size(); ++B) {
      for (ValRef P : A.blockPhis(Layout[B].Ref))
        def(P, B);
      for (ValRef I : A.blockInsts(Layout[B].Ref))
        def(I, B);
    }
    // Uses. Instruction compilers take one ValuePartRef per part of an
    // operand, so each occurrence accounts for PartCount references.
    for (u32 B = 0; B < Layout.size(); ++B) {
      for (ValRef P : A.blockPhis(Layout[B].Ref)) {
        LiveRange &PL = Live[A.valNumber(P)];
        u32 NumInc = A.phiIncomingCount(P);
        for (u32 I = 0; I < NumInc; ++I) {
          ValRef V = A.phiIncomingValue(P, I);
          u32 PredIdx =
              static_cast<u32>(A.blockAux(A.phiIncomingBlock(P, I)));
          if (!A.isConstLike(V)) {
            LiveRange &L = Live[A.valNumber(V)];
            L.RefCount += A.valPartCount(V);
            extendRange(L, PredIdx, /*AtEnd=*/true);
          }
          // The phi itself is *written* at the end of every incoming
          // edge; its storage must stay live until the latest such write
          // (back edges!). This extends the range without adding a use.
          extendRange(PL, PredIdx, /*AtEnd=*/true);
        }
      }
      for (ValRef I : A.blockInsts(Layout[B].Ref)) {
        for (ValRef V : A.instOperands(I)) {
          if (A.isConstLike(V))
            continue;
          LiveRange &L = Live[A.valNumber(V)];
          L.RefCount += A.valPartCount(V);
          // A use in the defining block is inside every loop of the
          // definition and never past Last: extendRange would not change
          // the range.
          if (L.First != B)
            extendRange(L, B, /*AtEnd=*/false);
        }
      }
    }
  }

  struct DfsFrame {
    u32 B;
    u32 SuccIdx;
  };
  struct Item {
    bool IsLoop;
    u32 Idx;
  };

  Adapter &A;
  std::vector<BlockRef> TmpBlocks;
  std::vector<u32> ILoop;
  std::vector<u8> IsHeader;
  std::vector<u32> Dfsp;
  std::vector<u32> PostOrder;
  std::vector<BlockInfo> Layout;
  std::vector<LoopInfo> Loops;
  std::vector<LiveRange> Live;
  // Scratch reused across analyze() calls (allocation policy: docs/PERF.md).
  std::vector<BlockRef> WalkStack;
  std::vector<DfsFrame> DfsStack;
  std::vector<u8> Visited;
  std::vector<u32> LoopOfHeader;
  std::vector<std::vector<Item>> Items;
  std::vector<u8> LoopAdded;
  std::vector<u32> TmpToLayout;
};

} // namespace tpde::core

#endif // TPDE_CORE_ANALYZER_H
