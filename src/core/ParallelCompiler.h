//===- core/ParallelCompiler.h - Sharded module compilation -----*- C++ -*-===//
///
/// \file
/// The backend-agnostic parallel module compile driver: compiles a
/// module's functions across N worker threads, each owning a private
/// asmx::Assembler + compiler instance (reset-not-freed, per docs/
/// PERF.md), then deterministically merges the per-shard text/rodata,
/// relocations, and symbol tables into one linkable/JIT-mappable module.
///
/// The driver is a template over the *worker* type — parallel compilation
/// is a framework property, not a per-target feature. A back-end opts in
/// by providing a type satisfying the ParallelCompileWorker concept:
///
///   struct MyWorker {
///     using ModuleT = ...;                 // the IR module type
///     explicit MyWorker(ModuleT &M);       // per-thread state (adapter,
///                                          // assembler, compiler)
///     asmx::Assembler &assembler();        // the worker's private output
///     bool compileGlobals();               // module-level fragment only
///                                          //   (CompilerBase::compileGlobals)
///     bool compileRange(u32 Begin, u32 End); // functions [Begin, End)
///                                          //   (CompilerBase::compileRange)
///     static u32 funcCount(const ModuleT &M);
///     static u32 funcWeight(const ModuleT &M, u32 I); // size proxy for
///                                          // shard balancing (e.g. value count)
///     const support::CompileStatus &status() const; // last failure's
///                                          // structured diagnostic
///     // optional: enables the ParallelCompileOptions::Verify pre-pass
///     static bool verifyModule(const ModuleT &M, std::string &Errors);
///   };
///
/// A worker's compileRange()/compileGlobals() forward to the CompilerBase
/// entry points of the same name, which in turn require the derived
/// compiler to implement the declareGlobals() hook (see
/// core/CompilerBase.h); Assembler::mergeFrom() supplies the cross-shard
/// symbol resolution. Nothing in this file knows about the target or the
/// IR.
///
/// Determinism contract: the merged output is **byte-identical regardless
/// of thread count and schedule**. This falls out of three rules:
///
///  1. The shard decomposition depends only on the module — boundaries
///     are a pure function of the per-function weights and FuncsPerShard,
///     never of the thread count.
///  2. Each shard's output is snapshotted into its own fragment assembler;
///     the work-stealing queue decides *who* compiles a shard, never
///     *where* its bytes land.
///  3. The final merge walks fragments in shard-index order on the calling
///     thread (module-level globals fragment first).
///
/// Two-pass (zero-merge) emission: the driver never serially *copies* a
/// shard fragment's text/data bytes into the output. The compile pass
/// doubles as an exact pre-measure — every fragment's final section
/// sizes are known once the shard pass (plus recovery) finishes — so the
/// driver reserves each fragment's slice of the output sections in shard
/// order (Assembler::reserveFrom, O(1) per shard in section bytes), lets
/// the worker pool memcpy all fragments into their disjoint slices
/// concurrently (Assembler::placeFrom), and keeps only the
/// O(symbols + relocs) stitch (Assembler::stitchFrom) on the serial
/// path. Output is byte-identical to a serial compile — the three
/// primitives *are* mergeFrom, resequenced — and emitStats() exposes the
/// per-phase cost breakdown the bench rows record (docs/PERF.md
/// "Two-pass emission").
///
/// Cross-shard references (calls, global addresses) work because the code
/// generators only ever reference symbols through relocations: a shard
/// materializes a symbol on demand at its first reference (an undefined
/// declaration when the definition lives elsewhere), and
/// Assembler::mergeFrom() binds those declarations to the defining
/// shard's symbols by interned name. No shard ever registers the whole
/// module symbol table — per-shard symbol cost is O(defined +
/// referenced), so a module compile carries an O(Funcs) total symbol
/// term instead of O(Funcs^2 / FuncsPerShard). The .text bytes of the
/// merged module are identical to a single-assembler serial compile; the
/// read-only data matches the serial pool as well because mergeFrom()
/// content-deduplicates the anonymous FP-pool entries across shards; and
/// the ELF writer emits the symbol table in a canonical content order,
/// so the serial and merged objects are byte-identical end to end.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_PARALLELCOMPILER_H
#define TPDE_CORE_PARALLELCOMPILER_H

#include "asmx/Assembler.h"
#include "support/Diag.h"
#include "support/FaultInjector.h"
#include "support/Sync.h"
#include "support/Timer.h"
#include "support/WorkQueue.h"

#include <concepts>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tpde::core {

template <typename W>
concept ParallelCompileWorker =
    requires(W Wk, typename W::ModuleT &M, const typename W::ModuleT &CM,
             u32 I) {
      typename W::ModuleT;
      requires std::constructible_from<W, typename W::ModuleT &>;
      { Wk.assembler() } -> std::same_as<asmx::Assembler &>;
      { Wk.compileGlobals() } -> std::convertible_to<bool>;
      { Wk.compileRange(I, I) } -> std::convertible_to<bool>;
      { W::funcCount(CM) } -> std::convertible_to<u32>;
      { W::funcWeight(CM, I) } -> std::convertible_to<u32>;
      /// Structured diagnostic of the worker's last failed compile; the
      /// driver lifts it into the per-shard status slot.
      { std::as_const(Wk).status() }
          -> std::convertible_to<const support::CompileStatus &>;
      // optional: static u64 shardTextBound(const ModuleT &, u32 Begin,
      // u32 End) — an upper-bound text-size estimate for a shard, used
      // to pre-size the shard's fragment buffer so early compiles skip
      // the geometric-growth ladder. A *hint* only: correctness and
      // byte-identity never depend on it.
    };

struct ParallelCompileOptions {
  /// Worker threads including the calling thread; 0 means
  /// tpde::hardwareConcurrency().
  unsigned NumThreads = 0;
  /// Shard granularity in functions: a module of F functions becomes
  /// ceil(F / FuncsPerShard) shards whose boundaries equalize the
  /// per-function size proxy (WorkerT::funcWeight), so modules with a few
  /// giant functions balance across workers. Part of the determinism
  /// contract: the same module always decomposes into the same shards,
  /// whatever the thread count. Smaller shards balance better; larger
  /// shards amortize the per-shard snapshot/merge cost.
  u32 FuncsPerShard = 4;
  /// Run the worker's verifier (WorkerT::verifyModule, when provided)
  /// before sharding; a malformed module is rejected with a VerifyFailed
  /// status and never reaches codegen. Off by default on the production
  /// path, on in the tests.
  bool Verify = false;
};

/// Per-phase cost breakdown of the last compile(), for the bench rows
/// (bench/compile_throughput.cpp) and the O(relocs)-stitch claim in
/// docs/PERF.md. Wall-clock nanoseconds via tpde::nowNs().
struct EmitStats {
  u64 CompileNs = 0; ///< Parallel shard pass incl. snapshots + recovery.
  u64 ReserveNs = 0; ///< Serial slice reservation.
  u64 PlaceNs = 0;   ///< Parallel in-place byte placement (pass 2).
  u64 StitchNs = 0;  ///< Serial merge tail: rodata dedup, symbols, relocs.
  u64 StitchRelocs = 0; ///< Relocations rebased by the serial stitch.
  u64 PlacedBytes = 0;  ///< Text+data bytes written by parallel placement.
};

/// Reusable parallel compilation pipeline for one module. Construction
/// spawns the worker pool; compile() may be called repeatedly (e.g. a JIT
/// recompiling on deoptimization) and is allocation-free in steady state:
/// workers reset their compiler/assembler state without freeing it, and
/// all fragments retain their capacity.
template <ParallelCompileWorker WorkerT>
class ParallelModuleCompiler {
public:
  using ModuleT = typename WorkerT::ModuleT;

  explicit ParallelModuleCompiler(ModuleT &M, ParallelCompileOptions Opts = {})
      : M(M), Opts(Opts) {
    unsigned N = Opts.NumThreads;
    if (N == 0)
      N = tpde::hardwareConcurrency();
    if (this->Opts.FuncsPerShard == 0)
      this->Opts.FuncsPerShard = 1;
    Workers.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Workers.push_back(std::make_unique<Worker>(M));
    // Worker 0 is the calling thread; only 1..N-1 get their own thread.
    for (unsigned I = 1; I < N; ++I)
      Workers[I]->Thread = tpde::Thread([this, I] { workerMain(I); });
  }

  ~ParallelModuleCompiler() {
    {
      LockGuard L(Mtx);
      Stop = true;
    }
    JobCV.notify_all();
    for (auto &W : Workers)
      if (W->Thread.joinable())
        W->Thread.join();
  }

  ParallelModuleCompiler(const ParallelModuleCompiler &) = delete;
  ParallelModuleCompiler &operator=(const ParallelModuleCompiler &) = delete;

  /// Compiles the module into \p Out (which is reset first). Returns
  /// false if any function failed to compile or the merged module is
  /// inconsistent; status()/diagnostics() carry the structured errors.
  ///
  /// Failure semantics (graceful degradation): a failed shard's fragment
  /// is discarded and the shard is recompiled function-by-function on the
  /// calling thread with fresh worker state — good functions land in the
  /// output, each bad function is quarantined with one precise diagnostic.
  /// A module with K bad functions therefore compiles everything else
  /// (byte-identical to a serial compile of the good subset) and reports
  /// exactly K diagnostics, ordered by shard then function index —
  /// independent of thread count and schedule (first-error-wins keyed by
  /// shard order, never thread arrival). Merge, stitch, and placement
  /// failures also land in diagnostics(), attributed to the shard that
  /// surfaced them.
  bool compile(asmx::Assembler &Out) {
    FirstStatus.clear();
    Diags.clear();
    Stats = EmitStats{};
    if (Opts.Verify && !verifyGate()) {
      Out.reset();
      return false;
    }
    computeShardBounds();
    u64 T0 = nowNs();
    runParallelPass();
    Stats.CompileNs += nowNs() - T0;

    // Ordered rebuild: every shard's slice of Out is reserved first, then
    // the worker pool places all shards concurrently, then the serial
    // stitch walks them in shard order. The destination's interned-name
    // pool is arena-backed, so a merge can throw bad_alloc — that becomes
    // a diagnostic instead of unwinding out of the compile.
    preparePlans(Out);
    u64 T = nowNs();
    Out.reset();
    try {
      Out.mergeFrom(GlobalsFrag);
      if (Out.hasError())
        noteMergeError(Out, ~0u);
      for (u32 S = 0; S < NumShards; ++S)
        reserveShard(Out, S);
    } catch (...) {
      // Shards not yet reserved stay unplanned: the placement and stitch
      // passes skip them.
      failMerge(support::CompileErr::OutOfMemory,
                "allocation failed merging the module", ~0u);
    }
    Stats.ReserveNs += nowNs() - T;
    runPlacementPass();
    for (u32 S = 0; S < NumShards; ++S) {
      // Terminal placement failure: runPlacementPass zero-filled the
      // slice (the only source is the section-place fault site).
      if (PlaceFailed[S])
        failMerge(support::CompileErr::FaultInjected,
                  "fault injected: section-place", S);
    }
    T = nowNs();
    try {
      for (u32 S = 0; S < NumShards; ++S) {
        if (!Planned[S])
          continue;
        bool PrevErr = Out.hasError();
        Stats.StitchRelocs += Frags[S]->relocs().size();
        Out.stitchFrom(*Frags[S], Plans[S]);
        if (!PrevErr && Out.hasError())
          noteMergeError(Out, S);
      }
    } catch (...) {
      failMerge(support::CompileErr::OutOfMemory,
                "allocation failed merging the module", ~0u);
    }
    Stats.StitchNs += nowNs() - T;

    // Every failure above also produced a diagnostic, so a clean
    // diagnostics list means the module compiled cleanly.
    if (Diags.empty())
      return true;
    FirstStatus = Diags.front();
    return false;
  }

  /// First diagnostic of the last compile() — deterministically the one
  /// with the lowest shard index, then lowest function index (Ok after a
  /// fully clean compile).
  const support::CompileStatus &status() const { return FirstStatus; }
  /// All diagnostics of the last compile(), ordered by shard then
  /// function index. One entry per quarantined function.
  std::span<const support::CompileStatus> diagnostics() const {
    return Diags;
  }

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }
  u32 shardCount() const { return NumShards; }
  /// Shard S covers functions [shardBounds()[S], shardBounds()[S+1]);
  /// NumShards+1 entries, valid after the first compile().
  std::span<const u32> shardBounds() const { return ShardBounds; }
  /// Pre-recovery status slot of shard \p S from the last compile()
  /// (Ok if the shard compiled cleanly on the parallel pass). The
  /// recovery pass may still have compiled the shard's functions
  /// afterwards — diagnostics() has the final per-function picture.
  const support::CompileStatus &shardStatus(u32 S) const {
    return ShardStatus[S];
  }
  /// Per-phase cost breakdown of the last compile() — where the
  /// wall-clock went.
  const EmitStats &emitStats() const { return Stats; }

private:
  struct Worker {
    explicit Worker(ModuleT &M) : W(M) {}
    WorkerT W;
    tpde::Thread Thread; ///< Unjoinable for worker 0 (the calling thread).
  };

  /// What a published job asks the pool to do with each popped shard
  /// index: compile it into its fragment, or place its fragment's bytes
  /// into the pre-reserved output slice.
  enum class PassKind : u8 { Compile, Place };

  /// The compile half of compile(): fragment setup, the parallel
  /// shard pass over the current ShardBounds/NumShards, and the
  /// single-threaded recovery pass. On return every shard fragment is
  /// final and Diags holds the recovery diagnostics, ordered by shard
  /// then function.
  void runParallelPass() {
    while (Frags.size() < NumShards)
      Frags.push_back(std::make_unique<asmx::Assembler>());
    ShardFailed.assign(NumShards, 0);
    if (ShardStatus.size() < NumShards)
      ShardStatus.resize(NumShards);
    Queue.reset(NumShards, threadCount());

    // Publish the job. The mutex orders the shard/fragment setup above
    // before any worker starts draining.
    {
      LockGuard L(Mtx);
      Phase = PassKind::Compile;
      ++JobSeq;
      Pending = threadCount() - 1;
    }
    JobCV.notify_all();

    // The calling thread produces the module-level fragment (global data)
    // and then joins shard compilation as worker 0.
    bool GlobalsFailed = !compileGlobalsFrag();
    drainQueue(0, PassKind::Compile);

    {
      LockGuard L(Mtx);
      while (Pending != 0)
        DoneCV.wait(Mtx);
    }

    // Recovery pass, single-threaded on the calling thread (every worker
    // is idle past the barrier, so the per-shard slots are safe to read).
    // Shard order makes the diagnostics list deterministic. Recovery runs
    // *before* any output planning, so the slices reserved later always
    // describe the fragments' final (post-quarantine) sizes — a failed
    // shard never owns output bytes it cannot fill.
    if (GlobalsFailed && !compileGlobalsFrag())
      recordGlobalsFailure();
    for (u32 S = 0; S < NumShards; ++S)
      if (ShardFailed[S])
        retryShard(S);
  }

  /// Points the placement pass at \p Out and sizes/clears the per-shard
  /// placement scratch (capacity retained across compiles, docs/PERF.md).
  void preparePlans(asmx::Assembler &Out) {
    PlaceOut = &Out;
    if (Plans.size() < NumShards)
      Plans.resize(NumShards);
    Planned.assign(NumShards, 0);
    PlaceFailed.assign(NumShards, 0);
  }

  /// Reserves shard \p S's slice of \p Out and routes the placement pass
  /// to it. Planned is set only on success, so a throwing reservation
  /// leaves the shard unplanned (skipped by placement and stitch).
  void reserveShard(asmx::Assembler &Out, u32 S) {
    Out.reserveFrom(*Frags[S], Plans[S]);
    constexpr unsigned TextI = static_cast<unsigned>(asmx::SecKind::Text);
    constexpr unsigned DataI = static_cast<unsigned>(asmx::SecKind::Data);
    Stats.PlacedBytes += Plans[S].Bytes[TextI] + Plans[S].Bytes[DataI];
    Planned[S] = 1;
  }

  /// Pass 2: the worker pool memcpys every planned shard's text/data
  /// into its pre-reserved slice. Slices are disjoint byte ranges, so
  /// the pass needs no synchronization beyond the job barrier. A
  /// placement fault is retried once on the calling thread (the fault
  /// site fires exactly once per arm); a terminal failure zero-fills
  /// the slice so neighboring shards' bytes stay intact, and leaves
  /// PlaceFailed[S] set for the caller to diagnose.
  void runPlacementPass() {
    u64 T = nowNs();
    Queue.reset(NumShards, threadCount());
    {
      LockGuard L(Mtx);
      Phase = PassKind::Place;
      ++JobSeq;
      Pending = threadCount() - 1;
    }
    JobCV.notify_all();
    drainQueue(0, PassKind::Place);
    {
      LockGuard L(Mtx);
      while (Pending != 0)
        DoneCV.wait(Mtx);
      Phase = PassKind::Compile;
    }
    for (u32 S = 0; S < NumShards; ++S) {
      if (!PlaceFailed[S])
        continue;
      if (PlaceOut->placeFrom(*Frags[S], Plans[S])) {
        PlaceFailed[S] = 0;
        continue;
      }
      PlaceOut->zeroSlice(Plans[S]);
    }
    Stats.PlaceNs += nowNs() - T;
  }

  /// A merge-stage failure: the diagnostic (attributed to shard \p S, ~0u
  /// when no single shard caused it) joins diagnostics().
  void failMerge(support::CompileErr E, std::string_view Msg, u32 S) {
    support::CompileStatus D;
    D.Err = E;
    D.Shard = S;
    D.Message.assign(Msg);
    Diags.push_back(std::move(D));
  }

  /// A merge/stitch-stage inconsistency that \p Out just recorded,
  /// surfaced by shard \p S (~0u: the globals fragment). It becomes a
  /// diagnostic only when nothing earlier did, so each quarantined
  /// function still owns exactly one diagnostic.
  void noteMergeError(const asmx::Assembler &Out, u32 S) {
    if (!Diags.empty())
      return;
    support::CompileStatus D;
    D.Err = Out.errorCode() == support::CompileErr::FaultInjected
                ? support::CompileErr::FaultInjected
                : support::CompileErr::MergeError;
    D.Shard = S;
    D.Message.assign(Out.errorMessage());
    Diags.push_back(std::move(D));
  }

  /// Deterministic shard decomposition: ceil(Funcs / FuncsPerShard)
  /// shards, each boundary placed where the accumulated function weight
  /// reaches the next 1/Shards slice of the module's total, so skewed
  /// modules produce balanced shards. Every shard is non-empty; the cut
  /// is a pure function of the module's weights and FuncsPerShard, never
  /// of the thread count.
  void computeShardBounds() {
    const u32 Funcs = WorkerT::funcCount(M);
    NumShards = (Funcs + Opts.FuncsPerShard - 1) / Opts.FuncsPerShard;
    ShardBounds.clear();
    ShardBounds.push_back(0);
    if (NumShards == 0)
      return;
    u64 Total = 0;
    for (u32 F = 0; F < Funcs; ++F)
      Total += weightOf(F);
    u64 Acc = 0;
    u32 S = 1; // next boundary to place
    for (u32 F = 0; F < Funcs && S < NumShards; ++F) {
      Acc += weightOf(F);
      u32 Remaining = Funcs - (F + 1);
      u32 ShardsLeft = NumShards - S;
      // Close the current shard when its weight slice is full — or when
      // the remaining shards need every remaining function to stay
      // non-empty. At most one boundary per function keeps shards
      // non-empty on the other side.
      if (Acc * NumShards >= Total * S || Remaining == ShardsLeft) {
        ShardBounds.push_back(F + 1);
        ++S;
      }
    }
    ShardBounds.push_back(Funcs);
    assert(ShardBounds.size() == NumShards + 1 && "bad shard decomposition");
  }

  u64 weightOf(u32 F) const {
    u32 W = WorkerT::funcWeight(M, F);
    return W ? W : 1; // declarations and empty functions still occupy a slot
  }

  void workerMain(unsigned Id) {
    u64 Seen = 0;
    for (;;) {
      PassKind P;
      {
        LockGuard L(Mtx);
        while (!Stop && JobSeq <= Seen)
          JobCV.wait(Mtx);
        if (Stop)
          return;
        Seen = JobSeq;
        P = Phase;
      }
      drainQueue(Id, P);
      {
        LockGuard L(Mtx);
        if (--Pending == 0)
          DoneCV.notify_one();
      }
    }
  }

  void drainQueue(unsigned Id, PassKind P) {
    u32 Shard;
    while (Queue.pop(Id, Shard)) {
      if (P == PassKind::Compile)
        compileShard(Id, Shard);
      else
        placeShard(Shard);
    }
  }

  /// Pass-2 unit of work: memcpy one planned shard into its slice. The
  /// queue hands each shard to exactly one worker and the slices are
  /// disjoint, so no two threads ever write the same output byte;
  /// PlaceOut/Planned/Plans were published by the mutex before the job
  /// woke the pool. placeFrom never touches shared assembler state (not
  /// even the error slot), so failure is a per-shard flag handled after
  /// the barrier.
  void placeShard(u32 Shard) {
    if (!Planned[Shard])
      return; // reservation failed; nothing owns bytes here
    if (!PlaceOut->placeFrom(*Frags[Shard], Plans[Shard]))
      PlaceFailed[Shard] = 1;
  }

  void compileShard(unsigned Id, u32 Shard) {
    Worker &W = *Workers[Id];
    u32 Begin = ShardBounds[Shard];
    u32 End = ShardBounds[Shard + 1];
    asmx::Assembler &Frag = *Frags[Shard];
    // The queue hands each shard to exactly one worker, so this thread is
    // the only writer of the shard's slot/fragment; the Pending barrier
    // publishes the writes to the calling thread.
    support::CompileStatus &St = ShardStatus[Shard];
    St.clear();
    St.Shard = Shard;
    // Pre-size the fragment's text buffer from the worker's size bound
    // (when it provides one) so the snapshot merge of a first-time-large
    // shard skips the geometric growth ladder. Purely a capacity hint.
    Frag.reset();
    if constexpr (requires(const ModuleT &CM, u32 A) {
                    { WorkerT::shardTextBound(CM, A, A) }
                        -> std::convertible_to<u64>;
                  })
      Frag.text().ensureSpace(static_cast<size_t>(
          WorkerT::shardTextBound(std::as_const(M), Begin, End)));
    auto failShard = [&](support::CompileErr E, std::string_view Msg) {
      Frag.reset(); // never leave a poisoned fragment behind
      St.Err = E;
      St.Message.assign(Msg);
      ShardFailed[Shard] = 1;
    };
    if (support::faultPoint(support::FaultSite::ShardCompile)) {
      failShard(support::CompileErr::FaultInjected,
                "fault injected: shard-compile");
      return;
    }
    // compileRange resets the worker's assembler itself, at a cost
    // proportional to the previous shard's symbol table; once warm the
    // whole shard compile is allocation-free. A throwing compile (e.g. an
    // injected arena-growth failure) poisons only this shard: the worker's
    // state is reset wholesale at its next compileRange.
    bool OK = false;
    try {
      OK = W.W.compileRange(Begin, End);
    } catch (...) {
      failShard(support::CompileErr::OutOfMemory,
                "allocation failed during shard compile");
      return;
    }
    if (!OK) {
      // A failed shard may hold half-emitted code with unbound labels; drop
      // it and let the recovery pass isolate the bad function.
      const support::CompileStatus &WS = W.W.status();
      failShard(WS.Err, WS.Message);
      St.Func = WS.Func;
      St.Symbol = WS.Symbol;
      return;
    }
    try {
      Frag.mergeFrom(W.W.assembler());
    } catch (...) { // arena-backed name interning in the snapshot merge
      failShard(support::CompileErr::OutOfMemory,
                "allocation failed snapshotting shard");
      return;
    }
    if (Frag.hasError())
      failShard(Frag.errorCode(), Frag.errorMessage());
  }

  /// (Re)builds the module-level fragment on the calling thread. Returns
  /// false when the compile or the snapshot merge failed; the fragment is
  /// left reset in that case.
  bool compileGlobalsFrag() {
    Worker &W0 = *Workers[0];
    GlobalsFrag.reset();
    bool OK = false;
    try {
      OK = W0.W.compileGlobals();
      if (OK)
        GlobalsFrag.mergeFrom(W0.W.assembler());
    } catch (...) {
      GlobalsFrag.reset();
      return false;
    }
    if (!OK)
      return false;
    if (GlobalsFrag.hasError()) {
      GlobalsFrag.reset();
      return false;
    }
    return true;
  }

  /// Records the module-level diagnostic after the globals fragment failed
  /// twice (initial + retry). Shard/Func stay ~0u: the failure is not
  /// attributable to a function.
  void recordGlobalsFailure() {
    Worker &W0 = *Workers[0];
    support::CompileStatus D;
    const support::CompileStatus &WS = W0.W.status();
    if (!WS.ok()) {
      D.Err = WS.Err;
      D.Message = WS.Message;
    } else {
      D.Err = support::CompileErr::AssemblerError;
      D.Message = "module-level fragment compile failed";
    }
    Diags.push_back(std::move(D));
  }

  /// Recovery for one failed shard: recompiles its functions one at a time
  /// on the calling thread with fresh worker state, merging each success
  /// into the shard fragment and quarantining each failure with a precise
  /// diagnostic. Per-function fragments merged in function order reproduce
  /// the range compile byte for byte (16-byte function alignment, by-name
  /// relocations, content-deduped constant pool), so the good subset stays
  /// identical to a serial compile of that subset.
  void retryShard(u32 S) {
    Worker &W0 = *Workers[0];
    asmx::Assembler &Frag = *Frags[S];
    Frag.reset();
    for (u32 F = ShardBounds[S]; F < ShardBounds[S + 1]; ++F) {
      bool OK = false;
      bool Threw = false;
      try {
        OK = W0.W.compileRange(F, F + 1);
      } catch (...) {
        Threw = true;
      }
      if (OK) {
        bool MergeThrew = false;
        try {
          Frag.mergeFrom(W0.W.assembler());
        } catch (...) { // arena-backed name interning in the merge
          MergeThrew = true;
        }
        if (!MergeThrew && !Frag.hasError())
          continue;
        // The merge itself failed; quarantine this function and rebuild
        // the fragment so earlier good functions are not lost.
        support::CompileStatus D;
        if (MergeThrew) {
          D.Err = support::CompileErr::OutOfMemory;
          D.Message = "allocation failed merging function";
        } else {
          D.Err = Frag.errorCode() == support::CompileErr::FaultInjected
                      ? support::CompileErr::FaultInjected
                      : support::CompileErr::MergeError;
          D.Message.assign(Frag.errorMessage());
        }
        D.Shard = S;
        D.Func = F;
        Diags.push_back(std::move(D));
        rebuildShardFragment(S, F);
        continue;
      }
      support::CompileStatus D;
      if (Threw) {
        D.Err = support::CompileErr::OutOfMemory;
        D.Message = "allocation failed compiling function";
      } else {
        const support::CompileStatus &WS = W0.W.status();
        D.Err = WS.Err;
        D.Symbol = WS.Symbol;
        D.Message = WS.Message;
      }
      D.Shard = S;
      D.Func = F;
      Diags.push_back(std::move(D));
    }
  }

  /// Rebuilds shard \p S's fragment from scratch up to (excluding) the
  /// quarantined function \p Skip after a poisoned merge. Rare (an
  /// injected merge fault); correctness over speed.
  void rebuildShardFragment(u32 S, u32 Skip) {
    Worker &W0 = *Workers[0];
    asmx::Assembler &Frag = *Frags[S];
    Frag.reset();
    for (u32 F = ShardBounds[S]; F < Skip; ++F) {
      bool OK = false;
      try {
        OK = W0.W.compileRange(F, F + 1);
        // These functions compiled and merged cleanly moments ago; a
        // repeat failure (compile or merge) means a second independent
        // fault — give up on the function silently (its diagnostic would
        // duplicate the merge one).
        if (OK)
          Frag.mergeFrom(W0.W.assembler());
      } catch (...) {
      }
    }
  }

  /// Verifier gate: rejects a malformed module with a structured
  /// diagnostic before any codegen. Only instantiated for workers that
  /// expose a static verifyModule(const ModuleT &, std::string &).
  bool verifyGate() {
    if constexpr (requires(const ModuleT &CM, std::string &E) {
                    { WorkerT::verifyModule(CM, E) } -> std::convertible_to<bool>;
                  }) {
      VerifyErrors.clear();
      if (WorkerT::verifyModule(std::as_const(M), VerifyErrors))
        return true;
      support::CompileStatus D;
      D.Err = support::CompileErr::VerifyFailed;
      D.Message = VerifyErrors;
      Diags.push_back(std::move(D));
      FirstStatus = Diags.front();
      return false;
    } else {
      return true;
    }
  }

  ModuleT &M;
  ParallelCompileOptions Opts;
  std::vector<std::unique_ptr<Worker>> Workers;
  /// Per-shard output snapshots, indexed by shard — the schedule-proof
  /// staging area between parallel compilation and the ordered merge.
  std::vector<std::unique_ptr<asmx::Assembler>> Frags;
  asmx::Assembler GlobalsFrag;
  support::WorkStealingRangeQueue Queue;
  /// Shard S = functions [ShardBounds[S], ShardBounds[S+1]); capacity is
  /// retained across compiles (docs/PERF.md).
  std::vector<u32> ShardBounds;
  u32 NumShards = 0;
  /// Per-shard failure flag + status slot. Each shard has exactly one
  /// writer (the queue's exactly-once pop) and the Pending==0 barrier
  /// publishes the slots to the calling thread, so no atomics are needed
  /// and the reported first error is keyed by shard index, never by
  /// thread arrival. Capacity is retained across compiles (docs/PERF.md);
  /// only the flags are re-zeroed per compile.
  std::vector<u8> ShardFailed;
  std::vector<support::CompileStatus> ShardStatus;
  /// In-place emission scratch: the compile's output assembler, and,
  /// capacity-retained across compiles (docs/PERF.md), shard S's slice
  /// plan, whether its slice was reserved (0 = unplanned, skip
  /// placement/stitch), and the pass-2 failure flags (same
  /// single-writer-then-barrier discipline as ShardFailed).
  asmx::Assembler *PlaceOut = nullptr;
  std::vector<asmx::MergePlan> Plans;
  std::vector<u8> Planned;
  std::vector<u8> PlaceFailed;
  /// Per-phase breakdown of the last compile (emitStats()).
  EmitStats Stats;
  /// Diagnostics of the last compile, ordered by (shard, function); built
  /// single-threaded in the recovery pass. FirstStatus mirrors the front.
  std::vector<support::CompileStatus> Diags;
  support::CompileStatus FirstStatus;
  /// Scratch for the verifier gate (reused; docs/PERF.md).
  std::string VerifyErrors;

  /// The one-mutex job handshake. Everything below is GUARDED_BY(Mtx);
  /// the per-shard result slots (ShardStatus, ShardFailed, Frags,
  /// PlaceOut, Plans, Planned, PlaceFailed) deliberately are NOT: they are
  /// published to workers by the JobSeq bump under Mtx and read back by
  /// the caller only after the Pending==0 barrier, so each slot is
  /// exclusively owned by one shard's worker between those two fences.
  /// The annotations cannot express that transfer-of-ownership protocol;
  /// TSan verifies it (CI runs the full suite under TSan).
  Mutex Mtx;
  CondVar JobCV, DoneCV;
  /// Bumped per published job; workers wait for it.
  u64 JobSeq TPDE_GUARDED_BY(Mtx) = 0;
  /// Spawned workers still draining the current job.
  unsigned Pending TPDE_GUARDED_BY(Mtx) = 0;
  /// Which pass the current job runs; written under Mtx before the
  /// JobSeq bump that wakes the pool, read by workers under the same
  /// mutex on wake.
  PassKind Phase TPDE_GUARDED_BY(Mtx) = PassKind::Compile;
  bool Stop TPDE_GUARDED_BY(Mtx) = false;
};

} // namespace tpde::core

#endif // TPDE_CORE_PARALLELCOMPILER_H
