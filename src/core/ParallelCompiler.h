//===- core/ParallelCompiler.h - Sharded module compilation -----*- C++ -*-===//
///
/// \file
/// The backend-agnostic parallel module compile driver: compiles a
/// module's functions across N worker threads, each owning a private
/// asmx::Assembler + compiler instance (reset-not-freed, per docs/
/// PERF.md), then deterministically merges the per-run text/rodata,
/// relocations, and symbol tables into one linkable/JIT-mappable module.
///
/// The driver is a template over the *compiler* type — parallel
/// compilation is a framework property, not a per-target feature. Any
/// CompilerBase-derived compiler works as is: each worker owns an
/// {adapter, assembler, compiler} bundle built from the module, the
/// driver calls the compiler's compileRange()/compileGlobals()/status()
/// (core/CompilerBase.h), and it reads the function count and the
/// per-function value count (the shard-balancing weight) through the
/// adapter (core/Adapter.h). Assembler::mergeFrom() supplies the
/// cross-shard symbol resolution. Nothing in this file knows about the
/// target or the IR.
///
/// Shards and runs: the shard is the unit of claiming, stealing and
/// failure; the *run* is the unit of output. A worker that claims the
/// shard right after the one it just compiled appends it to the same
/// assembler (CompilerBase::appendRange), so a run — a stretch of
/// consecutive shards one worker compiled back to back — becomes one
/// fragment, compiled exactly like that stretch of a serial compile.
/// With one worker the whole module is one run: a serial compile plus
/// one stitch. A run compiles in the storage of its first shard's
/// fragment, swapped into the worker's assembler (O(1)) and back.
///
/// Determinism contract: the merged output is **byte-identical regardless
/// of thread count and schedule**. This falls out of three rules:
///
///  1. The shard decomposition depends only on the module — boundaries
///     are a pure function of the per-function weights and FuncsPerShard,
///     never of the thread count.
///  2. Each run's output lands in the fragment of its first shard; the
///     shard queue decides *who* compiles a shard and where runs are cut,
///     never the order in which bytes land.
///  3. The final merge walks runs in shard-index order on the calling
///     thread (module-level globals fragment first), and the stitch is
///     cut-independent: it appends a fragment's symbols, constant-pool
///     entries included, in their creation order, so any contiguous cut
///     yields the serial compile's symbol table and relocations.
///
/// Two-pass (zero-merge) emission: the driver never serially *copies* a
/// fragment's text/data bytes into the output. The compile pass doubles
/// as an exact pre-measure — every fragment's final section sizes are
/// known once the shard pass (plus recovery) finishes — so the driver
/// reserves each run's slice of the output sections in shard order
/// (Assembler::reserveFrom, O(1) per run in section bytes), lets the
/// worker pool memcpy all fragments into their disjoint slices
/// concurrently (Assembler::placeFrom), and keeps only the
/// O(symbols + relocs) stitch (Assembler::stitchFrom) on the serial
/// path. Output is byte-identical to a serial compile — the three
/// primitives *are* mergeFrom, resequenced — and emitStats() exposes the
/// per-phase cost breakdown the bench rows record (docs/PERF.md
/// "Two-pass emission").
///
/// Cross-run references (calls, global addresses) work because the code
/// generators only ever reference symbols through relocations: a run
/// materializes a symbol on demand at its first reference (an undefined
/// declaration when the definition lives elsewhere), and
/// Assembler::mergeFrom() binds those declarations to the defining
/// run's symbols by interned name. No run ever registers the whole
/// module symbol table — per-run symbol cost is O(defined +
/// referenced), so a module compile carries an O(Funcs) total symbol
/// term. The .text bytes of the merged module are identical to a
/// single-assembler serial compile; the read-only data matches the
/// serial pool as well because mergeFrom() content-deduplicates the
/// anonymous FP-pool entries across fragments; and so do the in-memory
/// symbol table and relocations, so the serial and merged objects are
/// byte-identical end to end.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_PARALLELCOMPILER_H
#define TPDE_CORE_PARALLELCOMPILER_H

#include "asmx/Assembler.h"
#include "core/CompilerBase.h"
#include "support/Diag.h"
#include "support/Sync.h"
#include "support/Timer.h"
#include "support/WorkQueue.h"

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tpde::core {

struct ParallelCompileOptions {
  /// Worker threads including the calling thread; 0 means
  /// tpde::hardwareConcurrency().
  unsigned NumThreads = 0;
  /// Shard granularity in functions: a module of F functions becomes
  /// ceil(F / FuncsPerShard) shards whose boundaries equalize the
  /// per-function value count (the adapter's funcValueCount), so modules
  /// with a few giant functions balance across workers. Part of the
  /// determinism contract: the same module always decomposes into the
  /// same shards, whatever the thread count. Smaller shards balance
  /// better and keep a failure's recompile small; consecutive shards one
  /// worker claims share a fragment, so shard size barely moves the
  /// merge cost.
  u32 FuncsPerShard = 4;
};

/// Per-phase cost breakdown of the last compile(), for the bench rows
/// (bench/compile_throughput.cpp) and the O(relocs)-stitch claim in
/// docs/PERF.md. Wall-clock nanoseconds via tpde::nowNs().
struct EmitStats {
  u64 CompileNs = 0; ///< Parallel shard pass + recovery.
  u64 ReserveNs = 0; ///< Serial slice reservation.
  u64 PlaceNs = 0;   ///< Parallel in-place byte placement (pass 2).
  u64 StitchNs = 0;  ///< Serial merge tail: rodata dedup, symbols, relocs.
  u64 StitchRelocs = 0; ///< Relocations rebased by the serial stitch.
  u64 PlacedBytes = 0;  ///< Text+data bytes written by parallel placement.
  u64 Fragments = 0; ///< Run fragments stitched (globals fragment excluded).
};

/// Reusable parallel compilation pipeline for one module. Construction
/// spawns the worker pool; compile() may be called repeatedly (e.g. a JIT
/// recompiling on deoptimization) and is allocation-free in steady state:
/// workers reset their compiler/assembler state without freeing it, and
/// all fragments retain their capacity.
template <typename CompilerT> class ParallelModuleCompiler {
public:
  using AdapterT = typename CompilerT::AdapterT;
  using ModuleT = typename AdapterT::ModuleT;

  explicit ParallelModuleCompiler(ModuleT &M, ParallelCompileOptions Opts = {})
      : Opts(Opts) {
    unsigned N = Opts.NumThreads;
    if (N == 0)
      N = tpde::hardwareConcurrency();
    if (this->Opts.FuncsPerShard == 0)
      this->Opts.FuncsPerShard = 1;
    Workers.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Workers.push_back(std::make_unique<Worker>(M));
    Queue.reset(0, N); // sizes the per-worker cursors once, here
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
  /// Failure semantics (graceful degradation): a shard that fails
  /// discards its whole run (half-emitted code cannot be cut back out).
  /// The calling thread then recompiles each shard of that run, in shard
  /// order, whole into its own fragment, and only a shard that fails
  /// again function-by-function with fresh worker state — good functions
  /// land in the output, each bad function is quarantined with one
  /// precise diagnostic. A module with K bad functions therefore compiles
  /// everything else (byte-identical to a serial compile of the good
  /// subset) and reports exactly K diagnostics, ordered by shard then
  /// function index — independent of thread count and schedule
  /// (first-error-wins keyed by shard order, never thread arrival). A
  /// module-level assembler error, such as two strong definitions of one
  /// name, is reported as the serial compile reports it: only when
  /// nothing else failed, with no shard or function, wherever the cut
  /// made the two definitions meet.
  ///
  /// Out of memory, compile() still returns: a bad_alloc anywhere in it
  /// becomes an OutOfMemory diagnostic, and a diagnostic that cannot be
  /// stored degrades as addDiag() describes, never throwing again.
  bool compile(asmx::Assembler &Out) {
    Unstored.clear();
    Diags.clear();
    Stats = EmitStats{};
    Out.reset();
    try {
      computeShardBounds();
      sizeShardScratch();
    } catch (...) {
      addDiag(support::CompileErr::OutOfMemory,
              "allocation failed sizing the compile", ~0u);
      return false;
    }
    u64 T0 = nowNs();
    runParallelPass();
    Stats.CompileNs += nowNs() - T0;

    // Ordered rebuild: every run's slice of Out is reserved first, then
    // the worker pool places all runs concurrently, then the serial
    // stitch walks them in shard order. The destination's interned-name
    // pool is arena-backed, so a merge can throw bad_alloc — that becomes
    // a diagnostic instead of unwinding out of the compile.
    PlaceOut = &Out;
    u64 T = nowNs();
    try {
      Out.mergeFrom(GlobalsFrag);
      for (u32 S = 0; S < NumShards; S = RunEnd[S])
        reserveRun(Out, S);
    } catch (...) {
      // Runs not yet reserved stay unplanned: the placement and stitch
      // passes skip them.
      addDiag(support::CompileErr::OutOfMemory,
              "allocation failed merging the module", ~0u);
    }
    Stats.ReserveNs += nowNs() - T;
    // Pass 2: the worker pool copies every planned run's text/data into
    // its reserved slice. Slices are disjoint byte ranges, so the pass
    // needs no synchronization beyond the job barrier.
    T = nowNs();
    publish(PassKind::Place);
    drain(0, PassKind::Place);
    awaitPool();
    Stats.PlaceNs += nowNs() - T;
    T = nowNs();
    try {
      for (u32 S = 0; S < NumShards; S = RunEnd[S]) {
        if (!Planned[S])
          continue;
        Stats.StitchRelocs += Frags[S]->relocs().size();
        Out.stitchFrom(*Frags[S], Plans[S]);
        ++Stats.Fragments;
      }
    } catch (...) {
      addDiag(support::CompileErr::OutOfMemory,
              "allocation failed merging the module", ~0u);
    }
    Stats.StitchNs += nowNs() - T;
    // An assembler error a fragment carried in, or one the stitch itself
    // recorded (a strong definition that meets another), is the serial
    // compile's module-level error, so it is reported like it: when no
    // function failed, with no shard or function.
    if (Out.hasError() && !anyDiag())
      addDiag(Out.errorCode(), Out.errorMessage(), ~0u);

    // Every failure above also produced a diagnostic, so a compile without
    // one compiled cleanly.
    return !anyDiag();
  }

  /// First diagnostic of the last compile() — deterministically the one
  /// with the lowest shard index, then lowest function index (Ok after a
  /// fully clean compile). A message-less OutOfMemory when memory ran out
  /// before that diagnostic could be stored.
  const support::CompileStatus &status() const {
    return Unstored.ok() && !Diags.empty() ? Diags.front() : Unstored;
  }
  /// All diagnostics of the last compile(), ordered by shard then
  /// function index. One entry per quarantined function, short of any
  /// that could not be stored out of memory.
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
  /// Per-phase cost breakdown of the last compile() — where the
  /// wall-clock went.
  const EmitStats &emitStats() const { return Stats; }

private:
  /// Per-thread compile state: a private adapter, assembler and compiler
  /// (reset-not-freed, docs/PERF.md), and the worker's open run.
  struct Worker {
    explicit Worker(ModuleT &M) : Adapter(M), Compiler(Adapter, Asm) {}
    AdapterT Adapter;
    asmx::Assembler Asm;
    CompilerT Compiler;
    /// The open run, shards [RunFirst, RunNext), compiled into Asm while
    /// Asm holds Frags[RunFirst]'s storage; ~0u when no run is open.
    u32 RunFirst = ~0u;
    u32 RunNext = 0;
    tpde::Thread Thread; ///< Unjoinable for worker 0 (the calling thread).
  };

  /// What a published job asks the pool to do with each claimed shard
  /// index: compile it into its worker's run, or place the bytes of the
  /// run it starts into the pre-reserved output slice.
  enum class PassKind : u8 { Compile, Place };

  /// The compile half of compile(): the parallel shard pass over the
  /// current ShardBounds/NumShards and the single-threaded recovery
  /// pass. On return every run fragment is final, RunEnd links the runs
  /// in shard order, and Diags holds the recovery diagnostics, ordered
  /// by shard then function.
  void runParallelPass() {
    publish(PassKind::Compile);
    // The calling thread produces the module-level fragment (global data)
    // and then joins shard compilation as worker 0.
    bool GlobalsFailed = !compileGlobalsFrag();
    drain(0, PassKind::Compile);
    awaitPool();

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
        recoverShard(S);
  }

  /// Sizes the per-shard scratch for the current decomposition. Capacity
  /// is retained, so a warm pool recompiling a module no larger than the
  /// last allocates nothing here.
  void sizeShardScratch() {
    while (Frags.size() < NumShards)
      Frags.push_back(std::make_unique<asmx::Assembler>());
    ShardFailed.assign(NumShards, 0);
    if (RunEnd.size() < NumShards)
      RunEnd.resize(NumShards);
    if (Plans.size() < NumShards)
      Plans.resize(NumShards);
    Planned.assign(NumShards, 0);
  }

  /// Reserves the slice of \p Out for the run starting at shard \p S and
  /// routes the placement pass to it. Planned is set only on success, so
  /// a throwing reservation leaves the run unplanned (skipped by
  /// placement and stitch).
  void reserveRun(asmx::Assembler &Out, u32 S) {
    Out.reserveFrom(*Frags[S], Plans[S]);
    constexpr unsigned TextI = static_cast<unsigned>(asmx::SecKind::Text);
    constexpr unsigned DataI = static_cast<unsigned>(asmx::SecKind::Data);
    Stats.PlacedBytes += Plans[S].Bytes[TextI] + Plans[S].Bytes[DataI];
    Planned[S] = 1;
  }

  /// Appends a diagnostic attributed to shard \p S and function \p F
  /// (~0u when no single shard or function caused it). Never throws: the
  /// handlers that turn a caught bad_alloc into a diagnostic call it, and
  /// storing the diagnostic allocates too. An entry whose text cannot be
  /// copied keeps its code without the text; a diagnostic that cannot
  /// get an entry is dropped, and if it was the first, status() reports
  /// a message-less OutOfMemory in its place.
  void addDiag(support::CompileErr E, std::string_view Msg, u32 S,
               u32 F = ~0u, std::string_view Symbol = {}) noexcept {
    try {
      Diags.emplace_back();
    } catch (...) {
      if (Diags.empty())
        Unstored.Err = support::CompileErr::OutOfMemory;
      return;
    }
    support::CompileStatus &D = Diags.back();
    D.Err = E;
    D.Shard = S;
    D.Func = F;
    try {
      D.Symbol.assign(Symbol);
      D.Message.assign(Msg);
    } catch (...) {
    }
  }

  /// Whether the last compile() produced a diagnostic, stored or not.
  bool anyDiag() const { return !Diags.empty() || !Unstored.ok(); }

  /// Deterministic shard decomposition: ceil(Funcs / FuncsPerShard)
  /// shards, each boundary placed where the accumulated function weight
  /// reaches the next 1/Shards slice of the module's total, so skewed
  /// modules produce balanced shards. Every shard is non-empty; the cut
  /// is a pure function of the module's weights and FuncsPerShard, never
  /// of the thread count.
  void computeShardBounds() {
    const u32 Funcs = Workers[0]->Adapter.funcCount();
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
    const AdapterT &A = Workers[0]->Adapter;
    u32 W = A.funcValueCount(A.funcRef(F));
    return W ? W : 1; // declarations and empty functions still occupy a slot
  }

  /// Publishes pass \p P to the pool: re-partitions the shard queue and
  /// wakes every spawned worker. The mutex orders the caller's
  /// shard/fragment setup (and the queue reset) before any worker starts
  /// draining; the caller then joins as worker 0 (drain) and waits in
  /// awaitPool().
  void publish(PassKind P) {
    Queue.reset(NumShards, threadCount());
    {
      LockGuard L(Mtx);
      Phase = P;
      ++JobSeq;
      Pending = threadCount() - 1;
    }
    JobCV.notify_all();
  }

  /// The pass barrier: returns once every spawned worker drained the
  /// current pass, which publishes their per-shard slots to the caller.
  void awaitPool() {
    LockGuard L(Mtx);
    while (Pending != 0)
      DoneCV.wait(Mtx);
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
      drain(Id, P);
      {
        LockGuard L(Mtx);
        if (--Pending == 0)
          DoneCV.notify_one();
      }
    }
  }

  /// Claims shards off the queue until the pass runs dry: worker \p Id's
  /// own contiguous range first (the same shards on every compile of a
  /// reused pool), then the other workers' leftovers.
  void drain(unsigned Id, PassKind P) {
    u32 Shard;
    while (Queue.pop(Id, Shard)) {
      if (P == PassKind::Compile)
        compileShard(*Workers[Id], Shard);
      else
        placeRun(Shard);
    }
    if (P == PassKind::Compile)
      closeRun(*Workers[Id]);
  }

  /// Pass-2 unit of work: memcpy the planned run starting at \p Shard into
  /// its slice (other shard indices own no bytes). The queue hands each
  /// shard to exactly one worker and the slices are disjoint, so no two
  /// threads ever write the same output byte; PlaceOut/Planned/Plans were
  /// published by the mutex before the job woke the pool.
  void placeRun(u32 Shard) {
    if (Planned[Shard]) // else no run starts here, or its reservation failed
      PlaceOut->placeFrom(*Frags[Shard], Plans[Shard]);
  }

  /// Compiles shard \p Shard on worker \p W: appended to the worker's open
  /// run when it is the shard right after it, else as the first shard of
  /// a new run. Returns false when the shard failed, which discarded the
  /// run. The queue hands each shard to exactly one worker, so this
  /// thread is the only writer of the flags and fragments of the shards
  /// its runs hold; the Pending barrier publishes them to the calling
  /// thread. Once warm the whole compile is allocation-free.
  bool compileShard(Worker &W, u32 Shard) {
    const bool Append = W.RunFirst != ~0u && Shard == W.RunNext;
    if (!Append) {
      closeRun(W);
      // The run compiles in its fragment's own storage, swapped in whole
      // (O(1), no copy); the compiler keeps its reference to W.Asm.
      std::swap(W.Asm, *Frags[Shard]);
      W.RunFirst = Shard;
    }
    const u32 Begin = ShardBounds[Shard], End = ShardBounds[Shard + 1];
    bool OK = false;
    try {
      OK = Append ? W.Compiler.appendRange(Begin, End)
                  : W.Compiler.compileRange(Begin, End);
    } catch (...) { // an allocation failed
    }
    if (OK) {
      W.RunNext = Shard + 1;
      return true;
    }
    // The run may hold half-emitted code with unbound labels, which cannot
    // be cut back out: drop the whole run. No status is kept — the
    // recovery pass recompiles each of its shards and diagnoses each
    // failure.
    for (u32 S = W.RunFirst; S <= Shard; ++S)
      ShardFailed[S] = 1;
    std::swap(W.Asm, *Frags[W.RunFirst]);
    W.RunFirst = ~0u;
    return false;
  }

  /// Ends worker \p W's open run, if any: the storage goes back to the
  /// fragment of the run's first shard, and RunEnd records the run.
  void closeRun(Worker &W) {
    if (W.RunFirst == ~0u)
      return;
    std::swap(W.Asm, *Frags[W.RunFirst]);
    RunEnd[W.RunFirst] = W.RunNext;
    W.RunFirst = ~0u;
  }

  /// Recovery for one shard of a discarded run, on the calling thread: the
  /// shard is recompiled whole as a run of its own, and only if that fails
  /// too function by function (retryShard), so recovery costs what the
  /// shards that really fail cost.
  void recoverShard(u32 S) {
    Worker &W0 = *Workers[0];
    RunEnd[S] = S + 1;
    if (compileShard(W0, S))
      closeRun(W0);
    else
      retryShard(S);
  }

  /// (Re)builds the module-level fragment on the calling thread, in the
  /// fragment's own storage swapped into worker 0's assembler like a run.
  /// Returns false when the compile failed; the fragment is left reset in
  /// that case, and GlobalsThrew says whether it threw.
  bool compileGlobalsFrag() {
    Worker &W0 = *Workers[0];
    std::swap(W0.Asm, GlobalsFrag);
    bool OK = false;
    GlobalsThrew = false;
    try {
      OK = W0.Compiler.compileGlobals();
    } catch (...) { // an allocation failed
      GlobalsThrew = true;
    }
    std::swap(W0.Asm, GlobalsFrag);
    if (!OK)
      GlobalsFrag.reset();
    return OK;
  }

  /// Records the module-level diagnostic after the globals fragment failed
  /// twice (initial + retry). Shard/Func stay ~0u: the failure is not
  /// attributable to a function.
  void recordGlobalsFailure() {
    const support::CompileStatus &WS = Workers[0]->Compiler.status();
    if (GlobalsThrew)
      addDiag(support::CompileErr::OutOfMemory,
              "allocation failed compiling module-level data", ~0u);
    else
      addDiag(WS.Err, WS.Message, ~0u);
  }

  /// Last-resort recovery for a shard that failed whole: recompiles its
  /// functions one at a time on the calling thread with fresh worker
  /// state, merging each success into the shard fragment and quarantining
  /// each failure with a precise diagnostic. Per-function fragments
  /// merged in function order reproduce the range compile byte for byte
  /// (16-byte function alignment, by-name relocations, content-deduped
  /// constant pool), so the good subset stays identical to a serial
  /// compile of that subset. A merge that records an assembler error (a
  /// second strong definition of a name) keeps the function: the error
  /// stays in the fragment and compile() reports it after the stitch.
  void retryShard(u32 S) {
    Worker &W0 = *Workers[0];
    asmx::Assembler &Frag = *Frags[S];
    Frag.reset();
    for (u32 F = ShardBounds[S]; F < ShardBounds[S + 1]; ++F) {
      bool OK = false;
      bool Threw = false;
      try {
        OK = W0.Compiler.compileRange(F, F + 1);
      } catch (...) {
        Threw = true;
      }
      if (OK) {
        try {
          Frag.mergeFrom(W0.Asm);
          continue;
        } catch (...) { // arena-backed name interning in the merge
        }
        // The merge threw part way; quarantine this function and rebuild
        // the fragment so earlier good functions are not lost.
        addDiag(support::CompileErr::OutOfMemory,
                "allocation failed merging function", S, F);
        rebuildShardFragment(S, F);
        continue;
      }
      if (Threw) {
        addDiag(support::CompileErr::OutOfMemory,
                "allocation failed compiling function", S, F);
      } else {
        const support::CompileStatus &WS = W0.Compiler.status();
        addDiag(WS.Err, WS.Message, S, F, WS.Symbol);
      }
    }
  }

  /// Rebuilds shard \p S's fragment from scratch up to (excluding) the
  /// quarantined function \p Skip after a merge that threw. Rare (memory
  /// ran out mid-merge); correctness over speed.
  void rebuildShardFragment(u32 S, u32 Skip) {
    Worker &W0 = *Workers[0];
    asmx::Assembler &Frag = *Frags[S];
    Frag.reset();
    for (u32 F = ShardBounds[S]; F < Skip; ++F) {
      bool OK = false;
      try {
        OK = W0.Compiler.compileRange(F, F + 1);
        // These functions compiled and merged cleanly moments ago; a
        // repeat failure (compile or merge) means memory ran out again —
        // give up on the function silently (its diagnostic would
        // duplicate the merge one).
        if (OK)
          Frag.mergeFrom(W0.Asm);
      } catch (...) {
      }
    }
  }

  ParallelCompileOptions Opts;
  std::vector<std::unique_ptr<Worker>> Workers;
  /// Per-shard fragments, indexed by shard: a run's output lands in the
  /// fragment of its first shard (the others stay unused) — the
  /// staging area between parallel compilation and the ordered merge.
  std::vector<std::unique_ptr<asmx::Assembler>> Frags;
  asmx::Assembler GlobalsFrag;
  /// Whether the last compileGlobalsFrag() threw.
  bool GlobalsThrew = false;
  support::WorkStealingRangeQueue Queue;
  /// Shard S = functions [ShardBounds[S], ShardBounds[S+1]); capacity is
  /// retained across compiles (docs/PERF.md).
  std::vector<u32> ShardBounds;
  u32 NumShards = 0;
  /// Per-shard failure flag: set for every shard of a discarded run. Each
  /// shard has exactly one writer (the worker whose run claimed it, by
  /// the queue's exactly-once pop) and the Pending==0 barrier publishes
  /// the flags to the calling thread, so no atomics are needed and the
  /// recovery pass walks failures in shard order, never thread arrival.
  /// Capacity is retained across compiles (docs/PERF.md).
  std::vector<u8> ShardFailed;
  /// RunEnd[S]: one past the last shard of the run starting at shard S
  /// (valid only at run starts); written like ShardFailed. The runs tile
  /// [0, NumShards), so S = RunEnd[S] walks them in shard order.
  std::vector<u32> RunEnd;
  /// In-place emission scratch: the compile's output assembler, and,
  /// capacity-retained across compiles (docs/PERF.md), the slice plan of
  /// the run starting at shard S and whether its slice was reserved
  /// (0 = unplanned or no run starts there, skip placement/stitch).
  asmx::Assembler *PlaceOut = nullptr;
  std::vector<asmx::MergePlan> Plans;
  std::vector<u8> Planned;
  /// Per-phase breakdown of the last compile (emitStats()).
  EmitStats Stats;
  /// Diagnostics of the last compile, ordered by (shard, function); built
  /// single-threaded in the recovery pass. status() returns the front.
  std::vector<support::CompileStatus> Diags;
  /// What status() returns in place of Diags' front: Ok, or a
  /// message-less OutOfMemory when the first diagnostic could not be
  /// stored. Only its code is ever set, so setting it cannot allocate.
  support::CompileStatus Unstored;

  /// The one-mutex job handshake. Everything below is GUARDED_BY(Mtx);
  /// the per-shard result slots (ShardFailed, RunEnd, Frags, PlaceOut,
  /// Plans, Planned) deliberately are NOT: they are published to workers by the
  /// JobSeq bump under Mtx and read back by the caller only after the
  /// Pending==0 barrier, so each slot is exclusively owned by one shard's
  /// worker between those two fences. The annotations cannot express that
  /// transfer-of-ownership protocol; TSan verifies it (CI runs the full
  /// suite under TSan).
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

/// One-shot parallel compile of \p M into \p Out with \p NumThreads
/// workers (0 = hardware concurrency), behind the same verify step as the
/// serial one-shot (compileVerified). \p Out is reset first, so a module
/// the verifier rejects leaves it empty. For repeated compiles keep a
/// ParallelModuleCompiler around instead — this constructs and tears down
/// the pool per call.
template <typename CompilerT, typename ModuleT>
bool compileModuleParallel(ModuleT &M, asmx::Assembler &Out,
                           unsigned NumThreads, bool Verify,
                           support::CompileStatus *StatusOut) {
  Out.reset();
  return compileVerified(M, Verify, StatusOut,
                         [&](support::CompileStatus &St) {
    ParallelModuleCompiler<CompilerT> PC(M, {.NumThreads = NumThreads});
    bool OK = PC.compile(Out);
    St = PC.status();
    return OK;
  });
}

} // namespace tpde::core

#endif // TPDE_CORE_PARALLELCOMPILER_H
