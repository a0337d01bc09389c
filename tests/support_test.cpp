//===- tests/support_test.cpp - Support library unit tests ----------------===//
///
/// Unit tests for the hot-path support containers (Arena, SmallVector,
/// DenseMap, StringPool, ByteBuffer) plus the state-reuse regression test:
/// recompiling the same module through one compiler instance must produce
/// byte-identical code and perform zero heap allocations (docs/PERF.md).
///
//===----------------------------------------------------------------------===//

#include "support/AllocCounter.h"
#include "support/Arena.h"
#include "support/ByteBuffer.h"
#include "support/DenseMap.h"
#include "support/SmallVector.h"
#include "support/StringPool.h"
#include "support/Sync.h"
#include "tir/Builder.h"
#include "tpde_tir/TirCompilerX64.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using namespace tpde::support;

// --- Arena -----------------------------------------------------------------

TEST(Arena, BumpAllocatesAndAligns) {
  Arena A(128);
  void *P1 = A.alloc(10, 8);
  void *P2 = A.alloc(10, 8);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 8, 0u);
  void *P64 = A.alloc(1, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P64) % 64, 0u);
  EXPECT_EQ(A.bytesAllocated(), 21u);
}

TEST(Arena, OversizedRequestsGetDedicatedSlab) {
  Arena A(64);
  void *Big = A.alloc(1000, 8);
  ASSERT_NE(Big, nullptr);
  // The big slab must not break subsequent small allocations.
  void *Small = A.alloc(8, 8);
  ASSERT_NE(Small, nullptr);
}

TEST(Arena, ResetRetainsSlabs) {
  Arena A(256);
  for (int I = 0; I < 100; ++I)
    A.alloc(32, 8);
  size_t Slabs = A.slabCount();
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  support::AllocWatch W;
  for (int I = 0; I < 100; ++I)
    A.alloc(32, 8);
  EXPECT_EQ(W.newCalls(), 0u) << "post-reset allocation must reuse slabs";
  EXPECT_EQ(A.slabCount(), Slabs);
}

TEST(Arena, ScopeRewinds) {
  Arena A(256);
  A.alloc(16, 8);
  size_t Before = A.bytesAllocated();
  {
    Arena::Scope S(A);
    A.alloc(100, 8);
    EXPECT_GT(A.bytesAllocated(), Before);
  }
  EXPECT_EQ(A.bytesAllocated(), Before);
}

// --- SmallVector -----------------------------------------------------------

TEST(SmallVector, InlineStorageAvoidsHeap) {
  support::AllocWatch W;
  SmallVector<int, 8> V;
  for (int I = 0; I < 8; ++I)
    V.push_back(I);
  EXPECT_EQ(W.newCalls(), 0u);
  EXPECT_EQ(V.size(), 8u);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(V[I], I);
}

TEST(SmallVector, GrowsBeyondInline) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I);
  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_GE(V.capacity(), 100u) << "clear must retain capacity";
}

TEST(SmallVector, MoveOnlyElements) {
  SmallVector<std::unique_ptr<int>, 2> V;
  V.push_back(std::make_unique<int>(1));
  V.push_back(std::make_unique<int>(2));
  V.push_back(std::make_unique<int>(3)); // forces growth with moves
  EXPECT_EQ(*V[0], 1);
  EXPECT_EQ(*V[2], 3);
  SmallVector<std::unique_ptr<int>, 2> W = std::move(V);
  EXPECT_EQ(*W[1], 2);
  EXPECT_TRUE(V.empty());
}

TEST(SmallVector, ResizeAndAssign) {
  SmallVector<std::string, 2> V;
  V.assign(5, "x");
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V[4], "x");
  V.resize(2);
  EXPECT_EQ(V.size(), 2u);
  V.resize(4);
  EXPECT_EQ(V[3], "");
}

// --- DenseMap --------------------------------------------------------------

TEST(DenseMap, InsertFindRoundTrip) {
  DenseMap<u64, u32> M;
  for (u64 K = 0; K < 1000; ++K)
    M.insert(K * 0x9E3779B9u, static_cast<u32>(K));
  EXPECT_EQ(M.size(), 1000u);
  for (u64 K = 0; K < 1000; ++K) {
    u32 *V = M.find(K * 0x9E3779B9u);
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, K);
  }
  EXPECT_EQ(M.find(0xDEADBEEFDEADBEEFull), nullptr);
}

TEST(DenseMap, InsertIsFirstWriteWins) {
  DenseMap<u32, int> M;
  auto R1 = M.insert(7, 1);
  EXPECT_TRUE(R1.Inserted);
  auto R2 = M.insert(7, 2);
  EXPECT_FALSE(R2.Inserted);
  EXPECT_EQ(M.at(7), 1);
  M[7] = 5;
  EXPECT_EQ(M.at(7), 5);
}

TEST(DenseMap, ClearRetainsCapacity) {
  DenseMap<u32, u32> M;
  for (u32 K = 0; K < 500; ++K)
    M.insert(K, K);
  M.clear();
  EXPECT_TRUE(M.empty());
  support::AllocWatch W;
  for (u32 K = 0; K < 500; ++K)
    M.insert(K, K);
  EXPECT_EQ(W.newCalls(), 0u) << "post-clear insert must not allocate";
}

TEST(DenseMap, AdversarialKeysStillWork) {
  // Sequential and all-equal-low-bit keys must not degrade correctness.
  DenseMap<u64, u64> M;
  for (u64 K = 0; K < 256; ++K)
    M.insert(K << 32, K);
  for (u64 K = 0; K < 256; ++K)
    EXPECT_EQ(M.at(K << 32), K);
}

// --- StringPool ------------------------------------------------------------

TEST(StringPool, InternDeduplicates) {
  StringPool P;
  auto A = P.intern("hello");
  auto B = P.intern("world");
  auto C = P.intern("hello");
  EXPECT_EQ(A, C);
  EXPECT_NE(A, B);
  EXPECT_EQ(P.str(A), "hello");
  EXPECT_EQ(P.str(B), "world");
  EXPECT_EQ(P.count(), 2u);
}

TEST(StringPool, LookupDoesNotIntern) {
  StringPool P;
  EXPECT_EQ(P.lookup("missing"), StringPool::InvalidId);
  auto Id = P.intern("present");
  EXPECT_EQ(P.lookup("present"), Id);
  EXPECT_EQ(P.count(), 1u);
}

TEST(StringPool, ViewsStayStableAcrossGrowth) {
  StringPool P;
  std::string_view First = P.str(P.intern("first"));
  std::vector<std::string> Keep;
  for (int I = 0; I < 5000; ++I)
    Keep.push_back("name_" + std::to_string(I));
  for (const std::string &S : Keep)
    P.intern(S);
  EXPECT_EQ(First, "first") << "slab storage must never move";
  EXPECT_EQ(P.str(P.lookup("name_4999")), "name_4999");
}

TEST(StringPool, ReinterningIsAllocationFree) {
  StringPool P;
  for (int I = 0; I < 100; ++I)
    P.intern("sym_" + std::to_string(I));
  support::AllocWatch W;
  for (int I = 0; I < 100; ++I)
    P.intern("sym_" + std::to_string(I) /* temporary may allocate */);
  // The pool itself must not allocate; only the temporary key strings may.
  // Small-string optimization keeps these keys off the heap.
  EXPECT_EQ(W.newCalls(), 0u);
}

/// Out of memory, an intern either adds its string or leaves the pool as
/// it was. While every allocation of at least 128 bytes throws, the
/// 16-slot table cannot grow to 32 slots, but the entry list can still
/// take four more names: no intern may then fill the table, or a probe
/// for an absent name would never find an empty slot. Once memory is
/// back, every name that was added is found and new ones intern.
TEST(StringPool, InternThatThrowsLeavesThePoolUsable) {
  StringPool P;
  for (int I = 0; I < 11; ++I)
    P.intern("n" + std::to_string(I));
  std::vector<std::string> Added;
  Added.reserve(9);
  support::AllocCounter::FailFromBytes.store(128);
  for (int I = 11; I < 20; ++I) {
    std::string S = "n" + std::to_string(I);
    try {
      P.intern(S);
      Added.push_back(S);
    } catch (const std::bad_alloc &) {
    }
  }
  EXPECT_EQ(P.lookup("absent"), StringPool::InvalidId);
  support::AllocCounter::FailFromBytes.store(0);
  for (const std::string &S : Added)
    EXPECT_NE(P.lookup(S), StringPool::InvalidId) << S;
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(P.str(P.intern("m" + std::to_string(I))),
              "m" + std::to_string(I));
}

// --- ByteBuffer ------------------------------------------------------------

TEST(ByteBuffer, AppendAndCursor) {
  ByteBuffer B;
  B.push_back(0xAA);
  const u8 Arr[3] = {1, 2, 3};
  B.append(Arr, 3);
  B.ensure(16);
  u8 *P = B.writableEnd();
  *P++ = 9;
  *P++ = 8;
  B.setEnd(P);
  ASSERT_EQ(B.size(), 6u);
  EXPECT_EQ(B[0], 0xAA);
  EXPECT_EQ(B[3], 3);
  EXPECT_EQ(B[5], 8);
  B.clear();
  EXPECT_TRUE(B.empty());
  EXPECT_GT(B.capacity(), 0u);
}

// --- State reuse regression ------------------------------------------------

namespace {

std::vector<u8> textBytes(const asmx::Assembler &Asm) {
  const asmx::Section &T = Asm.text();
  return std::vector<u8>(T.Data.begin(), T.Data.end());
}

} // namespace

/// Compiling the same module twice through ONE compiler instance (with the
/// assembler reset in between) must yield byte-identical machine code and,
/// once warm, zero heap allocations — the tentpole property of the hot-path
/// memory overhaul.
TEST(StateReuse, RecompileIsByteIdenticalAndAllocationFree) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 42;
  P.NumFuncs = 12;
  P.SSAForm = true;
  workloads::genModule(M, P);

  tpde_tir::TirAdapter Adapter(M);
  asmx::Assembler Asm;
  tpde_tir::TirCompilerX64 Compiler(Adapter, Asm);

  ASSERT_TRUE(Compiler.compile());
  ASSERT_FALSE(Asm.hasError()) << Asm.errorMessage();
  std::vector<u8> First = textBytes(Asm);

  // Second compile: warm but must match the first bit for bit.
  Asm.reset();
  ASSERT_TRUE(Compiler.compile());
  std::vector<u8> Second = textBytes(Asm);
  EXPECT_EQ(First, Second);

  // Third compile: every buffer is at its high-water mark; the compile
  // must not touch the heap at all.
  Asm.reset();
  support::AllocWatch W;
  ASSERT_TRUE(Compiler.compile());
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state recompilation allocated " << W.newCalls()
      << " times (" << W.newBytes() << " bytes)";
  EXPECT_EQ(textBytes(Asm), First);
}

/// The O0-flavor IR (stack locals, loads/stores) exercises different
/// instruction compilers; it must reach the same steady state.
TEST(StateReuse, O0FlavorAlsoAllocationFree) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 7;
  P.NumFuncs = 6;
  P.SSAForm = false;
  workloads::genModule(M, P);

  tpde_tir::TirAdapter Adapter(M);
  asmx::Assembler Asm;
  tpde_tir::TirCompilerX64 Compiler(Adapter, Asm);
  for (int I = 0; I < 2; ++I) {
    ASSERT_TRUE(Compiler.compile());
    Asm.reset();
  }
  support::AllocWatch W;
  ASSERT_TRUE(Compiler.compile());
  EXPECT_EQ(W.newCalls(), 0u);
}

/// Recompiling through one compiler into one assembler: compile() resets
/// the assembler itself and recreates the same symbols on first use, so
/// the output is byte-identical, the symbol table does not grow, and the
/// steady state is allocation-free.
TEST(StateReuse, SymbolBatchedRecompileIsByteIdenticalAndFast) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 19;
  P.NumFuncs = 10;
  P.SSAForm = true;
  workloads::genModule(M, P);

  tpde_tir::TirAdapter Adapter(M);
  asmx::Assembler Asm;
  tpde_tir::TirCompilerX64 Compiler(Adapter, Asm);

  ASSERT_TRUE(Compiler.compile());
  std::vector<u8> First = textBytes(Asm);
  u32 Symbols = Asm.symbolCount();

  // No reset() between compiles: compile() resets internally.
  ASSERT_TRUE(Compiler.compile());
  EXPECT_EQ(textBytes(Asm), First);
  EXPECT_EQ(Asm.symbolCount(), Symbols)
      << "recompile must not grow the symbol table";

  // Steady state: zero allocations, still identical.
  ASSERT_TRUE(Compiler.compile());
  support::AllocWatch W;
  ASSERT_TRUE(Compiler.compile());
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state recompilation allocated " << W.newCalls()
      << " times (" << W.newBytes() << " bytes)";
  EXPECT_EQ(textBytes(Asm), First);
  EXPECT_EQ(Asm.symbolCount(), Symbols);
}

/// Mutating the module's global list between recompiles must be picked
/// up by the next compile: the global-symbol cache is resized and the
/// new global is defined.
TEST(StateReuse, SymbolBatchingInvalidatesOnGlobalCountChange) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = 31;
  P.NumFuncs = 3;
  workloads::genModule(M, P);

  tpde_tir::TirAdapter Adapter(M);
  asmx::Assembler Asm;
  tpde_tir::TirCompilerX64 Compiler(Adapter, Asm);
  ASSERT_TRUE(Compiler.compile());
  ASSERT_TRUE(Compiler.compile());
  EXPECT_FALSE(Asm.findSymbol("late_global").isValid());

  tir::Global G;
  G.Name = "late_global";
  G.Size = 16;
  G.Init = {1, 2, 3, 4};
  M.Globals.push_back(G);

  ASSERT_TRUE(Compiler.compile());
  asmx::SymRef S = Asm.findSymbol("late_global");
  ASSERT_TRUE(S.isValid());
  EXPECT_TRUE(Asm.symbol(S).Defined);
  ASSERT_TRUE(Compiler.compile());
  S = Asm.findSymbol("late_global");
  ASSERT_TRUE(S.isValid()) << "the next compile must define it again";
  EXPECT_TRUE(Asm.symbol(S).Defined);
}

// --- Sync wrappers (support/Sync.h) ----------------------------------------

TEST(Sync, MutexLockGuardBasics) {
  tpde::Mutex M;
  int Guarded = 0; // not annotated: gcc test TU, annotations are no-ops
  {
    tpde::LockGuard L(M);
    Guarded = 1;
  }
  EXPECT_TRUE(M.tryLock());
  M.unlock();
  EXPECT_EQ(Guarded, 1);
}

TEST(Sync, CondVarWaitAndWaitFor) {
  tpde::Mutex M;
  tpde::CondVar CV;
  bool Ready = false;
  tpde::Thread T([&] {
    tpde::LockGuard L(M);
    Ready = true;
    CV.notify_one();
  });
  {
    tpde::LockGuard L(M);
    while (!Ready)
      CV.wait(M);
  }
  T.join();
  EXPECT_TRUE(Ready);
  // waitFor returns after the timeout without the predicate flipping and
  // leaves the mutex held (relockable afterwards by the same scope).
  {
    tpde::LockGuard L(M);
    CV.waitFor(M, 1'000'000); // 1ms
    EXPECT_TRUE(Ready);
  }
}

TEST(Sync, HardwareConcurrencyIsPositive) {
  EXPECT_GE(tpde::hardwareConcurrency(), 1u);
}
