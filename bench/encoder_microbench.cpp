//===- bench/encoder_microbench.cpp - Encoder throughput ------------------===//
///
/// google-benchmark micro-benchmarks for the direct x86-64 and AArch64
/// encoders. The paper avoids LLVM-MC "due to its subpar performance"
/// (§4.1.3); these numbers document what the in-house encoders achieve
/// per instruction. The JIT mapping rows time asmx::JITMapper::map() plus
/// release of one image, the last step before compiled code is callable.
///
//===----------------------------------------------------------------------===//

#include "a64/Encoder.h"
#include "asmx/JITMapper.h"
#include "x64/Encoder.h"

#include <benchmark/benchmark.h>

using namespace tpde;
using namespace tpde::x64;

static void BM_EncodeAluRR(benchmark::State &State) {
  asmx::Assembler A;
  Emitter E(A);
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.aluRR(AluOp::Add, 8, RAX, RBX);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EncodeAluRR);

static void BM_EncodeLoadStore(benchmark::State &State) {
  asmx::Assembler A;
  Emitter E(A);
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.load(8, RAX, Mem(RBP, -40));
    E.store(8, Mem(RBP, -48), RAX);
  }
  State.SetItemsProcessed(2 * State.iterations());
}
BENCHMARK(BM_EncodeLoadStore);

static void BM_EncodeJumpWithLabel(benchmark::State &State) {
  for (auto _ : State) {
    asmx::Assembler A;
    Emitter E(A);
    asmx::Label L = A.makeLabel();
    E.jccLabel(Cond::E, L);
    E.nops(4);
    A.bindLabel(L);
    benchmark::DoNotOptimize(A.text().Data.data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EncodeJumpWithLabel);

static void BM_EncodeMovImm(benchmark::State &State) {
  asmx::Assembler A;
  Emitter E(A);
  u64 V = 1;
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.movRI(RCX, V);
    V = V * 6364136223846793005ull + 1;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EncodeMovImm);

// --- AArch64 ------------------------------------------------------------------

/// Frame-slot spill and reload: the scaled unsigned-offset and the signed
/// 9-bit forms, one word each.
static void BM_A64LoadStoreFrame(benchmark::State &State) {
  asmx::Assembler A;
  a64::Emitter E(A);
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.ldr(8, a64::X0, a64::Mem(a64::FP, -40));
    E.str(8, a64::Mem(a64::SP, 48), a64::X1);
    benchmark::DoNotOptimize(A.text().Data.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(2 * State.iterations());
}
BENCHMARK(BM_A64LoadStoreFrame);

/// Frame offsets no addressing mode reaches: X16 materialization plus a
/// register-offset access per instruction.
static void BM_A64LoadStoreFarFrame(benchmark::State &State) {
  asmx::Assembler A;
  a64::Emitter E(A);
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.ldr(8, a64::X0, a64::Mem(a64::FP, -4096));
    E.str(8, a64::Mem(a64::FP, -70000), a64::X1);
    benchmark::DoNotOptimize(A.text().Data.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(2 * State.iterations());
}
BENCHMARK(BM_A64LoadStoreFarFrame);

static void BM_A64MovImm(benchmark::State &State) {
  asmx::Assembler A;
  a64::Emitter E(A);
  u64 V = 1;
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.movRI(a64::X2, V);
    V = V * 6364136223846793005ull + 1;
    benchmark::DoNotOptimize(A.text().Data.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_A64MovImm);

/// AND with an encodable bitmask immediate (one word).
static void BM_A64LogicalImm(benchmark::State &State) {
  asmx::Assembler A;
  a64::Emitter E(A);
  for (auto _ : State) {
    if (A.text().size() > (1u << 20))
      A.text().Data.clear();
    E.logicRI(a64::LogicOp::And, 8, a64::X0, a64::X1, 0xFF00);
    benchmark::DoNotOptimize(A.text().Data.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_A64LogicalImm);

// --- JIT mapping --------------------------------------------------------------

/// An image of \p Text bytes of `ret`, \p Ro bytes of rodata and \p Bss
/// bytes of BSS.
static void buildJitImage(asmx::Assembler &A, u64 Text, u64 Ro, u64 Bss) {
  for (u64 I = 0; I < Text; ++I)
    A.text().appendByte(0xC3);
  for (u64 I = 0; I < Ro; ++I)
    A.section(asmx::SecKind::ROData).appendByte(static_cast<u8>(I));
  A.section(asmx::SecKind::BSS).BssSize = Bss;
}

/// map() plus release of \p A once per iteration.
static void mapAndRelease(benchmark::State &State, const asmx::Assembler &A) {
  for (auto _ : State) {
    asmx::JITMapper JIT;
    if (!JIT.map(A)) {
      State.SkipWithError(JIT.status().Message.c_str());
      break;
    }
    benchmark::DoNotOptimize(JIT.sectionBase(asmx::SecKind::Text));
  }
  State.SetItemsProcessed(State.iterations());
}

/// A query-sized image of one text page. After the first iteration its run
/// always comes from the pool: zeroing, copy, one W^X flip, one flip back.
static void BM_JitMapRecycledText(benchmark::State &State) {
  asmx::Assembler A;
  buildJitImage(A, 1500, 0, 0);
  mapAndRelease(State, A);
}
BENCHMARK(BM_JitMapRecycledText);

/// As above with a rodata page, which is flipped too.
static void BM_JitMapRecycledTextRodata(benchmark::State &State) {
  asmx::Assembler A;
  buildJitImage(A, 1500, 64, 0);
  mapAndRelease(State, A);
}
BENCHMARK(BM_JitMapRecycledTextRodata);

/// Its BSS keeps this image above JITMapper::MaxPooledBytes, so every map()
/// creates its run (mmap, read+write flips, first-touch faults of the text
/// and rodata pages) and every release unmaps it. No BSS page is touched.
static void BM_JitMapFresh(benchmark::State &State) {
  asmx::Assembler A;
  buildJitImage(A, 1500, 64, asmx::JITMapper::MaxPooledBytes + 4096);
  mapAndRelease(State, A);
}
BENCHMARK(BM_JitMapFresh);

BENCHMARK_MAIN();
