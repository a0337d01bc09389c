//===- bench/encoder_microbench.cpp - Encoder throughput ------------------===//
///
/// google-benchmark micro-benchmarks for the direct x86-64 and AArch64
/// encoders. The paper avoids LLVM-MC "due to its subpar performance"
/// (§4.1.3); these numbers document what the in-house encoders achieve
/// per instruction.
///
//===----------------------------------------------------------------------===//

#include "a64/Encoder.h"
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

BENCHMARK_MAIN();
