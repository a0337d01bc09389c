//===- perfbench/src/common.cpp - Shared benchmark plumbing ---------------===//

#include "common.h"

#include "asmx/Assembler.h"
#include "x64/Encoder.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

void Report::check(bool Ok, const char *What) {
  ++Attempted;
  if (Ok)
    return;
  if (Failed < 10)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What);
  ++Failed;
}

void Report::set(const char *Name, double Value, const char *Unit) {
  for (Metric &M : Values)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Values.push_back({Name, Value, Unit});
}

std::string Report::json() const {
  std::string S = "{\"correct\": ";
  S += Failed == 0 && Attempted > 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Values.size(); ++I) {
    const Metric &M = Values[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    S += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  S += "}}";
  return S;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double trimmedMean(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Cut = V.size() / 10;
  double Sum = 0;
  for (size_t I = Cut; I < V.size() - Cut; ++I)
    Sum += V[I];
  return Sum / static_cast<double>(V.size() - 2 * Cut);
}

/// The reference workload touches a 256 KiB table at pseudo-random places,
/// dispatches on what it reads through an unpredictable switch and emits
/// bytes: the mix of cache misses, mispredicted branches and byte output
/// a compiler makes, in code the compiler under test does not share.
SpeedRef::SpeedRef() : Table(1u << 16) {
  u64 X = 88172645463325252ull;
  for (u32 &T : Table) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    T = static_cast<u32>(X);
  }
  Out.reserve(1u << 16);
}

void SpeedRef::sample(unsigned Chunks) {
  constexpr u32 Iters = 20'000;
  const u64 Mask = Table.size() - 1;
  for (unsigned C = 0; C < Chunks; ++C) {
    // Untimed: bring the table back into the cache, so that a chunk's time
    // does not depend on how much of it the measured work evicted.
    u32 Warm = 0;
    for (size_t I = 0; I < Table.size(); I += 16)
      Warm += Table[I];
    State += Warm;
    u64 T0 = threadCpuNs();
    u64 X = State;
    Out.clear();
    for (u32 I = 0; I < Iters; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      u32 V = Table[X & Mask];
      switch (V & 7) {
      case 0:
        Out.push_back(static_cast<u8>(V));
        break;
      case 1:
        Table[(X >> 20) & Mask] += V;
        break;
      case 2:
        X += V * 3ull;
        break;
      case 3:
        Out.push_back(static_cast<u8>(V >> 8));
        Out.push_back(static_cast<u8>(V));
        break;
      case 4:
        X ^= V;
        break;
      case 5:
        if (V & 0x100)
          Out.push_back(1);
        break;
      case 6:
        X = X * 5 + V;
        break;
      default:
        Table[V & Mask] ^= static_cast<u32>(X);
        break;
      }
    }
    State = X + Out.size();
    Ns.push_back(static_cast<double>(threadCpuNs() - T0));
  }
}

double SpeedRef::scale() const {
  double Mean = trimmedMean(Ns);
  return Mean > 0 ? NominalNs / Mean : 1.0;
}

u64 threadCpuNs() {
  timespec TS{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return static_cast<u64>(TS.tv_sec) * 1'000'000'000ull +
         static_cast<u64>(TS.tv_nsec);
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

unsigned probeThreads() { return std::min(4u, hostThreads()); }

namespace {

/// A fixed amount of dependent integer work (xorshift chain).
u64 cpuLoop(u64 Iters, u64 Seed) {
  u64 X = Seed | 1;
  for (u64 I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

} // namespace

CpuPlacement::CpuPlacement() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
}

void CpuPlacement::pin(int Cpu) {
  if (Cpu < 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set); // a failure leaves it unpinned
}

void CpuPlacement::rotate(size_t Step) {
  if (!Cpus.empty())
    pin(Cpus[Step % Cpus.size()]);
}

int CpuPlacement::pinFastest() {
  int Best = -1;
  double BestNs = 0;
  for (int C : Cpus) {
    pin(C);
    std::vector<double> Ns;
    for (int Rep = 0; Rep < 3; ++Rep) {
      u64 T0 = tpde::nowNs();
      volatile u64 Sink = cpuLoop(1'000'000, 7);
      (void)Sink;
      Ns.push_back(static_cast<double>(tpde::nowNs() - T0));
    }
    double Med = median(Ns);
    if (Best < 0 || Med < BestNs) {
      Best = C;
      BestNs = Med;
    }
  }
  if (Best >= 0)
    pin(Best);
  return Best;
}

void CpuPlacement::restore() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof(Set), &Set);
}

double effectiveParallelism(unsigned Threads, double &OneMs) {
  constexpr u64 Iters = 20'000'000;
  std::atomic<u64> Sink{0};
  auto Run = [&](unsigned N) {
    u64 T0 = tpde::nowNs();
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I < N; ++I)
      Ts.emplace_back([&, I] { Sink += cpuLoop(Iters, I + 1); });
    for (auto &T : Ts)
      T.join();
    return static_cast<double>(tpde::nowNs() - T0);
  };
  std::vector<double> Ratios, Ones;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double One = Run(1);
    double Many = Run(Threads);
    Ratios.push_back(static_cast<double>(Threads) * One / Many);
    Ones.push_back(One / 1e6);
  }
  OneMs = median(Ones);
  return median(Ratios);
}

double encodeNsPerInst() {
  using namespace tpde::x64;
  tpde::asmx::Assembler A;
  Emitter E(A);
  constexpr unsigned MixLen = 12, Iters = 20'000;
  std::vector<double> Samples;
  u64 Imm = 1;
  for (int Rep = 0; Rep < 7; ++Rep) {
    A.text().Data.clear();
    u64 T0 = tpde::nowNs();
    for (unsigned I = 0; I < Iters; ++I) {
      E.aluRR(AluOp::Add, 8, RAX, RBX);
      E.aluRI(AluOp::Sub, 4, RCX, 1000);
      E.load(8, RDX, Mem(RBP, -40));
      E.store(8, Mem(RBP, -48), RSI);
      E.movRI(R8, Imm);
      E.lea(R9, Mem(RDI, R10, 8, 16));
      E.imulRR(8, R11, R12);
      E.shiftRI(ShiftOp::Shl, 8, R13, 3);
      E.cmovcc(Cond::L, 8, R14, R15);
      E.setcc(Cond::E, RAX);
      E.fpArith(FpOp::Add, 8, XMM0, XMM1);
      E.cvtsi2fp(8, 8, XMM2, RCX);
      Imm = Imm * 6364136223846793005ull + 1;
    }
    u64 Ns = tpde::nowNs() - T0;
    Samples.push_back(static_cast<double>(Ns) / (MixLen * Iters));
  }
  return median(Samples);
}

void spinNs(u64 Ns) {
  u64 End = threadCpuNs() + Ns;
  while (threadCpuNs() < End) {
  }
}

} // namespace perfbench
