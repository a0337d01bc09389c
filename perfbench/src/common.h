//===- perfbench/src/common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Arguments, the result report (the JSON line the benchmark ends with),
/// order statistics, and host probes shared by the three workloads.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_PERFBENCH_COMMON_H
#define TPDE_PERFBENCH_COMMON_H

#include "support/Common.h"
#include "support/Timer.h"

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using tpde::i64;
using tpde::u32;
using tpde::u64;
using tpde::u8;

struct Args {
  std::string Workload;
  u64 Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-test only: extra busy time around each JITMapper::map call of
  /// module_10k, as a percentage of the sample's untouched ready time.
  double InjectMapDelayPct = 0;
};

/// Collects the metrics and the operation tally of one run and renders
/// the final JSON line. BENCHMARK.json is the catalogue of metric names
/// and units; run.py checks every metric set here against it and keeps
/// the set of the run's mode (end-to-end or per-layer).
class Report {
public:
  /// Sets a metric, with its unit as BENCHMARK.json spells it.
  void set(const char *Name, double Value, const char *Unit);
  /// Counts one checked operation; a failure is logged (first few only)
  /// and makes the run incorrect.
  void check(bool Ok, const char *What);
  u64 attempted() const { return Attempted; }
  u64 failed() const { return Failed; }
  /// Share of checked operations that succeeded.
  double okShare() const {
    return Attempted ? static_cast<double>(Attempted - Failed) /
                           static_cast<double>(Attempted)
                     : 0;
  }
  /// The final line: every metric that was set.
  std::string json() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  u64 Attempted = 0, Failed = 0;
  std::vector<Metric> Values;
};

/// Nearest-rank quantile (Q in [0, 1]) of \p V; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Mean of \p V without its lowest and highest tenth; 0 for an empty
/// sample.
double trimmedMean(std::vector<double> V);

/// A shared VM (measured on a 4-vCPU Xeon guest) may for minutes at a
/// time get about one physical core for all its vCPUs, so a runnable
/// thread waits while its vCPU is descheduled (steal time); from one
/// few-millisecond pass to the next a vCPU runs at full or about half
/// speed; and whole runs may run at a fraction of the speed of others.
/// Single-threaded work is therefore timed in thread CPU time, which
/// leaves out the steal, and only latencies that span threads use the
/// wall clock. The run reports:
///
///  * for the same work repeated (compiling one module, running one call
///    set or query set), the trimmed mean of its repetitions;
///  * for a latency distribution in thread CPU time (the ready time of
///    module_10k), its quantiles pooled over the whole run;
///  * for a wall-clock latency distribution, its quantile per window (a
///    few rounds or samples, or a slice of the request stream) and the
///    median of that across the windows: a host stall sets the tail of
///    one window but not the median, while a cost that shows in half the
///    windows moves it.
///
/// Every end-to-end time and rate is then scaled by the run's SpeedRef:
/// a fixed reference workload, compiled into the benchmark and run in
/// short chunks between the measured repetitions, on the same threads and
/// CPUs. A time is reported as measured times NominalNs over the
/// reference chunk's trimmed mean time in the same run, a rate inversely:
/// the time the work would take on a CPU that runs one chunk in
/// NominalNs. A change to the compiler moves the measured work but not
/// the reference; a slower host moves both.
class SpeedRef {
public:
  /// Thread CPU time of one chunk on an undisturbed vCPU of the 4-vCPU
  /// Xeon guest above, so scaled figures there read as measured.
  static constexpr double NominalNs = 330'000;

  SpeedRef();
  /// Runs \p Chunks chunks of the reference workload on the calling
  /// thread and records the thread CPU time of each.
  void sample(unsigned Chunks = 1);
  /// Factor that turns a thread CPU time of this run into a scaled one:
  /// NominalNs over the trimmed mean chunk time.
  double scale() const;
  size_t chunks() const { return Ns.size(); }

private:
  std::vector<u32> Table;
  std::vector<u8> Out;
  u64 State = 0x9e3779b97f4a7c15ull;
  std::vector<double> Ns;
};

/// Pools the values of consecutive samples into windows of a fixed number
/// of samples, so a high percentile has enough values beyond it.
class Windows {
public:
  explicit Windows(size_t SamplesPerWindow) : Per(SamplesPerWindow) {}
  /// Adds one sample's values.
  void add(const std::vector<double> &Values) {
    if (Pools.empty() || Count % Per == 0)
      Pools.emplace_back();
    Pools.back().insert(Pools.back().end(), Values.begin(), Values.end());
    ++Count;
  }
  /// The \p Q quantile of every window.
  std::vector<double> quantiles(double Q) const {
    std::vector<double> Out;
    for (const auto &P : Pools)
      Out.push_back(quantile(P, Q));
    return Out;
  }

private:
  size_t Per, Count = 0;
  std::vector<std::vector<double>> Pools;
};

/// Per-CPU speed on that host also differs for seconds at a time (a vCPU
/// whose physical core is busy with another tenant runs at about half
/// speed). Single-threaded workloads therefore rotate the CPU they run on
/// every round or two, so that every run, long or short, spends the same
/// share of its work on each CPU; the service workload runs on the CPU
/// that is fastest when it starts.
class CpuPlacement {
public:
  /// Records the CPUs the process may use.
  CpuPlacement();
  /// Restores the original CPU set.
  ~CpuPlacement() { restore(); }
  CpuPlacement(const CpuPlacement &) = delete;
  CpuPlacement &operator=(const CpuPlacement &) = delete;

  size_t count() const { return Cpus.size(); }
  /// Pins the calling thread to the \p Step-th CPU, round robin.
  void rotate(size_t Step);
  /// Pins the calling thread, and the threads it creates from now on, to
  /// the CPU that runs a short fixed loop fastest; returns that CPU.
  int pinFastest();
  void pin(int Cpu);
  void restore();

private:
  std::vector<int> Cpus;
};

/// Seconds of CPU time (user + system) the process has used.
double cpuSeconds();
/// CPU time of the calling thread in nanoseconds.
u64 threadCpuNs();
/// Peak resident set size of the process in MiB.
double peakRssMb();
/// Hardware threads the OS reports.
unsigned hostThreads();
/// Threads of the host-parallelism probe: 4, fewer only when the host
/// has fewer.
unsigned probeThreads();
/// Ratio of \p Threads-way to one-way throughput of a fixed CPU loop: how
/// much parallelism the host really grants right now. \p OneMs is set to
/// the one-way wall time of the loop: how fast one CPU runs right now.
double effectiveParallelism(unsigned Threads, double &OneMs);
/// Nanoseconds per instruction for a fixed instruction mix encoded through
/// the public x64::Emitter API.
double encodeNsPerInst();

/// Reference chunks after each set-up repetition.
inline constexpr unsigned SetupRefChunks = 40;

/// Runs \p Setup \p Reps times and returns the median CPU seconds the
/// process (all its threads) spent in one repetition, scaled by a SpeedRef
/// sampled after each repetition. Setup must leave the state of its last
/// repetition in place.
template <typename Fn> double timedSetup(unsigned Reps, Fn Setup) {
  SpeedRef Ref;
  std::vector<double> S;
  for (unsigned I = 0; I < Reps; ++I) {
    double C0 = cpuSeconds();
    Setup();
    S.push_back(cpuSeconds() - C0);
    Ref.sample(SetupRefChunks);
  }
  return median(S) * Ref.scale();
}

/// Busy-waits for \p Ns nanoseconds of thread CPU time (the self-test's
/// injected delay).
void spinNs(u64 Ns);

/// Number of set-up repetitions whose median is setup_s.
inline constexpr unsigned SetupReps = 5;

int runSpecO0(const Args &A, Report &R);
int runModule10k(const Args &A, Report &R);
int runQueryService(const Args &A, Report &R);

} // namespace perfbench

#endif // TPDE_PERFBENCH_COMMON_H
