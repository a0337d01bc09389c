//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
///
/// Usage: perfbench --workload spec_o0|module_10k|query_service --seed N
///                  --seconds S --trace 0|1 [--inject-map-delay-pct P]
///
/// Runs one workload and prints, as its last line, one JSON object with
/// the keys correct/attempted/failed/metrics. --trace 0 reports the
/// end-to-end metrics, --trace 1 the per-layer ones (see run.py).
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "spec_o0|module_10k|query_service --seed N --seconds S "
               "--trace 0|1 [--inject-map-delay-pct P]\n",
               Msg);
  std::exit(2);
}

double number(const char *S, const char *What) {
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End || V < 0)
    usage(What);
  return V;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      usage("missing value");
    const char *K = argv[I], *V = argv[++I];
    if (!std::strcmp(K, "--workload"))
      A.Workload = V;
    else if (!std::strcmp(K, "--seed"))
      A.Seed = static_cast<u64>(number(V, "bad --seed"));
    else if (!std::strcmp(K, "--seconds"))
      A.Seconds = number(V, "bad --seconds");
    else if (!std::strcmp(K, "--trace"))
      A.Trace = number(V, "bad --trace") != 0;
    else if (!std::strcmp(K, "--inject-map-delay-pct"))
      A.InjectMapDelayPct = number(V, "bad --inject-map-delay-pct");
    else
      usage("unknown argument");
  }
  if (A.Seconds <= 0)
    usage("--seconds must be positive");

  int (*Run)(const Args &, Report &) = nullptr;
  if (A.Workload == "spec_o0")
    Run = runSpecO0;
  else if (A.Workload == "module_10k")
    Run = runModule10k;
  else if (A.Workload == "query_service")
    Run = runQueryService;
  else
    usage("unknown workload");

  Report R;
  // Host context: how much parallelism the host grants, before and after.
  const unsigned Threads = probeThreads();
  double LoopStart = 0, LoopEnd = 0;
  double EffStart = effectiveParallelism(Threads, LoopStart);
  std::printf("host: nproc %u, effective parallelism at start %.2fx of %u, "
              "reference loop %.1f ms\n",
              hostThreads(), EffStart, Threads, LoopStart);
  if (int Rc = Run(A, R))
    return Rc;
  double EffEnd = effectiveParallelism(Threads, LoopEnd);
  std::printf("host: effective parallelism at end %.2fx of %u, reference "
              "loop %.1f ms\n",
              EffEnd, Threads, LoopEnd);

  R.set("ok_share", R.okShare(), "ratio");
  R.set("error_rate", 1.0 - R.okShare(), "ratio");
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  R.set("host.nproc", hostThreads(), "count");
  R.set("host.eff_parallel_start", EffStart, "x");
  R.set("host.eff_parallel_end", EffEnd, "x");
  if (A.Trace)
    R.set("x64.encode_ns_per_inst", encodeNsPerInst(), "ns");
  std::printf("checked operations: %llu, failed: %llu\n",
              (unsigned long long)R.attempted(),
              (unsigned long long)R.failed());
  std::printf("%s\n", R.json().c_str());
  return 0;
}
