//===- support/Histogram.h - Fixed-bucket latency histogram -----*- C++ -*-===//
///
/// \file
/// An allocation-free, thread-safe latency histogram for the compile
/// service's hit/miss latency statistics (p50/p99 in the service bench
/// and SERVICE.md). The bucket layout is log-linear, the standard
/// HdrHistogram-style compromise: one octave per power of two of
/// nanoseconds, subdivided into 8 linear sub-buckets, giving a fixed
/// 512-counter array (~4 KiB) that covers 1 ns .. ~580 years with a
/// worst-case quantile error of one sub-bucket width (12.5% relative).
///
/// record() is a single relaxed atomic increment — no locks, no
/// allocation, safe from any number of threads concurrently, which is
/// what lets the service count latencies on its hot path without
/// violating the docs/PERF.md steady-state policy. quantileNs() returns
/// a conservative *upper bound* (the inclusive upper edge of the bucket
/// containing the requested rank), so a gated p99 can only over-report,
/// never hide a regression. Quantile reads concurrent with writers are
/// approximate (counters move underneath); snapshot consistency is the
/// caller's problem (the bench quiesces before reading).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_HISTOGRAM_H
#define TPDE_SUPPORT_HISTOGRAM_H

#include "support/Common.h"

#include <atomic>
#include <bit>
#include <cmath>

namespace tpde::support {

class LatencyHistogram {
public:
  static constexpr unsigned SubBucketBits = 3; // 8 sub-buckets per octave
  static constexpr unsigned SubBuckets = 1u << SubBucketBits;
  static constexpr unsigned Octaves = 64;
  static constexpr unsigned NumBuckets = Octaves * SubBuckets;

  /// Records one sample of \p Ns nanoseconds. Lock- and allocation-free.
  void record(u64 Ns) {
    Buckets[bucketOf(Ns)].fetch_add(1, std::memory_order_relaxed);
    TotalCount.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total number of recorded samples.
  u64 count() const { return TotalCount.load(std::memory_order_relaxed); }

  /// Conservative upper bound for the \p Q quantile (0 < Q <= 1) in
  /// nanoseconds: the upper edge of the bucket holding the Q-rank
  /// sample. Returns 0 when empty.
  u64 quantileNs(double Q) const {
    u64 Total = count();
    if (Total == 0)
      return 0;
    if (Q < 0.0)
      Q = 0.0;
    if (Q > 1.0)
      Q = 1.0;
    // Rank of the target sample, 1-based, ceil(Q * Total) clamped to
    // [1, Total].
    u64 Rank = static_cast<u64>(std::ceil(Q * static_cast<double>(Total)));
    if (Rank < 1)
      Rank = 1;
    if (Rank > Total)
      Rank = Total;
    u64 Seen = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      Seen += Buckets[I].load(std::memory_order_relaxed);
      if (Seen >= Rank)
        return bucketUpperNs(I);
    }
    return bucketUpperNs(NumBuckets - 1);
  }

  /// Zeroes all counters. Not safe concurrently with record().
  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    TotalCount.store(0, std::memory_order_relaxed);
  }

private:
  /// Bucket index for a value: the top SubBucketBits+1 significant bits
  /// select octave and sub-bucket.
  static unsigned bucketOf(u64 Ns) {
    if (Ns < SubBuckets)
      return static_cast<unsigned>(Ns); // exact buckets below 8 ns
    unsigned Msb = 63 - static_cast<unsigned>(std::countl_zero(Ns));
    unsigned Octave = Msb - SubBucketBits + 1;
    unsigned Sub = static_cast<unsigned>(Ns >> (Msb - SubBucketBits)) &
                   (SubBuckets - 1);
    return Octave * SubBuckets + Sub;
  }

  /// Inclusive upper edge of bucket \p I in nanoseconds.
  static u64 bucketUpperNs(unsigned I) {
    unsigned Octave = I / SubBuckets;
    unsigned Sub = I % SubBuckets;
    if (Octave == 0)
      return Sub; // the exact low buckets
    u64 Base = u64{1} << (Octave + SubBucketBits - 1);
    u64 Width = Base / SubBuckets;
    return Base + Width * (Sub + 1) - 1;
  }

  std::atomic<u64> Buckets[NumBuckets] = {};
  std::atomic<u64> TotalCount{0};
};

} // namespace tpde::support

#endif // TPDE_SUPPORT_HISTOGRAM_H
