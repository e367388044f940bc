// Fixed-resolution latency histogram: a bounded replacement for keeping
// every per-frame sample when only percentiles are read. Buckets are
// geometric, 64 per octave (bucket i holds [2^(i/64), 2^((i+1)/64))),
// and a percentile reports its bucket's upper edge, so it is never below
// the exact nearest-rank percentile of the same samples and at most
// 2^(1/64) − 1 ≈ 1.09 % above it (for samples in the normal double
// range). Memory grows with the span of observed magnitudes, not with the
// sample count: latencies from 1 µs to 100 s fit in about 1,700 counters.

#ifndef VQE_SERVE_LATENCY_HISTOGRAM_H_
#define VQE_SERVE_LATENCY_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vqe {

class LatencyHistogram {
 public:
  static constexpr int kBucketsPerOctave = 64;

  /// Records one sample. Samples that are not positive (0, negatives,
  /// NaN) count as 0 and report exactly 0.
  void Add(double value);

  /// Nearest-rank percentile under SamplePercentileInPlace's rank rule
  /// (serve/overload.h): the upper edge of the bucket holding the
  /// ceil(q·n)-th smallest sample, or 0 when that sample is 0 or nothing
  /// was recorded.
  double Percentile(double q) const;

  uint64_t count() const { return count_; }
  /// Bucket counters held: the span of observed positive magnitudes in
  /// 64ths of an octave, whatever the sample count.
  size_t num_buckets() const { return counts_.size(); }

 private:
  /// Lower edge of bucket i, 2^(i/64) — the only edge arithmetic, shared
  /// by Add's bucket choice and Percentile's report.
  static double Edge(int64_t i);

  uint64_t count_ = 0;
  uint64_t zeros_ = 0;
  /// Bucket index of counts_[0]; counts_ spans the observed buckets.
  int64_t base_ = 0;
  std::vector<uint64_t> counts_;
};

}  // namespace vqe

#endif  // VQE_SERVE_LATENCY_HISTOGRAM_H_
