#include "serve/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vqe {

double LatencyHistogram::Edge(int64_t i) {
  return std::exp2(static_cast<double>(i) / kBucketsPerOctave);
}

void LatencyHistogram::Add(double value) {
  ++count_;
  if (!(value > 0.0)) {
    ++zeros_;
    return;
  }
  value = std::min(value, std::numeric_limits<double>::max());
  int64_t i = static_cast<int64_t>(
      std::floor(std::log2(value) * kBucketsPerOctave));
  // log2 rounding can land a sample next to its bucket near an edge;
  // settle it against the edges Percentile reports, so Edge(i) <= value <
  // Edge(i + 1) holds exactly.
  while (value >= Edge(i + 1)) ++i;
  while (value < Edge(i)) --i;

  if (counts_.empty()) {
    base_ = i;
    counts_.assign(1, 0);
  } else if (i < base_) {
    counts_.insert(counts_.begin(), static_cast<size_t>(base_ - i), 0);
    base_ = i;
  } else if (i >= base_ + static_cast<int64_t>(counts_.size())) {
    counts_.resize(static_cast<size_t>(i - base_) + 1, 0);
  }
  ++counts_[static_cast<size_t>(i - base_)];
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  if (rank <= zeros_) return 0.0;
  uint64_t seen = zeros_;
  for (size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) return Edge(base_ + static_cast<int64_t>(b) + 1);
  }
  return Edge(base_ + static_cast<int64_t>(counts_.size()));
}

}  // namespace vqe
