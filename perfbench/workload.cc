#include "workload.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/dataset.h"
#include "wrappers.h"

namespace perfbench {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double StratifiedDraw(uint64_t seed, uint64_t stream, uint64_t j, double lo,
                      double hi) {
  const uint64_t block = j / kStrata;
  vqe::Rng rng = vqe::MakeStreamRng(seed, 0x5157A7ULL, stream, block);
  int order[kStrata];
  std::iota(order, order + kStrata, 0);
  for (int i = kStrata - 1; i > 0; --i) {
    const int k =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(i) + 1));
    std::swap(order[i], order[k]);
  }
  double offsets[kStrata];
  for (double& u : offsets) u = rng.NextDouble();
  const uint64_t slot = j % kStrata;
  const double x = (order[slot] + offsets[slot]) / kStrata;
  return lo + (hi - lo) * x;
}

vqe::Status SourceVideo::Load(const std::string& dataset, uint64_t seed,
                              size_t min_frames) {
  VQE_ASSIGN_OR_RETURN(const vqe::DatasetSpec* spec,
                       vqe::DatasetCatalog::Default().Find(dataset));
  VQE_ASSIGN_OR_RETURN(pool, vqe::BuildPoolForDataset(spec->name));
  timed = MakeTimedPool(pool);
  vqe::SampleOptions so;
  so.scene_scale = 1.0;
  so.seed = seed;
  ScopedSpan span(Layer::kSample);
  VQE_ASSIGN_OR_RETURN(video, vqe::SampleVideo(*spec, so));
  if (video.size() < min_frames) {
    return vqe::Status::FailedPrecondition("sampled " + dataset +
                                           " is shorter than a request");
  }
  return vqe::Status::OK();
}

std::vector<int64_t> FailedIds(
    const std::vector<RequestRecord>& records,
    const std::function<bool(const RequestRecord&)>& ok) {
  std::vector<int64_t> bad;
  std::mutex mu;
  vqe::ParallelFor(records.size(), 0, [&](size_t r) {
    if (!ok(records[r])) {
      std::lock_guard<std::mutex> lock(mu);
      bad.push_back(records[r].id);
    }
  });
  std::sort(bad.begin(), bad.end());
  return bad;
}

vqe::Video Slice(const vqe::Video& video, size_t start, size_t len) {
  vqe::Video out;
  out.geometry = video.geometry;
  out.frames.assign(video.frames.begin() + static_cast<ptrdiff_t>(start),
                    video.frames.begin() + static_cast<ptrdiff_t>(start + len));
  for (size_t i = 0; i < out.frames.size(); ++i) {
    out.frames[i].frame_index = static_cast<int64_t>(i);
  }
  return out;
}

Digest& Digest::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 0x100000001B3ULL;
  }
  return *this;
}

Digest& Digest::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return U64(bits);
}

uint64_t DigestRun(const vqe::RunResult& r, bool with_regret) {
  Digest d;
  d.F64(r.s_sum).F64(r.avg_true_ap).F64(r.avg_norm_cost);
  d.U64(r.frames_processed).F64(r.charged_cost_ms);
  if (with_regret) d.U64(r.regret_available ? 1 : 0).F64(r.regret);
  const vqe::TimeBreakdown& b = r.breakdown;
  d.F64(b.detector_ms).F64(b.reference_ms).F64(b.ensembling_ms);
  d.F64(b.fault_ms).F64(b.tracker_ms);
  d.U64(r.selection_counts.size());
  for (uint64_t c : r.selection_counts) d.U64(c);
  d.U64(r.fallback_frames).U64(r.failed_frames);
  d.U64(r.skip.skipped_frames).U64(r.skip.detect_frames);
  d.U64(r.skip.forced_detects).F64(r.skip.propagated_ap_sum);
  return d.value();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
