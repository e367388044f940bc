// The benchmark's workload interface and the helpers the four workloads
// share: seeded request sizes, clip slicing and output digests.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "models/model_zoo.h"
#include "sim/video.h"
#include "spans.h"

namespace perfbench {

/// One completed request.
struct RequestRecord {
  int64_t id = 0;
  uint64_t frames = 0;
  /// Digest of the request's output (all deterministic fields).
  uint64_t digest = 0;
  /// Extra digests a workload's output check needs (e.g. per-strategy
  /// digests for a second evaluation path).
  std::vector<uint64_t> check;
  /// False when the program reported an error (or shed the request).
  bool ok = true;
};

/// When a loop stops submitting new requests: after `seconds` of wall
/// time, or after `max_requests` requests (exactly one is set).
struct StopRule {
  double seconds = 0.0;
  int64_t max_requests = 0;
};

/// What one loop over the seeded request sequence produced. Requests are
/// numbered from 0 in submission order; the sequence (and each request's
/// input) is a pure function of the workload seed.
struct LoopResult {
  /// Counted requests: every request of a fixed-count loop, or those that
  /// completed inside the timed phase.
  std::vector<RequestRecord> requests;
  /// Per-request latency samples, ms (per batch for fleet_batch).
  std::vector<double> latencies_ms;
  /// Frames of the counted requests, and the timed phase they took.
  uint64_t frames = 0;
  double wall_s = 0.0;
  /// Per-layer figures the loop measures itself (metric name -> value).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds pools, samples every input and runs the untimed warm-up
  /// requests; called once, before any loop.
  virtual vqe::Status Setup() = 0;
  /// Frames sampled by one Setup.
  virtual uint64_t setup_frames() const = 0;

  /// Runs the closed loop from request 0 until `stop`. With `traced`, the
  /// program sees timing wrappers around its pools, sources and
  /// strategies.
  virtual vqe::Result<LoopResult> Run(const StopRule& stop, bool traced) = 0;

  /// Requests in one traced pass (a fixed count, so its counters are
  /// exact).
  virtual int64_t pass_requests() const = 0;

  /// Checks every record against the reference the repository guarantees
  /// bit-identical; returns the ids whose output differs or failed.
  virtual std::vector<int64_t> Verify(
      const std::vector<RequestRecord>& records) = 0;

  /// Adds the workload's span-derived per-layer metrics for one traced
  /// pass to `out` (the loop's own figures are already in pass.layer).
  virtual void LayerMetrics(const LoopResult& pass, const Totals& totals,
                            std::map<std::string, double>* out) const {
    (void)pass;
    (void)totals;
    (void)out;
  }
};

std::unique_ptr<Workload> MakeOfflineEager(uint64_t seed);
std::unique_ptr<Workload> MakeServeClosed(uint64_t seed);
std::unique_ptr<Workload> MakeFleetBatch(uint64_t seed);
std::unique_ptr<Workload> MakeQueryMix(uint64_t seed,
                                       const std::string& digest_path);

/// Writes the committed QueryOutput digests the query_mix check reads.
vqe::Status WriteQueryDigests(const std::string& path);

// --- shared helpers --------------------------------------------------------

/// Requests numbered from here on are set-up warm-ups, never timed.
inline constexpr int64_t kWarmupId = int64_t{1} << 40;

/// Hardware threads of this host (at least 1).
int HardwareThreads();

/// The j-th draw of a stratified stream over the continuous range
/// [lo, hi): every block of kStrata draws puts one draw, uniformly placed,
/// in each of kStrata equal sub-ranges, in a seeded order. The sizes stay
/// continuous while every block covers the whole range evenly, so request
/// percentiles do not depend on the luck of the seed.
double StratifiedDraw(uint64_t seed, uint64_t stream, uint64_t j, double lo,
                      double hi);
inline constexpr int kStrata = 16;

/// A whole dataset sampled in set-up (requests cut clips from it), with
/// its pool and the same pool behind timing wrappers.
struct SourceVideo {
  vqe::DetectorPool pool;
  vqe::DetectorPool timed;
  vqe::Video video;

  /// Builds the pools of `dataset` and samples it whole with `seed`; fails
  /// when the video has fewer than `min_frames` frames.
  vqe::Status Load(const std::string& dataset, uint64_t seed,
                   size_t min_frames);
};

/// Ids of the records `ok` rejects, checked in parallel on every core.
std::vector<int64_t> FailedIds(
    const std::vector<RequestRecord>& records,
    const std::function<bool(const RequestRecord&)>& ok);

/// Frames [start, start + len) of `video`, renumbered from 0.
vqe::Video Slice(const vqe::Video& video, size_t start, size_t len);

/// FNV-1a accumulation over raw bytes.
class Digest {
 public:
  Digest& U64(uint64_t v);
  Digest& F64(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Digest of every deterministic RunResult field (wall-clock fields
/// excluded); the regret fields only when `with_regret`.
uint64_t DigestRun(const vqe::RunResult& r, bool with_regret);

double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
