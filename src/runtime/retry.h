// Deadline + bounded-retry policy for one detector call.
//
// DetectWithRetries is the single choke point through which the evaluation
// stack (frame_eval, the lazy evaluator, the online query executor) invokes
// a detector. It enforces a per-call deadline, retries transient failures
// with exponential backoff, and splits the charged time into productive
// inference and wasted fault time so TimeBreakdown can report them
// separately. All of it runs on the simulated clock — latencies come from
// the detector, backoff is charged arithmetically — so outcomes are a pure
// function of (detector, frame, trial_seed, policy) and stay bit-identical
// across worker counts.

#ifndef VQE_RUNTIME_RETRY_H_
#define VQE_RUNTIME_RETRY_H_

#include <cstdint>

#include "common/status.h"
#include "detection/detection.h"
#include "models/detector.h"
#include "sim/video.h"

namespace vqe {

/// Knobs for one resilient detector call.
struct RetryPolicy {
  /// Total attempts per logical call (1 = no retries).
  int max_attempts = 1;
  /// Per-attempt deadline in simulated ms; <= 0 disables the deadline. An
  /// attempt whose latency exceeds the deadline is abandoned at the
  /// deadline: the call is charged `deadline_ms`, not the full latency.
  double deadline_ms = 0.0;
  /// Backoff charged before retry k (k >= 1): base * multiplier^(k-1) ms.
  double backoff_base_ms = 0.5;
  double backoff_multiplier = 2.0;

  Status Validate() const;
};

/// The aggregate outcome of one logical detector call (all attempts).
struct DetectorCallOutcome {
  /// OK iff some attempt succeeded; otherwise the last attempt's error.
  Status status;
  /// Valid only when status is OK.
  DetectionList detections;
  /// Simulated latency of the successful attempt (0 when the call failed).
  double inference_ms = 0.0;
  /// Wasted time: failed attempts' latencies plus backoff waits.
  double fault_ms = 0.0;
  /// Number of attempts made (>= 1).
  int attempts = 0;

  bool ok() const { return status.ok(); }
  /// Everything the call cost, productive or not.
  double charged_ms() const { return inference_ms + fault_ms; }
};

/// Runs one logical detector call under `policy`.
///
/// A FaultInjectingDetector goes through its Attempt API; any other
/// ObjectDetector is treated as infallible (one attempt, Detect +
/// InferenceCostMs, in that order — the same call order the evaluation
/// stack used before the runtime existed, preserving RNG-stream
/// bit-identity) and can only fail by deadline overrun.
DetectorCallOutcome DetectWithRetries(const ObjectDetector& detector,
                                      const VideoFrame& frame,
                                      uint64_t trial_seed,
                                      const RetryPolicy& policy);

}  // namespace vqe

#endif  // VQE_RUNTIME_RETRY_H_
