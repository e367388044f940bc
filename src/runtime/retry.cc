#include "runtime/retry.h"

#include <string>
#include <utility>

#include "runtime/fault_injection.h"

namespace vqe {

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("RetryPolicy.max_attempts must be >= 1");
  }
  if (backoff_base_ms < 0.0) {
    return Status::InvalidArgument("RetryPolicy.backoff_base_ms must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument(
        "RetryPolicy.backoff_multiplier must be >= 1");
  }
  return Status::OK();
}

namespace {

// One attempt against a detector that has no failure channel of its own.
// Detect before InferenceCostMs: FrameEvalContext always called them in
// that order, and both consume the detector's RNG stream, so swapping them
// would silently change every seeded result in the repo.
AttemptOutcome InfallibleAttempt(const ObjectDetector& detector,
                                 const VideoFrame& frame,
                                 uint64_t trial_seed) {
  AttemptOutcome out;
  out.detections = detector.Detect(frame, trial_seed);
  out.latency_ms = detector.InferenceCostMs(frame, trial_seed);
  out.status = Status::OK();
  return out;
}

}  // namespace

DetectorCallOutcome DetectWithRetries(const ObjectDetector& detector,
                                      const VideoFrame& frame,
                                      uint64_t trial_seed,
                                      const RetryPolicy& policy) {
  const auto* faulty = dynamic_cast<const FaultInjectingDetector*>(&detector);
  DetectorCallOutcome call;
  double backoff = policy.backoff_base_ms;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (attempt > 0) {
      call.fault_ms += backoff;
      backoff *= policy.backoff_multiplier;
    }
    ++call.attempts;
    AttemptOutcome outcome =
        faulty ? faulty->Attempt(frame, trial_seed, attempt)
               : InfallibleAttempt(detector, frame, trial_seed);
    if (outcome.status.ok() && policy.deadline_ms > 0.0 &&
        outcome.latency_ms > policy.deadline_ms) {
      // The attempt would have answered eventually, but past the deadline:
      // the caller abandons it at the deadline mark and pays exactly that.
      outcome.status = Status::DeadlineExceeded(
          detector.name() + ": attempt exceeded deadline");
      outcome.latency_ms = policy.deadline_ms;
      outcome.detections.clear();
    }
    if (outcome.status.ok()) {
      call.status = Status::OK();
      call.detections = std::move(outcome.detections);
      call.inference_ms = outcome.latency_ms;
      return call;
    }
    call.fault_ms += outcome.latency_ms;
    call.status = std::move(outcome.status);
  }
  return call;
}

}  // namespace vqe
