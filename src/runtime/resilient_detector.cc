#include "runtime/resilient_detector.h"

namespace vqe {

DetectorCallOutcome ResilientDetector::Call(const VideoFrame& frame,
                                            uint64_t trial_seed, size_t t) {
  if (!breaker_.AllowsCallAt(t)) {
    DetectorCallOutcome refused;
    refused.status =
        Status::Unavailable(inner_->name() + ": circuit breaker open");
    return refused;
  }
  DetectorCallOutcome outcome =
      DetectWithRetries(*inner_, frame, trial_seed, retry_);
  if (outcome.ok()) {
    breaker_.RecordSuccess(t);
  } else {
    breaker_.RecordFailure(t);
  }
  return outcome;
}

}  // namespace vqe
