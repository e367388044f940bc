// ResilientDetector: the full fault-tolerance stack around one detector —
// per-call deadline, bounded retry with exponential backoff (retry.h), and
// a circuit breaker (circuit_breaker.h) that short-circuits calls while the
// model is known-bad. This is the runtime path the online query executor
// uses; the offline evaluation stack inlines the same pieces (retry inside
// FrameEvalContext, breakers inside the engine loop) because its call
// pattern is matrix-shaped rather than per-model-object.

#ifndef VQE_RUNTIME_RESILIENT_DETECTOR_H_
#define VQE_RUNTIME_RESILIENT_DETECTOR_H_

#include <cstdint>

#include "common/status.h"
#include "detection/detection.h"
#include "runtime/circuit_breaker.h"
#include "runtime/retry.h"
#include "sim/video.h"

namespace vqe {

/// Wraps a detector (not owned) with retry + breaker state. Stateful:
/// breaker transitions depend on the call history, so one ResilientDetector
/// serves one sequential run.
class ResilientDetector {
 public:
  ResilientDetector(const ObjectDetector* inner, RetryPolicy retry,
                    CircuitBreakerOptions breaker_options)
      : inner_(inner), retry_(retry), breaker_(breaker_options) {}

  /// One fault-tolerant call at frame t. An open breaker refuses the call
  /// at zero cost (status kUnavailable); otherwise the call runs under the
  /// retry policy and its outcome feeds the breaker.
  DetectorCallOutcome Call(const VideoFrame& frame, uint64_t trial_seed,
                           size_t t);

  /// Breaker state governing frame t (advances open → half-open).
  BreakerState StateAt(size_t t) { return breaker_.StateAt(t); }

  const ObjectDetector& inner() const { return *inner_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Serializes the breaker state, the only state the wrapper has. The
  /// retry policy and inner detector are configuration, reconstructed by
  /// the caller on resume.
  Status SaveState(ByteWriter& writer) const {
    return breaker_.SaveState(writer);
  }

  /// Restores a SaveState payload; DataLoss on malformed bytes.
  Status RestoreState(ByteReader& reader) {
    return breaker_.RestoreState(reader);
  }

 private:
  const ObjectDetector* inner_;
  RetryPolicy retry_;
  CircuitBreaker breaker_;
};

}  // namespace vqe

#endif  // VQE_RUNTIME_RESILIENT_DETECTOR_H_
