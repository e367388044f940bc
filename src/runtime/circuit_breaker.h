// Per-model circuit breaker on the deterministic frame clock.
//
// The classic closed → open → half-open state machine, with one twist: time
// is measured in *frames*, not wall-clock. An open breaker stays open for
// `open_frames` frames and then admits half-open probes. Frame time is part
// of the deterministic replay (every run visits frames 0..n-1 in order), so
// breaker trajectories — and therefore which models the bandit may select —
// are bit-identical across worker counts and evaluation backends.

#ifndef VQE_RUNTIME_CIRCUIT_BREAKER_H_
#define VQE_RUNTIME_CIRCUIT_BREAKER_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "snapshot/wire.h"

namespace vqe {

struct CircuitBreakerOptions {
  /// Consecutive failures that trip a closed breaker open.
  int failure_threshold = 3;
  /// Frames an open breaker waits before admitting half-open probes.
  size_t open_frames = 30;
  /// Consecutive half-open successes required to close again.
  int half_open_probes = 1;

  Status Validate() const;
};

enum class BreakerState : uint8_t {
  kClosed = 0,
  kOpen,
  kHalfOpen,
};

const char* BreakerStateToString(BreakerState state);

/// One model's breaker. Callers drive it with the current frame index t:
/// query StateAt(t) before calling the model, then record the outcome with
/// RecordSuccess/RecordFailure(t). t must be non-decreasing across calls.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(CircuitBreakerOptions options = {})
      : options_(options) {}

  /// The state governing calls at frame t (resolves open → half-open once
  /// the cool-down has elapsed).
  BreakerState StateAt(size_t t);

  /// True when a call may be issued at frame t (closed or half-open).
  bool AllowsCallAt(size_t t) { return StateAt(t) != BreakerState::kOpen; }

  void RecordSuccess(size_t t);
  void RecordFailure(size_t t);

  const CircuitBreakerOptions& options() const { return options_; }

  // Lifetime health counters (reporting).
  uint64_t successes() const { return successes_; }
  uint64_t failures() const { return failures_; }
  uint64_t opens() const { return opens_; }

  /// Serializes the full state machine (state, clocks, counters) so a
  /// resumed run replays breaker trajectories bit-identically.
  Status SaveState(ByteWriter& writer) const;

  /// Restores a SaveState payload; DataLoss on malformed bytes (e.g. an
  /// out-of-range state enum, or counters the state machine cannot
  /// reach under this breaker's options), leaving the breaker untouched.
  Status RestoreState(ByteReader& reader);

 private:
  void TripOpen(size_t t);

  CircuitBreakerOptions options_;
  BreakerState state_ = BreakerState::kClosed;
  size_t opened_at_ = 0;
  int consecutive_failures_ = 0;
  int probe_successes_ = 0;
  uint64_t successes_ = 0;
  uint64_t failures_ = 0;
  uint64_t opens_ = 0;
};

}  // namespace vqe

#endif  // VQE_RUNTIME_CIRCUIT_BREAKER_H_
