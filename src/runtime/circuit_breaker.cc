#include "runtime/circuit_breaker.h"

namespace vqe {

Status CircuitBreakerOptions::Validate() const {
  if (failure_threshold < 1) {
    return Status::InvalidArgument(
        "CircuitBreakerOptions.failure_threshold must be >= 1");
  }
  if (open_frames < 1) {
    return Status::InvalidArgument(
        "CircuitBreakerOptions.open_frames must be >= 1");
  }
  if (half_open_probes < 1) {
    return Status::InvalidArgument(
        "CircuitBreakerOptions.half_open_probes must be >= 1");
  }
  return Status::OK();
}

const char* BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

BreakerState CircuitBreaker::StateAt(size_t t) {
  if (state_ == BreakerState::kOpen &&
      t >= opened_at_ + options_.open_frames) {
    state_ = BreakerState::kHalfOpen;
    probe_successes_ = 0;
  }
  return state_;
}

void CircuitBreaker::RecordSuccess(size_t t) {
  ++successes_;
  switch (StateAt(t)) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++probe_successes_ >= options_.half_open_probes) {
        state_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // A success while open (caller bypassed the breaker) is recorded in
      // the counters but does not change state.
      break;
  }
}

void CircuitBreaker::RecordFailure(size_t t) {
  ++failures_;
  switch (StateAt(t)) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) TripOpen(t);
      break;
    case BreakerState::kHalfOpen:
      // A failed probe re-opens immediately and restarts the cool-down.
      TripOpen(t);
      break;
    case BreakerState::kOpen:
      break;
  }
}

Status CircuitBreaker::SaveState(ByteWriter& writer) const {
  writer.U8(static_cast<uint8_t>(state_));
  writer.U64(opened_at_);
  writer.I64(consecutive_failures_);
  writer.I64(probe_successes_);
  writer.U64(successes_);
  writer.U64(failures_);
  writer.U64(opens_);
  return Status::OK();
}

Status CircuitBreaker::RestoreState(ByteReader& reader) {
  uint8_t state = 0;
  uint64_t opened_at = 0, successes = 0, failures = 0, opens = 0;
  int64_t consecutive_failures = 0, probe_successes = 0;
  VQE_RETURN_NOT_OK(reader.U8(&state));
  VQE_RETURN_NOT_OK(reader.U64(&opened_at));
  VQE_RETURN_NOT_OK(reader.I64(&consecutive_failures));
  VQE_RETURN_NOT_OK(reader.I64(&probe_successes));
  VQE_RETURN_NOT_OK(reader.U64(&successes));
  VQE_RETURN_NOT_OK(reader.U64(&failures));
  VQE_RETURN_NOT_OK(reader.U64(&opens));
  if (state > static_cast<uint8_t>(BreakerState::kHalfOpen)) {
    return Status::DataLoss("breaker state enum out of range");
  }
  // A breaker trips (and resets the streak) when consecutive failures
  // reach the threshold, and keeps its probe count once the probes close
  // it: larger counts are unreachable, and some would not fit an int.
  if (consecutive_failures < 0 ||
      consecutive_failures >= options_.failure_threshold) {
    return Status::DataLoss("breaker failure streak out of range");
  }
  if (probe_successes < 0 || probe_successes > options_.half_open_probes) {
    return Status::DataLoss("breaker probe count out of range");
  }
  state_ = static_cast<BreakerState>(state);
  opened_at_ = static_cast<size_t>(opened_at);
  consecutive_failures_ = static_cast<int>(consecutive_failures);
  probe_successes_ = static_cast<int>(probe_successes);
  successes_ = successes;
  failures_ = failures;
  opens_ = opens;
  return Status::OK();
}

void CircuitBreaker::TripOpen(size_t t) {
  state_ = BreakerState::kOpen;
  opened_at_ = t;
  consecutive_failures_ = 0;
  probe_successes_ = 0;
  ++opens_;
}

}  // namespace vqe
