// Deterministic fault injection for detectors.
//
// FaultInjectingDetector decorates any ObjectDetector with a scripted
// failure channel: hard errors, latency spikes, empty or garbage output,
// and failure *bursts* pinned to frame ranges or scene contexts (the
// drift-style outage of ISSUE 3 — a model that dies when the scene turns to
// night). Faults are a pure function of (trial_seed, detector uid, frame,
// attempt): the same script and seed reproduce the same outage on every
// run, every worker count, and both evaluation backends, which is what
// makes fault-tolerance testable bit-for-bit.

#ifndef VQE_RUNTIME_FAULT_INJECTION_H_
#define VQE_RUNTIME_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "detection/detection.h"
#include "models/detector.h"
#include "sim/scene_context.h"
#include "sim/video.h"

namespace vqe {

/// The result of one detector attempt: status, detections (meaningful only
/// when status is OK), and the simulated latency the attempt consumed.
/// Failed attempts still burn time: the retry layer charges that latency
/// as fault time.
struct AttemptOutcome {
  Status status;
  DetectionList detections;
  double latency_ms = 0.0;
};

/// What an injected fault does to one attempt.
enum class FaultKind : uint8_t {
  kNone = 0,
  /// The attempt fails hard (kUnavailable) after a short error latency.
  kError,
  /// The attempt succeeds but takes spike_factor × the normal latency —
  /// the raw material for deadline overruns.
  kLatencySpike,
  /// The attempt "succeeds" with zero detections (a silently dead head).
  kEmptyOutput,
  /// The attempt succeeds with confident random boxes (a corrupted model —
  /// worse than silence, because fusion will believe it).
  kGarbageOutput,
};

/// A scripted outage over a frame range [begin_frame, end_frame), optionally
/// gated to one scene context. Bursts are persistent: they hit every
/// attempt of every call in range, so retries cannot clear them (unlike the
/// per-attempt random rates below).
struct FaultBurst {
  int64_t begin_frame = 0;
  int64_t end_frame = 0;  // exclusive
  FaultKind kind = FaultKind::kError;
  /// When >= 0, the burst only fires in this SceneContext (cast to int).
  int context = -1;
};

/// Per-detector fault configuration.
struct FaultScript {
  /// Independent per-attempt probabilities; at most one fault fires per
  /// attempt (cumulative thresholds over one uniform draw, so rates must
  /// sum to <= 1).
  double error_rate = 0.0;
  double spike_rate = 0.0;
  double empty_rate = 0.0;
  double garbage_rate = 0.0;
  /// Latency multiplier applied by kLatencySpike.
  double spike_factor = 25.0;
  /// Latency a hard error burns before failing (connection-reset cost).
  double error_latency_ms = 0.5;
  /// Scripted outages; the first burst containing the frame wins.
  std::vector<FaultBurst> bursts;
  /// Extra key mixed into the fault RNG stream, so two scripts with equal
  /// rates on the same detector can draw independent faults.
  uint64_t salt = 0;

  /// True when any fault source is configured.
  bool enabled() const {
    return error_rate > 0.0 || spike_rate > 0.0 || empty_rate > 0.0 ||
           garbage_rate > 0.0 || !bursts.empty();
  }

  Status Validate() const;
};

/// Decorates a detector with a FaultScript. Name, cost model, and metadata
/// pass through to the inner detector; Attempt applies the scripted fault
/// for (frame, trial_seed, attempt), where `attempt` numbers retries within
/// one logical call (0 = first try), so a transient fault can clear on
/// retry while a burst persists. It is the only detector with a failure
/// channel: the retry layer (runtime/retry.h) runs every other detector as
/// infallible. The legacy Detect/InferenceCostMs
/// views reflect attempt 0 with hard errors degraded to empty output, so
/// code that has not adopted the runtime path still sees the outage, just
/// without the error signal.
class FaultInjectingDetector final : public ObjectDetector {
 public:
  /// Non-owning: `inner` must outlive this decorator.
  FaultInjectingDetector(const ObjectDetector* inner, FaultScript script);
  /// Owning variant.
  FaultInjectingDetector(std::unique_ptr<ObjectDetector> inner,
                         FaultScript script);

  AttemptOutcome Attempt(const VideoFrame& frame, uint64_t trial_seed,
                         int attempt) const;

  /// The fault scheduled for (frame, seed, attempt); kNone when healthy.
  FaultKind FaultAt(const VideoFrame& frame, uint64_t trial_seed,
                    int attempt) const;

  // ObjectDetector pass-through.
  const std::string& name() const override { return inner_->name(); }
  DetectionList Detect(const VideoFrame& frame,
                       uint64_t trial_seed) const override;
  double InferenceCostMs(const VideoFrame& frame,
                         uint64_t trial_seed) const override;
  uint64_t param_count() const override { return inner_->param_count(); }
  const std::string& structure_name() const override {
    return inner_->structure_name();
  }

  const FaultScript& script() const { return script_; }
  const ObjectDetector& inner() const { return *inner_; }

 private:
  std::unique_ptr<ObjectDetector> owned_;
  const ObjectDetector* inner_;
  FaultScript script_;
  uint64_t uid_;
};

}  // namespace vqe

#endif  // VQE_RUNTIME_FAULT_INJECTION_H_
