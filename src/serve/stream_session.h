// One concurrent video stream inside the serving layer.
//
// A StreamSession bundles everything a stream needs to make progress one
// frame at a time: its evaluation backend (eager matrix view or lazy
// memoizing evaluator), its selection strategy (any SelectionStrategy —
// per-stream bandit state included), its EngineOptions (per-session
// circuit breakers, TCVI budget, optional per-session CheckpointPolicy for
// save/restore across process restarts) and the EngineRun that actually
// steps frames. Sessions are the unit the StreamScheduler multiplexes
// over the shared thread pool.
//
// Bit-identity: all mutable state is private to the session and every
// frame is a deterministic function of the session's own history, so any
// interleaving of sessions — any scheduler, any worker count, faults on or
// off — leaves each session's RunResult bit-identical to a solo
// RunStrategy over the same source/strategy/options (wall-clock fields
// aside). serve_test enforces this matrix.
//
// Fleet health: a session can publish its per-frame member-call outcomes
// to a shared BreakerRegistry (model-name keyed). Publication is
// write-only — the registry never influences the session's own selection,
// which is what keeps the bit-identity guarantee intact.

#ifndef VQE_SERVE_STREAM_SESSION_H_
#define VQE_SERVE_STREAM_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "models/model_zoo.h"
#include "runtime/breaker_registry.h"

namespace vqe {

/// Scheduling class of a stream. Deficit-round-robin weights: interactive
/// streams earn 4x the per-round quantum of batch streams.
enum class PriorityClass : uint8_t {
  kInteractive = 0,
  kStandard = 1,
  kBatch = 2,
};

/// Number of priority classes (array extent for per-class accounting).
inline constexpr int kNumPriorityClasses = 3;

/// DRR weight of a class (4 / 2 / 1).
int PriorityWeight(PriorityClass priority);
const char* PriorityClassToString(PriorityClass priority);

/// Dense array index of a class (the enum's underlying value).
inline int PriorityClassIndex(PriorityClass priority) {
  return static_cast<int>(priority);
}

struct StreamSessionConfig {
  /// Human-readable stream name (reports, logs).
  std::string name;
  PriorityClass priority = PriorityClass::kStandard;
  /// Per-session engine knobs: scoring, budget, seed, per-session circuit
  /// breakers, and the per-session CheckpointPolicy (sessions with a
  /// checkpoint directory resume from their newest good generation on
  /// Create, exactly like a solo RunStrategy would).
  EngineOptions engine;
  /// Model names, index-aligned with the session's pool; used only to key
  /// fleet-health publication. Empty disables publication.
  std::vector<std::string> model_names;

  Status Validate() const;
};

class StreamSession {
 public:
  /// Builds a session over an owning source + strategy. `owned_pools`
  /// carries any decorated DetectorPool chain (e.g. fault wrappers) the
  /// source borrows from, so the whole stack shares the session's
  /// lifetime. Create performs BeginVideo and checkpoint resume via
  /// EngineRun::Create.
  static Result<std::unique_ptr<StreamSession>> Create(
      StreamSessionConfig config, std::unique_ptr<EvaluationSource> source,
      std::unique_ptr<SelectionStrategy> strategy,
      std::vector<std::unique_ptr<DetectorPool>> owned_pools = {});

  const StreamSessionConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  PriorityClass priority() const { return config_.priority; }

  bool done() const { return run_->done(); }
  size_t next_frame() const { return run_->next_frame(); }
  size_t num_frames() const { return run_->num_frames(); }
  double charged_cost_ms() const { return run_->charged_cost_ms(); }
  const RunResult& live_result() const { return run_->result(); }

  /// Routes per-frame member outcomes to a shared fleet registry (see
  /// header comment). Requires config.model_names; no-op registry = null.
  void AttachHealthRegistry(BreakerRegistry* registry) {
    registry_ = registry;
  }

  /// Applies the scheduler's degradation-ladder overlay for the next
  /// frames (see EngineRun::SetDegradation). (0, 0) restores the
  /// undegraded path bit-exactly.
  void SetDegradation(int skip_boost, EnsembleId model_mask) {
    run_->SetDegradation(skip_boost, model_mask);
  }

  /// Binds the observability sink (see EngineRun::SetObs). The scheduler
  /// calls this at activation with the handle rebound to the stream's
  /// track; SetObs({}) restores the exact disabled path.
  void SetObs(const ObsHandle& obs) { run_->SetObs(obs); }

  /// Processes exactly one frame (EngineRun::StepFrame) and publishes
  /// member-call outcome deltas to the attached registry at `fleet_tick`.
  /// Not thread-safe against itself; the scheduler steps a session from
  /// one worker at a time.
  Status StepFrame(uint64_t fleet_tick = 0);

  /// Live-migration export: the session's complete resumable state (engine
  /// identity fingerprint included) in the snapshot wire format, produced
  /// in memory on the source shard's thread. The session stays usable.
  Result<std::vector<uint8_t>> ExportState() const {
    return run_->ExportSnapshot();
  }

  /// Live-migration implant: parses `bytes` (full container validation —
  /// any bit flip or truncation is DataLoss) and overlays the state onto
  /// this freshly created session. A payload exported from a session with
  /// a different configuration is FailedPrecondition (identity fingerprint
  /// mismatch). Both rejections happen before any session state is
  /// mutated. On success the fleet-health publication cursors are synced
  /// so only post-migration outcome deltas are published (the source shard
  /// already published the history).
  Status ImplantState(const std::vector<uint8_t>& bytes);

  /// Finalizes and returns the RunResult (callable once).
  Result<RunResult> Finish() { return run_->Finish(); }

 private:
  StreamSession(StreamSessionConfig config,
                std::unique_ptr<EvaluationSource> source,
                std::unique_ptr<SelectionStrategy> strategy,
                std::vector<std::unique_ptr<DetectorPool>> owned_pools);

  StreamSessionConfig config_;
  /// Decorated pool chain (outermost last); must outlive source_.
  std::vector<std::unique_ptr<DetectorPool>> owned_pools_;
  std::unique_ptr<EvaluationSource> source_;
  std::unique_ptr<SelectionStrategy> strategy_;
  std::unique_ptr<EngineRun> run_;
  BreakerRegistry* registry_ = nullptr;
  /// Last-published per-model counters, for delta publication.
  std::vector<uint64_t> published_selected_;
  std::vector<uint64_t> published_failed_;
};

}  // namespace vqe

#endif  // VQE_SERVE_STREAM_SESSION_H_
