#include "temporal/gate.h"

#include <algorithm>
#include <utility>

#include "temporal/difficulty.h"

namespace vqe {

TemporalGate::TemporalGate(const SkipOptions& options)
    : options_(options),
      policy_(options),
      propagator_(PropagationTrackerDefaults(), kSkipConfidenceDecay) {}

Result<std::unique_ptr<TemporalGate>> TemporalGate::Create(
    const SkipOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  if (!options.enabled()) {
    return Status::InvalidArgument(
        "TemporalGate requires an enabled skip mode with skip_budget > 0");
  }
  return std::unique_ptr<TemporalGate>(new TemporalGate(options));
}

void TemporalGate::SetSkipBoost(int boost) {
  if (boost < 0) boost = 0;
  if (boost > kMaxSkipBoost) boost = kMaxSkipBoost;
  skip_boost_ = boost;
}

bool TemporalGate::ShouldSkip(SceneContext ctx) {
  const bool changed = has_context_ && ctx != last_context_;
  bool skip = false;
  if (changed) {
    // Concept drift: the detector regime switched under the tracks. Any
    // planned skips are void — the frame must be detected.
    if (remaining_skips_ > 0) {
      remaining_skips_ = 0;
      ++forced_detects_;
    }
  } else if (has_context_ && remaining_skips_ > 0) {
    if (propagator_.CanPropagate()) {
      --remaining_skips_;
      skip = true;
    } else {
      remaining_skips_ = 0;
      ++forced_detects_;
    }
  }
  has_context_ = true;
  last_context_ = ctx;
  context_changed_ = changed;
  return skip;
}

const DetectionList& TemporalGate::Propagate() {
  ++completed_skips_;
  return propagator_.Propagate();
}

void TemporalGate::ObserveDetections(const DetectionList& fused,
                                     int64_t frame_index) {
  propagator_.ObserveDetections(fused, frame_index);
  if (episode_open_) {
    // Reward credit is capped at the policy's own plan: boosted extra
    // skips are the overload controller's doing, and letting them inflate
    // completion ratios would teach the bandit that deep arms are better
    // than they are.
    policy_.OnEpisodeEnd(std::min(completed_skips_, planned_base_),
                         propagator_.agreement());
  }
  DifficultySignals signals;
  signals.context_changed = context_changed_;
  signals.detection_churn = propagator_.detection_churn();
  signals.track_instability = propagator_.track_instability();
  signals.agreement = propagator_.agreement();
  last_difficulty_ = DifficultyScore(signals);
  planned_base_ = policy_.PlanSkips(last_difficulty_);
  remaining_skips_ = planned_base_ + skip_boost_;
  completed_skips_ = 0;
  episode_open_ = true;
}

Status TemporalGate::SaveState(ByteWriter& w) const {
  w.I64(remaining_skips_);
  w.I64(completed_skips_);
  w.Bool(episode_open_);
  w.Bool(has_context_);
  w.Bool(context_changed_);
  w.U8(static_cast<uint8_t>(last_context_));
  w.F64(last_difficulty_);
  w.U64(forced_detects_);
  w.I64(skip_boost_);
  w.I64(planned_base_);
  VQE_RETURN_NOT_OK(policy_.SaveState(w));
  return propagator_.SaveState(w);
}

Status TemporalGate::RestoreState(ByteReader& r) {
  int64_t remaining = 0, completed = 0;
  bool episode_open = false, has_context = false, context_changed = false;
  uint8_t last_context = 0;
  double last_difficulty = 0.0;
  uint64_t forced = 0;
  int64_t boost = 0, planned_base = 0;
  VQE_RETURN_NOT_OK(r.I64(&remaining));
  VQE_RETURN_NOT_OK(r.I64(&completed));
  VQE_RETURN_NOT_OK(r.Bool(&episode_open));
  VQE_RETURN_NOT_OK(r.Bool(&has_context));
  VQE_RETURN_NOT_OK(r.Bool(&context_changed));
  VQE_RETURN_NOT_OK(r.U8(&last_context));
  VQE_RETURN_NOT_OK(r.F64(&last_difficulty));
  VQE_RETURN_NOT_OK(r.U64(&forced));
  VQE_RETURN_NOT_OK(r.I64(&boost));
  VQE_RETURN_NOT_OK(r.I64(&planned_base));
  if (boost < 0 || boost > kMaxSkipBoost) {
    return Status::DataLoss("gate skip boost out of range");
  }
  if (planned_base < 0 || planned_base > options_.skip_budget) {
    return Status::DataLoss("gate planned base out of range");
  }
  // Skip counters are bounded by budget + boost: a boosted episode
  // legitimately plans past the configured budget.
  const int64_t bound = static_cast<int64_t>(options_.skip_budget) + boost;
  if (remaining < 0 || remaining > bound) {
    return Status::DataLoss("gate remaining skips out of range");
  }
  if (completed < 0 || completed > bound) {
    return Status::DataLoss("gate completed skips out of range");
  }
  if (last_context >= static_cast<uint8_t>(kNumSceneContexts)) {
    return Status::DataLoss("gate scene context out of range");
  }
  VQE_RETURN_NOT_OK(policy_.RestoreState(r));
  VQE_RETURN_NOT_OK(propagator_.RestoreState(r));
  remaining_skips_ = static_cast<int>(remaining);
  completed_skips_ = static_cast<int>(completed);
  skip_boost_ = static_cast<int>(boost);
  planned_base_ = static_cast<int>(planned_base);
  episode_open_ = episode_open;
  has_context_ = has_context;
  context_changed_ = context_changed;
  last_context_ = static_cast<SceneContext>(last_context);
  last_difficulty_ = last_difficulty;
  forced_detects_ = forced;
  return Status::OK();
}

}  // namespace vqe
