// Skip policy for the temporal-coherence fast path: decides, after every
// detect frame, how many of the following frames may be answered from
// tracker propagation instead of detector inference. Three modes:
//
//  - kFixedInterval:   always plan `skip_budget` skips (classic 1-in-k
//                      keyframe sampling).
//  - kDifficultyGated: plan `skip_budget` skips only when the difficulty
//                      signal is below a threshold.
//  - kBandit:          a deterministic UCB1 bandit learns the skip depth
//                      (0..skip_budget) per difficulty bucket. This is the
//                      "skip-vs-detect as a bandit decision" arm of the
//                      tentpole: rather than widening the MES ensemble
//                      lattice with 2x the arms, the skip depth is its own
//                      small contextual bandit layered *in front of* the
//                      ensemble bandit, rewarded by how well coasted
//                      predictions agreed with the detections that ended
//                      the episode. Skipped frames charge only simulated
//                      tracker time to the ledger.
//
// All three modes are pure functions of their inputs and serialized state,
// so a resumed run replays decisions bit-identically.

#ifndef VQE_TEMPORAL_SKIP_POLICY_H_
#define VQE_TEMPORAL_SKIP_POLICY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "snapshot/identity.h"
#include "snapshot/wire.h"
#include "track/tracker.h"

namespace vqe {

/// How skip depths are chosen.
enum class SkipMode : uint8_t {
  kOff = 0,
  kFixedInterval = 1,
  kDifficultyGated = 2,
  kBandit = 3,
};

/// Short name, e.g. "bandit".
const char* SkipModeToString(SkipMode mode);

/// Upper bound on SkipOptions::skip_budget.
inline constexpr int kMaxSkipBudget = 1024;

/// Upper bound on TemporalGate::SetSkipBoost — the serving layer's dynamic
/// overload overlay on top of the configured skip_budget (same cap as the
/// budget itself).
inline constexpr int kMaxSkipBoost = kMaxSkipBudget;

/// kDifficultyGated: skip only when difficulty < this threshold.
inline constexpr double kSkipDifficultyThreshold = 0.35;
/// Confidence multiplier applied per coasted frame to propagated
/// detections (prediction uncertainty grows with the coast streak).
inline constexpr double kSkipConfidenceDecay = 0.92;
/// kBandit: episodes whose coast-vs-fresh IoU agreement lands below this
/// floor are treated as drifted and penalized.
inline constexpr double kSkipAgreementFloor = 0.5;
/// kBandit: reward charged to a drifted episode (as a negative reward).
inline constexpr double kSkipDriftPenalty = 0.25;
/// kBandit: UCB exploration coefficient.
inline constexpr double kSkipUcbExploration = 0.5;

/// The propagation tracker's options (and, in the query engine, the
/// TRACKS() predicate's, so there is exactly one tracker per run). They
/// differ from a bare TrackerOptions in one place: the confidence floor
/// is 0.05, not 0.30. A skipped frame replays the last detect frame's
/// fused output, and dropping its low-confidence tail costs recall the
/// detect frame actually had; predicate-grade filtering still happens
/// downstream (confirmation + TRACKS()).
inline TrackerOptions PropagationTrackerDefaults() {
  TrackerOptions t;
  t.min_confidence = 0.05;
  return t;
}

/// Knobs for the skip/detect gate. Defaults keep skipping OFF; a run with
/// `!enabled()` constructs no gate at all and is bit-identical to a build
/// without this subsystem.
struct SkipOptions {
  SkipMode mode = SkipMode::kOff;
  /// Maximum consecutive frames answered from propagation; 0 disables.
  int skip_budget = 0;

  /// True when the gate should be constructed at all.
  bool enabled() const { return mode != SkipMode::kOff && skip_budget > 0; }

  Status Validate() const;
};

/// Simulated per-frame cost of advancing `num_tracks` tracks by one
/// constant-velocity step and emitting them, on the same synthetic-ms
/// scale as SimulatedFusionOverheadMs. This is what a skipped frame
/// charges to the simulated-time ledger instead of detector inference.
inline double SimulatedTrackerCostMs(size_t num_tracks) {
  return 0.02 + 0.004 * static_cast<double>(num_tracks);
}

/// Adds the mode and the budget to an engine or query snapshot identity
/// as `skip.*` fields, so a resume with different skip settings is
/// refused, naming the field, instead of silently diverging.
void WriteSkipOptionsIdentity(IdentityWriter& writer, const SkipOptions& o);

/// Per-episode skip-depth chooser. One instance per engine/query run.
class SkipPolicy {
 public:
  explicit SkipPolicy(const SkipOptions& options);

  /// Plans the next episode: how many upcoming frames may be skipped,
  /// in [0, skip_budget]. Called once per detect frame with the fresh
  /// difficulty score. In bandit mode this opens an episode whose reward
  /// arrives via OnEpisodeEnd.
  int PlanSkips(double difficulty);

  /// Closes the episode opened by the last PlanSkips: `completed` frames
  /// were actually skipped (forced detects truncate episodes), and the
  /// coasted predictions agreed with the fresh detections at `agreement`
  /// mean IoU. No-op outside bandit mode.
  void OnEpisodeEnd(int completed, double agreement);

  /// Bandit plays of arm `depth` in `bucket` (tests + snapshot assertions).
  uint64_t ArmPlays(int bucket, int depth) const;
  /// Accumulated reward of arm `depth` in `bucket`.
  double ArmRewardSum(int bucket, int depth) const;
  /// Total episodes closed.
  uint64_t episodes() const { return episodes_; }

  Status SaveState(ByteWriter& writer) const;
  Status RestoreState(ByteReader& reader);

 private:
  int num_arms() const { return options_.skip_budget + 1; }

  SkipOptions options_;
  // Bandit state, indexed [bucket * num_arms + depth]. Present (empty of
  // plays) in every mode so Save/Restore is mode-uniform.
  std::vector<uint64_t> plays_;
  std::vector<double> reward_sum_;
  std::vector<uint64_t> bucket_plays_;
  uint64_t episodes_ = 0;
  // Open episode (bandit mode): chosen cell, or -1 when none.
  int64_t pending_cell_ = -1;
  int64_t pending_depth_ = 0;
};

}  // namespace vqe

#endif  // VQE_TEMPORAL_SKIP_POLICY_H_
