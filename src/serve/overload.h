// SLO-aware overload control: a deterministic hysteresis ladder that
// trades accuracy for survival when the serving layer is under pressure.
//
// Sensors. The controller watches two deterministic signals, both on the
// *simulated* clock (never wall time, never cross-thread order):
//   - per-priority-class rolling histograms of per-frame simulated cost
//     (EngineRun::charged_cost_ms deltas), merged by the scheduler at the
//     end of every round in slot order, judged against each class's p99
//     SLO target;
//   - the scheduler's admission-queue depth.
// A class whose window has no live traffic for `recover_rounds`
// consecutive rounds is drained instead of judged on fossil samples, so a
// paused or retired class can never wedge the ladder.
//
// Ladder. Four levels, stepped one rung at a time, dwell-gated in both
// directions so the ladder cannot flap:
//   0 kNormal          nothing degraded
//   1 kSkipBoost       every session's temporal gate plans `skip_boost`
//                      extra coasted frames per episode (cheapest knob:
//                      ODD-style "spend less per frame")
//   2 kEnsembleShrink  strategies are masked to `shrink_mask` ∩ healthy
//                      via SetEligibleModels (mask 0 = rung passes
//                      through, documented no-op)
//   3 kShedBatch       batch-class slots earn a quarter-quantum DRR
//                      trickle (full starvation could wedge an all-batch
//                      slot set and pin the queue sensor hot forever) and
//                      new batch submissions are shed kResourceExhausted
// Recovery steps back up one rung after `recover_rounds` consecutive
// healthy rounds (and the dwell), so a storm's end drains the ladder the
// same deterministic way it filled it.
//
// Every transition is appended to a ledger (round, from, to, trigger) that
// ServeStats surfaces — identical across reruns and worker counts, which
// bench_workload gates on.
//
// Bit-identity. With `enabled == false` the scheduler constructs no
// controller and never calls SetDegradation: every stream stays
// bit-identical to the controller-free serving path.

#ifndef VQE_SERVE_OVERLOAD_H_
#define VQE_SERVE_OVERLOAD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/ensemble_id.h"
#include "serve/stream_session.h"

namespace vqe {

/// Rungs of the degradation ladder, mildest first.
enum class DegradationLevel : int {
  kNormal = 0,
  kSkipBoost = 1,
  kEnsembleShrink = 2,
  kShedBatch = 3,
};
inline constexpr int kNumDegradationLevels = 4;

/// Per-priority-class service-level objective.
struct SloTarget {
  /// Simulated per-frame p99 latency target, ms; 0 = no latency SLO.
  double p99_ms = 0.0;
  /// Allowed shed fraction of this class's submissions (SLO verdict
  /// reporting; 1 = unbounded shedding tolerated).
  double shed_budget = 1.0;
};

struct OverloadOptions {
  /// Master switch; false constructs no controller at all.
  bool enabled = false;
  /// SLO targets indexed by PriorityClassIndex.
  SloTarget slo[kNumPriorityClasses];
  /// Rolling-histogram capacity per class (simulated per-frame samples).
  int window = 256;
  /// Minimum samples in a class window before its p99 is judged.
  int min_samples = 8;
  /// Queue depth at or above which the scheduler is under pressure even
  /// with every latency SLO met; 0 disables the queue sensor.
  int queue_trigger = 0;
  /// Minimum rounds between any two ladder transitions (hysteresis).
  int dwell_rounds = 2;
  /// Consecutive healthy rounds required before stepping back up (also the
  /// idle-round count after which a silent class's window drains).
  int recover_rounds = 3;
  /// Extra per-episode skips applied at level >= kSkipBoost.
  int skip_boost = 2;
  /// Model mask applied at level >= kEnsembleShrink (0 = rung is a
  /// documented pass-through; the ladder still transitions through it).
  EnsembleId shrink_mask = 0;

  Status Validate() const;
};

/// One ladder transition — the degradation ledger entry.
struct DegradationTransition {
  /// Scheduler round at whose end the transition fired.
  uint64_t round = 0;
  int from = 0;
  int to = 0;
  /// PriorityClassIndex of the class whose p99 breach triggered a
  /// step-down; -1 for queue-pressure steps and for recoveries.
  int trigger_class = -1;
  /// True when the queue-depth sensor (not a latency SLO) triggered.
  bool queue_triggered = false;
  /// Breaching class's observed p99 at the transition (0 when queue- or
  /// recovery-triggered).
  double observed_p99_ms = 0.0;
  int queue_depth = 0;
};

bool operator==(const DegradationTransition& a,
                const DegradationTransition& b);
inline bool operator!=(const DegradationTransition& a,
                       const DegradationTransition& b) {
  return !(a == b);
}

/// Nearest-rank percentile of a sample set: the ceil(q·n)-th smallest
/// sample, with q clamped to [0, 1] and the rank to [1, n]; 0 on empty
/// input. Selects in place, so it reorders `samples` (later calls on the
/// same vector still return exact percentiles).
double SamplePercentileInPlace(std::vector<double>& samples, double q);

/// The same rule on a copy, for callers whose sample order matters (the
/// controller's ring-buffer windows).
inline double SamplePercentile(std::vector<double> samples, double q) {
  return SamplePercentileInPlace(samples, q);
}

/// The ladder state machine. Driven by one StreamScheduler from its own
/// thread: RecordFrameCost in deterministic slot order after each round's
/// stepping, then EndRound exactly once per round. Not thread-safe.
class OverloadController {
 public:
  /// `options` must have passed Validate with enabled == true.
  explicit OverloadController(const OverloadOptions& options);

  /// Feeds one per-frame simulated-cost sample into `cls`'s histogram.
  void RecordFrameCost(PriorityClass cls, double sim_ms);

  /// Senses, then possibly moves one rung. Call at the end of round
  /// `round` with the post-round admission-queue depth.
  void EndRound(uint64_t round, int queue_depth);

  int level() const { return level_; }
  /// Actuator views of the current level (what the scheduler applies at
  /// the top of the NEXT round).
  int skip_boost() const {
    return level_ >= static_cast<int>(DegradationLevel::kSkipBoost)
               ? options_.skip_boost
               : 0;
  }
  EnsembleId model_mask() const {
    return level_ >= static_cast<int>(DegradationLevel::kEnsembleShrink)
               ? options_.shrink_mask
               : 0;
  }
  /// True at kShedBatch: batch slots are demoted to a quarter-quantum
  /// credit trickle and new batch submissions are shed.
  bool throttle_batch() const {
    return level_ >= static_cast<int>(DegradationLevel::kShedBatch);
  }

  /// Current rolling p99 of a class window (0 when empty) — sensor
  /// introspection for tests and reports.
  double ClassP99(int class_index) const;

  const std::vector<DegradationTransition>& ledger() const {
    return ledger_;
  }
  const OverloadOptions& options() const { return options_; }

 private:
  /// Fixed-capacity ring of the most recent samples.
  struct Window {
    std::vector<double> samples;
    size_t next = 0;
    bool full = false;
    /// Rounds since the window last received a sample.
    int idle_rounds = 0;
    bool touched_this_round = false;

    size_t count() const { return samples.size(); }
    void Clear() {
      samples.clear();
      next = 0;
      full = false;
    }
  };

  void Transition(uint64_t round, int to, int trigger_class,
                  bool queue_triggered, double observed_p99, int queue_depth);

  OverloadOptions options_;
  Window windows_[kNumPriorityClasses];
  int level_ = 0;
  /// Rounds since the last transition; starts "long ago" so the first
  /// breach may step immediately.
  int rounds_since_transition_;
  int healthy_streak_ = 0;
  std::vector<DegradationTransition> ledger_;
};

}  // namespace vqe

#endif  // VQE_SERVE_OVERLOAD_H_
