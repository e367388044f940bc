// Multi-trial experiment harness (§5.4-§5.5): every trial re-samples the
// video dataset and the detector noise, builds the frame-evaluation matrix
// once, runs every strategy on it, and aggregates s_sum / ā / ĉ statistics
// (mean, stddev, min, max over trials) exactly as the paper's box plots
// report them.

#ifndef VQE_CORE_EXPERIMENT_H_
#define VQE_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "core/engine.h"
#include "core/frame_matrix.h"
#include "core/lazy_frame_evaluator.h"
#include "runtime/fault_injection.h"
#include "sim/dataset.h"

namespace vqe {

/// Factory + label for one strategy under test.
struct StrategySpec {
  std::string label;
  std::function<std::unique_ptr<SelectionStrategy>()> make;
};

/// Experiment configuration.
struct ExperimentConfig {
  const DatasetSpec* dataset = nullptr;
  /// Scaled-down replica size; 1.0 reproduces the paper's full datasets.
  double scene_scale = 0.05;
  int trials = 20;
  /// Pool size m (2, 3 or 5; Figure 11).
  int pool_size = 5;
  uint64_t base_seed = 1;
  /// Worker threads for trial-level parallelism. 0 = one thread per
  /// hardware core (capped at the trial count); 1 = serial. Results are
  /// bit-identical regardless of the thread count: every trial's
  /// randomness derives from (base_seed, trial index) alone. Trial- and
  /// frame-level parallelism (matrix.parallelism) share one process pool:
  /// with trials > 1 occupying the workers, the frame-level loop inside
  /// each trial runs serially instead of oversubscribing.
  int parallelism = 0;
  MatrixOptions matrix;
  EngineOptions engine;
  /// Per-detector fault scripts, index-aligned with the pool. Empty means
  /// no injection; otherwise the size must equal the pool size and
  /// RunExperiment decorates each detector with its script (the reference
  /// model is never fault-injected). Faults are deterministic in
  /// (base_seed, trial), so experiments with faults aggregate and compare
  /// exactly like fault-free ones.
  std::vector<FaultScript> fault_scripts;
  /// Optional in-place rewrite of each trial's sampled video, applied
  /// before the matrix/evaluator is built (e.g. a gradual-drift context
  /// rewrite). Must be a pure function of (video, trial_seed): trials run
  /// on worker threads and the determinism contract requires the same
  /// trial to rewrite identically on every run and thread count.
  std::function<void(Video& video, uint64_t trial_seed)> video_transform;

  Status Validate() const;
};

/// Aggregated per-strategy outcome.
struct StrategyOutcome {
  std::string label;
  std::vector<RunResult> runs;  // one per trial
  SampleSummary s_sum;
  SampleSummary avg_true_ap;
  SampleSummary avg_norm_cost;
  /// Meaningless (all-zero samples) when !regret_available.
  SampleSummary regret;
  SampleSummary frames_processed;
  /// Fault-tolerance report: frames completed on a sub-mask, frames with
  /// no surviving member, and simulated time lost to faults (all zero in
  /// fault-free runs).
  SampleSummary fallback_frames;
  SampleSummary failed_frames;
  SampleSummary fault_ms;
  /// Simulated frame-clock time per run (TimeBreakdown::SimulatedMs):
  /// detector + reference + ensembling + fault. Additive across trials
  /// even when trials ran concurrently — it is simulated time, not wall
  /// time.
  SampleSummary simulated_ms;
  /// Real wall-clock spent inside strategy Select/Observe per run
  /// (TimeBreakdown::algorithm_ms). Trials run on worker threads, so
  /// these samples OVERLAP in real time: their sum exceeds the elapsed
  /// wall clock and must never be added to simulated_ms as if the two
  /// shared a clock. Kept as its own summary so the Figure 13 overhead
  /// share stays reportable without double-counting.
  SampleSummary algorithm_wall_ms;
  /// False when the engine skipped the regret baseline
  /// (EngineOptions::compute_regret was off).
  bool regret_available = true;
};

/// Whole experiment outcome.
struct ExperimentResult {
  std::vector<StrategyOutcome> outcomes;
  /// Average frames per sampled video.
  double avg_video_frames = 0.0;

  /// Outcome by label; nullptr when absent.
  const StrategyOutcome* Find(const std::string& label) const;
};

/// Runs `strategies` over `config.trials` independent trials. Each trial
/// runs its line-up on a LazyFrameEvaluator when that can only help —
/// the skip gate is enabled (it needs the lazy source's propagation
/// hooks), or the engine skips the regret baseline and no strategy
/// needs_full_lattice() — and on an eagerly built FrameMatrix otherwise.
/// Either way every observable value is bit-identical; only the amount
/// of fusion work differs.
Result<ExperimentResult> RunExperiment(
    const ExperimentConfig& config, const DetectorPool& pool,
    const std::vector<StrategySpec>& strategies);

/// Samples one trial's video and builds its matrix (for benches that work
/// on the matrix directly, e.g. the Figure 3 scatter). A matrix serves no
/// skip-enabled run; those run on BuildTrialEvaluator.
Result<FrameMatrix> BuildTrialMatrix(const ExperimentConfig& config,
                                     const DetectorPool& pool,
                                     uint64_t trial_index);

/// Samples one trial's video into a lazy evaluator — same video and seeds
/// as BuildTrialMatrix(config, pool, trial_index), no eager work.
Result<std::unique_ptr<LazyFrameEvaluator>> BuildTrialEvaluator(
    const ExperimentConfig& config, const DetectorPool& pool,
    uint64_t trial_index);

/// Decorates each detector of `pool` with its FaultScript (index-aligned;
/// size must match) and clones the reference model. The returned pool does
/// not own the inner detectors — `pool` must outlive it. RunExperiment
/// applies this automatically when ExperimentConfig::fault_scripts is set;
/// callers driving BuildTrialMatrix/BuildTrialEvaluator directly decorate
/// explicitly.
Result<DetectorPool> ApplyFaultScripts(
    const DetectorPool& pool, const std::vector<FaultScript>& scripts);

/// The default strategy line-up of Figure 4 (OPT, BF, SGL, RAND, EF, MES)
/// with the given MES initialization γ and EF exploration length.
std::vector<StrategySpec> DefaultTuviStrategies(size_t gamma,
                                                size_t ef_explore);

}  // namespace vqe

#endif  // VQE_CORE_EXPERIMENT_H_
