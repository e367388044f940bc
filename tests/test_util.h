// Shared helpers for tests: synthetic frame matrices with controlled
// per-arm reward structure (and optional concept drift), an eager
// reference source for skip-enabled runs, and the per-trial runs an
// experiment must reproduce.

#ifndef VQE_TESTS_TEST_UTIL_H_
#define VQE_TESTS_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/evaluation_source.h"
#include "core/experiment.h"
#include "core/frame_eval.h"
#include "core/frame_matrix.h"
#include "detection/ap.h"
#include "models/model_zoo.h"
#include "sim/video.h"

namespace vqe {
namespace test {

/// Builds a synthetic matrix with per-arm mean true APs (arm_ap indexed by
/// mask; index 0 unused) and per-model costs. When drift_flip is set, the
/// AP profile of every arm is swapped with its complement arm at the
/// midpoint frame — an abrupt breakpoint in the §2.4 sense. Estimated AP is
/// true AP plus independent noise (reference-model estimation error).
inline FrameMatrix SyntheticMatrix(int m, size_t frames,
                                   std::vector<double> arm_ap,
                                   std::vector<double> model_cost,
                                   bool drift_flip = false,
                                   double noise = 0.05, uint64_t seed = 1) {
  const uint32_t num_masks = NumEnsembles(m);
  FrameMatrix matrix;
  matrix.num_models = m;
  for (int i = 0; i < m; ++i) {
    matrix.model_names.push_back("M" + std::to_string(i));
  }
  Rng rng(seed);
  for (size_t t = 0; t < frames; ++t) {
    FrameEvaluation fe;
    fe.context = SceneContext::kClear;
    fe.est_ap.assign(num_masks + 1, 0.0);
    fe.true_ap.assign(num_masks + 1, 0.0);
    fe.cost_ms.assign(num_masks + 1, 0.0);
    fe.fusion_overhead_ms.assign(num_masks + 1, 0.01);
    fe.model_cost_ms = model_cost;
    fe.ref_cost_ms = 1.0;
    fe.available_mask = FullEnsemble(m);
    fe.model_fault_ms.assign(static_cast<size_t>(m), 0.0);
    const bool flipped = drift_flip && t >= frames / 2;
    for (EnsembleId s = 1; s <= num_masks; ++s) {
      EnsembleId key = s;
      if (flipped) {
        const EnsembleId complement = num_masks ^ s;
        if (complement != 0) key = complement;
      }
      fe.true_ap[s] = Clamp(arm_ap[key] + rng.Gaussian(0, noise), 0, 1);
      fe.est_ap[s] = Clamp(fe.true_ap[s] + rng.Gaussian(0, noise), 0, 1);
      double cost = 0.01;
      for (int i = 0; i < m; ++i) {
        if (ContainsModel(s, i)) cost += model_cost[static_cast<size_t>(i)];
      }
      fe.cost_ms[s] = cost;
      if (cost > fe.max_cost_ms) fe.max_cost_ms = cost;
    }
    matrix.frames.push_back(std::move(fe));
  }
  return matrix;
}

/// Two-model matrix: arm {M0} good & cheap (AP 0.8), {M1} poor (0.3),
/// {M0,M1} marginally better AP (0.85) at double cost. Best arm: 1.
inline FrameMatrix SimpleTwoModelMatrix(size_t frames, uint64_t seed = 1,
                                        double noise = 0.05) {
  return SyntheticMatrix(2, frames, {0.0, 0.8, 0.3, 0.85}, {10.0, 10.0},
                         false, noise, seed);
}

/// The eager reference for skip-enabled runs: every cell from the matrix,
/// and the propagation hooks computed from what an eager matrix would
/// hold — each mask's boxes from FrameEvalContext::Fuse on a fresh
/// context, and propagated boxes scored by FrameMeanAp over the frame's
/// ground truth. The matrix must be BuildFrameMatrix(video, pool,
/// trial_seed, options); all four must outlive the source.
class EagerTemporalSource final : public EvaluationSource {
 public:
  EagerTemporalSource(const FrameMatrix& matrix, const Video& video,
                      const DetectorPool& pool, uint64_t trial_seed,
                      const MatrixOptions& options)
      : cells_(matrix),
        video_(&video),
        pool_(&pool),
        trial_seed_(trial_seed),
        options_(&options) {}

  int num_models() const override { return cells_.num_models(); }
  size_t num_frames() const override { return cells_.num_frames(); }
  FrameStats Stats(size_t t) override { return cells_.Stats(t); }
  MaskEvaluation Eval(size_t t, EnsembleId mask) override {
    return cells_.Eval(t, mask);
  }
  const std::vector<EnsembleId>* TrueFrontier(size_t t) override {
    return cells_.TrueFrontier(t);
  }
  SceneContext PeekContext(size_t t) override { return cells_.PeekContext(t); }
  bool SupportsPropagation() const override { return true; }
  Result<double> ScorePropagated(size_t t,
                                 const DetectionList& dets) override {
    return FrameMeanAp(dets, BuildGroundTruthIndex(video_->frames[t].objects));
  }
  const DetectionList* FusedOutput(size_t t, EnsembleId mask) override {
    FrameEvalContext ctx(video_->frames[t], *pool_, trial_seed_, *options_);
    ctx.Fuse(mask, &fused_);
    return &fused_;
  }

 private:
  MatrixEvaluationSource cells_;
  const Video* video_;
  const DetectorPool* pool_;
  uint64_t trial_seed_;
  const MatrixOptions* options_;
  DetectionList fused_;
};

/// What RunExperiment(config, pool, strategies) must reproduce: each
/// strategy run on its own over each trial's BuildTrialEvaluator (lazy) or
/// BuildTrialMatrix source, shared run after run, with the strategy seed
/// RunExperiment gives the trial. runs[i][trial] is strategy i's run.
/// The config must have no fault scripts.
inline std::vector<std::vector<RunResult>> PerTrialRuns(
    const ExperimentConfig& config, const DetectorPool& pool,
    const std::vector<StrategySpec>& strategies, bool lazy) {
  std::vector<std::vector<RunResult>> runs(strategies.size());
  for (int trial = 0; trial < config.trials; ++trial) {
    const uint64_t index = static_cast<uint64_t>(trial);
    std::unique_ptr<EvaluationSource> source;
    if (lazy) {
      source = std::move(BuildTrialEvaluator(config, pool, index)).value();
    } else {
      source = std::make_unique<MatrixEvaluationSource>(
          std::move(BuildTrialMatrix(config, pool, index)).value());
    }
    EngineOptions engine = config.engine;
    engine.strategy_seed = HashCombine(config.base_seed, 0xABCD0000ULL + index);
    for (size_t i = 0; i < strategies.size(); ++i) {
      std::unique_ptr<SelectionStrategy> strategy = strategies[i].make();
      runs[i].push_back(
          std::move(RunStrategy(*source, strategy.get(), engine)).value());
    }
  }
  return runs;
}

}  // namespace test
}  // namespace vqe

#endif  // VQE_TESTS_TEST_UTIL_H_
