// Shared helpers for tests: the detector pools, videos and strategies the
// suites run on, the bit-identity checks for RunResult and QueryOutput,
// scratch directories, synthetic frame matrices with controlled per-arm
// reward structure (and optional concept drift), an eager reference
// source for skip-enabled runs, and the per-trial runs an experiment must
// reproduce.

#ifndef VQE_TESTS_TEST_UTIL_H_
#define VQE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/evaluation_source.h"
#include "core/experiment.h"
#include "core/frame_eval.h"
#include "core/frame_matrix.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "detection/ap.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "sim/dataset.h"
#include "sim/video.h"

namespace vqe {
namespace test {

/// A pool of the first `m` (at most eight) of a fixed list of detectors.
inline DetectorPool MakePool(int m) {
  const std::vector<std::string> names = {
      "yolov7-tiny@clear", "yolov7-tiny@night", "yolov7-tiny@rainy",
      "yolov7@clear",      "yolov7-micro@clear", "yolov7@night",
      "faster-rcnn@clear", "yolov7-micro@rainy"};
  std::vector<DetectorProfile> profiles;
  for (int i = 0; i < m; ++i) {
    profiles.push_back(
        std::move(ParseDetectorName(names[static_cast<size_t>(i)])).value());
  }
  return std::move(BuildPool(profiles)).value();
}

/// A sampled replica of `dataset` at `scene_scale`.
inline Video MakeVideo(double scene_scale, uint64_t seed,
                       const std::string& dataset = "nusc-night") {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find(dataset);
  SampleOptions sample;
  sample.scene_scale = scene_scale;
  sample.seed = seed;
  return std::move(SampleVideo(*spec, sample)).value();
}

/// The online strategies the suites run, small enough (γ = 2, SW-MES
/// window 8) that exploration and window eviction happen in short clips.
inline std::unique_ptr<SelectionStrategy> MakeStrategy(
    const std::string& kind) {
  if (kind == "MES") {
    MesOptions o;
    o.gamma = 2;
    return std::make_unique<MesStrategy>(o);
  }
  if (kind == "MES-B") {
    MesBOptions o;
    o.gamma = 2;
    return std::make_unique<MesBStrategy>(o);
  }
  if (kind == "SW-MES") {
    SwMesOptions o;
    o.gamma = 2;
    o.window = 8;
    return std::make_unique<SwMesStrategy>(o);
  }
  if (kind == "D-MES") {
    DucbOptions o;
    o.gamma = 2;
    return std::make_unique<DucbMesStrategy>(o);
  }
  if (kind == "RAND") return std::make_unique<RandomStrategy>();
  if (kind == "EF") return std::make_unique<ExploreFirstStrategy>(2);
  if (kind == "SGL") return std::make_unique<SingleBestStrategy>();
  ADD_FAILURE() << "unknown strategy kind " << kind;
  return nullptr;
}

/// A fresh (empty) directory `name` under `suite` in the test temp root.
/// CheckpointManager::Init creates it.
inline std::string ScratchDir(const std::string& suite,
                              const std::string& name) {
  const std::string dir = ::testing::TempDir() + suite + "/" + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  return dir;
}

/// Bit-identity over every deterministic RunResult field: the skip stats,
/// tracker time, cost curve and per-model availability included.
/// algorithm_ms and the checkpoint report are wall-clock or process
/// bookkeeping and are the only exclusions.
inline void ExpectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.s_sum, b.s_sum);
  EXPECT_EQ(a.avg_true_ap, b.avg_true_ap);
  EXPECT_EQ(a.avg_norm_cost, b.avg_norm_cost);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.regret_available, b.regret_available);
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.charged_cost_ms, b.charged_cost_ms);
  EXPECT_EQ(a.breakdown.detector_ms, b.breakdown.detector_ms);
  EXPECT_EQ(a.breakdown.reference_ms, b.breakdown.reference_ms);
  EXPECT_EQ(a.breakdown.ensembling_ms, b.breakdown.ensembling_ms);
  EXPECT_EQ(a.breakdown.fault_ms, b.breakdown.fault_ms);
  EXPECT_EQ(a.breakdown.tracker_ms, b.breakdown.tracker_ms);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.cost_curve, b.cost_curve);
  EXPECT_EQ(a.fallback_frames, b.fallback_frames);
  EXPECT_EQ(a.failed_frames, b.failed_frames);
  EXPECT_EQ(a.skip.skipped_frames, b.skip.skipped_frames);
  EXPECT_EQ(a.skip.detect_frames, b.skip.detect_frames);
  EXPECT_EQ(a.skip.forced_detects, b.skip.forced_detects);
  EXPECT_EQ(a.skip.propagated_ap_sum, b.skip.propagated_ap_sum);
  ASSERT_EQ(a.model_availability.size(), b.model_availability.size());
  for (size_t i = 0; i < a.model_availability.size(); ++i) {
    EXPECT_EQ(a.model_availability[i].frames_selected,
              b.model_availability[i].frames_selected);
    EXPECT_EQ(a.model_availability[i].frames_failed,
              b.model_availability[i].frames_failed);
    EXPECT_EQ(a.model_availability[i].breaker_opens,
              b.model_availability[i].breaker_opens);
    EXPECT_EQ(a.model_availability[i].fault_ms,
              b.model_availability[i].fault_ms);
  }
}

/// Bit-identity over every QueryOutput field but the wall clock and the
/// per-invocation checkpoint report.
inline void ExpectSameQuery(const QueryOutput& a, const QueryOutput& b) {
  EXPECT_EQ(a.frame_ids, b.frame_ids);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.frames_matched, b.frames_matched);
  EXPECT_EQ(a.charged_cost_ms, b.charged_cost_ms);
  EXPECT_EQ(a.reference_cost_ms, b.reference_cost_ms);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.model_names, b.model_names);
  EXPECT_EQ(a.fallback_frames, b.fallback_frames);
  EXPECT_EQ(a.failed_frames, b.failed_frames);
  EXPECT_EQ(a.fault_ms, b.fault_ms);
  EXPECT_EQ(a.model_failures, b.model_failures);
  EXPECT_EQ(a.skipped_frames, b.skipped_frames);
  EXPECT_EQ(a.tracker_ms, b.tracker_ms);
}

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
