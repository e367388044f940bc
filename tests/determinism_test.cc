// Cross-cutting determinism and self-consistency properties: the whole
// pipeline must be a pure function of its seeds, and evaluation primitives
// must satisfy identity properties.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/frame_matrix.h"
#include "core/scoring.h"
#include "detection/ap.h"
#include "fusion/ensemble_method.h"
#include "models/model_zoo.h"
#include "sim/dataset.h"

namespace vqe {
namespace {

DetectionList RandomDetections(Rng& rng, int n, int num_classes = 3) {
  DetectionList out;
  for (int i = 0; i < n; ++i) {
    Detection d;
    d.box = BBox::FromCenter(rng.Uniform(50, 1550), rng.Uniform(50, 850),
                             rng.Uniform(30, 200), rng.Uniform(30, 150));
    d.confidence = rng.Uniform(0.05, 1.0);
    d.label = static_cast<ClassId>(rng.UniformInt(num_classes));
    d.box_variance = rng.Uniform(0.1, 10.0);
    out.push_back(d);
  }
  return out;
}

bool SameDetections(const DetectionList& a, const DetectionList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].box == b[i].box) || a[i].confidence != b[i].confidence ||
        a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

TEST(DeterminismTest, FusionMethodsArePureFunctions) {
  Rng rng(5);
  std::vector<DetectionList> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(RandomDetections(rng, 8));
  for (FusionKind kind : AllFusionKinds()) {
    auto method = std::move(CreateEnsembleMethod(kind)).value();
    const auto once = method->Fuse(inputs);
    const auto twice = method->Fuse(inputs);
    EXPECT_TRUE(SameDetections(once, twice)) << FusionKindToString(kind);
  }
}

TEST(DeterminismTest, MatrixBuildIsPureInSeed) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 0.03;
  sample.seed = 9;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  const auto a = BuildFrameMatrix(video, pool, /*trial_seed=*/9);
  const auto b = BuildFrameMatrix(video, pool, /*trial_seed=*/9);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t t = 0; t < a->size(); ++t) {
    for (EnsembleId s = 1; s <= 7; ++s) {
      ASSERT_DOUBLE_EQ(a->frames[t].est_ap[s], b->frames[t].est_ap[s]);
      ASSERT_DOUBLE_EQ(a->frames[t].true_ap[s], b->frames[t].true_ap[s]);
      ASSERT_DOUBLE_EQ(a->frames[t].cost_ms[s], b->frames[t].cost_ms[s]);
    }
  }
}

TEST(DeterminismTest, ParallelMatrixBuildIsBitIdentical) {
  auto pool = std::move(BuildNuscenesPool(5)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 0.03;
  sample.seed = 21;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  ASSERT_GT(video.size(), 4u);

  MatrixOptions options;
  options.parallelism = 1;
  const auto serial = BuildFrameMatrix(video, pool, /*trial_seed=*/21,
                                       options);
  ASSERT_TRUE(serial.ok());
  for (int workers : {2, 8}) {
    options.parallelism = workers;
    const auto parallel = BuildFrameMatrix(video, pool, /*trial_seed=*/21,
                                           options);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    ASSERT_EQ(serial->model_names, parallel->model_names);
    for (size_t t = 0; t < serial->size(); ++t) {
      const FrameEvaluation& a = serial->frames[t];
      const FrameEvaluation& b = parallel->frames[t];
      ASSERT_EQ(a.est_ap, b.est_ap) << "workers=" << workers << " t=" << t;
      ASSERT_EQ(a.true_ap, b.true_ap);
      ASSERT_EQ(a.cost_ms, b.cost_ms);
      ASSERT_EQ(a.fusion_overhead_ms, b.fusion_overhead_ms);
      ASSERT_EQ(a.model_cost_ms, b.model_cost_ms);
      ASSERT_EQ(a.ref_cost_ms, b.ref_cost_ms);
      ASSERT_EQ(a.max_cost_ms, b.max_cost_ms);
      ASSERT_EQ(a.best_true_candidates, b.best_true_candidates);
      ASSERT_EQ(a.context, b.context);
    }
  }
}

TEST(DeterminismTest, OracleCandidatesAttainTheBestTrueScore) {
  // The cached per-frame Pareto frontier must reproduce the exhaustive
  // max_S r_{S*|v} for any monotone scoring function.
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-rainy");
  SampleOptions sample;
  sample.scene_scale = 0.02;
  sample.seed = 13;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  const auto matrix = BuildFrameMatrix(video, pool, /*trial_seed=*/13);
  ASSERT_TRUE(matrix.ok());

  const std::vector<ScoringFunction> scorers = {
      ScoringFunction{0.5, 0.5, ScoreForm::kLogarithmic},
      ScoringFunction{0.9, 0.1, ScoreForm::kLogarithmic},
      ScoringFunction{0.1, 0.9, ScoreForm::kLinear},
      ScoringFunction{1.0, 0.0, ScoreForm::kLinear},
  };
  for (const auto& fe : matrix->frames) {
    ASSERT_FALSE(fe.best_true_candidates.empty());
    const double inv_max = fe.max_cost_ms > 0 ? 1.0 / fe.max_cost_ms : 0.0;
    for (const auto& sc : scorers) {
      double best_all = -1e300;
      for (EnsembleId s = 1; s <= 7; ++s) {
        best_all = std::max(
            best_all, sc.Score(fe.true_ap[s], fe.cost_ms[s] * inv_max));
      }
      double best_cached = -1e300;
      for (EnsembleId s : fe.best_true_candidates) {
        best_cached = std::max(
            best_cached, sc.Score(fe.true_ap[s], fe.cost_ms[s] * inv_max));
      }
      ASSERT_EQ(best_all, best_cached);
    }
  }
}

TEST(DeterminismTest, MatrixDiffersAcrossTrialSeeds) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 0.03;
  sample.seed = 9;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  const auto a = BuildFrameMatrix(video, pool, /*trial_seed=*/9);
  const auto b = BuildFrameMatrix(video, pool, /*trial_seed=*/10);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (size_t t = 0; t < a->size() && !any_diff; ++t) {
    for (EnsembleId s = 1; s <= 7; ++s) {
      if (a->frames[t].true_ap[s] != b->frames[t].true_ap[s]) any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SelfConsistencyTest, DetectionsEvaluatedAgainstThemselvesScoreOne) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const DetectionList dets = RandomDetections(rng, 6);
    const GroundTruthList as_gt = DetectionsAsGroundTruth(dets, 0.0);
    EXPECT_DOUBLE_EQ(FrameMeanAp(dets, as_gt), 1.0);
  }
}

TEST(SelfConsistencyTest, ReferenceAgainstItselfScoresOne) {
  // The REF-estimation channel is exact when the candidate equals REF.
  auto pool = std::move(BuildNuscenesPool(2)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-clear");
  SampleOptions sample;
  sample.scene_scale = 0.005;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  for (size_t t = 0; t < std::min<size_t>(video.size(), 20); ++t) {
    const DetectionList ref = pool.reference->Detect(video.frames[t], 1);
    const GroundTruthList ref_gt = DetectionsAsGroundTruth(ref, 0.0);
    EXPECT_DOUBLE_EQ(FrameMeanAp(ref, ref_gt), 1.0);
  }
}

TEST(SelfConsistencyTest, SubsetCostsAreConsistentWithinMatrix) {
  // c_{S|v} = Σ_{M∈S} c_{M|v} + c^e_{S|v}, reconstructible from the parts.
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-rainy");
  SampleOptions sample;
  sample.scene_scale = 0.01;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  const auto matrix = BuildFrameMatrix(video, pool, 3);
  ASSERT_TRUE(matrix.ok());
  for (const auto& fe : matrix->frames) {
    for (EnsembleId s = 1; s <= 7; ++s) {
      double expected = fe.fusion_overhead_ms[s];
      for (int i = 0; i < 3; ++i) {
        if (ContainsModel(s, i)) {
          expected += fe.model_cost_ms[static_cast<size_t>(i)];
        }
      }
      ASSERT_NEAR(fe.cost_ms[s], expected, 1e-9);
    }
  }
}

}  // namespace
}  // namespace vqe
