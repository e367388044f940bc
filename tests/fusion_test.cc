// Tests for the box-fusion algorithms: NMS, Soft-NMS, Softer-NMS, WBF, NMW
// and Consensus, plus the registry and option validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/consensus.h"
#include "fusion/ensemble_method.h"
#include "fusion/nms.h"
#include "fusion/nmw.h"
#include "fusion/wbf.h"

namespace vqe {
namespace {

Detection Det(double x, double y, double w, double h, double conf,
              ClassId label = 0) {
  Detection d;
  d.box = BBox::FromXYWH(x, y, w, h);
  d.confidence = conf;
  d.label = label;
  return d;
}

FusionOptions DefaultOptions() {
  FusionOptions o;
  o.iou_threshold = 0.5;
  return o;
}

// ---------------------------------------------------------------- NMS ----

TEST(NmsTest, SuppressesOverlappingLowerConfidence) {
  NmsFusion nms(DefaultOptions());
  const auto out = nms.Fuse({{Det(0, 0, 10, 10, 0.9)},
                             {Det(1, 0, 10, 10, 0.7)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].confidence, 0.9);
  EXPECT_EQ(out[0].model_index, -1);
}

TEST(NmsTest, KeepsDisjointBoxes) {
  NmsFusion nms(DefaultOptions());
  const auto out = nms.Fuse({{Det(0, 0, 10, 10, 0.9)},
                             {Det(100, 100, 10, 10, 0.7)}});
  EXPECT_EQ(out.size(), 2u);
}

TEST(NmsTest, DifferentClassesNotSuppressed) {
  NmsFusion nms(DefaultOptions());
  const auto out = nms.Fuse({{Det(0, 0, 10, 10, 0.9, 0)},
                             {Det(0, 0, 10, 10, 0.7, 1)}});
  EXPECT_EQ(out.size(), 2u);
}

TEST(NmsTest, EmptyInput) {
  NmsFusion nms(DefaultOptions());
  EXPECT_TRUE(nms.Fuse({}).empty());
  EXPECT_TRUE(nms.Fuse(std::vector<DetectionList>(2)).empty());
}

TEST(NmsTest, IdempotentOnOwnOutput) {
  NmsFusion nms(DefaultOptions());
  Rng rng(17);
  std::vector<DetectionList> inputs(3);
  for (auto& list : inputs) {
    for (int i = 0; i < 10; ++i) {
      list.push_back(Det(rng.Uniform(0, 100), rng.Uniform(0, 100), 20, 20,
                         rng.Uniform(0.1, 1.0), rng.UniformInt(2)));
    }
  }
  const auto once = nms.Fuse(inputs);
  const auto twice = nms.Fuse({once});
  ASSERT_EQ(once.size(), twice.size());
}

TEST(NmsTest, ScoreThresholdDropsWeakBoxes) {
  FusionOptions opt = DefaultOptions();
  opt.score_threshold = 0.5;
  NmsFusion nms(opt);
  const auto out = nms.Fuse({{Det(0, 0, 10, 10, 0.4)},
                             {Det(100, 0, 10, 10, 0.6)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].confidence, 0.6);
}

// ------------------------------------------------------------ Soft-NMS ---

TEST(SoftNmsTest, LinearDecayKeepsButWeakens) {
  SoftNmsFusion soft(DefaultOptions(), SoftNmsFusion::Decay::kLinear);
  // IoU of the two boxes is 9/11 ≈ 0.818 > 0.5 threshold.
  const auto out = soft.Fuse({{Det(0, 0, 10, 10, 0.9)},
                              {Det(1, 0, 10, 10, 0.8)}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].confidence, 0.9);
  EXPECT_NEAR(out[1].confidence, 0.8 * (1.0 - 9.0 / 11.0), 1e-9);
}

TEST(SoftNmsTest, GaussianDecayAlwaysApplies) {
  FusionOptions opt = DefaultOptions();
  opt.sigma = 0.5;
  SoftNmsFusion soft(opt, SoftNmsFusion::Decay::kGaussian);
  const auto out = soft.Fuse({{Det(0, 0, 10, 10, 0.9)},
                              {Det(1, 0, 10, 10, 0.8)}});
  ASSERT_EQ(out.size(), 2u);
  const double iou = 9.0 / 11.0;
  EXPECT_NEAR(out[1].confidence, 0.8 * std::exp(-iou * iou / 0.5), 1e-9);
}

TEST(SoftNmsTest, DecayedBelowFloorIsDropped) {
  FusionOptions opt = DefaultOptions();
  opt.score_threshold = 0.3;
  SoftNmsFusion soft(opt, SoftNmsFusion::Decay::kLinear);
  // Second box decays to 0.8 * (1 - 0.818) ≈ 0.145 < 0.3.
  const auto out = soft.Fuse({{Det(0, 0, 10, 10, 0.9)},
                              {Det(1, 0, 10, 10, 0.8)}});
  EXPECT_EQ(out.size(), 1u);
}

TEST(SoftNmsTest, NonOverlappingUntouchedByLinear) {
  SoftNmsFusion soft(DefaultOptions(), SoftNmsFusion::Decay::kLinear);
  const auto out = soft.Fuse({{Det(0, 0, 10, 10, 0.9)},
                              {Det(100, 0, 10, 10, 0.8)}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].confidence, 0.8);
}

// ----------------------------------------------------------- Softer-NMS --

TEST(SofterNmsTest, VarianceVotingAveragesCoordinates) {
  SofterNmsFusion softer(DefaultOptions());
  DetectionList a{Det(0, 0, 10, 10, 0.9)};
  DetectionList b{Det(2, 0, 10, 10, 0.85)};
  a[0].box_variance = 1.0;
  b[0].box_variance = 1.0;
  const auto out = softer.Fuse({a, b});
  ASSERT_EQ(out.size(), 1u);
  // Voted x1 strictly between the two inputs.
  EXPECT_GT(out[0].box.x1, 0.0);
  EXPECT_LT(out[0].box.x1, 2.0);
}

TEST(SofterNmsTest, LowVarianceBoxDominatesVote) {
  SofterNmsFusion softer(DefaultOptions());
  DetectionList a{Det(0, 0, 10, 10, 0.9)};
  DetectionList b{Det(2, 0, 10, 10, 0.8)};  // IoU 8/12 > threshold
  a[0].box_variance = 0.01;   // very certain
  b[0].box_variance = 100.0;  // very uncertain
  const auto out = softer.Fuse({a, b});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0].box.x1, 0.3);  // pulled strongly towards a
}

TEST(SofterNmsTest, KeepsConfidenceOfTopBox) {
  SofterNmsFusion softer(DefaultOptions());
  const auto out = softer.Fuse({{Det(0, 0, 10, 10, 0.9)},
                                {Det(1, 0, 10, 10, 0.7)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].confidence, 0.9);
}

// ----------------------------------------------------------------- WBF ---

TEST(WbfTest, AveragesClusterWeightedByConfidence) {
  WbfFusion wbf(DefaultOptions());
  const auto out = wbf.Fuse({{Det(0, 0, 10, 10, 0.9)},
                             {Det(2, 0, 10, 10, 0.3)}});
  ASSERT_EQ(out.size(), 1u);
  // x1 = (0.9*0 + 0.3*2) / 1.2 = 0.5
  EXPECT_NEAR(out[0].box.x1, 0.5, 1e-9);
  // Confidence: mean(0.9, 0.3) * min(2,2)/2 = 0.6.
  EXPECT_NEAR(out[0].confidence, 0.6, 1e-9);
}

TEST(WbfTest, SingleModelBoxPenalized) {
  WbfFusion wbf(DefaultOptions());
  // Three models; only one detects the object.
  const auto out = wbf.Fuse({{Det(0, 0, 10, 10, 0.9)}, {}, {}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].confidence, 0.9 / 3.0, 1e-9);
}

TEST(WbfTest, AgreementPreservesConfidence) {
  WbfFusion wbf(DefaultOptions());
  const auto out = wbf.Fuse({{Det(0, 0, 10, 10, 0.8)},
                             {Det(0, 0, 10, 10, 0.8)},
                             {Det(0, 0, 10, 10, 0.8)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].confidence, 0.8, 1e-9);  // min(3,3)/3 = 1
}

TEST(WbfTest, FusedBoxInsideInputHull) {
  WbfFusion wbf(DefaultOptions());
  Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<DetectionList> inputs(3);
    double min_x = 1e9, max_x = -1e9;
    for (auto& list : inputs) {
      const double x = rng.Uniform(0, 3);
      list.push_back(Det(x, 0, 10, 10, rng.Uniform(0.2, 1.0)));
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x + 10);
    }
    const auto out = wbf.Fuse(inputs);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GE(out[0].box.x1, min_x - 1e-9);
    EXPECT_LE(out[0].box.x2, max_x + 1e-9);
  }
}

TEST(WbfTest, SeparateClustersStaySeparate) {
  WbfFusion wbf(DefaultOptions());
  const auto out = wbf.Fuse({{Det(0, 0, 10, 10, 0.9), Det(50, 0, 10, 10, 0.8)},
                             {Det(1, 0, 10, 10, 0.7)}});
  EXPECT_EQ(out.size(), 2u);
}

TEST(WbfTest, OutputSortedByConfidence) {
  WbfFusion wbf(DefaultOptions());
  const auto out = wbf.Fuse({{Det(0, 0, 10, 10, 0.3), Det(50, 0, 10, 10, 0.9)},
                             {Det(0, 0, 10, 10, 0.4)}});
  ASSERT_GE(out.size(), 2u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].confidence, out[i].confidence);
  }
}

// ----------------------------------------------------------------- NMW ---

TEST(NmwTest, WeightsByConfidenceTimesIoU) {
  NmwFusion nmw(DefaultOptions());
  const auto out = nmw.Fuse({{Det(0, 0, 10, 10, 0.9)},
                             {Det(1, 0, 10, 10, 0.9)}});
  ASSERT_EQ(out.size(), 1u);
  // Top box votes with IoU 1, second with IoU 9/11: x1 strictly in (0, 0.5].
  EXPECT_GT(out[0].box.x1, 0.0);
  EXPECT_LT(out[0].box.x1, 0.5);
  // Confidence is the cluster max.
  EXPECT_DOUBLE_EQ(out[0].confidence, 0.9);
}

TEST(NmwTest, SingletonPassesThrough) {
  NmwFusion nmw(DefaultOptions());
  const auto out = nmw.Fuse({{Det(5, 5, 10, 10, 0.7)}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].box.x1, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(out[0].confidence, 0.7);
}

// ------------------------------------------------------------ Consensus --

TEST(ConsensusTest, MajorityRequiredByDefault) {
  ConsensusFusion fusion(DefaultOptions());
  // 3 models; object seen by 2 -> kept; object seen by 1 -> dropped.
  const auto out = fusion.Fuse({{Det(0, 0, 10, 10, 0.9)},
                                {Det(1, 0, 10, 10, 0.8),
                                 Det(100, 0, 10, 10, 0.9)},
                                {}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0].box.x1, 1.0);
}

TEST(ConsensusTest, SingleModelPoolKeepsAll) {
  ConsensusFusion fusion(DefaultOptions());
  const auto out = fusion.Fuse({{Det(0, 0, 10, 10, 0.9),
                                 Det(50, 0, 10, 10, 0.2)}});
  EXPECT_EQ(out.size(), 2u);  // majority of 1 is 1
}

TEST(ConsensusTest, MinVotesOverride) {
  FusionOptions opt = DefaultOptions();
  opt.min_votes = 3;
  ConsensusFusion fusion(opt);
  const auto out = fusion.Fuse({{Det(0, 0, 10, 10, 0.9)},
                                {Det(1, 0, 10, 10, 0.8)},
                                {}});
  EXPECT_TRUE(out.empty());  // only 2 of the required 3 votes
}

TEST(ConsensusTest, AgreementScalesConfidence) {
  ConsensusFusion fusion(DefaultOptions());
  // 2 of 4 models agree: confidence = mean * (2/4).
  const auto out = fusion.Fuse({{Det(0, 0, 10, 10, 0.8)},
                                {Det(0, 0, 10, 10, 0.8)},
                                {},
                                {}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].confidence, 0.8 * 0.5, 1e-9);
}

TEST(ConsensusTest, DuplicatesFromOneModelAreOneVote) {
  ConsensusFusion fusion(DefaultOptions());
  // Model 0 emits two overlapping boxes; models 1 and 2 nothing.
  // One distinct voter < majority(3) = 2, despite two boxes in the cluster.
  const auto out = fusion.Fuse({{Det(0, 0, 10, 10, 0.9),
                                 Det(1, 0, 10, 10, 0.8)},
                                {},
                                {}});
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------- registry and options --

TEST(FusionRegistryTest, CreatesEveryKind) {
  for (FusionKind kind : AllFusionKinds()) {
    auto method = CreateEnsembleMethod(kind);
    ASSERT_TRUE(method.ok()) << FusionKindToString(kind);
    EXPECT_EQ((*method)->name(), FusionKindToString(kind));
  }
}

TEST(FusionOptionsTest, Validation) {
  FusionOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.iou_threshold = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = FusionOptions{};
  o.sigma = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = FusionOptions{};
  o.score_threshold = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  o = FusionOptions{};
  o.min_votes = -1;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(FusionRegistryTest, CreateRejectsBadOptions) {
  FusionOptions o;
  o.iou_threshold = -1;
  EXPECT_FALSE(CreateEnsembleMethod(FusionKind::kWbf, o).ok());
}

// Cross-method property sweep: outputs stay within the input hull per class
// and labels are preserved.
class FusionPropertyTest : public ::testing::TestWithParam<FusionKind> {};

TEST_P(FusionPropertyTest, OutputsBoundedAndLabeled) {
  auto method = CreateEnsembleMethod(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<DetectionList> inputs(3);
    double min_x = 1e9, max_x = -1e9, min_y = 1e9, max_y = -1e9;
    size_t total = 0;
    for (auto& list : inputs) {
      const int n = 1 + static_cast<int>(rng.UniformInt(5));
      for (int i = 0; i < n; ++i) {
        auto d = Det(rng.Uniform(0, 200), rng.Uniform(0, 200), 20, 20,
                     rng.Uniform(0.1, 1.0), rng.UniformInt(2));
        d.box_variance = rng.Uniform(0.1, 10.0);
        min_x = std::min(min_x, d.box.x1);
        max_x = std::max(max_x, d.box.x2);
        min_y = std::min(min_y, d.box.y1);
        max_y = std::max(max_y, d.box.y2);
        list.push_back(d);
        ++total;
      }
    }
    const auto out = (*method)->Fuse(inputs);
    EXPECT_LE(out.size(), total);
    for (const auto& d : out) {
      EXPECT_GE(d.box.x1, min_x - 1e-6);
      EXPECT_LE(d.box.x2, max_x + 1e-6);
      EXPECT_GE(d.box.y1, min_y - 1e-6);
      EXPECT_LE(d.box.y2, max_y + 1e-6);
      EXPECT_GE(d.confidence, 0.0);
      EXPECT_LE(d.confidence, 1.0);
      EXPECT_TRUE(d.label == 0 || d.label == 1);
      EXPECT_EQ(d.model_index, -1);
    }
  }
}

TEST_P(FusionPropertyTest, EmptyInputsGiveEmptyOutput) {
  auto method = CreateEnsembleMethod(GetParam());
  ASSERT_TRUE(method.ok());
  EXPECT_TRUE((*method)->Fuse({}).empty());
  EXPECT_TRUE((*method)->Fuse(std::vector<DetectionList>(3)).empty());
}

// The pointer-view input path (what matrix construction uses to avoid
// per-mask deep copies) must match the owning-vector path bit for bit.
TEST_P(FusionPropertyTest, PointerViewMatchesOwningInput) {
  auto method = CreateEnsembleMethod(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<DetectionList> inputs(3);
    for (auto& list : inputs) {
      const int n = static_cast<int>(rng.UniformInt(6));
      for (int i = 0; i < n; ++i) {
        auto d = Det(rng.Uniform(0, 100), rng.Uniform(0, 100), 20, 20,
                     rng.Uniform(0.1, 1.0), rng.UniformInt(2));
        d.box_variance = rng.Uniform(0.1, 10.0);
        list.push_back(d);
      }
    }
    std::vector<const DetectionList*> ptrs;
    for (const auto& list : inputs) ptrs.push_back(&list);

    const auto from_copy = (*method)->Fuse(inputs);
    const auto from_view = (*method)->Fuse(DetectionListSpan(ptrs));
    ASSERT_EQ(from_copy.size(), from_view.size());
    for (size_t i = 0; i < from_copy.size(); ++i) {
      EXPECT_EQ(from_copy[i].confidence, from_view[i].confidence);
      EXPECT_EQ(from_copy[i].label, from_view[i].label);
      EXPECT_EQ(from_copy[i].box.x1, from_view[i].box.x1);
      EXPECT_EQ(from_copy[i].box.y1, from_view[i].box.y1);
      EXPECT_EQ(from_copy[i].box.x2, from_view[i].box.x2);
      EXPECT_EQ(from_copy[i].box.y2, from_view[i].box.y2);
    }
  }
}

// Reusing one output buffer across FuseInto calls must leave no trace of
// prior contents: the hot path hands every fusion call the same reserved
// DetectionList, so stale results from another mask or frame must be
// indistinguishable from a fresh Fuse.
TEST_P(FusionPropertyTest, FuseIntoReusedBufferMatchesFreshFuse) {
  auto method = CreateEnsembleMethod(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng(91);
  DetectionList reused;
  reused.push_back(Det(1, 2, 3, 4, 0.5));  // stale junk from a "previous" call
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<DetectionList> inputs(3);
    for (auto& list : inputs) {
      const int n = static_cast<int>(rng.UniformInt(6));
      for (int i = 0; i < n; ++i) {
        auto d = Det(rng.Uniform(0, 100), rng.Uniform(0, 100),
                     rng.Uniform(10, 40), rng.Uniform(10, 40),
                     rng.Uniform(0.1, 1.0), rng.UniformInt(2));
        d.box_variance = rng.Uniform(0.1, 10.0);
        list.push_back(d);
      }
    }
    const auto fresh = (*method)->Fuse(inputs);

    std::vector<const DetectionList*> ptrs;
    for (const auto& list : inputs) ptrs.push_back(&list);
    (*method)->FuseInto(DetectionListSpan(ptrs), &reused);

    ASSERT_EQ(fresh.size(), reused.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(fresh[i].confidence, reused[i].confidence);
      EXPECT_EQ(fresh[i].label, reused[i].label);
      EXPECT_EQ(fresh[i].box.x1, reused[i].box.x1);
      EXPECT_EQ(fresh[i].box.y1, reused[i].box.y1);
      EXPECT_EQ(fresh[i].box.x2, reused[i].box.x2);
      EXPECT_EQ(fresh[i].box.y2, reused[i].box.y2);
      EXPECT_EQ(fresh[i].box_variance, reused[i].box_variance);
    }
  }
}

// The indexed FrameMeanAp overload must match the list overload exactly.
TEST(GroundTruthIndexTest, IndexedFrameMeanApMatchesListOverload) {
  Rng rng(47);
  for (int trial = 0; trial < 20; ++trial) {
    GroundTruthList gt;
    const int num_gt = static_cast<int>(rng.UniformInt(8));
    for (int i = 0; i < num_gt; ++i) {
      GroundTruthBox g;
      g.box = BBox::FromXYWH(rng.Uniform(0, 100), rng.Uniform(0, 100), 20, 20);
      g.label = static_cast<ClassId>(rng.UniformInt(3));
      g.difficult = rng.Bernoulli(0.2);
      gt.push_back(g);
    }
    DetectionList dets;
    const int num_det = static_cast<int>(rng.UniformInt(10));
    for (int i = 0; i < num_det; ++i) {
      dets.push_back(Det(rng.Uniform(0, 100), rng.Uniform(0, 100), 20, 20,
                         rng.Uniform(0.05, 1.0),
                         static_cast<ClassId>(rng.UniformInt(4))));
    }
    const GroundTruthIndex index = BuildGroundTruthIndex(gt);
    EXPECT_EQ(FrameMeanAp(dets, gt), FrameMeanAp(dets, index));
  }
}

// A rebuilt index must equal a fresh one: the label-sorted box array and
// its per-class ranges, each class holding its boxes in original order.
// One index is rebuilt over lists of every size, so stale ranges or boxes
// from a larger earlier list would show.
TEST(GroundTruthIndexTest, RebuildInPlaceMatchesFreshBuild) {
  Rng rng(53);
  GroundTruthIndex reused;
  for (int trial = 0; trial < 30; ++trial) {
    GroundTruthList gt;
    const int num_gt = static_cast<int>(rng.UniformInt(12));
    for (int i = 0; i < num_gt; ++i) {
      GroundTruthBox g;
      g.box = BBox::FromXYWH(rng.Uniform(0, 100), rng.Uniform(0, 100), 20, 20);
      g.label = static_cast<ClassId>(rng.UniformInt(5)) - 1;
      g.difficult = rng.Bernoulli(0.3);
      gt.push_back(g);
    }
    RebuildGroundTruthIndex(gt, &reused);
    const GroundTruthIndex fresh = BuildGroundTruthIndex(gt);
    ASSERT_EQ(reused.boxes.size(), gt.size());
    ASSERT_EQ(reused.classes.size(), fresh.classes.size());
    size_t covered = 0;
    for (size_t c = 0; c < reused.classes.size(); ++c) {
      const GroundTruthIndex::ClassRange& r = reused.classes[c];
      EXPECT_EQ(r.label, fresh.classes[c].label);
      EXPECT_EQ(r.begin, fresh.classes[c].begin);
      EXPECT_EQ(r.end, fresh.classes[c].end);
      EXPECT_EQ(r.has_evaluable, fresh.classes[c].has_evaluable);
      if (c > 0) {
        EXPECT_LT(reused.classes[c - 1].label, r.label);
      }
      EXPECT_EQ(r.begin, covered);
      // The class's run is exactly its boxes, in original order.
      size_t k = r.begin;
      bool evaluable = false;
      for (const GroundTruthBox& g : gt) {
        if (g.label != r.label) continue;
        ASSERT_LT(k, r.end);
        EXPECT_TRUE(reused.boxes[k].box == g.box);
        EXPECT_EQ(reused.boxes[k].label, g.label);
        EXPECT_EQ(reused.boxes[k].difficult, g.difficult);
        evaluable = evaluable || !g.difficult;
        ++k;
      }
      EXPECT_EQ(k, r.end);
      EXPECT_EQ(r.has_evaluable, evaluable);
      covered = r.end;
    }
    EXPECT_EQ(covered, gt.size());
  }
}

// ---------------------------------------------------------- FrameSoA ----

// Random per-model lists with confidence ties.
std::vector<DetectionList> RandomFrame(Rng& rng, size_t lists, int max_boxes) {
  std::vector<DetectionList> inputs(lists);
  for (auto& list : inputs) {
    const int n = static_cast<int>(rng.UniformInt(
        static_cast<uint64_t>(max_boxes)));
    for (int i = 0; i < n; ++i) {
      auto d = Det(rng.Uniform(0, 80), rng.Uniform(0, 80), rng.Uniform(5, 40),
                   rng.Uniform(5, 40), rng.Uniform(0.1, 1.0),
                   static_cast<ClassId>(rng.UniformInt(3)));
      d.box_variance = rng.Uniform(0.1, 10.0);
      if (rng.Bernoulli(0.3)) d.confidence = 0.5;  // score ties
      list.push_back(d);
    }
  }
  return inputs;
}

// One store rebuilt over frames of every size must equal a fresh store
// over each frame, array for array, and hold every detection.
TEST(FrameSoATest, RebuildInPlaceMatchesFreshBuild) {
  Rng rng(61);
  FrameSoA reused;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<DetectionList> inputs =
        RandomFrame(rng, 1 + rng.UniformInt(5), 12);
    size_t total = 0;
    for (const auto& list : inputs) total += list.size();
    reused.Rebuild(inputs);
    const FrameSoA fresh(inputs);
    ASSERT_EQ(reused.packed_size(), total);
    ASSERT_EQ(reused.packed_size(), fresh.packed_size());
    ASSERT_EQ(reused.blocks().size(), fresh.blocks().size());
    for (size_t b = 0; b < reused.blocks().size(); ++b) {
      EXPECT_EQ(reused.blocks()[b].label, fresh.blocks()[b].label);
      EXPECT_EQ(reused.blocks()[b].begin, fresh.blocks()[b].begin);
      EXPECT_EQ(reused.blocks()[b].end, fresh.blocks()[b].end);
    }
    for (size_t s = 0; s < reused.packed_size(); ++s) {
      EXPECT_EQ(reused.packed_list()[s], fresh.packed_list()[s]);
      EXPECT_EQ(reused.packed_src()[s], fresh.packed_src()[s]);
      EXPECT_EQ(reused.sorted_slot()[s], fresh.sorted_slot()[s]);
    }
    // Each block's presorted slots are its stable descending-score order.
    for (const FrameSoA::LabelBlock& block : reused.blocks()) {
      std::vector<int32_t> expect;
      for (size_t s = block.begin; s < block.end; ++s) {
        expect.push_back(static_cast<int32_t>(s));
      }
      std::stable_sort(expect.begin(), expect.end(), [&](int32_t x, int32_t y) {
        return reused.packed_src()[x]->confidence >
               reused.packed_src()[y]->confidence;
      });
      for (size_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(reused.sorted_slot()[block.begin + k], expect[k]);
      }
    }
  }
}

// Every detection owns exactly one packed slot: the slot points at it,
// names its source list, and lies in the block of its label — including
// degenerate geometry (zero-width and zero-height boxes) and
// byte-identical duplicates. Within a block, slots run in (list,
// position) order, the model-major order fusion pools in.
TEST(FrameSoATest, EveryDetectionOwnsOneSlotInItsLabelBlock) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<DetectionList> inputs(3);
    for (auto& list : inputs) {
      const int n = static_cast<int>(rng.UniformInt(10));
      for (int i = 0; i < n; ++i) {
        double w = rng.Uniform(0.0, 30.0);
        double h = rng.Uniform(0.0, 30.0);
        if (rng.Bernoulli(0.15)) w = 0.0;  // zero-area: degenerate width
        if (rng.Bernoulli(0.15)) h = 0.0;  // degenerate height
        list.push_back(Det(rng.Uniform(0, 60), rng.Uniform(0, 60), w, h,
                           rng.Uniform(0.05, 1.0),
                           static_cast<ClassId>(rng.UniformInt(3))));
        // Occasionally duplicate the box exactly (identical coordinates).
        if (rng.Bernoulli(0.2)) list.push_back(list.back());
      }
    }
    const FrameSoA soa(inputs);

    // Each slot's block label, and each detection's slot.
    std::vector<ClassId> slot_label(soa.packed_size());
    for (const FrameSoA::LabelBlock& block : soa.blocks()) {
      for (size_t s = block.begin; s < block.end; ++s) {
        slot_label[s] = block.label;
      }
      // Within a block, slots follow source (list, position) order.
      for (size_t s = block.begin + 1; s < block.end; ++s) {
        const int32_t prev_list = soa.packed_list()[s - 1];
        const int32_t list = soa.packed_list()[s];
        EXPECT_TRUE(prev_list < list ||
                    (prev_list == list &&
                     soa.packed_src()[s - 1] < soa.packed_src()[s]))
            << "trial " << trial << " slot " << s;
      }
    }
    size_t total = 0;
    for (size_t li = 0; li < inputs.size(); ++li) {
      for (const Detection& d : inputs[li]) {
        ++total;
        size_t owners = 0;
        for (size_t s = 0; s < soa.packed_size(); ++s) {
          if (soa.packed_src()[s] != &d) continue;
          ++owners;
          EXPECT_EQ(soa.packed_list()[s], static_cast<int32_t>(li));
          EXPECT_EQ(slot_label[s], d.label);
        }
        EXPECT_EQ(owners, 1u) << "trial " << trial << " list " << li;
      }
    }
    EXPECT_EQ(soa.packed_size(), total);
  }
}

// ------------------------------------------------------ WBF in place ----

/// Records FuseByClass's classes as (label, boxes) runs.
class RecordingSink final : public ClassSink {
 public:
  void AddClass(ClassId label, const Detection* dets, size_t n) override {
    labels.push_back(label);
    runs.emplace_back(dets, dets + n);
  }
  std::vector<ClassId> labels;
  std::vector<DetectionList> runs;
};

void ExpectBitIdentical(const DetectionList& a, const DetectionList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box.x1, b[i].box.x1);
    EXPECT_EQ(a[i].box.y1, b[i].box.y1);
    EXPECT_EQ(a[i].box.x2, b[i].box.x2);
    EXPECT_EQ(a[i].box.y2, b[i].box.y2);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
    EXPECT_EQ(a[i].box_variance, b[i].box_variance);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].model_index, b[i].model_index);
  }
}

/// WBF over `span` with the store and without it (the generic flatten),
/// compared bit for bit through both FuseInto and FuseByClass.
void ExpectWbfStoreMatchesGeneric(const WbfFusion& wbf,
                                  DetectionListSpan span,
                                  const FrameSoA& soa) {
  DetectionList with_soa, without;
  wbf.FuseInto(span, &soa, &with_soa);
  wbf.FuseInto(span, &without);
  ExpectBitIdentical(with_soa, without);
  RecordingSink by_class_soa, by_class_generic;
  wbf.FuseByClass(span, &soa, &by_class_soa);
  wbf.FuseByClass(span, nullptr, &by_class_generic);
  ASSERT_EQ(by_class_soa.labels, by_class_generic.labels);
  for (size_t c = 0; c < by_class_soa.runs.size(); ++c) {
    ExpectBitIdentical(by_class_soa.runs[c], by_class_generic.runs[c]);
  }
}

// WBF fuses from the store's presorted blocks and reads members in place:
// every ascending subset of the lists, confidence ties included, must fuse
// exactly as the generic flatten does — where the stable-sort-filter
// lemma carries the argument. A span in descending list order cannot map
// onto the store's ascending source walk, so the block walk must decline
// onto the generic flatten, not mis-pool.
TEST(WbfInPlaceTest, BlockWalkMatchesGenericFlatten) {
  Rng rng(67);
  const WbfFusion wbf(DefaultOptions());
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<DetectionList> inputs = RandomFrame(rng, 4, 10);
    const FrameSoA soa(inputs);
    for (uint32_t mask = 1; mask < (1u << 4); ++mask) {
      std::vector<const DetectionList*> ptrs;
      for (size_t i = 0; i < 4; ++i) {
        if ((mask & (1u << i)) != 0) ptrs.push_back(&inputs[i]);
      }
      ExpectWbfStoreMatchesGeneric(wbf, DetectionListSpan(ptrs), soa);
    }
    std::vector<const DetectionList*> reversed;
    for (size_t i = 4; i-- > 0;) reversed.push_back(&inputs[i]);
    ExpectWbfStoreMatchesGeneric(wbf, DetectionListSpan(reversed), soa);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, FusionPropertyTest,
                         ::testing::ValuesIn(AllFusionKinds()),
                         [](const auto& info) {
                           std::string name = FusionKindToString(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace vqe
