// Tests for the simulated detector substrate: structure specs (Table 3),
// context affinity, the detection channel's statistical properties, the
// LiDAR-like reference model, and the model zoo.

#include <gtest/gtest.h>

#include <cmath>

#include "detection/ap.h"
#include "models/model_zoo.h"
#include "models/reference_detector.h"
#include "models/simulated_detector.h"
#include "sim/scene_generator.h"

namespace vqe {
namespace {

VideoFrame MakeFrame(int objects, SceneContext ctx = SceneContext::kClear,
                     uint64_t seed = 3) {
  SceneGeneratorOptions opt;
  opt.initial_objects_mean = objects;
  opt.difficult_fraction = 0.0;
  Video v = GenerateScene(opt, ctx, 0, 1, seed);
  VideoFrame frame = v.frames.at(0);
  frame.context = ctx;
  return frame;
}

// ------------------------------------------------------- structure spec --

TEST(StructureSpecTest, Table3ParameterCounts) {
  EXPECT_EQ(GetStructureSpec(DetectorStructure::kYoloV7).param_count,
            37'200'000u);
  EXPECT_EQ(GetStructureSpec(DetectorStructure::kYoloV7Tiny).param_count,
            6'030'000u);
  EXPECT_EQ(GetStructureSpec(DetectorStructure::kYoloV7Micro).param_count,
            2'680'000u);
  EXPECT_EQ(GetStructureSpec(DetectorStructure::kFasterRcnn).param_count,
            42'100'000u);
}

TEST(StructureSpecTest, Table3InferenceTimes) {
  EXPECT_DOUBLE_EQ(GetStructureSpec(DetectorStructure::kYoloV7).cost_ms_mean,
                   49.5);
  EXPECT_DOUBLE_EQ(
      GetStructureSpec(DetectorStructure::kYoloV7Tiny).cost_ms_mean, 10.0);
  EXPECT_DOUBLE_EQ(
      GetStructureSpec(DetectorStructure::kYoloV7Micro).cost_ms_mean, 7.7);
  EXPECT_DOUBLE_EQ(
      GetStructureSpec(DetectorStructure::kFasterRcnn).cost_ms_mean, 212.0);
}

TEST(StructureSpecTest, AccuracyOrderingMatchesPaper) {
  // Paper §5.2: accuracy YOLOv7 > tiny > micro > Faster R-CNN.
  const double v7 = GetStructureSpec(DetectorStructure::kYoloV7).recall_base;
  const double tiny =
      GetStructureSpec(DetectorStructure::kYoloV7Tiny).recall_base;
  const double micro =
      GetStructureSpec(DetectorStructure::kYoloV7Micro).recall_base;
  const double frcnn =
      GetStructureSpec(DetectorStructure::kFasterRcnn).recall_base;
  EXPECT_GT(v7, tiny);
  EXPECT_GT(tiny, micro);
  EXPECT_GT(micro, frcnn);
}

// ------------------------------------------------------ context affinity --

TEST(ContextAffinityTest, DiagonalIsOne) {
  for (int c = 0; c < kNumSceneContexts; ++c) {
    EXPECT_DOUBLE_EQ(ContextAffinity(static_cast<SceneContext>(c),
                                     static_cast<SceneContext>(c)),
                     1.0);
  }
}

TEST(ContextAffinityTest, OffDiagonalDegrades) {
  for (int a = 0; a < kNumSceneContexts; ++a) {
    for (int b = 0; b < kNumSceneContexts; ++b) {
      const double aff = ContextAffinity(static_cast<SceneContext>(a),
                                         static_cast<SceneContext>(b));
      EXPECT_GT(aff, 0.0);
      EXPECT_LE(aff, 1.0);
      if (a != b) {
        EXPECT_LT(aff, 1.0);
      }
    }
  }
}

TEST(ContextAffinityTest, NightIsHardestTransfer) {
  // Day-trained models lose the most at night (paper's motivation).
  EXPECT_LT(ContextAffinity(SceneContext::kClear, SceneContext::kNight),
            ContextAffinity(SceneContext::kClear, SceneContext::kRainy));
}

// ----------------------------------------------------- simulated detector --

TEST(SimulatedDetectorTest, DeterministicPerTrialSeed) {
  SimulatedDetector det({"tiny@clear", DetectorStructure::kYoloV7Tiny,
                         SceneContext::kClear, 1.0});
  const VideoFrame frame = MakeFrame(6);
  const auto a = det.Detect(frame, 5);
  const auto b = det.Detect(frame, 5);
  const auto c = det.Detect(frame, 6);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box, b[i].box);
    EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !(a[i].box == c[i].box);
  }
  EXPECT_TRUE(differs);
}

TEST(SimulatedDetectorTest, QualityInMatchesAffinity) {
  SimulatedDetector det({"tiny@night", DetectorStructure::kYoloV7Tiny,
                         SceneContext::kNight, 1.0});
  EXPECT_DOUBLE_EQ(det.QualityIn(SceneContext::kNight), 1.0);
  EXPECT_DOUBLE_EQ(det.QualityIn(SceneContext::kClear),
                   ContextAffinity(SceneContext::kNight, SceneContext::kClear));
}

TEST(SimulatedDetectorTest, InDomainBeatsOutOfDomainAp) {
  SimulatedDetector det({"tiny@clear", DetectorStructure::kYoloV7Tiny,
                         SceneContext::kClear, 1.0});
  double ap_in = 0.0, ap_out = 0.0;
  const int kTrials = 60;
  for (int s = 0; s < kTrials; ++s) {
    const VideoFrame in_frame = MakeFrame(6, SceneContext::kClear, s);
    VideoFrame out_frame = in_frame;
    out_frame.context = SceneContext::kNight;
    ap_in += FrameMeanAp(det.Detect(in_frame, s), in_frame.objects);
    ap_out += FrameMeanAp(det.Detect(out_frame, s), out_frame.objects);
  }
  EXPECT_GT(ap_in / kTrials, ap_out / kTrials + 0.15);
}

TEST(SimulatedDetectorTest, BetterStructureHasBetterAp) {
  SimulatedDetector big({"v7@clear", DetectorStructure::kYoloV7,
                         SceneContext::kClear, 1.0});
  SimulatedDetector small({"micro@clear", DetectorStructure::kYoloV7Micro,
                           SceneContext::kClear, 1.0});
  double ap_big = 0.0, ap_small = 0.0;
  const int kTrials = 60;
  for (int s = 0; s < kTrials; ++s) {
    const VideoFrame frame = MakeFrame(6, SceneContext::kClear, s);
    ap_big += FrameMeanAp(big.Detect(frame, s), frame.objects);
    ap_small += FrameMeanAp(small.Detect(frame, s), frame.objects);
  }
  EXPECT_GT(ap_big / kTrials, ap_small / kTrials + 0.1);
}

TEST(SimulatedDetectorTest, CostMatchesTable3Mean) {
  SimulatedDetector det({"tiny@clear", DetectorStructure::kYoloV7Tiny,
                         SceneContext::kClear, 1.0});
  double sum = 0.0;
  const int kTrials = 500;
  for (int s = 0; s < kTrials; ++s) {
    VideoFrame frame = MakeFrame(3);
    frame.frame_index = s;
    const double c = det.InferenceCostMs(frame, s);
    EXPECT_GT(c, 0.0);
    sum += c;
  }
  EXPECT_NEAR(sum / kTrials, 10.0, 0.3);
}

TEST(SimulatedDetectorTest, DetectionsStayInImage) {
  SimulatedDetector det({"micro@clear", DetectorStructure::kYoloV7Micro,
                         SceneContext::kClear, 1.0});
  for (int s = 0; s < 20; ++s) {
    const VideoFrame frame = MakeFrame(8, SceneContext::kClear, s);
    for (const auto& d : det.Detect(frame, s)) {
      EXPECT_GE(d.box.x1, 0.0);
      EXPECT_LE(d.box.x2, frame.image_width);
      EXPECT_GE(d.box.y1, 0.0);
      EXPECT_LE(d.box.y2, frame.image_height);
      EXPECT_GE(d.confidence, 0.0);
      EXPECT_LE(d.confidence, 1.0);
      EXPECT_FALSE(d.box.IsEmpty());
    }
  }
}

TEST(SimulatedDetectorTest, OutOfDomainProducesMoreFalsePositives) {
  SimulatedDetector det({"tiny@clear", DetectorStructure::kYoloV7Tiny,
                         SceneContext::kClear, 1.0});
  // Count detections on empty frames (all are FPs by construction).
  VideoFrame empty;
  empty.image_width = 1600;
  empty.image_height = 900;
  double fp_in = 0.0, fp_out = 0.0;
  for (int s = 0; s < 300; ++s) {
    empty.frame_index = s;
    empty.context = SceneContext::kClear;
    fp_in += det.Detect(empty, s).size();
    empty.context = SceneContext::kNight;
    fp_out += det.Detect(empty, s).size();
  }
  EXPECT_GT(fp_out, fp_in * 1.5);
}

TEST(SimulatedDetectorTest, ProfileValidation) {
  EXPECT_FALSE(MakeSimulatedDetector({"", DetectorStructure::kYoloV7,
                                      SceneContext::kClear, 1.0})
                   .ok());
  EXPECT_FALSE(MakeSimulatedDetector({"x", DetectorStructure::kYoloV7,
                                      SceneContext::kClear, 0.0})
                   .ok());
  EXPECT_TRUE(MakeSimulatedDetector({"x", DetectorStructure::kYoloV7,
                                     SceneContext::kClear, 1.0})
                  .ok());
}

// ----------------------------------------------------- reference detector --

TEST(ReferenceDetectorTest, RobustAcrossContexts) {
  ReferenceDetector ref;
  double recall[2] = {0, 0};
  size_t gts[2] = {0, 0};
  for (int s = 0; s < 80; ++s) {
    const VideoFrame clear_frame = MakeFrame(6, SceneContext::kClear, s);
    VideoFrame night_frame = clear_frame;
    night_frame.context = SceneContext::kNight;
    const MatchResult m0 =
        MatchDetections(ref.Detect(clear_frame, s), clear_frame.objects, 0.4);
    const MatchResult m1 =
        MatchDetections(ref.Detect(night_frame, s), night_frame.objects, 0.4);
    for (const auto& m : m0.matches) recall[0] += m.is_tp ? 1 : 0;
    for (const auto& m : m1.matches) recall[1] += m.is_tp ? 1 : 0;
    gts[0] += m0.num_gt;
    gts[1] += m1.num_gt;
  }
  const double r_clear = recall[0] / static_cast<double>(gts[0]);
  const double r_night = recall[1] / static_cast<double>(gts[1]);
  EXPECT_NEAR(r_clear, r_night, 0.05);  // LiDAR does not care about light
  EXPECT_GT(r_clear, 0.4);
}

TEST(ReferenceDetectorTest, MuchCheaperThanCameraModels) {
  ReferenceDetector ref;
  const VideoFrame frame = MakeFrame(4);
  const double ref_cost = ref.InferenceCostMs(frame, 1);
  for (DetectorStructure s :
       {DetectorStructure::kYoloV7, DetectorStructure::kYoloV7Tiny,
        DetectorStructure::kYoloV7Micro, DetectorStructure::kFasterRcnn}) {
    EXPECT_LT(ref_cost * 2, GetStructureSpec(s).cost_ms_mean);
  }
}

TEST(ReferenceDetectorTest, EstimatedApPreservesRanking) {
  // AP measured against REF boxes must rank a good detector above a bad
  // one, which is all the paper requires of the estimate (§2.3).
  ReferenceDetector ref;
  SimulatedDetector good({"v7@clear", DetectorStructure::kYoloV7,
                          SceneContext::kClear, 1.0});
  SimulatedDetector bad({"micro@night", DetectorStructure::kYoloV7Micro,
                         SceneContext::kNight, 1.0});
  double est_good = 0, est_bad = 0, true_good = 0, true_bad = 0;
  const int kTrials = 80;
  for (int s = 0; s < kTrials; ++s) {
    const VideoFrame frame = MakeFrame(6, SceneContext::kClear, s);
    const auto ref_gt = DetectionsAsGroundTruth(ref.Detect(frame, s), 0.5);
    est_good += FrameMeanAp(good.Detect(frame, s), ref_gt);
    est_bad += FrameMeanAp(bad.Detect(frame, s), ref_gt);
    true_good += FrameMeanAp(good.Detect(frame, s), frame.objects);
    true_bad += FrameMeanAp(bad.Detect(frame, s), frame.objects);
  }
  EXPECT_GT(true_good, true_bad);  // sanity
  EXPECT_GT(est_good, est_bad);    // the ranking survives estimation
}

// -------------------------------------------------------------- model zoo --

TEST(ModelZooTest, NuscenesPoolSizes) {
  for (int m : {2, 3, 5}) {
    const auto pool = BuildNuscenesPool(m);
    ASSERT_TRUE(pool.ok()) << m;
    EXPECT_EQ(static_cast<int>(pool->size()), m);
    EXPECT_NE(pool->reference, nullptr);
  }
  EXPECT_FALSE(BuildNuscenesPool(4).ok());
  EXPECT_FALSE(BuildNuscenesPool(0).ok());
}

TEST(ModelZooTest, PoolPrefixesAreStable) {
  // Figure 11 reduces m by taking prefixes; the m=3 pool must be the first
  // three detectors of the m=5 pool.
  const auto p3 = BuildNuscenesPool(3);
  const auto p5 = BuildNuscenesPool(5);
  ASSERT_TRUE(p3.ok() && p5.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p3->detectors[i]->name(), p5->detectors[i]->name());
  }
}

TEST(ModelZooTest, BddPool) {
  const auto pool = BuildBddPool(5);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->size(), 5u);
  bool has_frcnn = false;
  for (const auto& d : pool->detectors) {
    if (d->structure_name() == "Faster R-CNN") has_frcnn = true;
  }
  EXPECT_TRUE(has_frcnn);
}

TEST(ModelZooTest, PoolForDataset) {
  const auto nusc = BuildPoolForDataset("nusc-night", 3);
  ASSERT_TRUE(nusc.ok());
  const auto bdd = BuildPoolForDataset("bdd-rainy", 3);
  ASSERT_TRUE(bdd.ok());
  EXPECT_NE(nusc->detectors[0]->name(), bdd->detectors[0]->name());
}

TEST(ModelZooTest, BuildPoolRejectsEmptyAndHuge) {
  EXPECT_FALSE(BuildPool({}).ok());
  std::vector<DetectorProfile> many(21, {"x", DetectorStructure::kYoloV7Tiny,
                                         SceneContext::kClear, 1.0});
  EXPECT_FALSE(BuildPool(many).ok());
}

TEST(ModelZooTest, ParseDetectorName) {
  const auto p = ParseDetectorName("yolov7-tiny@night");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->structure, DetectorStructure::kYoloV7Tiny);
  EXPECT_EQ(p->trained_on, SceneContext::kNight);

  EXPECT_TRUE(ParseDetectorName("faster-rcnn@snow").ok());
  EXPECT_TRUE(ParseDetectorName("YOLOV7@CLEAR").ok());
  EXPECT_FALSE(ParseDetectorName("yolov9@clear").ok());
  EXPECT_FALSE(ParseDetectorName("yolov7").ok());
  EXPECT_FALSE(ParseDetectorName("yolov7@fog").ok());
  EXPECT_FALSE(ParseDetectorName("@clear").ok());
}

}  // namespace
}  // namespace vqe
