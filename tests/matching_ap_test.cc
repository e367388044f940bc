// Tests for detection matching, precision-recall curves, and AP / mAP.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "detection/ap.h"
#include "detection/detection.h"
#include "detection/matching.h"

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

GroundTruthBox Gt(double x, double y, double w, double h, ClassId label = 0,
                  bool difficult = false) {
  GroundTruthBox g;
  g.box = BBox::FromXYWH(x, y, w, h);
  g.label = label;
  g.difficult = difficult;
  return g;
}

// ------------------------------------------------------------- matching --

TEST(MatchingTest, PerfectMatch) {
  const DetectionList dets{Det(0, 0, 10, 10, 0.9)};
  const GroundTruthList gts{Gt(0, 0, 10, 10)};
  const MatchResult r = MatchDetections(dets, gts, 0.5);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_TRUE(r.matches[0].is_tp);
  EXPECT_EQ(r.matches[0].gt_index, 0);
  EXPECT_DOUBLE_EQ(r.matches[0].iou, 1.0);
  EXPECT_EQ(r.num_gt, 1u);
}

TEST(MatchingTest, IoUBelowThresholdIsFp) {
  const DetectionList dets{Det(0, 0, 10, 10, 0.9)};
  const GroundTruthList gts{Gt(8, 8, 10, 10)};
  const MatchResult r = MatchDetections(dets, gts, 0.5);
  EXPECT_FALSE(r.matches[0].is_tp);
  EXPECT_EQ(r.matches[0].gt_index, -1);
}

TEST(MatchingTest, ClassMismatchNeverMatches) {
  const DetectionList dets{Det(0, 0, 10, 10, 0.9, /*label=*/1)};
  const GroundTruthList gts{Gt(0, 0, 10, 10, /*label=*/2)};
  const MatchResult r = MatchDetections(dets, gts, 0.5);
  EXPECT_FALSE(r.matches[0].is_tp);
}

TEST(MatchingTest, EachGtClaimedOnce) {
  // Two detections over the same GT box: only the higher-confidence one is TP.
  const DetectionList dets{Det(0, 0, 10, 10, 0.6), Det(1, 0, 10, 10, 0.9)};
  const GroundTruthList gts{Gt(0, 0, 10, 10)};
  const MatchResult r = MatchDetections(dets, gts, 0.5);
  ASSERT_EQ(r.matches.size(), 2u);
  // Processed in confidence order: the 0.9 detection first.
  EXPECT_DOUBLE_EQ(r.matches[0].confidence, 0.9);
  EXPECT_TRUE(r.matches[0].is_tp);
  EXPECT_FALSE(r.matches[1].is_tp);
}

TEST(MatchingTest, HigherConfidenceClaimsBestIoU) {
  // One detection, two candidate GTs: claims the higher-IoU one.
  const DetectionList dets{Det(0, 0, 10, 10, 0.9)};
  const GroundTruthList gts{Gt(3, 0, 10, 10), Gt(1, 0, 10, 10)};
  const MatchResult r = MatchDetections(dets, gts, 0.3);
  EXPECT_TRUE(r.matches[0].is_tp);
  EXPECT_EQ(r.matches[0].gt_index, 1);
}

TEST(MatchingTest, DifficultGtIgnoredNotFp) {
  const DetectionList dets{Det(0, 0, 10, 10, 0.9)};
  const GroundTruthList gts{Gt(0, 0, 10, 10, 0, /*difficult=*/true)};
  const MatchResult r = MatchDetections(dets, gts, 0.5);
  EXPECT_TRUE(r.matches[0].ignored);
  EXPECT_FALSE(r.matches[0].is_tp);
  EXPECT_EQ(r.num_gt, 0u);  // difficult GT not in recall denominator
}

TEST(MatchingTest, EmptyInputs) {
  EXPECT_EQ(MatchDetections({}, {}, 0.5).matches.size(), 0u);
  EXPECT_EQ(MatchDetections({}, {Gt(0, 0, 1, 1)}, 0.5).num_gt, 1u);
  const MatchResult r = MatchDetections({Det(0, 0, 1, 1, 0.5)}, {}, 0.5);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_FALSE(r.matches[0].is_tp);
}

// ------------------------------------------------------------- PR curve --

TEST(PrCurveTest, SimpleCurve) {
  std::vector<DetectionMatch> matches(3);
  matches[0].is_tp = true;
  matches[0].confidence = 0.9;
  matches[1].is_tp = false;
  matches[1].confidence = 0.8;
  matches[2].is_tp = true;
  matches[2].confidence = 0.7;
  const auto curve = PrecisionRecallCurve(matches, 2);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.5);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].precision, 0.5);
  EXPECT_DOUBLE_EQ(curve[2].recall, 1.0);
  EXPECT_NEAR(curve[2].precision, 2.0 / 3.0, 1e-12);
}

TEST(PrCurveTest, IgnoredMatchesSkipped) {
  std::vector<DetectionMatch> matches(2);
  matches[0].ignored = true;
  matches[1].is_tp = true;
  const auto curve = PrecisionRecallCurve(matches, 1);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
}

TEST(PrCurveTest, ZeroGtYieldsEmptyCurve) {
  std::vector<DetectionMatch> matches(2);
  EXPECT_TRUE(PrecisionRecallCurve(matches, 0).empty());
}

TEST(PrCurveTest, IntegrationModes) {
  // Perfect detector: precision 1 at all recalls.
  std::vector<PrPoint> curve{{0.5, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(IntegratePrCurve(curve), 1.0);
  EXPECT_DOUBLE_EQ(IntegratePrCurve({}), 0.0);
}

TEST(PrCurveTest, MonotoneEnvelopeApplied) {
  // Precision dips then recovers: the envelope uses the max to the right.
  std::vector<PrPoint> curve{{0.25, 1.0}, {0.25, 0.5}, {0.5, 2.0 / 3.0}};
  // Envelope precision at recall<=0.5 region: max(1.0, ...) for first point.
  const double ap = IntegratePrCurve(curve);
  EXPECT_NEAR(ap, 0.25 * 1.0 + 0.25 * (2.0 / 3.0), 1e-12);
}

// ------------------------------------------------------------------- AP --

TEST(ApTest, PerfectDetectionsGiveApOne) {
  const DetectionList dets{Det(0, 0, 10, 10, 0.9), Det(20, 20, 10, 10, 0.8)};
  const GroundTruthList gts{Gt(0, 0, 10, 10), Gt(20, 20, 10, 10)};
  EXPECT_DOUBLE_EQ(FrameMeanAp(dets, gts), 1.0);
}

TEST(ApTest, EmptyFrameConventions) {
  EXPECT_DOUBLE_EQ(FrameMeanAp({}, GroundTruthList{}), 1.0);
  EXPECT_DOUBLE_EQ(FrameMeanAp({Det(0, 0, 1, 1, 0.9)}, GroundTruthList{}),
                   0.0);
  EXPECT_DOUBLE_EQ(FrameMeanAp({}, {Gt(0, 0, 1, 1)}), 0.0);
}

TEST(ApTest, MissedObjectLowersAp) {
  const GroundTruthList gts{Gt(0, 0, 10, 10), Gt(50, 50, 10, 10)};
  const DetectionList dets{Det(0, 0, 10, 10, 0.9)};
  const double ap = FrameMeanAp(dets, gts);
  EXPECT_NEAR(ap, 0.5, 1e-12);  // recall caps at 0.5, precision 1
}

TEST(ApTest, FalsePositiveBelowTpLowersApLess) {
  const GroundTruthList gts{Gt(0, 0, 10, 10)};
  const DetectionList clean{Det(0, 0, 10, 10, 0.9)};
  const DetectionList with_low_fp{Det(0, 0, 10, 10, 0.9),
                                  Det(50, 50, 10, 10, 0.3)};
  const DetectionList with_high_fp{Det(0, 0, 10, 10, 0.5),
                                   Det(50, 50, 10, 10, 0.9)};
  const double ap_clean = FrameMeanAp(clean, gts);
  const double ap_low = FrameMeanAp(with_low_fp, gts);
  const double ap_high = FrameMeanAp(with_high_fp, gts);
  EXPECT_DOUBLE_EQ(ap_clean, 1.0);
  // FP ranked below the TP does not hurt continuous AP...
  EXPECT_DOUBLE_EQ(ap_low, 1.0);
  // ...but an FP ranked above the TP does.
  EXPECT_NEAR(ap_high, 0.5, 1e-12);
  EXPECT_LT(ap_high, ap_low);
}

TEST(ApTest, WrongLabelCountsAgainstBothClasses) {
  const GroundTruthList gts{Gt(0, 0, 10, 10, /*label=*/0)};
  const DetectionList dets{Det(0, 0, 10, 10, 0.9, /*label=*/1)};
  // Class 0: GT but no detection -> 0. Class 1: detection but no GT -> 0.
  EXPECT_DOUBLE_EQ(FrameMeanAp(dets, gts), 0.0);
}

TEST(ApTest, MeanAcrossClasses) {
  const GroundTruthList gts{Gt(0, 0, 10, 10, 0), Gt(50, 50, 10, 10, 1)};
  const DetectionList dets{Det(0, 0, 10, 10, 0.9, 0)};  // class 1 missed
  EXPECT_NEAR(FrameMeanAp(dets, gts), 0.5, 1e-12);
}

// A detection matches only at IoU >= kApIouThreshold (0.5).
TEST(ApTest, IouThresholdMatters) {
  const GroundTruthList gts{Gt(0, 0, 10, 10)};
  const DetectionList above{Det(3, 0, 10, 10, 0.9)};  // IoU = 7/13 ≈ 0.538
  const DetectionList below{Det(4, 0, 10, 10, 0.9)};  // IoU = 6/14 ≈ 0.429
  EXPECT_DOUBLE_EQ(FrameMeanAp(above, gts), 1.0);
  EXPECT_DOUBLE_EQ(FrameMeanAp(below, gts), 0.0);
}

TEST(ApTest, DifficultGtExcluded) {
  const GroundTruthList gts{Gt(0, 0, 10, 10, 0, /*difficult=*/true)};
  // Nothing detected and the only GT is difficult: perfect by convention.
  EXPECT_DOUBLE_EQ(FrameMeanAp({}, gts), 1.0);
  // Detecting the difficult object is ignored (neither rewarded nor
  // penalized) but the spurious-class rule still applies via class union.
  const DetectionList dets{Det(0, 0, 10, 10, 0.9)};
  EXPECT_DOUBLE_EQ(FrameMeanAp(dets, gts), 1.0);
}

// Removing a detection never *increases* continuous AP when the removed
// detection is a top-ranked true positive.
TEST(ApTest, RemovingTopTpNeverIncreasesAp) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    GroundTruthList gts;
    DetectionList dets;
    const int n = 3 + static_cast<int>(rng.UniformInt(4));
    for (int i = 0; i < n; ++i) {
      const double x = 20.0 * i;
      gts.push_back(Gt(x, 0, 10, 10));
      dets.push_back(Det(x, 0, 10, 10, rng.Uniform(0.5, 1.0)));
    }
    const double full_ap = FrameMeanAp(dets, gts);
    std::stable_sort(dets.begin(), dets.end(),
                     [](const Detection& a, const Detection& b) {
                       return a.confidence > b.confidence;
                     });
    dets.erase(dets.begin());
    const double reduced_ap = FrameMeanAp(dets, gts);
    EXPECT_LE(reduced_ap, full_ap + 1e-9);
  }
}

TEST(ApTest, DetectionsAsGroundTruthFiltersByConfidence) {
  const DetectionList ref{Det(0, 0, 10, 10, 0.9), Det(5, 5, 10, 10, 0.2)};
  const GroundTruthList gt = DetectionsAsGroundTruth(ref, 0.5);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_DOUBLE_EQ(gt[0].box.x1, 0.0);
  EXPECT_FALSE(gt[0].difficult);
}

TEST(ApTest, SingleClassApZeroGtConventions) {
  EXPECT_DOUBLE_EQ(SingleClassAp({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(SingleClassAp({Det(0, 0, 1, 1, 0.5)}, {}), 0.0);
}

TEST(ApTest, BoundedInUnitInterval) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    GroundTruthList gts;
    DetectionList dets;
    for (int i = 0; i < 5; ++i) {
      const double x = 30.0 * i;
      gts.push_back(Gt(x, 0, 10, 10));
      if (rng.Bernoulli(0.7)) {
        dets.push_back(
            Det(x + rng.Uniform(-2, 2), 0, 10, 10, rng.Uniform(0.1, 1.0)));
      }
      if (rng.Bernoulli(0.3)) {
        dets.push_back(Det(500 + 30.0 * i, 0, 10, 10, rng.Uniform(0.1, 1.0)));
      }
    }
    const double ap = FrameMeanAp(dets, gts);
    EXPECT_GE(ap, 0.0);
    EXPECT_LE(ap, 1.0);
  }
}

// ------------------------------------------------------ detection utils --

TEST(DetectionUtilTest, Filters) {
  const DetectionList dets{Det(0, 0, 1, 1, 0.5, 1), Det(0, 0, 1, 1, 0.9, 2)};
  EXPECT_EQ(FilterByClass(dets, 1).size(), 1u);
  EXPECT_EQ(FilterByClass(dets, 3).size(), 0u);
}

}  // namespace
}  // namespace vqe
