// Class-major fuse-and-score kernel: WbfFusion::FuseByClass must hand
// over exactly a stable class partition of FuseInto's output, and every
// AP scored class-major (ClassMajorMeanAp, FrameEvalContext::Evaluate)
// must equal the historical per-class formula over FuseInto's list, bit
// for bit — for every mask, on the frame store and off it.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/frame_eval.h"
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/wbf.h"
#include "models/model_zoo.h"
#include "sim/dataset.h"

namespace vqe {
namespace {

Detection Det(double x, double y, double w, double h, double conf,
              ClassId label) {
  Detection d;
  d.box = BBox::FromXYWH(x, y, w, h);
  d.confidence = conf;
  d.label = label;
  return d;
}

/// The historical FrameMeanAp, written out with the public per-class
/// primitives: the union of evaluable-GT and detected classes, ascending,
/// each scored on its FilterByClass slice of the list.
double ReferenceMeanAp(const DetectionList& dets, const GroundTruthList& gt) {
  std::set<ClassId> classes;
  for (const auto& g : gt) {
    if (!g.difficult) classes.insert(g.label);
  }
  for (const auto& d : dets) classes.insert(d.label);
  if (classes.empty()) return 1.0;
  double sum = 0.0;
  for (const ClassId cls : classes) {
    GroundTruthList cls_gt;
    for (const auto& g : gt) {
      if (g.label == cls) cls_gt.push_back(g);
    }
    sum += SingleClassAp(FilterByClass(dets, cls), cls_gt);
  }
  return sum / static_cast<double>(classes.size());
}

/// Collects what FuseByClass hands over, checking the sink contract.
class RecordingSink final : public ClassSink {
 public:
  void AddClass(ClassId label, const Detection* dets, size_t n) override {
    EXPECT_GT(n, 0u);
    if (!labels.empty()) {
      EXPECT_GT(label, labels.back());
    }
    labels.push_back(label);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dets[i].label, label);
      boxes.push_back(dets[i]);
    }
  }
  std::vector<ClassId> labels;
  DetectionList boxes;
};

/// FuseInto's output, stably partitioned by class.
DetectionList StablePartition(const DetectionList& fused) {
  std::set<ClassId> labels;
  for (const auto& d : fused) labels.insert(d.label);
  DetectionList out;
  for (const ClassId cls : labels) {
    const DetectionList slice = FilterByClass(fused, cls);
    out.insert(out.end(), slice.begin(), slice.end());
  }
  return out;
}

void ExpectSameBits(const DetectionList& a, const DetectionList& b,
                    const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << where << " i=" << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << where << " i=" << i;
    EXPECT_EQ(a[i].box.x1, b[i].box.x1) << where << " i=" << i;
    EXPECT_EQ(a[i].box.y1, b[i].box.y1) << where << " i=" << i;
    EXPECT_EQ(a[i].box.x2, b[i].box.x2) << where << " i=" << i;
    EXPECT_EQ(a[i].box.y2, b[i].box.y2) << where << " i=" << i;
    EXPECT_EQ(a[i].box_variance, b[i].box_variance) << where << " i=" << i;
    EXPECT_EQ(a[i].model_index, b[i].model_index) << where << " i=" << i;
  }
}

/// The option sets WBF runs under: defaults, and a score threshold that
/// empties whole classes (class 3 only ever scores below it).
std::vector<std::pair<std::string, FusionOptions>> OptionSets() {
  std::vector<std::pair<std::string, FusionOptions>> sets;
  sets.emplace_back("defaults", FusionOptions{});
  FusionOptions threshold;
  threshold.score_threshold = 0.45;
  sets.emplace_back("score_threshold", threshold);
  return sets;
}

// Synthetic frames built to hit every edge: confidence ties within and
// across classes, a class the threshold empties, classes only in ground
// truth or only in the reference, an all-difficult ground-truth class,
// and empty frames (no boxes at all, or ground truth without boxes). Each
// mask fuses through the frame store's block walk and the generic flatten.
TEST(ClassMajorKernelTest, SyntheticFramesMatchFuseIntoBitForBit) {
  const int m = 3;
  Rng rng(41);
  for (const auto& [set_name, options] : OptionSets()) {
    const WbfFusion wbf(options);
    for (int trial = 0; trial < 24; ++trial) {
      std::vector<DetectionList> inputs(static_cast<size_t>(m));
      // Trials 0 and 1 are empty frames; the rest draw boxes around a few
      // object sites so models agree, with confidences from a small set.
      if (trial >= 2) {
        for (auto& list : inputs) {
          const int n = static_cast<int>(rng.UniformInt(9));
          for (int i = 0; i < n; ++i) {
            const ClassId label = static_cast<ClassId>(rng.UniformInt(4));
            const double site = 30.0 * static_cast<double>(rng.UniformInt(4));
            const double conf_levels[] = {0.3, 0.5, 0.5, 0.7, 0.9};
            double conf = conf_levels[rng.UniformInt(5)];
            if (label == 3) conf = 0.2;  // below score_threshold
            const double x = site + rng.Uniform(0, 4);
            const double y = site + rng.Uniform(0, 4);
            Detection d = Det(x, y, rng.Uniform(18, 24), rng.Uniform(18, 24),
                              conf, label);
            d.box_variance = rng.Uniform(0.1, 5.0);
            list.push_back(d);
          }
        }
      }
      const FrameSoA soa(inputs);

      // Ground truth: class 0 and 1 near the sites, class 2 all difficult,
      // class 4 never detected. The reference adds class 5, seen by
      // nobody else. Trial 0 has neither; trial 1 has ground truth only.
      GroundTruthList gt;
      DetectionList ref;
      if (trial >= 1) {
        for (int k = 0; k < 3; ++k) {
          GroundTruthBox g;
          g.box = BBox::FromXYWH(30.0 * k + 1, 30.0 * k + 1, 20, 20);
          g.label = static_cast<ClassId>(k % 2);
          gt.push_back(g);
          g.label = 2;
          g.difficult = true;
          gt.push_back(g);
          g.difficult = false;
        }
        GroundTruthBox only_gt;
        only_gt.box = BBox::FromXYWH(200, 200, 20, 20);
        only_gt.label = 4;
        gt.push_back(only_gt);
        ref.push_back(Det(31, 31, 20, 20, 0.8, 1));
        ref.push_back(Det(1, 1, 20, 20, 0.6, 2));
        ref.push_back(Det(250, 10, 20, 20, 0.9, 5));
      }
      const GroundTruthList ref_gt = DetectionsAsGroundTruth(ref);
      const GroundTruthIndex gt_index = BuildGroundTruthIndex(gt);
      const GroundTruthIndex ref_index = BuildGroundTruthIndex(ref_gt);

      for (uint32_t mask = 1; mask < (1u << m); ++mask) {
        std::vector<const DetectionList*> ptrs;
        for (int i = 0; i < m; ++i) {
          if ((mask & (1u << i)) != 0) {
            ptrs.push_back(&inputs[static_cast<size_t>(i)]);
          }
        }
        const FrameSoA* const stores[] = {&soa, nullptr};
        for (const FrameSoA* store : stores) {
          const std::string where =
              set_name + (store != nullptr ? " store" : " generic") +
              " trial " + std::to_string(trial) + " mask " +
              std::to_string(mask);
          DetectionList fused;
          wbf.FuseInto(DetectionListSpan(ptrs), store, &fused);
          RecordingSink recorded;
          wbf.FuseByClass(DetectionListSpan(ptrs), store, &recorded);
          ExpectSameBits(recorded.boxes, StablePartition(fused), where);

          for (const auto* index : {&gt_index, &ref_index}) {
            const GroundTruthList& truth = index == &gt_index ? gt : ref_gt;
            ClassMajorMeanAp accumulator(*index);
            wbf.FuseByClass(DetectionListSpan(ptrs), store, &accumulator);
            const double class_major = accumulator.Finish();
            EXPECT_EQ(class_major, FrameMeanAp(fused, *index)) << where;
            EXPECT_EQ(class_major, FrameMeanAp(fused, truth)) << where;
            EXPECT_EQ(class_major, ReferenceMeanAp(fused, truth)) << where;
          }
        }
      }
    }
  }
}

// Sampled simulator frames through the context the eager and lazy paths
// share: Evaluate's class-major est_ap and true_ap equal the historical
// formula over Fuse's list (which is FuseInto's), and an estimate-only
// evaluation keeps est_ap and the costs and leaves true_ap NaN.
TEST(ClassMajorKernelTest, EvaluateMatchesFrameMeanApOverFusedList) {
  const int m = 4;
  const std::vector<std::string> names = {
      "yolov7-tiny@clear", "yolov7-tiny@night", "yolov7@clear",
      "yolov7-micro@rainy"};
  std::vector<DetectorProfile> profiles;
  for (const auto& name : names) {
    profiles.push_back(std::move(ParseDetectorName(name)).value());
  }
  const DetectorPool pool = std::move(BuildPool(profiles)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 0.02;
  sample.seed = 5;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  ASSERT_GE(video.size(), 4u);

  const MatrixOptions options;
  for (size_t t = 0; t < video.size(); t += video.size() / 4) {
    const VideoFrame& frame = video.frames[t];
    FrameEvalContext ctx(frame, pool, /*trial_seed=*/5, options);
    const GroundTruthList ref_gt = DetectionsAsGroundTruth(
        pool.reference->Detect(frame, 5), kReferenceMinConfidence);
    DetectionList fused;
    for (EnsembleId mask = 1; mask <= NumEnsembles(m); ++mask) {
      const std::string where =
          "t " + std::to_string(t) + " mask " + std::to_string(mask);
      const MaskEvaluation full = ctx.Evaluate(mask);
      const MaskEvaluation estimate = ctx.Evaluate(mask, false);
      ctx.Fuse(mask, &fused);
      EXPECT_EQ(full.est_ap, ReferenceMeanAp(fused, ref_gt)) << where;
      EXPECT_EQ(full.true_ap, ReferenceMeanAp(fused, frame.objects)) << where;
      EXPECT_EQ(estimate.est_ap, full.est_ap) << where;
      EXPECT_EQ(estimate.cost_ms, full.cost_ms) << where;
      EXPECT_EQ(estimate.fusion_overhead_ms, full.fusion_overhead_ms) << where;
      EXPECT_TRUE(std::isnan(estimate.true_ap)) << where;
    }
  }
}

}  // namespace
}  // namespace vqe
