// Average Precision (AP / mAP) evaluation, the accuracy measure a_{S|v} of
// the paper (§2.3): the area under the precision–recall curve of the
// detections against reference boxes, computed per class and averaged.
//
// One fixed protocol: a detection matches a box at IoU >= kApIouThreshold,
// and AP is the all-point area under the monotone precision envelope
// (VOC 2010+).
//
// Per-frame conventions (single frames routinely have zero objects):
//  * no GT boxes and no detections            -> AP = 1.0 (perfect agreement)
//  * no GT boxes but detections present       -> AP = 0.0 (pure false alarms)
//  * GT boxes present but no detections       -> AP = 0.0
//  * a class seen only in detections          -> contributes AP 0 to the mean
// These keep a_{S|v} in [0, 1] as the scoring mechanism (§2.2) requires.

#ifndef VQE_DETECTION_AP_H_
#define VQE_DETECTION_AP_H_

#include <vector>

#include "detection/detection.h"
#include "detection/matching.h"

namespace vqe {

/// Minimum IoU for a detection to match a GT box.
inline constexpr double kApIouThreshold = 0.5;

/// One point of a precision–recall curve.
struct PrPoint {
  double recall = 0.0;
  double precision = 0.0;
};

/// Builds the raw PR curve from confidence-ordered match outcomes.
/// `num_gt` is the recall denominator. Ignored matches are skipped.
std::vector<PrPoint> PrecisionRecallCurve(
    const std::vector<DetectionMatch>& matches, size_t num_gt);

/// Integrates a PR curve into a single AP value: the area under its
/// monotone precision envelope. An empty curve yields 0.
double IntegratePrCurve(const std::vector<PrPoint>& curve);

/// AP for a single class on a single frame (inputs already class-filtered).
double SingleClassAp(const DetectionList& detections,
                     const GroundTruthList& ground_truth);

/// Class-partitioned view of one frame's ground truth: the per-class box
/// runs FrameMeanAp needs, built once and reused across many evaluations
/// of different detection lists against the same ground truth (matrix
/// construction evaluates 2^m − 1 fused outputs per frame). Flat: one
/// label-sorted box array plus per-class ranges, so rebuilding an index in
/// place for another frame frees nothing and, once warmed, allocates
/// nothing.
struct GroundTruthIndex {
  struct ClassRange {
    ClassId label = 0;
    /// The class's boxes are boxes[begin, end): difficult included, in
    /// original order.
    size_t begin = 0;
    size_t end = 0;
    /// True when the class has at least one non-difficult box (such
    /// classes always enter the per-frame class union).
    bool has_evaluable = false;
  };
  /// Every GT box, grouped by ascending label (stable within a class).
  GroundTruthList boxes;
  /// One range per class, in ascending label order.
  std::vector<ClassRange> classes;
};

/// Repartitions `ground_truth` by class into `*index`, reusing its
/// buffers.
void RebuildGroundTruthIndex(const GroundTruthList& ground_truth,
                             GroundTruthIndex* index);

/// Partitions `ground_truth` by class (RebuildGroundTruthIndex into a
/// fresh index).
GroundTruthIndex BuildGroundTruthIndex(const GroundTruthList& ground_truth);

/// Class-major frame mean AP against a prebuilt index: the one place the
/// class-union-and-mean rule is written. Feed it a detection list one
/// class at a time (it is a ClassSink: labels ascending, each class's
/// detections in list order), then read Finish(). Every class fed scores
/// its AP; every evaluable ground-truth class that was never fed (no
/// detection hit it) counts at AP 0. Those zeros only enter the class
/// count — adding +0.0 never changes the running sum — so the result is
/// bit-identical to scoring the whole union in label order.
///
/// WBF feeds it directly (WbfFusion::FuseByClass), so a fused list is
/// scored without a global confidence sort or a per-class re-filter.
/// Scratch comes from the calling thread's FrameArena; `ground_truth` must
/// outlive the accumulator.
class ClassMajorMeanAp final : public ClassSink {
 public:
  explicit ClassMajorMeanAp(const GroundTruthIndex& ground_truth)
      : ground_truth_(&ground_truth) {}

  void AddClass(ClassId label, const Detection* dets, size_t n) override;

  /// Mean AP over the classes fed plus the unfed evaluable ones; 1.0 when
  /// both are empty (nothing to detect, nothing predicted).
  double Finish();

 private:
  /// Steps the cursor past the index entries below `label`, counting the
  /// evaluable ones (AP 0).
  void SkipBelow(ClassId label);

  const GroundTruthIndex* ground_truth_;
  /// Next index entry not yet matched to a fed class or skipped.
  size_t next_entry_ = 0;
  size_t num_classes_ = 0;
  double sum_ = 0.0;
};

/// Mean AP over the union of classes present in detections or ground truth,
/// with the zero-object conventions documented at the top of this header.
double FrameMeanAp(const DetectionList& detections,
                   const GroundTruthList& ground_truth);

/// Identical to the list overload (bit-for-bit), but against a prebuilt
/// index — the fast path when one ground truth is evaluated many times.
/// A stable class partition of `detections` fed to ClassMajorMeanAp.
double FrameMeanAp(const DetectionList& detections,
                   const GroundTruthIndex& ground_truth);

/// Reinterprets a detection list as ground truth, so a reference model's
/// output can stand in for GT when estimating AP online (paper Eq. (3)).
/// Detections below `min_confidence` are dropped.
GroundTruthList DetectionsAsGroundTruth(const DetectionList& reference,
                                        double min_confidence = 0.0);

/// The same into `*out` (cleared first, capacity kept).
void DetectionsAsGroundTruth(const DetectionList& reference,
                             double min_confidence, GroundTruthList* out);

}  // namespace vqe

#endif  // VQE_DETECTION_AP_H_
