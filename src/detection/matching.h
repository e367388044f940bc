// Greedy confidence-ordered matching of detections to ground truth, the
// primitive under both AP computation and detection-quality diagnostics.

#ifndef VQE_DETECTION_MATCHING_H_
#define VQE_DETECTION_MATCHING_H_

#include <vector>

#include "common/arena.h"
#include "detection/detection.h"

namespace vqe {

/// Outcome of matching one detection against the ground truth of a frame.
struct DetectionMatch {
  /// Index into the (confidence-sorted) detection list.
  size_t detection_index = 0;
  /// True positive: matched an unclaimed GT box of the same class with
  /// IoU >= threshold.
  bool is_tp = false;
  /// Index of the matched GT box, or -1.
  int32_t gt_index = -1;
  /// IoU with the matched GT box (0 when unmatched).
  double iou = 0.0;
  /// Confidence of the detection (copied for PR-curve construction).
  double confidence = 0.0;
  /// True when the detection matched a GT box flagged `difficult`; such
  /// detections are ignored by AP (neither TP nor FP), per VOC.
  bool ignored = false;
};

/// Result of matching all detections of one class on one frame.
struct MatchResult {
  std::vector<DetectionMatch> matches;  // ordered by descending confidence
  /// Number of non-difficult GT boxes of the class (the recall denominator).
  size_t num_gt = 0;
};

/// Greedily matches same-class detections to GT boxes.
///
/// Detections are processed in descending confidence order; each claims the
/// highest-IoU unclaimed GT box of its class when that IoU >= iou_threshold
/// (VOC/COCO protocol). Each GT box is claimed at most once.
///
/// Both inputs may contain multiple classes; only pairs with equal labels
/// can match. `num_gt` counts all non-difficult GT boxes across classes.
MatchResult MatchDetections(const DetectionList& detections,
                            const GroundTruthList& ground_truth,
                            double iou_threshold);

namespace detail {

/// MatchDetections with every transient (sort order, claim flags, the
/// match records themselves) carved from `arena`. The per-frame scoring
/// hot path runs thousands of matchings per frame; this variant performs
/// zero heap allocations. The returned records live in `arena` and die
/// with the caller's ArenaScope. Bit-identical to MatchDetections (which
/// delegates here).
struct ArenaMatchResult {
  const DetectionMatch* matches = nullptr;  // descending confidence
  size_t size = 0;
  size_t num_gt = 0;
};
ArenaMatchResult MatchDetectionsArena(const Detection* detections, size_t n,
                                      const GroundTruthBox* ground_truth,
                                      size_t num_gt_boxes,
                                      double iou_threshold, FrameArena& arena);

}  // namespace detail

}  // namespace vqe

#endif  // VQE_DETECTION_MATCHING_H_
