#include "detection/matching.h"

#include <new>

namespace vqe {

namespace detail {

ArenaMatchResult MatchDetectionsArena(const Detection* detections, size_t n,
                                      const GroundTruthBox* ground_truth,
                                      size_t num_gt_boxes,
                                      double iou_threshold,
                                      FrameArena& arena) {
  ArenaMatchResult result;
  for (size_t g = 0; g < num_gt_boxes; ++g) {
    if (!ground_truth[g].difficult) ++result.num_gt;
  }

  // Confidence-descending processing order (stable for determinism — the
  // arena merge sort realizes the same unique stable permutation the
  // historical std::stable_sort did).
  uint32_t* order = arena.AllocateArray<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  ArenaStableSort(order, n, arena, [detections](uint32_t a, uint32_t b) {
    return detections[a].confidence > detections[b].confidence;
  });

  uint8_t* gt_claimed = arena.AllocateArray<uint8_t>(num_gt_boxes);
  for (size_t g = 0; g < num_gt_boxes; ++g) gt_claimed[g] = 0;
  // Ground-truth areas, hoisted out of the det × gt sweep (each IoU query
  // re-derived both; IoUWithAreas keeps the arithmetic bit-identical).
  double* gt_area = arena.AllocateArray<double>(num_gt_boxes);
  for (size_t g = 0; g < num_gt_boxes; ++g) {
    gt_area[g] = ground_truth[g].box.Area();
  }

  DetectionMatch* matches = arena.AllocateArray<DetectionMatch>(n);
  for (size_t k = 0; k < n; ++k) {
    const size_t det_idx = order[k];
    const Detection& det = detections[det_idx];
    DetectionMatch* m = new (matches + k) DetectionMatch();
    m->detection_index = det_idx;
    m->confidence = det.confidence;

    double best_iou = 0.0;
    int32_t best_gt = -1;
    const double det_area = det.box.Area();
    for (size_t g = 0; g < num_gt_boxes; ++g) {
      if (gt_claimed[g]) continue;
      if (ground_truth[g].label != det.label) continue;
      const double iou =
          IoUWithAreas(det.box, det_area, ground_truth[g].box, gt_area[g]);
      if (iou >= iou_threshold && iou > best_iou) {
        best_iou = iou;
        best_gt = static_cast<int32_t>(g);
      }
    }

    if (best_gt >= 0) {
      gt_claimed[static_cast<size_t>(best_gt)] = 1;
      m->gt_index = best_gt;
      m->iou = best_iou;
      if (ground_truth[static_cast<size_t>(best_gt)].difficult) {
        m->ignored = true;  // matched a difficult box: neither TP nor FP
      } else {
        m->is_tp = true;
      }
    }
  }
  result.matches = matches;
  result.size = n;
  return result;
}

}  // namespace detail

MatchResult MatchDetections(const DetectionList& detections,
                            const GroundTruthList& ground_truth,
                            double iou_threshold) {
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  const detail::ArenaMatchResult r = detail::MatchDetectionsArena(
      detections.data(), detections.size(), ground_truth.data(),
      ground_truth.size(), iou_threshold, arena);
  MatchResult result;
  result.num_gt = r.num_gt;
  result.matches.assign(r.matches, r.matches + r.size);
  return result;
}

}  // namespace vqe
