#include "fusion/nms.h"

#include <cmath>

#include "common/arena.h"
#include "fusion/fusion_internal.h"

namespace vqe {

using fusion_internal::ClassGroup;
using fusion_internal::GroupByClass;
using fusion_internal::SortGroupDesc;

void NmsFusion::FuseInto(DetectionListSpan per_model,
                         DetectionList* out) const {
  out->clear();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  for (const ClassGroup& group : GroupByClass(per_model, arena)) {
    Detection* dets = group.dets;
    const size_t n = group.size;
    SortGroupDesc(group, arena);
    uint8_t* suppressed = arena.AllocateArray<uint8_t>(n);
    for (size_t i = 0; i < n; ++i) suppressed[i] = 0;
    for (size_t i = 0; i < n; ++i) {
      if (suppressed[i]) continue;
      Detection kept = dets[i];
      kept.model_index = -1;
      if (kept.confidence >= options_.score_threshold) out->push_back(kept);
      for (size_t j = i + 1; j < n; ++j) {
        if (suppressed[j]) continue;
        if (IoU(dets[i].box, dets[j].box) > options_.iou_threshold) {
          suppressed[j] = 1;
        }
      }
    }
  }
}

void SoftNmsFusion::FuseInto(DetectionListSpan per_model,
                             DetectionList* out) const {
  // Drop decayed boxes below this floor even when the caller sets a zero
  // score_threshold, matching the reference implementation's behaviour.
  const double floor =
      options_.score_threshold > 0.0 ? options_.score_threshold : 1e-3;

  out->clear();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  // Soft-NMS keeps its pools in model-major input order: its argmax scan's
  // first-of-equals tie-break depends on it.
  for (const ClassGroup& group : GroupByClass(per_model, arena)) {
    // The group's detections are this kernel's working set, edited in
    // place: `rem` is the live prefix (the historical `remaining` list).
    Detection* dets = group.dets;
    size_t rem = group.size;
    while (rem > 0) {
      // Select the current maximum-score box (first of equals, as the
      // historical strict-> scan did).
      size_t best = 0;
      for (size_t i = 1; i < rem; ++i) {
        if (dets[i].confidence > dets[best].confidence) best = i;
      }
      const Detection kept = dets[best];
      for (size_t i = best; i + 1 < rem; ++i) dets[i] = dets[i + 1];
      --rem;
      if (kept.confidence < floor) continue;
      Detection emitted = kept;
      emitted.model_index = -1;
      out->push_back(emitted);

      // Decay the scores of overlapping survivors, compacting in place —
      // the same survivor order the historical rebuilt `next` list kept.
      size_t w = 0;
      for (size_t i = 0; i < rem; ++i) {
        const double overlap = IoU(kept.box, dets[i].box);
        double decayed = dets[i].confidence;
        if (decay_ == Decay::kLinear) {
          if (overlap > options_.iou_threshold) decayed *= (1.0 - overlap);
        } else {
          decayed *= std::exp(-(overlap * overlap) / options_.sigma);
        }
        if (decayed >= floor) {
          dets[w] = dets[i];
          dets[w].confidence = decayed;
          ++w;
        }
      }
      rem = w;
    }
  }
}

void SofterNmsFusion::FuseInto(DetectionListSpan per_model,
                               DetectionList* out) const {
  constexpr double kVarianceEpsilon = 1e-3;
  out->clear();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  for (const ClassGroup& group : GroupByClass(per_model, arena)) {
    Detection* dets = group.dets;
    const size_t n = group.size;
    SortGroupDesc(group, arena);
    uint8_t* suppressed = arena.AllocateArray<uint8_t>(n);
    for (size_t i = 0; i < n; ++i) suppressed[i] = 0;
    for (size_t i = 0; i < n; ++i) {
      if (suppressed[i]) continue;
      // Variance voting: average the coordinates of all boxes overlapping
      // the selected one, weighted by exp(-(1-IoU)^2/sigma) / variance.
      double wsum = 0.0;
      BBox voted{0, 0, 0, 0};
      for (size_t j = 0; j < n; ++j) {
        const double overlap = IoU(dets[i].box, dets[j].box);
        const bool is_self = j == i;
        if (!is_self && overlap <= options_.iou_threshold) continue;
        const double variance =
            dets[j].box_variance > 0.0
                ? dets[j].box_variance
                : (1.0 - dets[j].confidence) + kVarianceEpsilon;
        const double w =
            std::exp(-(1.0 - overlap) * (1.0 - overlap) / options_.sigma) /
            variance;
        voted.x1 += w * dets[j].box.x1;
        voted.y1 += w * dets[j].box.y1;
        voted.x2 += w * dets[j].box.x2;
        voted.y2 += w * dets[j].box.y2;
        wsum += w;
        if (!is_self && overlap > options_.iou_threshold) suppressed[j] = 1;
      }
      Detection kept = dets[i];
      if (wsum > 0.0) {
        kept.box = BBox{voted.x1 / wsum, voted.y1 / wsum, voted.x2 / wsum,
                        voted.y2 / wsum};
      }
      kept.model_index = -1;
      if (kept.confidence >= options_.score_threshold) out->push_back(kept);
    }
  }
}

}  // namespace vqe
