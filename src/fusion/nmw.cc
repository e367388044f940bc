#include "fusion/nmw.h"

#include "common/arena.h"
#include "fusion/fusion_internal.h"

namespace vqe {

using fusion_internal::ClassGroup;
using fusion_internal::GroupByClass;
using fusion_internal::SortDescArena;
using fusion_internal::SortGroupDesc;

void NmwFusion::FuseInto(DetectionListSpan per_model,
                         DetectionList* out) const {
  out->clear();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  for (const ClassGroup& group : GroupByClass(per_model, arena)) {
    Detection* dets = group.dets;
    const size_t n = group.size;
    SortGroupDesc(group, arena);
    uint8_t* used = arena.AllocateArray<uint8_t>(n);
    for (size_t i = 0; i < n; ++i) used[i] = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      used[i] = 1;

      // Gather the cluster: every unused box overlapping the top box.
      double wsum = 0.0;
      double x1 = 0.0, y1 = 0.0, x2 = 0.0, y2 = 0.0;
      auto accumulate = [&](const Detection& d, double overlap) {
        const double w = d.confidence * overlap;
        x1 += w * d.box.x1;
        y1 += w * d.box.y1;
        x2 += w * d.box.x2;
        y2 += w * d.box.y2;
        wsum += w;
      };
      accumulate(dets[i], 1.0);  // the top box votes with IoU 1 to itself
      for (size_t j = i + 1; j < n; ++j) {
        if (used[j]) continue;
        const double overlap = IoU(dets[i].box, dets[j].box);
        if (overlap > options_.iou_threshold) {
          used[j] = 1;
          accumulate(dets[j], overlap);
        }
      }

      Detection fused = dets[i];  // confidence = max of the cluster
      if (wsum > 0.0) {
        fused.box = BBox{x1 / wsum, y1 / wsum, x2 / wsum, y2 / wsum};
      }
      fused.model_index = -1;
      if (fused.confidence >= options_.score_threshold) out->push_back(fused);
    }
  }
  SortDescArena(out, arena);
}

}  // namespace vqe
