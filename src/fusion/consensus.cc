#include "fusion/consensus.h"

#include "common/arena.h"
#include "fusion/fusion_internal.h"

namespace vqe {

using fusion_internal::ClassGroup;
using fusion_internal::GroupByClass;
using fusion_internal::SortDescArena;
using fusion_internal::SortGroupDesc;

void ConsensusFusion::FuseInto(DetectionListSpan per_model,
                               DetectionList* out) const {
  const int num_models = static_cast<int>(per_model.size());
  const int required =
      options_.min_votes > 0
          ? options_.min_votes
          : (num_models + 1) / 2;  // majority by default

  out->clear();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  // Vote counting uses the group's *positional* sources array, so it is
  // correct even when producers left model_index unset.
  for (const ClassGroup& group : GroupByClass(per_model, arena)) {
    Detection* dets = group.dets;
    const int32_t* sources = group.sources;
    const size_t n = group.size;
    SortGroupDesc(group, arena);

    uint8_t* used = arena.AllocateArray<uint8_t>(n);
    for (size_t i = 0; i < n; ++i) used[i] = 0;
    // Reused cluster index buffer (capacity n covers any cluster).
    uint32_t* cluster = arena.AllocateArray<uint32_t>(n);
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      used[i] = 1;
      size_t cluster_size = 0;
      cluster[cluster_size++] = static_cast<uint32_t>(i);
      for (size_t j = i + 1; j < n; ++j) {
        if (used[j]) continue;
        if (IoU(dets[i].box, dets[j].box) > options_.iou_threshold) {
          used[j] = 1;
          cluster[cluster_size++] = static_cast<uint32_t>(j);
        }
      }

      // Count distinct voting models with a linear scan (clusters are at
      // most a handful of boxes — no need for a set).
      int voters = 0;
      for (size_t k = 0; k < cluster_size; ++k) {
        const int32_t src = sources[cluster[k]];
        bool seen = false;
        for (size_t p = 0; p < k && !seen; ++p) {
          seen = sources[cluster[p]] == src;
        }
        if (!seen) ++voters;
      }
      if (voters < required) continue;

      double wsum = 0.0;
      double x1 = 0.0, y1 = 0.0, x2 = 0.0, y2 = 0.0;
      double conf_sum = 0.0;
      for (size_t k = 0; k < cluster_size; ++k) {
        const Detection& d = dets[cluster[k]];
        const double w = d.confidence;
        x1 += w * d.box.x1;
        y1 += w * d.box.y1;
        x2 += w * d.box.x2;
        y2 += w * d.box.y2;
        wsum += w;
        conf_sum += d.confidence;
      }
      Detection fused;
      fused.label = group.label;
      fused.model_index = -1;
      if (wsum > 0.0) {
        fused.box = BBox{x1 / wsum, y1 / wsum, x2 / wsum, y2 / wsum};
      }
      const double agreement = num_models > 0
                                   ? static_cast<double>(voters) /
                                         static_cast<double>(num_models)
                                   : 1.0;
      fused.confidence =
          (conf_sum / static_cast<double>(cluster_size)) * agreement;
      if (fused.confidence >= options_.score_threshold) out->push_back(fused);
    }
  }
  SortDescArena(out, arena);
}

}  // namespace vqe
