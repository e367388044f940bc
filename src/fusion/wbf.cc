#include "fusion/wbf.h"

#include <algorithm>

#include "common/arena.h"
#include "fusion/fusion_internal.h"

namespace vqe {

using fusion_internal::ClassGroup;
using fusion_internal::GroupByClass;
using fusion_internal::SortDescArena;
using fusion_internal::SortGroupDesc;

namespace {

// A cluster carries the running member folds instead of the member list.
// The historical cluster refolded its members front-to-back after every
// insertion; since members only ever append, the running sums after k
// insertions are, by induction, the exact partial sums of that refold —
// so each Add produces a fused box, confidence and variance bit-identical
// to a from-scratch recomputation, at O(1) instead of O(k).
struct WbfCluster {
  double wsum = 0.0;
  double x1 = 0.0, y1 = 0.0, x2 = 0.0, y2 = 0.0;
  double conf_sum = 0.0;
  double var_sum = 0.0;
  size_t size = 0;
  Detection fused;
  // fused.box.Area(), maintained alongside the box so the candidate scan
  // can use the hoisted-area IoU (bit-identical: same Area() expression,
  // evaluated on the same box).
  double fused_area = 0.0;

  void Add(const Detection& m) {
    const double w = m.confidence;
    x1 += w * m.box.x1;
    y1 += w * m.box.y1;
    x2 += w * m.box.x2;
    y2 += w * m.box.y2;
    wsum += w;
    conf_sum += m.confidence;
    var_sum += m.box_variance;
    if (size == 0) fused.label = m.label;  // members.front().label
    ++size;
    if (wsum > 0.0) {
      fused.box = BBox{x1 / wsum, y1 / wsum, x2 / wsum, y2 / wsum};
      fused_area = fused.box.Area();
    }
    fused.confidence = conf_sum / static_cast<double>(size);
    fused.box_variance = var_sum / static_cast<double>(size);
    fused.model_index = -1;
  }
};

// Appends each class's fused boxes to a list (FuseInto's class-major
// pass).
class AppendSink final : public ClassSink {
 public:
  explicit AppendSink(DetectionList* out) : out_(out) {}
  void AddClass(ClassId /*label*/, const Detection* dets, size_t n) override {
    out_->insert(out_->end(), dets, dets + n);
  }

 private:
  DetectionList* out_;
};

}  // namespace

// WBF deliberately ignores the IoU cache (ConsumesIouCache() stays
// false): candidates are matched against the *fused* box of each cluster,
// a derived confidence-weighted average — even a single-member cluster's
// center is (w·x)/w, not bitwise x — so no raw-pair tile can serve these
// queries bit-identically.
void WbfFusion::FuseByClass(DetectionListSpan per_model,
                            const PairwiseIouCache* /*iou*/,
                            const FrameSoA* soa, ClassSink* sink) const {
  const size_t num_models = per_model.size();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);

  // Per-model weighting (Solovyev et al.) happens during the grouped
  // flatten; GroupByClass ignores the weights unless they match the input
  // (and declines the SoA fast path when they are active, since weighting
  // rescales the sort keys).
  const auto groups = GroupByClass(per_model, arena, &options_.model_weights,
                                   soa, /*sorted=*/true);
  for (const ClassGroup& group : groups) {
    ArenaScope class_scope(arena);
    Detection* dets = group.dets;
    if (!groups.presorted) SortGroupDesc(group, arena);

    // At most one cluster per pooled detection: a flat arena run replaces
    // the historical vector-of-clusters.
    WbfCluster* clusters = arena.AllocateArray<WbfCluster>(group.size);
    size_t num_clusters = 0;
    for (size_t i = 0; i < group.size; ++i) {
      const Detection& d = dets[i];
      // Find the best-matching existing cluster by fused-box IoU (candidate
      // area hoisted out of the cluster sweep).
      const double d_area = d.box.Area();
      int best = -1;
      double best_iou = options_.iou_threshold;
      for (size_t c = 0; c < num_clusters; ++c) {
        const double iou = IoUWithAreas(clusters[c].fused.box,
                                        clusters[c].fused_area, d.box, d_area);
        if (iou > best_iou) {
          best_iou = iou;
          best = static_cast<int>(c);
        }
      }
      if (best < 0) {
        new (clusters + num_clusters) WbfCluster();
        best = static_cast<int>(num_clusters++);
      }
      clusters[static_cast<size_t>(best)].Add(d);
    }

    Detection* fused = arena.AllocateArray<Detection>(num_clusters);
    size_t num_fused = 0;
    for (size_t ci = 0; ci < num_clusters; ++ci) {
      WbfCluster& c = clusters[ci];
      // Confidence rescaling: penalize clusters fewer models contributed to.
      if (num_models > 0) {
        const double n = static_cast<double>(c.size);
        const double t = static_cast<double>(num_models);
        c.fused.confidence *= std::min(n, t) / t;
      }
      if (c.fused.confidence >= options_.score_threshold) {
        new (fused + num_fused++) Detection(c.fused);
      }
    }
    if (num_fused == 0) continue;
    // The class's slice of FuseInto's stably confidence-sorted output: the
    // clusters of one class keep their creation order among ties there.
    ArenaStableSort(fused, num_fused, arena,
                    [](const Detection& a, const Detection& b) {
                      return a.confidence > b.confidence;
                    });
    sink->AddClass(group.label, fused, num_fused);
  }
}

// One global stable sort of the class-major output equals the historical
// sort of the class-grouped cluster list: both order equal-confidence
// boxes of different classes by label and those of one class by cluster
// creation order.
void WbfFusion::FuseInto(DetectionListSpan per_model,
                         const PairwiseIouCache* iou, const FrameSoA* soa,
                         DetectionList* out) const {
  out->clear();
  AppendSink append(out);
  FuseByClass(per_model, iou, soa, &append);
  SortDescArena(out, FrameArena::ThreadLocal());
}

}  // namespace vqe
