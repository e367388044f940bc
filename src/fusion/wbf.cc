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

// The block walk's admission test: maps `per_model`'s lists onto
// soa.source() by address identity and returns them as a bitmask over
// source positions in `*members`. Declines (returns false) when a list is
// not in the source, the lists are not in strictly ascending source order
// (the precondition for packed order to equal the span's model-major
// flatten order), or the source has more than 64 lists. O(m); no scratch.
bool SoAMemberMask(DetectionListSpan per_model, const FrameSoA& soa,
                   uint64_t* members) {
  const std::vector<DetectionList>* src = soa.source();
  if (src == nullptr) return false;
  const size_t num_lists = src->size();
  if (num_lists > 64) return false;
  uint64_t mask = 0;
  size_t scan = 0;
  for (size_t j = 0; j < per_model.size(); ++j) {
    const DetectionList* lp = &per_model[j];
    while (scan < num_lists && &(*src)[scan] != lp) ++scan;
    if (scan == num_lists) return false;
    mask |= uint64_t{1} << scan;
    ++scan;
  }
  *members = mask;
  return true;
}

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

// One class's clusters: Add the class's pool in descending confidence,
// then Emit rescales, thresholds and sorts the fused boxes and hands the
// survivors to the sink. Both pool walks (the frame store's presorted
// blocks and the generic grouped flatten) feed this one loop.
class ClassClusters {
 public:
  /// At most one cluster per pooled detection: a flat arena run replaces
  /// the historical vector-of-clusters.
  ClassClusters(size_t max_members, FrameArena& arena)
      : clusters_(arena.AllocateArray<WbfCluster>(max_members)) {}

  void Add(const Detection& d, double iou_threshold) {
    // Find the best-matching existing cluster by fused-box IoU (candidate
    // area hoisted out of the cluster sweep).
    const double d_area = d.box.Area();
    int best = -1;
    double best_iou = iou_threshold;
    for (size_t c = 0; c < size_; ++c) {
      const double iou = IoUWithAreas(clusters_[c].fused.box,
                                      clusters_[c].fused_area, d.box, d_area);
      if (iou > best_iou) {
        best_iou = iou;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) {
      new (clusters_ + size_) WbfCluster();
      best = static_cast<int>(size_++);
    }
    clusters_[static_cast<size_t>(best)].Add(d);
  }

  void Emit(ClassId label, size_t num_models, double score_threshold,
            FrameArena& arena, ClassSink* sink) {
    Detection* fused = arena.AllocateArray<Detection>(size_);
    size_t num_fused = 0;
    for (size_t ci = 0; ci < size_; ++ci) {
      WbfCluster& c = clusters_[ci];
      // Confidence rescaling: penalize clusters fewer models contributed
      // to.
      if (num_models > 0) {
        const double n = static_cast<double>(c.size);
        const double t = static_cast<double>(num_models);
        c.fused.confidence *= std::min(n, t) / t;
      }
      if (c.fused.confidence >= score_threshold) {
        new (fused + num_fused++) Detection(c.fused);
      }
    }
    if (num_fused == 0) return;
    // The class's slice of FuseInto's stably confidence-sorted output: the
    // clusters of one class keep their creation order among ties there.
    ArenaStableSort(fused, num_fused, arena,
                    [](const Detection& a, const Detection& b) {
                      return a.confidence > b.confidence;
                    });
    sink->AddClass(label, fused, num_fused);
  }

 private:
  WbfCluster* clusters_;
  size_t size_ = 0;
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

void WbfFusion::FuseByClass(DetectionListSpan per_model, const FrameSoA* soa,
                            ClassSink* sink) const {
  const size_t num_models = per_model.size();
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);

  // In place on the frame store: each label block's presorted slots,
  // filtered to the span's member lists, are exactly the class's stable
  // descending-confidence pool, and the clusters read the members
  // through packed_src() without copying them.
  uint64_t members = 0;
  if (soa != nullptr && SoAMemberMask(per_model, *soa, &members)) {
    const int32_t* plist = soa->packed_list();
    const Detection* const* psrc = soa->packed_src();
    const int32_t* sslot = soa->sorted_slot();
    for (const FrameSoA::LabelBlock& block : soa->blocks()) {
      ArenaScope class_scope(arena);
      ClassClusters clusters(block.end - block.begin, arena);
      for (size_t s = block.begin; s < block.end; ++s) {
        const size_t slot = static_cast<size_t>(sslot[s]);
        if (((members >> plist[slot]) & 1u) == 0) continue;
        clusters.Add(*psrc[slot], options_.iou_threshold);
      }
      clusters.Emit(block.label, num_models, options_.score_threshold, arena,
                    sink);
    }
    return;
  }

  for (const ClassGroup& group : GroupByClass(per_model, arena)) {
    ArenaScope class_scope(arena);
    SortGroupDesc(group, arena);
    ClassClusters clusters(group.size, arena);
    for (size_t i = 0; i < group.size; ++i) {
      clusters.Add(group.dets[i], options_.iou_threshold);
    }
    clusters.Emit(group.label, num_models, options_.score_threshold, arena,
                  sink);
  }
}

// One global stable sort of the class-major output equals the historical
// sort of the class-grouped cluster list: both order equal-confidence
// boxes of different classes by label and those of one class by cluster
// creation order.
void WbfFusion::FuseInto(DetectionListSpan per_model, const FrameSoA* soa,
                         DetectionList* out) const {
  out->clear();
  AppendSink append(out);
  FuseByClass(per_model, soa, &append);
  SortDescArena(out, FrameArena::ThreadLocal());
}

}  // namespace vqe
