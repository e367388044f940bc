#include "fusion/iou_cache.h"

#include <algorithm>

#include "detection/frame_soa.h"

namespace vqe {

int AssignFrameDetIds(std::vector<DetectionList>& per_model) {
  int32_t next = 0;
  for (auto& list : per_model) {
    for (auto& d : list) d.frame_det_id = next++;
  }
  return static_cast<int>(next);
}

void PairwiseIouCache::Rebuild(const FrameSoA& soa) {
  n_ = 0;
  if (soa.num_ids() <= 0 || soa.num_ids() > kMaxCachedDetections) return;
  n_ = soa.num_ids();
  const size_t n = static_cast<size_t>(n_);
  tile_.assign(n * n, -1.0);

  // Fill same-label pairs only, one label block at a time: fusion pools
  // per class, so cross-label pairs are never queried. Each block's
  // coordinates are packed over contiguous lanes, so the inner sweep is a
  // straight min/max/multiply pipeline with a branch-free select — the
  // form auto-vectorizers handle — and only the final tile stores are
  // scattered (through the packed-slot → frame_det_id map).
  //
  // Bit-identity with scalar IoU(a.box, b.box), pair by pair:
  //   * iw/ih are the identical min/max expressions;
  //   * max(iw, 0) * max(ih, 0) equals iw*ih whenever both are positive
  //     (the only case scalar IntersectionArea multiplies) and otherwise
  //     yields a non-positive product that the final select maps to the
  //     same literal 0.0 the scalar early-outs return;
  //   * packed_area is BBox::Area() evaluated by the same expression, and
  //     the union folds area_a + area_b − inter in the scalar's order.
  // IoU is FP-symmetric (min/max of coordinates and commutative
  // additions), so one computation per unordered pair serves both
  // orientations bit-identically. NaN-free inputs are a precondition
  // (detections are finite by construction); min/max ordering under NaN
  // is the one place the kernel and scalar could otherwise part ways.
  double* tile = tile_.data();
  const int32_t* ids = soa.packed_id();
  const double* px1 = soa.packed_x1();
  const double* py1 = soa.packed_y1();
  const double* px2 = soa.packed_x2();
  const double* py2 = soa.packed_y2();
  const double* parea = soa.packed_area();
  for (const FrameSoA::LabelBlock& block : soa.blocks()) {
    for (size_t i = block.begin; i < block.end; ++i) {
      const double ax1 = px1[i];
      const double ay1 = py1[i];
      const double ax2 = px2[i];
      const double ay2 = py2[i];
      const double aarea = parea[i];
      const size_t row = static_cast<size_t>(ids[i]) * n;
      for (size_t j = i; j < block.end; ++j) {
        const double iw = std::min(ax2, px2[j]) - std::max(ax1, px1[j]);
        const double ih = std::min(ay2, py2[j]) - std::max(ay1, py1[j]);
        const double inter = std::max(iw, 0.0) * std::max(ih, 0.0);
        const double uni = aarea + parea[j] - inter;
        const double iou =
            (inter > 0.0 && uni > 0.0) ? inter / uni : 0.0;
        tile[row + static_cast<size_t>(ids[j])] = iou;
        tile[static_cast<size_t>(ids[j]) * n + static_cast<size_t>(ids[i])] =
            iou;
      }
    }
  }
}

PairwiseIouCache::PairwiseIouCache(const std::vector<DetectionList>& per_model,
                                   int num_ids)
    : PairwiseIouCache(FrameSoA(per_model, num_ids)) {}

double PairwiseIouCache::Get(const Detection& a, const Detection& b) const {
  if (a.frame_det_id >= 0 && a.frame_det_id < n_ && b.frame_det_id >= 0 &&
      b.frame_det_id < n_) {
    const double v = tile_[static_cast<size_t>(a.frame_det_id) *
                               static_cast<size_t>(n_) +
                           static_cast<size_t>(b.frame_det_id)];
    if (v >= 0.0) return v;
  }
  return IoU(a.box, b.box);
}

}  // namespace vqe
