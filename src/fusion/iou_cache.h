// Per-frame pairwise-IoU tile cache. Matrix construction and the lazy
// frame evaluator fuse the same m cached detection lists under up to
// 2^m − 1 masks; every mask containing models {i, j} used to recompute
// IoU between the same raw boxes. The cache computes each same-label pair
// once per frame and serves every fusion call from the tile.
//
// Bit-identity contract: the tile stores exactly what IoU(a.box, b.box)
// returns (IoU is FP-symmetric: max/min of coordinates and commutative
// additions), so a cached lookup is indistinguishable from recomputation.
// Only raw *input* detections are cacheable — methods that measure IoU
// against derived boxes (WBF's evolving cluster centers) must not consume
// the cache, and fusion outputs reset frame_det_id to −1.

#ifndef VQE_FUSION_IOU_CACHE_H_
#define VQE_FUSION_IOU_CACHE_H_

#include <cstdint>
#include <vector>

#include "detection/detection.h"

namespace vqe {

class FrameSoA;  // detection/frame_soa.h

/// Assigns ascending frame-local ids (Detection::frame_det_id) across all
/// detections of the per-model lists, in list-then-element order. Returns
/// the total number of ids assigned.
int AssignFrameDetIds(std::vector<DetectionList>& per_model);

/// Dense tile of pairwise IoUs between a frame's cached detections,
/// indexed by frame_det_id. Same-label pairs are filled eagerly (fusion
/// only compares within a class); Get falls back to computing IoU for any
/// pair the tile does not cover. Read-only between (re)builds, so safe to
/// share across concurrent Fuse calls.
class PairwiseIouCache {
 public:
  /// Frames with more cached detections than this skip the tile (the n²
  /// footprint stops paying for itself); Get then always recomputes.
  static constexpr int kMaxCachedDetections = 1024;

  /// An empty, disabled cache: Get always recomputes.
  PairwiseIouCache() = default;

  /// Builds the tile from a frame's SoA detection store: the fast path.
  /// Same-label pairs are swept one label block at a time over the store's
  /// packed coordinate lanes — branch-light, unit-stride, vectorizable —
  /// while honouring the bit-identity contract above.
  explicit PairwiseIouCache(const FrameSoA& soa) { Rebuild(soa); }

  /// Rebuilds the tile over another frame's store, reusing its buffer: a
  /// cache kept across frames allocates only when a frame outgrows every
  /// earlier one.
  void Rebuild(const FrameSoA& soa);

  /// Builds the tile over `per_model`, whose detections must carry the ids
  /// a prior AssignFrameDetIds(per_model) assigned; `num_ids` is its
  /// return value. Convenience wrapper: materializes a FrameSoA and runs
  /// the block kernel over it.
  PairwiseIouCache(const std::vector<DetectionList>& per_model, int num_ids);

  bool enabled() const { return n_ > 0; }

  /// IoU(a.box, b.box), from the tile when both detections carry in-range
  /// ids and the pair was precomputed, recomputed otherwise.
  double Get(const Detection& a, const Detection& b) const;

 private:
  int n_ = 0;
  /// n_ × n_ row-major tile; negative sentinel marks unfilled pairs.
  std::vector<double> tile_;
};

}  // namespace vqe

#endif  // VQE_FUSION_IOU_CACHE_H_
