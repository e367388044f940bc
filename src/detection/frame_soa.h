// Label-sorted packed store of a frame's cached per-model detections, the
// per-frame half of fusion's work. The per-frame fusion hot path evaluates
// up to 2^m − 1 masks over the same m detection lists; FrameSoA groups
// those lists once per frame, right after AssignFrameDetIds, so each mask
// only filters what was grouped:
//   * label blocks: frame_det_ids grouped by ascending class label (ids
//     ascending within a block), with the block's coordinates and areas
//     packed contiguously for the pairwise-IoU tile's block kernel;
//   * per packed slot, provenance: the source list index and a pointer to
//     the source Detection, so fusion filters a block down to a mask's
//     member lists and reads the full records in place;
//   * per block, the presorted slots: the stable descending-score order
//     every mask's confidence-sorted pool is a filter of;
//   * per source list, the slots its detections claimed, which lets
//     fusion confirm a span's lists are fully represented in O(m).
//
// The packed values are plain copies — coordinates and areas are the
// exact doubles the source Detections carry (area via BBox::Area(), the
// same expression scalar IoU evaluates) — so SoA kernels can promise
// bit-identical results to their pointer-chasing predecessors.
//
// Rebuild re-targets the store at another frame's lists and reuses every
// buffer, so a store kept across frames allocates nothing once its
// capacity has warmed up.

#ifndef VQE_DETECTION_FRAME_SOA_H_
#define VQE_DETECTION_FRAME_SOA_H_

#include <cstdint>
#include <vector>

#include "detection/detection.h"

namespace vqe {

class FrameSoA {
 public:
  /// One class's contiguous run in the packed arrays: slots
  /// [begin, end) of packed_*() all carry `label`.
  struct LabelBlock {
    ClassId label = 0;
    size_t begin = 0;
    size_t end = 0;
  };

  /// An empty store (num_ids() == 0).
  FrameSoA() = default;

  /// A store built over `per_model`; see Rebuild.
  FrameSoA(const std::vector<DetectionList>& per_model, int num_ids) {
    Rebuild(per_model, num_ids);
  }

  /// Rebuilds the store over `per_model`, whose detections must carry the
  /// ids a prior AssignFrameDetIds(per_model) assigned; `num_ids` is its
  /// return value. Detections with out-of-range ids are skipped; when two
  /// detections claim one id the later one wins (matching the historical
  /// id→detection map used by the IoU tile). `per_model` must stay
  /// unmodified while the store is read: packed_src() points into it.
  /// Allocation-free once the buffers have grown to the frame's size.
  void Rebuild(const std::vector<DetectionList>& per_model, int num_ids);

  int num_ids() const { return num_ids_; }
  bool empty() const { return num_ids_ == 0; }

  /// Label-sorted packed view: blocks() partitions the packed arrays by
  /// ascending class; packed_id()[s] maps packed slot s back to the
  /// frame_det_id whose coordinates packed_x1()[s] … hold.
  const std::vector<LabelBlock>& blocks() const { return blocks_; }
  const int32_t* packed_id() const { return packed_id_.data(); }
  const double* packed_x1() const { return packed_x1_.data(); }
  const double* packed_y1() const { return packed_y1_.data(); }
  const double* packed_x2() const { return packed_x2_.data(); }
  const double* packed_y2() const { return packed_y2_.data(); }
  const double* packed_area() const { return packed_area_.data(); }
  size_t packed_size() const { return packed_id_.size(); }

  /// Per packed slot: the index within the *source vector* of the list the
  /// slot's detection came from (not Detection::model_index, which
  /// producers may leave unset). Fusion filters the packed blocks down to
  /// a mask's member lists with it.
  const int32_t* packed_list() const { return packed_list_.data(); }
  /// Per packed slot: pointer to the source Detection (valid while the
  /// source lists are unmodified). Fusion reads full records — score,
  /// box_variance and all — through it without copying them.
  const Detection* const* packed_src() const { return packed_src_.data(); }
  /// Per-block stable descending-score permutation: for s in
  /// [block.begin, block.end), sorted_slot()[s] visits the block's packed
  /// slots from highest to lowest score, ties in packed (id-ascending =
  /// model-major input) order. Because a stable sort of a sequence,
  /// filtered to any subset, equals the stable sort of that filtered
  /// subset, fusion reuses this one per-frame permutation for every mask's
  /// descending-confidence pool instead of re-sorting per mask.
  const int32_t* sorted_slot() const { return sorted_slot_.data(); }
  /// Per source list (size source()->size()): the packed slots its
  /// detections claimed. A list is fully represented exactly when this
  /// equals its size; a shortfall means some detection lost its id slot
  /// (stale, duplicate or out-of-range frame_det_ids).
  const uint32_t* list_slots() const { return list_slots_.data(); }

  /// The source per-model vector the store was built over (nullptr for a
  /// default-constructed store). Fusion's fast path uses address identity
  /// against this vector to map a mask's input lists to packed_list()
  /// indices.
  const std::vector<DetectionList>* source() const { return source_; }

  /// Non-owning view of the source per-model lists, so call sites that
  /// still speak EnsembleMethod::Fuse(DetectionListSpan) can be handed a
  /// FrameSoA without re-plumbing. Valid while the source vector lives.
  DetectionListSpan per_model_view() const {
    return source_ != nullptr ? DetectionListSpan(*source_)
                              : DetectionListSpan();
  }

 private:
  int num_ids_ = 0;
  std::vector<LabelBlock> blocks_;
  std::vector<int32_t> packed_id_;
  std::vector<double> packed_x1_, packed_y1_, packed_x2_, packed_y2_,
      packed_area_;
  std::vector<int32_t> packed_list_;
  std::vector<const Detection*> packed_src_;
  std::vector<int32_t> sorted_slot_;
  std::vector<uint32_t> list_slots_;
  /// Rebuild scratch: by frame_det_id, the winning writer of each id (or
  /// nullptr) and its source list; and the (label, id) sort keys.
  std::vector<const Detection*> id_src_;
  std::vector<int32_t> id_list_;
  std::vector<uint64_t> sort_keys_;
  const std::vector<DetectionList>* source_ = nullptr;
};

}  // namespace vqe

#endif  // VQE_DETECTION_FRAME_SOA_H_
