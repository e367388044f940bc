// Label-sorted packed store of a frame's cached per-model detections, the
// per-frame half of WBF's work. The per-frame fusion hot path evaluates up
// to 2^m − 1 masks over the same m detection lists; FrameSoA groups those
// lists once per frame, so each mask only filters what was grouped:
//   * label blocks: the frame's detections grouped by ascending class
//     label, each block in (list, position) order — the model-major order
//     fusion pools in;
//   * per packed slot, provenance: the source list index and a pointer to
//     the source Detection, so fusion filters a block down to a mask's
//     member lists and reads the full records in place;
//   * per block, the presorted slots: the stable descending-score order
//     every mask's confidence-sorted pool is a filter of.
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
  /// [begin, end) all carry `label`.
  struct LabelBlock {
    ClassId label = 0;
    size_t begin = 0;
    size_t end = 0;
  };

  /// An empty store over no lists (source() == nullptr).
  FrameSoA() = default;

  /// A store built over `per_model`; see Rebuild.
  explicit FrameSoA(const std::vector<DetectionList>& per_model) {
    Rebuild(per_model);
  }

  /// Rebuilds the store over every detection of `per_model`, numbered in
  /// (list, position) order. `per_model` must stay unmodified while the
  /// store is read: packed_src() points into it. Allocation-free once the
  /// buffers have grown to the frame's size.
  void Rebuild(const std::vector<DetectionList>& per_model);

  /// Label-sorted packed view: blocks() partitions the packed slots by
  /// ascending class.
  const std::vector<LabelBlock>& blocks() const { return blocks_; }
  size_t packed_size() const { return packed_src_.size(); }

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
  /// slots from highest to lowest score, ties in packed (model-major
  /// input) order. Because a stable sort of a sequence, filtered to any
  /// subset, equals the stable sort of that filtered subset, fusion reuses
  /// this one per-frame permutation for every mask's descending-confidence
  /// pool instead of re-sorting per mask.
  const int32_t* sorted_slot() const { return sorted_slot_.data(); }

  /// The source per-model vector the store was built over (nullptr for a
  /// default-constructed store). Fusion maps a mask's input lists to
  /// packed_list() indices by address identity against this vector.
  const std::vector<DetectionList>* source() const { return source_; }

 private:
  std::vector<LabelBlock> blocks_;
  std::vector<int32_t> packed_list_;
  std::vector<const Detection*> packed_src_;
  std::vector<int32_t> sorted_slot_;
  /// Rebuild scratch: the (label, number) sort keys, and each numbered
  /// detection with its source list.
  struct Numbered {
    const Detection* det;
    int32_t list;
  };
  std::vector<uint64_t> sort_keys_;
  std::vector<Numbered> numbered_;
  const std::vector<DetectionList>* source_ = nullptr;
};

}  // namespace vqe

#endif  // VQE_DETECTION_FRAME_SOA_H_
