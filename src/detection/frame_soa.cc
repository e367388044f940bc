#include "detection/frame_soa.h"

#include <algorithm>

namespace vqe {

namespace {

/// Sort key ordering detections by (label, number) ascending: the label
/// with its sign bit flipped (so signed order survives the unsigned
/// compare) above the number.
uint64_t LabelIdKey(ClassId label, size_t id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(label) ^ 0x80000000u)
          << 32) |
         static_cast<uint64_t>(id);
}

}  // namespace

void FrameSoA::Rebuild(const std::vector<DetectionList>& per_model) {
  source_ = &per_model;
  blocks_.clear();

  // Number every detection in (list, position) order and order the
  // numbers by (label, number). The keys are unique, so the in-place
  // (heap-free) std::sort is deterministic.
  std::vector<uint64_t>& keys = sort_keys_;
  keys.clear();
  numbered_.clear();
  for (size_t li = 0; li < per_model.size(); ++li) {
    for (const Detection& d : per_model[li]) {
      keys.push_back(LabelIdKey(d.label, numbered_.size()));
      numbered_.push_back(Numbered{&d, static_cast<int32_t>(li)});
    }
  }
  std::sort(keys.begin(), keys.end());

  const size_t p = keys.size();
  packed_list_.resize(p);
  packed_src_.resize(p);
  sorted_slot_.resize(p);
  for (size_t s = 0; s < p; ++s) {
    const Numbered& n = numbered_[static_cast<size_t>(keys[s] & 0xffffffffu)];
    const Detection& d = *n.det;
    packed_list_[s] = n.list;
    packed_src_[s] = &d;
    if (blocks_.empty() || blocks_.back().label != d.label) {
      blocks_.push_back(LabelBlock{d.label, s, s + 1});
    } else {
      blocks_.back().end = s + 1;
    }

    // The block's stable descending-score order, grown one slot at a
    // time by insertion: the new slot moves ahead only of strictly lower
    // scores, so ties keep packed order. Numbers run in (list, position)
    // order, so packed order within a block IS the model-major flatten
    // order fusion pools in, and the permutation equals what
    // std::stable_sort produced — without its per-call heap buffer — and
    // stays exact under any subset filter
    // (stable-sort-then-filter == filter-then-stable-sort).
    const size_t begin = blocks_.back().begin;
    size_t j = s;
    while (j > begin &&
           packed_src_[static_cast<size_t>(sorted_slot_[j - 1])]->confidence <
               d.confidence) {
      sorted_slot_[j] = sorted_slot_[j - 1];
      --j;
    }
    sorted_slot_[j] = static_cast<int32_t>(s);
  }
}

}  // namespace vqe
