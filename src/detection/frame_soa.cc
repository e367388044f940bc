#include "detection/frame_soa.h"

#include <algorithm>

namespace vqe {

namespace {

/// Sort key ordering ids by (label, id) ascending: the label with its sign
/// bit flipped (so signed order survives the unsigned compare) above the
/// id.
uint64_t LabelIdKey(ClassId label, size_t id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(label) ^ 0x80000000u)
          << 32) |
         static_cast<uint64_t>(id);
}

}  // namespace

void FrameSoA::Rebuild(const std::vector<DetectionList>& per_model,
                       int num_ids) {
  source_ = &per_model;
  num_ids_ = std::max(num_ids, 0);
  const size_t n = static_cast<size_t>(num_ids_);
  list_slots_.assign(per_model.size(), 0);
  blocks_.clear();

  // Scatter each detection into its id slot, later writers winning — the
  // same id→detection resolution the tile's historical by_id map applied.
  id_src_.assign(n, nullptr);
  id_list_.resize(n);
  for (size_t li = 0; li < per_model.size(); ++li) {
    for (const auto& d : per_model[li]) {
      if (d.frame_det_id < 0 || d.frame_det_id >= num_ids_) continue;
      const size_t i = static_cast<size_t>(d.frame_det_id);
      id_src_[i] = &d;
      id_list_[i] = static_cast<int32_t>(li);
    }
  }

  // Order the claimed ids by (label, id). The keys are unique, so the
  // in-place (heap-free) std::sort is deterministic.
  std::vector<uint64_t>& keys = sort_keys_;
  keys.clear();
  for (size_t i = 0; i < n; ++i) {
    if (id_src_[i] != nullptr) keys.push_back(LabelIdKey(id_src_[i]->label, i));
  }
  std::sort(keys.begin(), keys.end());

  const size_t p = keys.size();
  packed_id_.resize(p);
  packed_x1_.resize(p);
  packed_y1_.resize(p);
  packed_x2_.resize(p);
  packed_y2_.resize(p);
  packed_area_.resize(p);
  packed_list_.resize(p);
  packed_src_.resize(p);
  sorted_slot_.resize(p);
  for (size_t s = 0; s < p; ++s) {
    const size_t i = static_cast<size_t>(keys[s] & 0xffffffffu);
    const Detection& d = *id_src_[i];
    packed_id_[s] = static_cast<int32_t>(i);
    packed_x1_[s] = d.box.x1;
    packed_y1_[s] = d.box.y1;
    packed_x2_[s] = d.box.x2;
    packed_y2_[s] = d.box.y2;
    packed_area_[s] = d.box.Area();
    packed_list_[s] = id_list_[i];
    packed_src_[s] = &d;
    ++list_slots_[static_cast<size_t>(id_list_[i])];
    if (blocks_.empty() || blocks_.back().label != d.label) {
      blocks_.push_back(LabelBlock{d.label, s, s + 1});
    } else {
      blocks_.back().end = s + 1;
    }

    // The block's stable descending-score order, grown one slot at a
    // time by insertion: the new slot moves ahead only of strictly lower
    // scores, so ties keep packed (id-ascending) order. AssignFrameDetIds
    // hands out ids monotonically in (list, position) order, so that IS
    // the model-major flatten order fusion pools in, and the permutation
    // equals what std::stable_sort produced — without its per-call heap
    // buffer — and stays exact under any subset filter
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
