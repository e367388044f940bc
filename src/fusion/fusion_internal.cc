#include "fusion/fusion_internal.h"

#include <algorithm>
#include <bit>
#include <new>

namespace vqe {
namespace fusion_internal {

bool SoAMemberMask(DetectionListSpan per_model, const FrameSoA& soa,
                   uint64_t* members) {
  const std::vector<DetectionList>* src = soa.source();
  if (src == nullptr) return false;
  const size_t num_lists = src->size();
  if (num_lists > 64) return false;
  // Map each span list to its source-vector position by address identity.
  // The forward-only scan enforces strictly ascending source order, the
  // precondition for packed (id-ascending) order to equal the span's
  // model-major flatten order. A member list whose slot count falls short
  // of its size lost a detection's id slot (stale or duplicate
  // frame_det_ids), where only the generic flatten is faithful.
  const uint32_t* slots = soa.list_slots();
  uint64_t mask = 0;
  size_t scan = 0;
  for (size_t j = 0; j < per_model.size(); ++j) {
    const DetectionList* lp = &per_model[j];
    while (scan < num_lists && &(*src)[scan] != lp) ++scan;
    if (scan == num_lists || slots[scan] != lp->size()) return false;
    mask |= uint64_t{1} << scan;
    ++scan;
  }
  *members = mask;
  return true;
}

namespace {

/// The SoA fast path of GroupByClass: filter the frame's packed label
/// blocks down to the span's member lists. Returns false when the span
/// doesn't map onto the store.
bool GroupFromSoA(DetectionListSpan per_model, FrameArena& arena,
                  const FrameSoA& soa, bool sorted, ClassGroups* out) {
  uint64_t members = 0;
  if (!SoAMemberMask(per_model, soa, &members)) return false;
  // Every member list is fully represented, so the span's total is the
  // member slot count and sizes the pool up front: one pass fills it.
  size_t total = 0;
  for (size_t j = 0; j < per_model.size(); ++j) total += per_model[j].size();
  out->total = total;
  if (total == 0) return true;

  const auto& blocks = soa.blocks();
  const int32_t* plist = soa.packed_list();
  const Detection* const* psrc = soa.packed_src();
  const int32_t* sslot = soa.sorted_slot();
  ClassGroup* groups = arena.AllocateArray<ClassGroup>(blocks.size());
  Detection* grouped = arena.AllocateArray<Detection>(total);
  int32_t* sources = arena.AllocateArray<int32_t>(total);
  size_t pos = 0;
  size_t g = 0;
  for (const FrameSoA::LabelBlock& block : blocks) {
    const size_t first = pos;
    for (size_t s = block.begin; s < block.end; ++s) {
      const size_t slot = sorted ? static_cast<size_t>(sslot[s]) : s;
      const int list = plist[slot];
      if (!IsMember(members, list)) continue;
      new (grouped + pos) Detection(*psrc[slot]);
      // The span position of source list `list`: the members below it.
      sources[pos] = static_cast<int32_t>(
          std::popcount(members & ((uint64_t{1} << list) - 1)));
      ++pos;
    }
    if (pos == first) continue;
    ClassGroup* grp = new (groups + g++) ClassGroup();
    grp->label = block.label;
    grp->dets = grouped + first;
    grp->sources = sources + first;
    grp->size = pos - first;
  }
  out->groups = groups;
  out->size = g;
  out->presorted = sorted;
  return true;
}

}  // namespace

ClassGroups GroupByClass(DetectionListSpan per_model, FrameArena& arena,
                         const std::vector<double>* model_weights,
                         const FrameSoA* soa, bool sorted) {
  ClassGroups out;
  const bool weights_active =
      model_weights != nullptr && model_weights->size() == per_model.size();
  if (soa != nullptr && !weights_active &&
      GroupFromSoA(per_model, arena, *soa, sorted, &out)) {
    return out;
  }
  out = ClassGroups();
  size_t total = 0;
  for (size_t i = 0; i < per_model.size(); ++i) total += per_model[i].size();
  out.total = total;
  if (total == 0) return out;

  const bool weighted =
      model_weights != nullptr && model_weights->size() == per_model.size();

  // Distinct labels, ascending — the iteration order the historical
  // std::map pooling produced.
  ClassId* labels = arena.AllocateArray<ClassId>(total);
  size_t k = 0;
  for (size_t i = 0; i < per_model.size(); ++i) {
    for (const auto& d : per_model[i]) labels[k++] = d.label;
  }
  std::sort(labels, labels + total);
  const size_t num_classes =
      static_cast<size_t>(std::unique(labels, labels + total) - labels);

  // Gather each class's detections in model-major input order (the order
  // the historical per-class push_backs produced), as mutable copies the
  // kernels may sort and edit. A counting scatter — size each class, then
  // place every detection at its class's running offset in one input-order
  // sweep — lands each entry in exactly that order without rescanning the
  // inputs once per class.
  ClassGroup* groups = arena.AllocateArray<ClassGroup>(num_classes);
  Detection* grouped = arena.AllocateArray<Detection>(total);
  int32_t* sources = arena.AllocateArray<int32_t>(total);
  size_t* offsets = arena.AllocateArray<size_t>(num_classes);
  for (size_t c = 0; c < num_classes; ++c) offsets[c] = 0;
  const auto class_index = [labels, num_classes](ClassId label) {
    return static_cast<size_t>(
        std::lower_bound(labels, labels + num_classes, label) - labels);
  };
  for (size_t i = 0; i < per_model.size(); ++i) {
    for (const auto& d : per_model[i]) ++offsets[class_index(d.label)];
  }
  size_t pos = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    ClassGroup* g = new (groups + c) ClassGroup();
    g->label = labels[c];
    g->dets = grouped + pos;
    g->sources = sources + pos;
    g->size = offsets[c];
    const size_t count = offsets[c];
    offsets[c] = pos;
    pos += count;
  }
  for (size_t i = 0; i < per_model.size(); ++i) {
    for (const auto& d : per_model[i]) {
      const size_t slot_pos = offsets[class_index(d.label)]++;
      Detection* slot = new (grouped + slot_pos) Detection(d);
      if (weighted) {
        slot->confidence =
            std::min(1.0, slot->confidence * (*model_weights)[i]);
      }
      sources[slot_pos] = static_cast<int32_t>(i);
    }
  }

  out.groups = groups;
  out.size = num_classes;
  return out;
}

namespace {

/// Applies the stable descending-confidence permutation to `group` via an
/// index sort, so the parallel sources array follows the exact same
/// reordering as the detections.
void StableSortDescIndexed(const ClassGroup& group, FrameArena& arena) {
  const size_t n = group.size;
  ArenaScope scope(arena);
  uint32_t* idx = arena.AllocateArray<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  const Detection* dets = group.dets;
  ArenaStableSort(idx, n, arena, [dets](uint32_t a, uint32_t b) {
    return dets[a].confidence > dets[b].confidence;
  });
  Detection* dtmp = arena.AllocateArray<Detection>(n);
  for (size_t i = 0; i < n; ++i) new (dtmp + i) Detection(group.dets[idx[i]]);
  for (size_t i = 0; i < n; ++i) group.dets[i] = dtmp[i];
  if (group.sources != nullptr) {
    int32_t* stmp = arena.AllocateArray<int32_t>(n);
    for (size_t i = 0; i < n; ++i) stmp[i] = group.sources[idx[i]];
    for (size_t i = 0; i < n; ++i) group.sources[i] = stmp[i];
  }
}

}  // namespace

void SortGroupDesc(const ClassGroup& group, FrameArena& arena) {
  if (group.size < 2) return;
  StableSortDescIndexed(group, arena);
}

void SortDescArena(DetectionList* dets, FrameArena& arena) {
  ArenaStableSort(dets->data(), dets->size(), arena,
                  [](const Detection& a, const Detection& b) {
                    return a.confidence > b.confidence;
                  });
}

void SortDesc(DetectionList* dets) {
  std::stable_sort(dets->begin(), dets->end(),
                   [](const Detection& a, const Detection& b) {
                     return a.confidence > b.confidence;
                   });
}

}  // namespace fusion_internal
}  // namespace vqe
