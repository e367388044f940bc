#include "fusion/fusion_internal.h"

#include <algorithm>
#include <new>

namespace vqe {
namespace fusion_internal {

ClassGroups GroupByClass(DetectionListSpan per_model, FrameArena& arena) {
  ClassGroups out;
  size_t total = 0;
  for (size_t i = 0; i < per_model.size(); ++i) total += per_model[i].size();
  if (total == 0) return out;

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
      new (grouped + slot_pos) Detection(d);
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

}  // namespace fusion_internal
}  // namespace vqe
