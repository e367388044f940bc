// Helpers shared by the fusion algorithm implementations. Not part of the
// public API.
//
// The fusion kernels are allocation-free in steady state: every transient
// they need (class-grouped pools, sort buffers, suppression flags, cluster
// scratch) comes from the calling thread's FrameArena, claimed under an
// ArenaScope at the top of each FuseInto and reclaimed wholesale when the
// call returns. Only the caller-owned output list touches the heap, and
// only until its capacity has warmed up.
//
// Every kernel pools its input through GroupByClass (the generic flatten),
// except WBF on the pipeline's frame store, which walks the store's
// presorted blocks itself (fusion/wbf.cc).

#ifndef VQE_FUSION_FUSION_INTERNAL_H_
#define VQE_FUSION_FUSION_INTERNAL_H_

#include <cstdint>

#include "common/arena.h"
#include "detection/detection.h"

namespace vqe {
namespace fusion_internal {

/// The pooled detections of one class: a mutable arena-backed run the
/// owning kernel may sort and edit freely (entries are copies).
/// `sources` carries each entry's *positional* model index within the
/// Fuse call (parallel to dets) for methods that count votes; it follows
/// every permutation SortGroupDesc performs.
struct ClassGroup {
  ClassId label = 0;
  Detection* dets = nullptr;
  int32_t* sources = nullptr;
  size_t size = 0;
};

/// The per-class pools of one Fuse call. The group array and everything
/// it points at live in the caller's arena and die with its ArenaScope.
struct ClassGroups {
  const ClassGroup* groups = nullptr;
  size_t size = 0;

  const ClassGroup* begin() const { return groups; }
  const ClassGroup* end() const { return groups + size; }
};

/// Flattens per-model lists into per-class pools held in `arena`,
/// preserving the historical grouping semantics exactly: classes iterate
/// in ascending label order and, within a class, detections keep
/// model-major input order.
ClassGroups GroupByClass(DetectionListSpan per_model, FrameArena& arena);

/// Stable descending-confidence sort of a group's detections (and its
/// parallel sources array when present), using arena scratch instead of
/// std::stable_sort's per-call heap buffer. A stable sort's permutation is
/// unique, so the order — and every value fused from it — matches the
/// historical std::stable_sort exactly.
void SortGroupDesc(const ClassGroup& group, FrameArena& arena);

/// Stable descending-confidence sort of a finished output list with arena
/// scratch instead of std::stable_sort's per-call heap buffer.
void SortDescArena(DetectionList* dets, FrameArena& arena);

}  // namespace fusion_internal
}  // namespace vqe

#endif  // VQE_FUSION_FUSION_INTERNAL_H_
