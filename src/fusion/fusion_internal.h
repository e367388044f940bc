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
// Given the frame's FrameSoA, a span's member lists become a bitmask over
// the store's source lists (SoAMemberMask), checked in O(m). Methods that
// edit their pools get arena copies grouped from the presorted blocks
// (GroupByClass); WBF, which only reads its members, walks the blocks
// itself and reads each member in place through packed_src().

#ifndef VQE_FUSION_FUSION_INTERNAL_H_
#define VQE_FUSION_FUSION_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "detection/detection.h"
#include "detection/frame_soa.h"
#include "fusion/ensemble_method.h"
#include "fusion/iou_cache.h"

namespace vqe {
namespace fusion_internal {

/// The pooled detections of one class: a mutable arena-backed run the
/// owning kernel may sort and edit freely (entries are copies).
/// `sources` carries each entry's *positional* model index within the
/// Fuse call (parallel to dets) for methods that count votes; it follows
/// every permutation ApplySortDesc performs.
struct ClassGroup {
  ClassId label = 0;
  Detection* dets = nullptr;
  int32_t* sources = nullptr;
  size_t size = 0;
};

/// Flattens per-model lists into per-class pools held in `arena`,
/// preserving the historical grouping semantics exactly: classes iterate
/// in ascending label order and, within a class, detections keep
/// model-major input order. When `model_weights` matches the number of
/// input lists, model i's confidences are pre-scaled by
/// min(1, conf · weight_i) during the flatten (WBF's weighting step);
/// pass nullptr or a mismatched vector to skip, mirroring WbfFusion.
///
/// The returned group array and everything it points at live in `arena`
/// and die with the caller's ArenaScope.
struct ClassGroups {
  const ClassGroup* groups = nullptr;
  size_t size = 0;
  /// Total pooled detections across all groups.
  size_t total = 0;
  /// True when every group was emitted already in stable
  /// descending-confidence order (the SoA fast path with `sorted` set), so
  /// the caller's SortGroupDesc would be a no-op and can be skipped.
  bool presorted = false;

  const ClassGroup* begin() const { return groups; }
  const ClassGroup* end() const { return groups + size; }
};
/// The per-frame fast paths' admission test: maps `per_model`'s lists onto
/// soa.source() by address identity and returns them as a bitmask over
/// source positions in `*members`. Declines (returns false) when a list
/// is not in the source, the lists are not in strictly ascending source
/// order, a member list lost a detection's id slot (FrameSoA::list_slots()
/// short of its size), or the source has more than 64 lists. O(m); no
/// scratch.
bool SoAMemberMask(DetectionListSpan per_model, const FrameSoA& soa,
                   uint64_t* members);

/// True when source list `list` is in the SoAMemberMask bitmask.
inline bool IsMember(uint64_t members, int list) {
  return ((members >> list) & 1u) != 0;
}

/// `soa`, when non-null, enables the per-frame fast path: the frame's
/// FrameSoA already holds every input list grouped by class, in model-major
/// order, with a per-class stable descending-score permutation computed
/// once. The flatten then filters the packed blocks down to the span's
/// member lists (mapped by address identity against soa->source()) instead
/// of re-deriving labels and offsets per call, emitting groups either in
/// model-major order (`sorted` false) or descending-confidence order
/// (`sorted` true, reported via ClassGroups::presorted). Both orders are
/// bit-identical to the historical flatten(+sort): filtering a stably
/// sorted sequence to a subset yields exactly the stable sort of that
/// subset. The fast path declines (falls back to the generic flatten) when
/// the span's lists don't map cleanly onto soa->source() in ascending
/// order, when any detection lacks its id slot, or when model weights are
/// active (weights rescale the sort keys, invalidating the precomputed
/// permutation).
ClassGroups GroupByClass(DetectionListSpan per_model, FrameArena& arena,
                         const std::vector<double>* model_weights = nullptr,
                         const FrameSoA* soa = nullptr, bool sorted = false);

/// Stable descending-confidence sort of a group's detections (and its
/// parallel sources array when present), using arena scratch instead of
/// std::stable_sort's per-call heap buffer. A stable sort's permutation is
/// unique, so the order — and every value fused from it — matches the
/// historical std::stable_sort exactly.
void SortGroupDesc(const ClassGroup& group, FrameArena& arena);

/// Stable descending-confidence sort of a finished output list with arena
/// scratch (the allocation-free replacement for the old SortDesc helper on
/// hot paths).
void SortDescArena(DetectionList* dets, FrameArena& arena);

/// Sorts a detection list by descending confidence (stable). Kept for
/// cold call sites and tests; hot kernels use SortDescArena.
void SortDesc(DetectionList* dets);

/// IoU(a.box, b.box) through the per-frame tile cache when one is
/// available, recomputed otherwise. Only valid for *raw* input detections
/// (see PairwiseIouCache's bit-identity contract).
inline double CachedIoU(const PairwiseIouCache* cache, const Detection& a,
                        const Detection& b) {
  return cache != nullptr ? cache->Get(a, b) : IoU(a.box, b.box);
}

}  // namespace fusion_internal
}  // namespace vqe

#endif  // VQE_FUSION_FUSION_INTERNAL_H_
