#include "detection/detection.h"

#include <algorithm>
#include <new>
#include <set>

#include "common/arena.h"

namespace vqe {

void SortByConfidenceDesc(DetectionList* dets) {
  std::stable_sort(dets->begin(), dets->end(),
                   [](const Detection& a, const Detection& b) {
                     return a.confidence > b.confidence;
                   });
}

DetectionList FilterByClass(const DetectionList& dets, ClassId cls) {
  DetectionList out;
  out.reserve(dets.size());
  for (const auto& d : dets) {
    if (d.label == cls) out.push_back(d);
  }
  return out;
}

DetectionList FilterByConfidence(const DetectionList& dets, double threshold) {
  DetectionList out;
  out.reserve(dets.size());
  for (const auto& d : dets) {
    if (d.confidence >= threshold) out.push_back(d);
  }
  return out;
}

std::vector<ClassId> DistinctLabels(const DetectionList& dets) {
  std::set<ClassId> labels;
  for (const auto& d : dets) labels.insert(d.label);
  return {labels.begin(), labels.end()};
}

std::vector<ClassId> DistinctLabels(const GroundTruthList& gts) {
  std::set<ClassId> labels;
  for (const auto& g : gts) labels.insert(g.label);
  return {labels.begin(), labels.end()};
}

void PartitionByClass(const DetectionList& dets, ClassSink* sink) {
  const size_t n = dets.size();
  if (n == 0) return;
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  Detection* grouped = arena.AllocateArray<Detection>(n);
  for (size_t i = 0; i < n; ++i) new (grouped + i) Detection(dets[i]);
  ArenaStableSort(grouped, n, arena,
                  [](const Detection& a, const Detection& b) {
                    return a.label < b.label;
                  });
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && grouped[end].label == grouped[begin].label) ++end;
    sink->AddClass(grouped[begin].label, grouped + begin, end - begin);
    begin = end;
  }
}

}  // namespace vqe
