#include "detection/detection.h"

#include <new>

#include "common/arena.h"

namespace vqe {

DetectionList FilterByClass(const DetectionList& dets, ClassId cls) {
  DetectionList out;
  out.reserve(dets.size());
  for (const auto& d : dets) {
    if (d.label == cls) out.push_back(d);
  }
  return out;
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
