// Detection records: the ⟨BBox, Conf, Label⟩ triplets of the paper (§2.1),
// with the per-model variance channel consumed by Softer-NMS.

#ifndef VQE_DETECTION_DETECTION_H_
#define VQE_DETECTION_DETECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "detection/bbox.h"

namespace vqe {

/// Integer object-class label (e.g. car = 0); the class vocabulary lives in
/// the dataset configuration.
using ClassId = int32_t;

/// One detected object instance: the paper's ⟨BBox, Conf, Label⟩ triplet.
struct Detection {
  BBox box;
  /// Detector confidence in [0, 1].
  double confidence = 0.0;
  ClassId label = 0;
  /// Index of the producing model within the pool (−1 when fused or GT).
  int32_t model_index = -1;
  /// Predicted localization variance (pixels²) used by Softer-NMS variance
  /// voting; 0 when the producer does not estimate it.
  double box_variance = 0.0;
};

/// All detections on one frame, in no particular order.
using DetectionList = std::vector<Detection>;

/// Non-owning view of per-model detection lists (the inputs of
/// EnsembleMethod::Fuse): either a contiguous array of lists or an array
/// of list pointers. Lets callers assemble an ensemble's inputs from
/// cached per-model outputs without deep-copying a single detection (the
/// hot path of matrix construction fuses the same m lists under 2^m − 1
/// masks). The referenced lists must outlive the span.
class DetectionListSpan {
 public:
  DetectionListSpan() = default;
  /// View over an owning vector of lists.
  DetectionListSpan(const std::vector<DetectionList>& lists)
      : contiguous_(lists.data()), size_(lists.size()) {}
  /// View over a vector of non-null list pointers.
  DetectionListSpan(const std::vector<const DetectionList*>& ptrs)
      : indirect_(ptrs.data()), size_(ptrs.size()) {}
  /// View over `n` contiguous lists starting at `data`, which must outlive
  /// the span.
  DetectionListSpan(const DetectionList* data, size_t n)
      : contiguous_(data), size_(n) {}
  // There is deliberately no initializer_list constructor: one would store
  // lists.begin() and dangle the moment a braced list is bound to a named
  // span. Braced calls like Fuse({a, b}) instead go through the non-virtual
  // EnsembleMethod::Fuse(initializer_list) overload, whose backing array is
  // guaranteed to outlive the nested virtual call.

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const DetectionList& operator[](size_t i) const {
    return contiguous_ != nullptr ? contiguous_[i] : *indirect_[i];
  }

 private:
  const DetectionList* contiguous_ = nullptr;
  const DetectionList* const* indirect_ = nullptr;
  size_t size_ = 0;
};

/// A ground-truth object instance on a frame.
struct GroundTruthBox {
  BBox box;
  ClassId label = 0;
  /// Stable object identity across frames (for tracking-style queries).
  int64_t object_id = -1;
  /// Marked true for instances that are too occluded/small to be reasonably
  /// detectable; they are excluded from AP like VOC "difficult" objects.
  bool difficult = false;
  /// Intrinsic detection difficulty in [0, 1] (occlusion, truncation,
  /// distance). Shared across detectors, so their misses are correlated the
  /// way real models' misses are.
  double hardness = 0.0;
};

using GroundTruthList = std::vector<GroundTruthBox>;

/// Returns only the detections whose label equals cls.
DetectionList FilterByClass(const DetectionList& dets, ClassId cls);

/// Receives a detection list one class at a time, labels strictly
/// ascending, each call with at least one detection. WBF hands its fused
/// boxes to one (WbfFusion::FuseByClass) and the class-major mean-AP
/// accumulator (detection/ap.h) is one, so a fused list can be scored
/// without ever being assembled, sorted or re-filtered per class.
class ClassSink {
 public:
  virtual ~ClassSink() = default;
  /// One class's `n` detections at `dets`, valid only during the call.
  virtual void AddClass(ClassId label, const Detection* dets, size_t n) = 0;
};

/// Hands `dets` to `sink` as a stable class partition: ascending labels,
/// each class's detections in list order (what FilterByClass returns).
/// Scratch comes from the calling thread's FrameArena, so steady-state
/// calls do not allocate.
void PartitionByClass(const DetectionList& dets, ClassSink* sink);

}  // namespace vqe

#endif  // VQE_DETECTION_DETECTION_H_
