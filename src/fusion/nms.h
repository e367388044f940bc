// NMS-family fusion: classic greedy Non-Maximum Suppression, Soft-NMS
// (Bodla et al., linear and Gaussian decay) and Softer-NMS (He et al.,
// variance voting), applied to the pooled detections of an ensemble.

#ifndef VQE_FUSION_NMS_H_
#define VQE_FUSION_NMS_H_

#include "fusion/ensemble_method.h"

namespace vqe {

/// Classic greedy NMS over the pooled per-class detections: repeatedly keep
/// the highest-confidence box and discard remaining boxes overlapping it
/// with IoU > iou_threshold.
class NmsFusion : public EnsembleMethod {
 public:
  explicit NmsFusion(const FusionOptions& options) : options_(options) {}
  std::string name() const override { return "NMS"; }
  void FuseInto(DetectionListSpan per_model,
                DetectionList* out) const override;

 private:
  FusionOptions options_;
};

/// Soft-NMS: instead of discarding overlapping boxes, decays their scores —
/// linearly (s *= 1 − IoU when IoU > threshold) or with a Gaussian kernel
/// (s *= exp(−IoU² / sigma)). Boxes whose decayed score falls below
/// score_threshold are dropped.
class SoftNmsFusion : public EnsembleMethod {
 public:
  enum class Decay { kLinear, kGaussian };

  SoftNmsFusion(const FusionOptions& options, Decay decay)
      : options_(options), decay_(decay) {}
  std::string name() const override {
    return decay_ == Decay::kLinear ? "Soft-NMS(linear)" : "Soft-NMS(gauss)";
  }
  void FuseInto(DetectionListSpan per_model,
                DetectionList* out) const override;

 private:
  FusionOptions options_;
  Decay decay_;
};

/// Softer-NMS: greedy selection as in NMS, but the kept box's coordinates
/// are re-estimated by variance voting — an inverse-variance-weighted
/// average over all pooled boxes with IoU > iou_threshold to the selected
/// box, with weights further decayed by exp(−(1−IoU)²/sigma). Detections
/// lacking a variance estimate use (1 − confidence) + ε as a proxy.
class SofterNmsFusion : public EnsembleMethod {
 public:
  explicit SofterNmsFusion(const FusionOptions& options) : options_(options) {}
  std::string name() const override { return "Softer-NMS"; }
  void FuseInto(DetectionListSpan per_model,
                DetectionList* out) const override;

 private:
  FusionOptions options_;
};

}  // namespace vqe

#endif  // VQE_FUSION_NMS_H_
