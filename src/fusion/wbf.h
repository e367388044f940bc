// Weighted Boxes Fusion (Solovyev, Wang & Gabruseva, Image and Vision
// Computing 2021) — the fusion method the paper selects for all MES
// experiments (§5.2), and the pipeline's only one. Unlike NMS it
// *averages* clustered boxes instead of discarding them, which is why it
// wins on ensembles.
//
// Besides the plain EnsembleMethod entry point, WBF takes the frame's
// SoA detection store (detection/frame_soa.h): the pipeline fuses every
// mask of a frame from the store's presorted class blocks, reading each
// member in place, and scores class-major through FuseByClass.

#ifndef VQE_FUSION_WBF_H_
#define VQE_FUSION_WBF_H_

#include "detection/frame_soa.h"
#include "fusion/ensemble_method.h"

namespace vqe {

/// Weighted Boxes Fusion.
///
/// Per class, boxes from all models are processed in descending confidence
/// order. Each box joins the first existing cluster whose *fused* box it
/// overlaps with IoU > iou_threshold, else it starts a new cluster. A
/// cluster's fused box is the confidence-weighted average of its members'
/// coordinates; its confidence is the members' mean confidence, rescaled at
/// the end by min(N, T)/T where N = cluster size and T = number of models —
/// penalizing boxes few models agree on.
class WbfFusion final : public EnsembleMethod {
 public:
  /// Default options: the pipeline's configuration.
  WbfFusion() = default;
  explicit WbfFusion(const FusionOptions& options) : options_(options) {}
  std::string name() const override { return "WBF"; }

  /// The generic flatten: pools and sorts `per_model` per call.
  void FuseInto(DetectionListSpan per_model,
                DetectionList* out) const override {
    FuseInto(per_model, /*soa=*/nullptr, out);
  }

  /// FuseByClass, appended, then one global stable confidence sort (so
  /// the cluster loop exists once).
  void FuseInto(DetectionListSpan per_model, const FrameSoA* soa,
                DetectionList* out) const;

  /// The native kernel: per class, clusters the pooled boxes, rescales
  /// and thresholds them, and hands the survivors to `sink` in stable
  /// descending-confidence order — exactly a stable class partition of
  /// FuseInto's output, which a mean-AP accumulator (detection/ap.h) can
  /// score without a global sort or a per-class re-filter.
  ///
  /// When `soa` is the store over the lists `per_model` views, with the
  /// span's lists in ascending source order, the pools are the store's
  /// presorted blocks filtered to the span's lists and the members are
  /// read in place; otherwise (nullptr, or a span the store cannot map)
  /// the lists are flattened and sorted per call. Both walks are
  /// bit-identical.
  void FuseByClass(DetectionListSpan per_model, const FrameSoA* soa,
                   ClassSink* sink) const;

 private:
  FusionOptions options_;
};

}  // namespace vqe

#endif  // VQE_FUSION_WBF_H_
