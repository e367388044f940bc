// Weighted Boxes Fusion (Solovyev, Wang & Gabruseva, Image and Vision
// Computing 2021) — the fusion method the paper selects for all MES
// experiments (§5.2). Unlike NMS it *averages* clustered boxes instead of
// discarding them, which is why it wins on ensembles.

#ifndef VQE_FUSION_WBF_H_
#define VQE_FUSION_WBF_H_

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
class WbfFusion : public EnsembleMethod {
 public:
  explicit WbfFusion(const FusionOptions& options) : options_(options) {}
  std::string name() const override { return "WBF"; }
  /// FuseByClass, appended, then one global stable confidence sort (so
  /// the cluster loop exists once).
  void FuseInto(DetectionListSpan per_model, const PairwiseIouCache* iou,
                const FrameSoA* soa, DetectionList* out) const override;
  /// The native kernel: per class, clusters the pooled boxes, rescales
  /// and thresholds them, and hands the survivors to `sink` in stable
  /// descending-confidence order.
  void FuseByClass(DetectionListSpan per_model, const PairwiseIouCache* iou,
                   const FrameSoA* soa, ClassSink* sink) const override;

 private:
  FusionOptions options_;
};

}  // namespace vqe

#endif  // VQE_FUSION_WBF_H_
