// Non-Maximum Weighted fusion (Zhou et al., "CAD: scale invariant framework
// for real-time object detection", ICCV-W 2017): NMS-style clustering around
// the maximum-confidence box, but the reported box is the weighted average
// of the cluster with weights confidence × IoU(box, top box).

#ifndef VQE_FUSION_NMW_H_
#define VQE_FUSION_NMW_H_

#include "fusion/ensemble_method.h"

namespace vqe {

/// Non-Maximum Weighted box fusion.
class NmwFusion : public EnsembleMethod {
 public:
  explicit NmwFusion(const FusionOptions& options) : options_(options) {}
  std::string name() const override { return "NMW"; }
  void FuseInto(DetectionListSpan per_model,
                DetectionList* out) const override;

 private:
  FusionOptions options_;
};

}  // namespace vqe

#endif  // VQE_FUSION_NMW_H_
