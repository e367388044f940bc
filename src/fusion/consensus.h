// Agreement-based consensus fusion, after Wei, Ball & Anderson ("Fusion of
// an ensemble of augmented image detectors for robust object detection",
// Sensors 2018): a fused box is emitted only when enough ensemble members
// independently detect the object, making the ensemble robust to the false
// positives of any single member.

#ifndef VQE_FUSION_CONSENSUS_H_
#define VQE_FUSION_CONSENSUS_H_

#include "fusion/ensemble_method.h"

namespace vqe {

/// Consensus ("Fusion") ensembling.
///
/// Per class, boxes are clustered greedily by IoU across models. A cluster
/// survives when it contains detections from at least `min_votes` distinct
/// models (default: majority). The surviving box is the confidence-weighted
/// coordinate average; its confidence is the member mean scaled by the
/// fraction of agreeing models.
class ConsensusFusion : public EnsembleMethod {
 public:
  explicit ConsensusFusion(const FusionOptions& options) : options_(options) {}
  std::string name() const override { return "Fusion"; }
  void FuseInto(DetectionListSpan per_model,
                DetectionList* out) const override;

 private:
  FusionOptions options_;
};

}  // namespace vqe

#endif  // VQE_FUSION_CONSENSUS_H_
