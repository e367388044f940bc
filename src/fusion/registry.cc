#include "fusion/consensus.h"
#include "fusion/ensemble_method.h"
#include "fusion/nms.h"
#include "fusion/nmw.h"
#include "fusion/wbf.h"

namespace vqe {

const char* FusionKindToString(FusionKind kind) {
  switch (kind) {
    case FusionKind::kNms:
      return "NMS";
    case FusionKind::kSoftNmsLinear:
      return "Soft-NMS(linear)";
    case FusionKind::kSoftNmsGaussian:
      return "Soft-NMS(gauss)";
    case FusionKind::kSofterNms:
      return "Softer-NMS";
    case FusionKind::kWbf:
      return "WBF";
    case FusionKind::kNmw:
      return "NMW";
    case FusionKind::kConsensus:
      return "Fusion";
  }
  return "Unknown";
}

Status FusionOptions::Validate() const {
  if (iou_threshold < 0.0 || iou_threshold > 1.0) {
    return Status::InvalidArgument("iou_threshold must be in [0, 1]");
  }
  if (score_threshold < 0.0 || score_threshold > 1.0) {
    return Status::InvalidArgument("score_threshold must be in [0, 1]");
  }
  if (sigma <= 0.0) {
    return Status::InvalidArgument("sigma must be positive");
  }
  if (min_votes < 0) {
    return Status::InvalidArgument("min_votes must be non-negative");
  }
  return Status::OK();
}

Result<std::unique_ptr<EnsembleMethod>> CreateEnsembleMethod(
    FusionKind kind, const FusionOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  switch (kind) {
    case FusionKind::kNms:
      return std::unique_ptr<EnsembleMethod>(new NmsFusion(options));
    case FusionKind::kSoftNmsLinear:
      return std::unique_ptr<EnsembleMethod>(
          new SoftNmsFusion(options, SoftNmsFusion::Decay::kLinear));
    case FusionKind::kSoftNmsGaussian:
      return std::unique_ptr<EnsembleMethod>(
          new SoftNmsFusion(options, SoftNmsFusion::Decay::kGaussian));
    case FusionKind::kSofterNms:
      return std::unique_ptr<EnsembleMethod>(new SofterNmsFusion(options));
    case FusionKind::kWbf:
      return std::unique_ptr<EnsembleMethod>(new WbfFusion(options));
    case FusionKind::kNmw:
      return std::unique_ptr<EnsembleMethod>(new NmwFusion(options));
    case FusionKind::kConsensus:
      return std::unique_ptr<EnsembleMethod>(new ConsensusFusion(options));
  }
  return Status::InvalidArgument("unhandled FusionKind");
}

std::vector<FusionKind> AllFusionKinds() {
  return {FusionKind::kNms,          FusionKind::kSoftNmsLinear,
          FusionKind::kSoftNmsGaussian, FusionKind::kSofterNms,
          FusionKind::kWbf,          FusionKind::kNmw,
          FusionKind::kConsensus};
}

}  // namespace vqe
