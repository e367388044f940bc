// Box-fusion ("model prediction ensembling") interface. Given the raw
// detections of each model in an ensemble on one frame, a fusion method
// produces the combined detection list D_{S|v} of the paper (§2.1).
//
// Implemented methods (all compared in §5.2 of the paper, WBF selected):
//   NMS, Soft-NMS (linear & Gaussian), Softer-NMS (variance voting),
//   WBF (weighted boxes fusion), NMW (non-maximum weighted),
//   Fusion (agreement-based consensus).
//
// The pipeline (matrix build, lazy evaluator, query executor) fuses with
// WBF only, through WbfFusion's frame-store entry points (fusion/wbf.h).
// This interface and its registry serve the §5.2 comparison: plain
// per-call fusion, with no frame store.

#ifndef VQE_FUSION_ENSEMBLE_METHOD_H_
#define VQE_FUSION_ENSEMBLE_METHOD_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "detection/detection.h"

namespace vqe {

/// Identifier of a fusion algorithm.
enum class FusionKind {
  kNms,
  kSoftNmsLinear,
  kSoftNmsGaussian,
  kSofterNms,
  kWbf,
  kNmw,
  kConsensus,
};

/// Human-readable name (e.g. "WBF").
const char* FusionKindToString(FusionKind kind);

// DetectionListSpan (the non-owning per-model input view of Fuse) lives in
// detection/detection.h alongside DetectionList, so SoA frame stores and
// other detection-layer code can speak it without depending on fusion.

/// Strategy interface for combining per-model detections into one list.
class EnsembleMethod {
 public:
  virtual ~EnsembleMethod() = default;

  virtual std::string name() const = 0;

  /// Fuses the outputs of the ensemble's models on one frame into `*out`
  /// (cleared first, capacity kept — a caller that hands the same buffer
  /// to many calls performs zero heap allocations in steady state;
  /// transient scratch lives in the calling thread's FrameArena).
  ///
  /// `per_model` holds one detection list per model in the ensemble (order
  /// is irrelevant to correctness but kept stable for determinism). The
  /// result is a single detection list with `model_index == -1`.
  /// Implementations are stateless and safe to call concurrently
  /// (per-thread arenas never alias).
  virtual void FuseInto(DetectionListSpan per_model,
                        DetectionList* out) const = 0;

  /// Value-returning convenience over FuseInto (one allocation per call;
  /// hot paths reuse an output buffer via FuseInto instead).
  DetectionList Fuse(DetectionListSpan per_model) const {
    DetectionList out;
    FuseInto(per_model, &out);
    return out;
  }

  /// Convenience for braced calls, e.g. Fuse({a, b}). The initializer
  /// list's backing array lives for the caller's full expression, which
  /// covers the nested virtual call — safe by construction, unlike a
  /// span over a braced list bound to a named variable (which is why
  /// DetectionListSpan has no initializer_list constructor).
  DetectionList Fuse(std::initializer_list<DetectionList> lists) const {
    return Fuse(DetectionListSpan(lists.begin(), lists.size()));
  }
};

/// Tuning knobs shared by the fusion algorithms. Fields irrelevant to a
/// given algorithm are ignored by it.
struct FusionOptions {
  /// IoU above which two boxes are considered the same object.
  double iou_threshold = 0.55;
  /// Post-fusion confidence floor; fused boxes below it are dropped.
  double score_threshold = 0.0;
  /// Gaussian decay sigma (Soft-NMS gaussian) / variance-voting sigma_t
  /// (Softer-NMS).
  double sigma = 0.5;
  /// Minimum number of agreeing models for Consensus fusion; 0 means
  /// majority (ceil(n_models / 2)).
  int min_votes = 0;

  /// Validates ranges; returns InvalidArgument with a reason otherwise.
  Status Validate() const;
};

/// Creates a fusion method instance.
Result<std::unique_ptr<EnsembleMethod>> CreateEnsembleMethod(
    FusionKind kind, const FusionOptions& options = {});

/// Lists all implemented fusion kinds (for comparison benches).
std::vector<FusionKind> AllFusionKinds();

}  // namespace vqe

#endif  // VQE_FUSION_ENSEMBLE_METHOD_H_
