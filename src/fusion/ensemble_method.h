// Box-fusion ("model prediction ensembling") interface. Given the raw
// detections of each model in an ensemble on one frame, a fusion method
// produces the combined detection list D_{S|v} of the paper (§2.1).
//
// Implemented methods (all compared in §5.2 of the paper, WBF selected):
//   NMS, Soft-NMS (linear & Gaussian), Softer-NMS (variance voting),
//   WBF (weighted boxes fusion), NMW (non-maximum weighted),
//   Fusion (agreement-based consensus).

#ifndef VQE_FUSION_ENSEMBLE_METHOD_H_
#define VQE_FUSION_ENSEMBLE_METHOD_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "detection/detection.h"

namespace vqe {

class PairwiseIouCache;  // fusion/iou_cache.h
class FrameSoA;          // detection/frame_soa.h

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

/// Parses a case-insensitive name ("wbf", "soft-nms", ...).
Result<FusionKind> FusionKindFromString(const std::string& name);

// DetectionListSpan (the non-owning per-model input view of Fuse) lives in
// detection/detection.h alongside DetectionList, so SoA frame stores and
// other detection-layer code can speak it without depending on fusion.

/// Strategy interface for combining per-model detections into one list.
class EnsembleMethod {
 public:
  virtual ~EnsembleMethod() = default;

  virtual std::string name() const = 0;

  /// Fuses the outputs of the ensemble's models on one frame into `*out`
  /// (cleared first, capacity kept — the hot path hands the same buffer
  /// to thousands of calls and steady-state performs zero heap
  /// allocations; transient scratch lives in the calling thread's
  /// FrameArena).
  ///
  /// `per_model` holds one detection list per model in the ensemble (order
  /// is irrelevant to correctness but kept stable for determinism). The
  /// result is a single detection list with `model_index == -1` and
  /// `frame_det_id == -1`. Implementations are stateless and safe to call
  /// concurrently (per-thread arenas never alias).
  ///
  /// `iou` is an optional per-frame pairwise-IoU tile over the *raw* input
  /// detections (see fusion/iou_cache.h). Methods that report
  /// ConsumesIouCache() read raw-pair IoUs through it (bit-identical to
  /// recomputation, by the cache's contract); others ignore it. Pass
  /// nullptr when no cache is available.
  ///
  /// `soa` is an optional per-frame SoA store over the *same* cached
  /// per-model outputs (detection/frame_soa.h), built right after
  /// AssignFrameDetIds. When present, the grouped flatten filters the
  /// store's precomputed per-class, presorted pools instead of re-pooling
  /// and re-sorting per call — bit-identical by the stable-sort filter
  /// lemma, and verified cheap to decline (implementations fall back to
  /// the generic flatten whenever the span doesn't map onto the store).
  /// Pass nullptr when no store is available.
  virtual void FuseInto(DetectionListSpan per_model,
                        const PairwiseIouCache* iou, const FrameSoA* soa,
                        DetectionList* out) const = 0;

  /// Class-major twin of FuseInto: hands `sink` the fused boxes one class
  /// at a time, labels ascending, each class's boxes in the order FuseInto
  /// lists them — exactly a stable class partition of FuseInto's output.
  /// This is the scoring path: a mean-AP accumulator fed this way
  /// (detection/ap.h) needs neither FuseInto's global confidence sort nor
  /// a per-class re-filter of the fused list.
  ///
  /// The default runs FuseInto into a thread-local buffer and partitions
  /// it in the calling thread's FrameArena (allocation-free in steady
  /// state; the sink may itself fuse, since it receives arena copies).
  /// WbfFusion implements it natively and derives FuseInto from it.
  virtual void FuseByClass(DetectionListSpan per_model,
                           const PairwiseIouCache* iou, const FrameSoA* soa,
                           ClassSink* sink) const;

  /// Value-returning convenience over FuseInto (one allocation per call;
  /// hot paths reuse an output buffer via FuseInto instead).
  DetectionList Fuse(DetectionListSpan per_model,
                     const PairwiseIouCache* iou) const {
    DetectionList out;
    FuseInto(per_model, iou, /*soa=*/nullptr, &out);
    return out;
  }

  /// Cache-less convenience overload.
  DetectionList Fuse(DetectionListSpan per_model) const {
    return Fuse(per_model, nullptr);
  }

  /// Convenience for braced calls, e.g. Fuse({a, b}). The initializer
  /// list's backing array lives for the caller's full expression, which
  /// covers the nested virtual call — safe by construction, unlike a
  /// span over a braced list bound to a named variable (which is why
  /// DetectionListSpan has no initializer_list constructor).
  DetectionList Fuse(std::initializer_list<DetectionList> lists) const {
    return Fuse(DetectionListSpan(lists.begin(), lists.size()), nullptr);
  }

  /// True when Fuse benefits from a PairwiseIouCache: the method's only
  /// IoU queries are between raw input detections (NMS family, NMW,
  /// Consensus). False for methods that measure IoU against *derived*
  /// boxes — WBF compares candidates to evolving confidence-weighted
  /// cluster centers, which no raw-pair tile can serve bit-identically —
  /// so callers skip building the tile entirely.
  virtual bool ConsumesIouCache() const { return false; }
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
  /// Optional per-model weights (Solovyev et al. §2.2): when non-empty,
  /// model i's confidences are scaled by model_weights[i] before fusion.
  /// Must match the number of per-model lists passed to Fuse, with every
  /// weight positive. Consumed by WBF; other methods ignore it.
  std::vector<double> model_weights;

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
