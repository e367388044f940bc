// The evaluation abstraction the engine runs strategies against. Two
// implementations exist:
//
//   * MatrixEvaluationSource — an eagerly built FrameMatrix (all 2^m − 1
//     masks per frame), viewed or owned. Still the right backend for
//     strategies that read the whole lattice anyway (OPT's oracle scan,
//     BF's full-pool selection), for regret measurement and for the
//     Figure 3 per-ensemble aggregates. It keeps no boxes or ground truth,
//     so it serves no skip-enabled run.
//
//   * LazyFrameEvaluator (core/lazy_frame_evaluator.h) — materializes a
//     ⟨est_ap, true_ap, cost, overhead⟩ cell on first access, memoized
//     per (frame, mask); an EvalEstimate read leaves the true AP unscored
//     until a full read needs it. Online strategies (MES family, SGL,
//     RAND, EF) only ever touch the subset lattices of their selections,
//     so runs cost O(|V|·2^|S|) fusions instead of O(|V|·2^m). Per-model
//     outputs live only while their frame is evaluated; a touched frame
//     keeps its cells and Stats() scalars for the evaluator's lifetime
//     (never in a snapshot). It implements the temporal-propagation
//     hooks, so every skip-enabled run uses it.
//
// Both run mask evaluations through the same FrameEvalContext kernel, so
// every value a strategy can observe is bit-identical across sources.

#ifndef VQE_CORE_EVALUATION_SOURCE_H_
#define VQE_CORE_EVALUATION_SOURCE_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/ensemble_id.h"
#include "core/frame_eval.h"
#include "core/frame_matrix.h"
#include "snapshot/wire.h"

namespace vqe {

/// Per-frame scalars the engine needs besides mask cells: the scene
/// context, per-model inference costs, the reference-model cost, and the
/// cost normalizer max_S c_{S|v}.
struct FrameStats {
  SceneContext context = SceneContext::kClear;
  /// Per-model inference cost c_{M_i|v}, ms (size m); owned by the source
  /// and valid for its lifetime.
  const std::vector<double>* model_cost_ms = nullptr;
  double ref_cost_ms = 0.0;
  /// max_S c_{S|v}: the normalizer of ĉ (§5.4).
  double max_cost_ms = 0.0;
  /// Models whose call succeeded on this frame (after retries).
  EnsembleId available_mask = 0;
  /// Per-model wasted time (failed attempts + backoff), ms (size m); owned
  /// by the source like model_cost_ms.
  const std::vector<double>* model_fault_ms = nullptr;
};

/// A source of per-(frame, mask) evaluations. Accessors are non-const
/// because lazy implementations materialize on read; values are pure
/// functions of (frame, mask), so reads are idempotent and read order
/// never changes what any caller observes.
class EvaluationSource {
 public:
  virtual ~EvaluationSource() = default;

  virtual int num_models() const = 0;
  virtual size_t num_frames() const = 0;
  uint32_t num_ensembles() const { return NumEnsembles(num_models()); }

  /// Frame-level scalars (a lazy source runs the frame's detectors on the
  /// first read only).
  virtual FrameStats Stats(size_t t) = 0;

  /// One mask's cell on frame t. `mask` must be in [1, num_ensembles()].
  virtual MaskEvaluation Eval(size_t t, EnsembleId mask) = 0;

  /// The cell for readers that need only est_ap, cost_ms and
  /// fusion_overhead_ms (the engine's strict-subset lattice reads, i.e.
  /// what strategies observe): those three are bit-identical to Eval's,
  /// and true_ap is unspecified — NaN when a lazy source skipped the
  /// ground-truth matching. The default forwards to Eval.
  virtual MaskEvaluation EvalEstimate(size_t t, EnsembleId mask) {
    return Eval(t, mask);
  }

  /// Frame t's scene context WITHOUT materializing the frame. The
  /// temporal skip gate consults this before deciding skip-vs-detect; a
  /// lazy source must answer it from video metadata alone, since running
  /// the detectors to decide whether to skip them defeats the skip.
  virtual SceneContext PeekContext(size_t t) { return Stats(t).context; }

  /// True when the source implements the temporal-propagation hooks below
  /// (ScorePropagated, FusedOutput): LazyFrameEvaluator and wrappers that
  /// forward to one. EngineRun::Create rejects skip-enabled runs on
  /// sources that do not, MatrixEvaluationSource among them.
  virtual bool SupportsPropagation() const { return false; }

  /// AP of caller-provided (tracker-propagated) detections against frame
  /// t's ground truth, by the same AP protocol as every true_ap cell —
  /// the skipped frame's accuracy accounting. Runs no detector.
  virtual Result<double> ScorePropagated(size_t t,
                                         const DetectionList& dets) {
    (void)t;
    (void)dets;
    return Status::FailedPrecondition(
        "evaluation source does not support temporal propagation");
  }

  /// Fused DetectionList of `mask` on frame t (the boxes behind the
  /// Eval cell), for tracker ingest on detect frames. nullptr when
  /// unsupported; otherwise valid until the next call on this source.
  virtual const DetectionList* FusedOutput(size_t t, EnsembleId mask) {
    (void)t;
    (void)mask;
    return nullptr;
  }

  /// Frame t's ⟨true_ap, cost⟩ Pareto frontier for the engine's regret
  /// scan: non-null but possibly empty means "not cached: scan every
  /// mask" (hand-built matrices); nullptr means the source cannot offer
  /// one without materializing the full lattice (lazy sources) — the
  /// engine then falls back to the exhaustive scan, which defeats
  /// laziness; runs that want lazy asymptotics disable regret instead
  /// (EngineOptions::compute_regret).
  virtual const std::vector<EnsembleId>* TrueFrontier(size_t t) = 0;

  /// Evaluation sources carry no snapshot state: cells are pure functions
  /// of (frame, mask) and a restored run never reads a frame it already
  /// stepped past, so engine snapshots have no source section and the
  /// engine calls neither hook. Both are no-ops, kept only because
  /// perfbench's TimedSource still forwards them.
  virtual Status SaveState(ByteWriter& writer) const {
    (void)writer;
    return Status::OK();
  }

  virtual Status RestoreState(ByteReader& reader) {
    (void)reader;
    return Status::OK();
  }
};

/// Eager source over a fully built FrameMatrix. The lvalue constructor is
/// a non-owning view; the rvalue one takes the matrix, so a source handed
/// off to another component (e.g. a serving StreamSession) carries its
/// backing storage with it.
class MatrixEvaluationSource final : public EvaluationSource {
 public:
  explicit MatrixEvaluationSource(const FrameMatrix& matrix)
      : matrix_(&matrix) {}
  explicit MatrixEvaluationSource(FrameMatrix&& matrix)
      : owned_(std::make_unique<const FrameMatrix>(std::move(matrix))),
        matrix_(owned_.get()) {}

  int num_models() const override { return matrix_->num_models; }
  size_t num_frames() const override { return matrix_->size(); }

  FrameStats Stats(size_t t) override {
    const FrameEvaluation& fe = matrix_->frames[t];
    FrameStats stats;
    stats.context = fe.context;
    stats.model_cost_ms = &fe.model_cost_ms;
    stats.ref_cost_ms = fe.ref_cost_ms;
    stats.max_cost_ms = fe.max_cost_ms;
    stats.available_mask = fe.available_mask;
    stats.model_fault_ms = &fe.model_fault_ms;
    return stats;
  }

  MaskEvaluation Eval(size_t t, EnsembleId mask) override {
    const FrameEvaluation& fe = matrix_->frames[t];
    MaskEvaluation e;
    e.est_ap = fe.est_ap[mask];
    e.true_ap = fe.true_ap[mask];
    e.cost_ms = fe.cost_ms[mask];
    e.fusion_overhead_ms = fe.fusion_overhead_ms[mask];
    return e;
  }

  const std::vector<EnsembleId>* TrueFrontier(size_t t) override {
    return &matrix_->frames[t].best_true_candidates;
  }

  SceneContext PeekContext(size_t t) override {
    return matrix_->frames[t].context;
  }

  const FrameMatrix& matrix() const { return *matrix_; }

 private:
  std::unique_ptr<const FrameMatrix> owned_;  // null for a view
  const FrameMatrix* matrix_;
};

}  // namespace vqe

#endif  // VQE_CORE_EVALUATION_SOURCE_H_
