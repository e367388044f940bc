// Lazy, memoized evaluation source: the dual of Alg. 1's subset reuse.
// BuildFrameMatrix eagerly fuses and scores all 2^m − 1 masks per frame;
// online strategies (MES / MES-B / SW-MES / SGL / RAND / EF) only ever
// read the subset lattice of the mask they selected, so an eager build
// does exponentially more fusion work than the run observes. This source
// runs a frame's detectors on first access and materializes a mask's
// ⟨est_ap, true_ap, cost, overhead⟩ cell on first read, memoized per
// (frame, mask); repeated reads — subset updates, window replays, oracle
// probes — are free.
//
// Memory model: one FrameEvalContext (the per-model detections,
// ground-truth indexes, SoA store and scratch of Alg. 1 lines 9–10) lives
// as long as the evaluator and holds the frame being evaluated. Touching
// another frame reloads it in place, reusing its buffers, so a touched
// frame costs the detector lists plus its record's four blocks and no
// other heap allocation. What each touched frame keeps is its memo plus
// the scalars Stats() returns, so a long run holds a few small blocks per
// frame, not a whole detector context. The engine never reads a frame
// again after stepping past it, so single-pass runs never need an evicted
// frame back; an Eval or FusedOutput that does (an unmemoised mask on an
// earlier frame) reloads it deterministically and counts it in
// frames_rebuilt().
//
// The memo caches this evaluator's own reads and is never snapshotted: a
// run restored from a checkpoint or migration payload only reads frames
// it has not stepped past yet.
//
// True AP on demand: most cells are read only for what strategies observe
// (est_ap and cost — the engine's strict-subset lattice reads), while
// true_ap is read for one cell per detect frame, by the regret scan and
// by oracle readers (OPT, SGL's calibration). EvalEstimate therefore
// materializes an estimate-only cell, skipping the ground-truth matching
// and storing true_ap as NaN; Eval materializes a full cell, and a full
// read of an estimate-only cell upgrades it (fusing it again, since the
// memo keeps no boxes).
//
// All evaluation goes through the same FrameEvalContext kernel as the
// eager build (WBF over the frame's SoA store), so every materialized
// cell is bit-identical to the corresponding FrameMatrix entry. The cost
// normalizer max_S c_{S|v} needs no lattice scan: it is the full pool's
// cost, computable from the frame's box counts alone (see
// FrameEvalContext::FullEnsembleCostMs).

#ifndef VQE_CORE_LAZY_FRAME_EVALUATOR_H_
#define VQE_CORE_LAZY_FRAME_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/evaluation_source.h"
#include "core/frame_eval.h"
#include "models/model_zoo.h"
#include "sim/video.h"

namespace vqe {

/// Lazy evaluation source over a sampled video. Owns the video; `pool`
/// must outlive the evaluator. Not thread-safe (the engine drives
/// strategies serially); distinct evaluators are independent.
class LazyFrameEvaluator final : public EvaluationSource {
 public:
  /// Validates exactly like BuildFrameMatrix (non-empty pool within
  /// kMaxPoolSize, reference model present, options ranges) but runs no
  /// detector: all work is deferred to first access.
  static Result<std::unique_ptr<LazyFrameEvaluator>> Create(
      Video video, const DetectorPool& pool, uint64_t trial_seed,
      const MatrixOptions& options = {});

  int num_models() const override {
    return static_cast<int>(pool_->detectors.size());
  }
  size_t num_frames() const override { return video_.size(); }

  /// Served from the frame's recorded scalars once it was touched; the
  /// returned pointers stay valid for the evaluator's lifetime.
  FrameStats Stats(size_t t) override;
  /// A full cell, upgrading an estimate-only one.
  MaskEvaluation Eval(size_t t, EnsembleId mask) override;
  /// Any memoized cell as is (true_ap NaN if estimate-only); otherwise an
  /// estimate-only cell.
  MaskEvaluation EvalEstimate(size_t t, EnsembleId mask) override;
  /// Always nullptr: a true-score Pareto frontier requires the full
  /// lattice. Engine runs that need regret either use the eager matrix or
  /// accept the exhaustive (lattice-materializing) fallback.
  const std::vector<EnsembleId>* TrueFrontier(size_t) override {
    return nullptr;
  }

  /// Reads the sampled video's metadata — never touches the frame. This
  /// is what lets a skip-gated run decide a frame's fate for the cost of
  /// one byte read: the detectors only run if the gate says detect.
  SceneContext PeekContext(size_t t) override {
    return video_.frames[t].context;
  }

  /// The lazy source owns the video (ground truth included), so it can
  /// always score propagated boxes and extract fused outputs.
  bool SupportsPropagation() const override { return true; }

  /// Scores against the frame's ground truth directly from the owned
  /// video (its index rebuilt in a reused buffer); runs no detector and
  /// does not materialize the frame.
  Result<double> ScorePropagated(size_t t,
                                 const DetectionList& dets) override;

  /// Fuses `mask` on the frame's live context into a reused buffer,
  /// scoring nothing and bypassing the memo counters: the boxes, not the
  /// scalars, are the product here. The engine calls it right after
  /// evaluating the frame's lattice, so the context is live; an evicted
  /// frame is rebuilt.
  const DetectionList* FusedOutput(size_t t, EnsembleId mask) override;

  const Video& video() const { return video_; }

  /// Instrumentation: frames whose detectors have run.
  size_t frames_touched() const { return frames_touched_; }
  /// Contexts built for frames already counted in frames_touched(): reads
  /// that needed an evicted frame's detections again. Zero for
  /// single-pass runs, restored ones included, bar one by design: a
  /// skip-gated SGL run rebuilds each detect frame for its fused output,
  /// because its calibration touched every frame first.
  size_t frames_rebuilt() const { return frames_rebuilt_; }
  /// Distinct (frame, mask) cells fused and scored, estimate-only or
  /// full: each cell's first read, by Eval or EvalEstimate. An eager build
  /// does num_frames() · num_ensembles() of these; the gap is the work
  /// lazy evaluation skipped.
  uint64_t masks_materialized() const { return masks_materialized_; }
  /// Every later read of a materialized cell, upgrades included, so
  /// masks_materialized() + memo_hits() counts reads and neither depends
  /// on which reads were estimate-only.
  uint64_t memo_hits() const { return memo_hits_; }
  /// The memo hits that fused again: Eval reads of an estimate-only cell
  /// (each upgrades it to full). Zero when full and estimate reads of a
  /// cell never mix, as in a single engine run.
  uint64_t cells_upgraded() const { return cells_upgraded_; }

 private:
  LazyFrameEvaluator(Video video, const DetectorPool& pool,
                     uint64_t trial_seed, const MatrixOptions& options);

  /// Memo state of one cell.
  enum CellState : uint8_t { kUnread = 0, kEstimate = 1, kFull = 2 };

  /// What a touched frame keeps after its context is gone. The memo is
  /// allocated, and the Stats() scalars recorded, on first touch, so an
  /// empty memo means "never touched".
  struct FrameRecord {
    /// Memo indexed by mask (index 0 unused).
    std::vector<MaskEvaluation> memo;
    std::vector<CellState> state;
    /// Stats() scalars.
    std::vector<double> model_cost_ms;
    std::vector<double> model_fault_ms;
    double ref_cost_ms = 0.0;
    double max_cost_ms = 0.0;
    EnsembleId available_mask = 0;
  };

  /// Frame t's detector context, building it (and evicting the previous
  /// frame's) unless it is the live one.
  FrameEvalContext& LiveContext(size_t t);

  /// Eval (`full`) or EvalEstimate through the memo.
  MaskEvaluation Read(size_t t, EnsembleId mask, bool full);

  Video video_;
  const DetectorPool* pool_;
  uint64_t trial_seed_;
  MatrixOptions options_;
  std::vector<FrameRecord> frames_;
  /// The one context, reloaded in place for each frame read, and the
  /// frame it holds (kNoFrame before the first).
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);
  FrameEvalContext live_;
  size_t live_t_ = kNoFrame;
  /// ScorePropagated's ground-truth index, rebuilt in place per call.
  GroundTruthIndex propagated_index_;
  size_t frames_touched_ = 0;
  size_t frames_rebuilt_ = 0;
  uint64_t masks_materialized_ = 0;
  uint64_t memo_hits_ = 0;
  uint64_t cells_upgraded_ = 0;
  /// Reused FusedOutput buffer (valid until the next call).
  DetectionList fused_buf_;
};

}  // namespace vqe

#endif  // VQE_CORE_LAZY_FRAME_EVALUATOR_H_
