#include "core/lazy_frame_evaluator.h"

#include <utility>

namespace vqe {

Result<std::unique_ptr<LazyFrameEvaluator>> LazyFrameEvaluator::Create(
    Video video, const DetectorPool& pool, uint64_t trial_seed,
    const MatrixOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  if (pool.detectors.empty()) {
    return Status::InvalidArgument("detector pool is empty");
  }
  if (pool.detectors.size() > static_cast<size_t>(kMaxPoolSize)) {
    return Status::InvalidArgument("detector pool exceeds kMaxPoolSize");
  }
  if (pool.reference == nullptr) {
    return Status::InvalidArgument("pool has no reference model");
  }
  return std::unique_ptr<LazyFrameEvaluator>(
      new LazyFrameEvaluator(std::move(video), pool, trial_seed, options));
}

LazyFrameEvaluator::LazyFrameEvaluator(Video video, const DetectorPool& pool,
                                       uint64_t trial_seed,
                                       const MatrixOptions& options)
    : video_(std::move(video)),
      pool_(&pool),
      trial_seed_(trial_seed),
      options_(options),
      live_(pool, trial_seed, options_) {
  frames_.resize(video_.size());
}

FrameEvalContext& LazyFrameEvaluator::LiveContext(size_t t) {
  if (live_t_ == t) return live_;
  // Reloading re-targets the one context in place, so exactly one frame's
  // detections are ever held. A frame with a memo was touched and evicted
  // before, and reloading it is deterministic.
  live_.Load(video_.frames[t]);
  live_t_ = t;
  FrameRecord& rec = frames_[t];
  if (!rec.memo.empty()) {
    ++frames_rebuilt_;
    return live_;
  }
  const uint32_t num_masks = num_ensembles();
  rec.memo.resize(num_masks + 1);
  rec.state.assign(num_masks + 1, kUnread);
  rec.model_cost_ms = live_.model_cost_ms();
  rec.model_fault_ms = live_.model_fault_ms();
  rec.ref_cost_ms = live_.ref_cost_ms();
  rec.max_cost_ms = live_.FullEnsembleCostMs();
  rec.available_mask = live_.available_mask();
  ++frames_touched_;
  return live_;
}

FrameStats LazyFrameEvaluator::Stats(size_t t) {
  FrameRecord& rec = frames_[t];
  if (rec.memo.empty()) LiveContext(t);
  FrameStats stats;
  stats.context = video_.frames[t].context;
  stats.model_cost_ms = &rec.model_cost_ms;
  stats.ref_cost_ms = rec.ref_cost_ms;
  stats.max_cost_ms = rec.max_cost_ms;
  stats.available_mask = rec.available_mask;
  stats.model_fault_ms = &rec.model_fault_ms;
  return stats;
}

MaskEvaluation LazyFrameEvaluator::Eval(size_t t, EnsembleId mask) {
  return Read(t, mask, /*full=*/true);
}

MaskEvaluation LazyFrameEvaluator::EvalEstimate(size_t t, EnsembleId mask) {
  return Read(t, mask, /*full=*/false);
}

MaskEvaluation LazyFrameEvaluator::Read(size_t t, EnsembleId mask,
                                        bool full) {
  // Cells that already hold what the read needs are served straight from
  // the memo — including cells of evicted frames, which have no context.
  FrameRecord& rec = frames_[t];
  const CellState state = rec.memo.empty() ? kUnread : rec.state[mask];
  if (state == kFull || (state == kEstimate && !full)) {
    ++memo_hits_;
    return rec.memo[mask];
  }
  const MaskEvaluation e = LiveContext(t).Evaluate(mask, full);
  rec.memo[mask] = e;
  rec.state[mask] = full ? kFull : kEstimate;
  if (state == kUnread) {
    ++masks_materialized_;
  } else {
    ++memo_hits_;
    ++cells_upgraded_;
  }
  return e;
}

Result<double> LazyFrameEvaluator::ScorePropagated(size_t t,
                                                   const DetectionList& dets) {
  RebuildGroundTruthIndex(video_.frames[t].objects, &propagated_index_);
  return FrameMeanAp(dets, propagated_index_);
}

const DetectionList* LazyFrameEvaluator::FusedOutput(size_t t,
                                                     EnsembleId mask) {
  // The scalar cell may already be memoized (the engine evaluates the
  // realized mask's subset lattice first); the mask is fused again
  // regardless because the memo keeps no boxes. One extra fusion per
  // detect frame, dwarfed by the m detector calls the frame already paid.
  LiveContext(t).Fuse(mask, &fused_buf_);
  return &fused_buf_;
}

}  // namespace vqe
