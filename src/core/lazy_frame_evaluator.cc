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
  VQE_ASSIGN_OR_RETURN(auto fusion,
                       CreateEnsembleMethod(options.fusion,
                                            options.fusion_options));
  return std::unique_ptr<LazyFrameEvaluator>(new LazyFrameEvaluator(
      std::move(video), pool, trial_seed, options, std::move(fusion)));
}

LazyFrameEvaluator::LazyFrameEvaluator(Video video, const DetectorPool& pool,
                                       uint64_t trial_seed,
                                       const MatrixOptions& options,
                                       std::unique_ptr<EnsembleMethod> fusion)
    : video_(std::move(video)),
      pool_(&pool),
      trial_seed_(trial_seed),
      options_(options),
      fusion_(std::move(fusion)) {
  frames_.resize(video_.size());
}

FrameEvalContext& LazyFrameEvaluator::LiveContext(size_t t) {
  if (live_.has_value() && live_t_ == t) return *live_;
  // emplace destroys the previous frame's context before building this
  // one, so at most one is ever alive. A frame with a memo was touched
  // before — evicted, or restored from a snapshot — and rebuilding it is
  // deterministic.
  live_.emplace(video_.frames[t], *pool_, trial_seed_, options_, *fusion_);
  live_t_ = t;
  FrameRecord& rec = frames_[t];
  if (rec.memo.empty()) {
    const uint32_t num_masks = num_ensembles();
    rec.memo.resize(num_masks + 1);
    rec.known.assign(num_masks + 1, 0);
    ++frames_touched_;
  } else {
    ++frames_rebuilt_;
  }
  if (!rec.has_stats) {
    rec.has_stats = true;
    rec.model_cost_ms = live_->model_cost_ms();
    rec.model_fault_ms = live_->model_fault_ms();
    rec.ref_cost_ms = live_->ref_cost_ms();
    rec.max_cost_ms = live_->FullEnsembleCostMs();
    rec.available_mask = live_->available_mask();
  }
  return *live_;
}

FrameStats LazyFrameEvaluator::Stats(size_t t) {
  FrameRecord& rec = frames_[t];
  if (!rec.has_stats) LiveContext(t);
  FrameStats stats;
  stats.context = video_.frames[t].context;
  stats.model_cost_ms = &rec.model_cost_ms;
  stats.ref_cost_ms = rec.ref_cost_ms;
  stats.max_cost_ms = rec.max_cost_ms;
  stats.available_mask = rec.available_mask;
  stats.model_fault_ms = &rec.model_fault_ms;
  stats.fault_aware = true;
  return stats;
}

MaskEvaluation LazyFrameEvaluator::Eval(size_t t, EnsembleId mask) {
  // Known cells are served straight from the memo — including cells of
  // evicted and snapshot-restored frames, which have no context.
  FrameRecord& rec = frames_[t];
  if (!rec.memo.empty() && rec.known[mask]) {
    ++memo_hits_;
    return rec.memo[mask];
  }
  const MaskEvaluation e = LiveContext(t).Evaluate(mask);
  rec.memo[mask] = e;
  rec.known[mask] = 1;
  ++masks_materialized_;
  return e;
}

Result<double> LazyFrameEvaluator::ScorePropagated(size_t t,
                                                   const DetectionList& dets) {
  const GroundTruthIndex index =
      BuildGroundTruthIndex(video_.frames[t].objects);
  return FrameMeanAp(dets, index, options_.ap);
}

const DetectionList* LazyFrameEvaluator::FusedOutput(size_t t,
                                                     EnsembleId mask) {
  // The scalar cell may already be memoized (the engine evaluates the
  // realized mask's subset lattice first); Evaluate is re-run regardless
  // because the memo keeps no boxes. One extra fusion per detect frame,
  // dwarfed by the m detector calls the frame already paid.
  LiveContext(t).Evaluate(mask, &fused_buf_);
  return &fused_buf_;
}

Status LazyFrameEvaluator::SaveState(ByteWriter& writer) const {
  writer.U64(frames_touched_);
  writer.U64(masks_materialized_);
  writer.U64(memo_hits_);
  uint64_t populated = 0;
  for (const FrameRecord& rec : frames_) {
    if (!rec.memo.empty()) ++populated;
  }
  writer.U64(populated);
  for (size_t t = 0; t < frames_.size(); ++t) {
    const FrameRecord& rec = frames_[t];
    if (rec.memo.empty()) continue;
    writer.U64(t);
    writer.F64(rec.max_cost_ms);
    uint64_t known = 0;
    for (uint8_t k : rec.known) known += k;
    writer.U64(known);
    for (uint32_t mask = 1; mask < rec.known.size(); ++mask) {
      if (!rec.known[mask]) continue;
      const MaskEvaluation& e = rec.memo[mask];
      writer.U32(mask);
      writer.F64(e.est_ap);
      writer.F64(e.true_ap);
      writer.F64(e.cost_ms);
      writer.F64(e.fusion_overhead_ms);
    }
  }
  return Status::OK();
}

Status LazyFrameEvaluator::RestoreState(ByteReader& reader) {
  uint64_t frames_touched = 0, masks_materialized = 0, memo_hits = 0, populated = 0;
  VQE_RETURN_NOT_OK(reader.U64(&frames_touched));
  VQE_RETURN_NOT_OK(reader.U64(&masks_materialized));
  VQE_RETURN_NOT_OK(reader.U64(&memo_hits));
  VQE_RETURN_NOT_OK(reader.U64(&populated));
  if (populated > frames_.size()) {
    return Status::DataLoss("lazy memo frame count exceeds video length");
  }
  const uint32_t num_masks = num_ensembles();
  std::vector<FrameRecord> frames(frames_.size());
  for (uint64_t i = 0; i < populated; ++i) {
    uint64_t t = 0, known = 0;
    double max_cost_ms = 0;
    VQE_RETURN_NOT_OK(reader.U64(&t));
    VQE_RETURN_NOT_OK(reader.F64(&max_cost_ms));
    VQE_RETURN_NOT_OK(reader.U64(&known));
    if (t >= frames.size()) {
      return Status::DataLoss("lazy memo frame index out of range");
    }
    FrameRecord& rec = frames[t];
    if (!rec.memo.empty()) {
      return Status::DataLoss("duplicate lazy memo frame");
    }
    if (known > num_masks) {
      return Status::DataLoss("lazy memo known-mask count out of range");
    }
    rec.max_cost_ms = max_cost_ms;
    rec.memo.resize(num_masks + 1);
    rec.known.assign(num_masks + 1, 0);
    for (uint64_t k = 0; k < known; ++k) {
      uint32_t mask = 0;
      MaskEvaluation e;
      VQE_RETURN_NOT_OK(reader.U32(&mask));
      VQE_RETURN_NOT_OK(reader.F64(&e.est_ap));
      VQE_RETURN_NOT_OK(reader.F64(&e.true_ap));
      VQE_RETURN_NOT_OK(reader.F64(&e.cost_ms));
      VQE_RETURN_NOT_OK(reader.F64(&e.fusion_overhead_ms));
      if (mask == 0 || mask > num_masks) {
        return Status::DataLoss("lazy memo mask out of range");
      }
      if (rec.known[mask]) {
        return Status::DataLoss("duplicate lazy memo mask");
      }
      rec.memo[mask] = e;
      rec.known[mask] = 1;
    }
  }
  // The live context's frame may now lack its Stats() scalars; drop it so
  // the next read rebuilds and records them.
  frames_ = std::move(frames);
  live_.reset();
  frames_touched_ = static_cast<size_t>(frames_touched);
  masks_materialized_ = masks_materialized;
  memo_hits_ = memo_hits;
  return Status::OK();
}

}  // namespace vqe
