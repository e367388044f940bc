#include "core/engine_snapshot.h"

namespace vqe {

void WriteTimeBreakdown(ByteWriter& w, const TimeBreakdown& tb) {
  w.F64(tb.detector_ms);
  w.F64(tb.reference_ms);
  w.F64(tb.ensembling_ms);
  w.F64(tb.fault_ms);
  w.F64(tb.tracker_ms);
  w.F64(tb.algorithm_ms);
}

Status ReadTimeBreakdown(ByteReader& r, TimeBreakdown* tb) {
  VQE_RETURN_NOT_OK(r.F64(&tb->detector_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->reference_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->ensembling_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->fault_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->tracker_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->algorithm_ms));
  return Status::OK();
}

void WriteRunResult(ByteWriter& w, const RunResult& result) {
  w.F64(result.s_sum);
  w.F64(result.avg_true_ap);
  w.F64(result.avg_norm_cost);
  w.U64(result.frames_processed);
  w.F64(result.regret);
  w.Bool(result.regret_available);
  w.F64(result.charged_cost_ms);
  WriteTimeBreakdown(w, result.breakdown);
  WriteVecU64(w, result.selection_counts);
  w.U64(result.cost_curve.size());
  for (const auto& [iter, cost] : result.cost_curve) {
    w.U64(iter);
    w.F64(cost);
  }
  w.U64(result.model_availability.size());
  for (const auto& health : result.model_availability) {
    w.U64(health.frames_selected);
    w.U64(health.frames_failed);
    w.U64(health.breaker_opens);
    w.F64(health.fault_ms);
  }
  w.U64(result.fallback_frames);
  w.U64(result.failed_frames);
  w.U64(result.skip.skipped_frames);
  w.U64(result.skip.detect_frames);
  w.U64(result.skip.forced_detects);
  w.F64(result.skip.propagated_ap_sum);
}

Status ReadRunResult(ByteReader& r, RunResult* result) {
  uint64_t frames_processed = 0;
  VQE_RETURN_NOT_OK(r.F64(&result->s_sum));
  VQE_RETURN_NOT_OK(r.F64(&result->avg_true_ap));
  VQE_RETURN_NOT_OK(r.F64(&result->avg_norm_cost));
  VQE_RETURN_NOT_OK(r.U64(&frames_processed));
  VQE_RETURN_NOT_OK(r.F64(&result->regret));
  VQE_RETURN_NOT_OK(r.Bool(&result->regret_available));
  VQE_RETURN_NOT_OK(r.F64(&result->charged_cost_ms));
  VQE_RETURN_NOT_OK(ReadTimeBreakdown(r, &result->breakdown));
  VQE_RETURN_NOT_OK(ReadVecU64(r, &result->selection_counts));
  uint64_t curve_len = 0;
  VQE_RETURN_NOT_OK(r.U64(&curve_len));
  if (curve_len > r.remaining() / 16) {
    return Status::DataLoss("cost-curve length exceeds payload");
  }
  result->cost_curve.clear();
  result->cost_curve.reserve(static_cast<size_t>(curve_len));
  for (uint64_t i = 0; i < curve_len; ++i) {
    uint64_t iter = 0;
    double cost = 0;
    VQE_RETURN_NOT_OK(r.U64(&iter));
    VQE_RETURN_NOT_OK(r.F64(&cost));
    result->cost_curve.emplace_back(static_cast<size_t>(iter), cost);
  }
  uint64_t num_models = 0;
  VQE_RETURN_NOT_OK(r.U64(&num_models));
  if (num_models > static_cast<uint64_t>(kMaxPoolSize)) {
    return Status::DataLoss("model-availability count out of range");
  }
  result->model_availability.clear();
  result->model_availability.reserve(static_cast<size_t>(num_models));
  for (uint64_t i = 0; i < num_models; ++i) {
    RunResult::ModelAvailability health;
    VQE_RETURN_NOT_OK(r.U64(&health.frames_selected));
    VQE_RETURN_NOT_OK(r.U64(&health.frames_failed));
    VQE_RETURN_NOT_OK(r.U64(&health.breaker_opens));
    VQE_RETURN_NOT_OK(r.F64(&health.fault_ms));
    result->model_availability.push_back(health);
  }
  VQE_RETURN_NOT_OK(r.U64(&result->fallback_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->failed_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->skip.skipped_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->skip.detect_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->skip.forced_detects));
  VQE_RETURN_NOT_OK(r.F64(&result->skip.propagated_ap_sum));
  result->frames_processed = static_cast<size_t>(frames_processed);
  return Status::OK();
}

}  // namespace vqe
