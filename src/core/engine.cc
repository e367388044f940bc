#include "core/engine.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "common/stopwatch.h"
#include "core/engine_snapshot.h"
#include "snapshot/snapshot.h"

namespace vqe {

namespace {

/// Adds a finished run's totals to the `vqe_engine_*` counters: the
/// registry's only writer of them. Names are registry-global, so the
/// simulated-domain values are a pure function of the seeded work,
/// identical at any worker or shard count.
void PublishRunResult(MetricsRegistry& reg, const RunResult& result) {
  const MetricDomain sim = MetricDomain::kSimulated;
  const MetricDomain wall = MetricDomain::kWall;
  const TimeBreakdown& tb = result.breakdown;
  uint64_t model_failures = 0;
  uint64_t breaker_opens = 0;
  for (const RunResult::ModelAvailability& health :
       result.model_availability) {
    model_failures += health.frames_failed;
    breaker_opens += health.breaker_opens;
  }
  reg.Publish("vqe_engine_frames_total", sim, result.frames_processed,
              "Frames processed (detect + skip paths)");
  reg.Publish("vqe_engine_frames_skipped_total", sim,
              result.skip.skipped_frames,
              "Frames answered from tracker propagation");
  reg.Publish("vqe_engine_frames_fallback_total", sim,
              result.fallback_frames,
              "Frames completed on a strict sub-mask after member faults");
  reg.Publish("vqe_engine_frames_failed_total", sim, result.failed_frames,
              "Frames where every selected member failed");
  reg.PublishMs("vqe_engine_detector_ms_total", sim, tb.detector_ms,
                "Simulated camera-detector inference time");
  reg.PublishMs("vqe_engine_reference_ms_total", sim, tb.reference_ms,
                "Simulated reference (LiDAR) inference time");
  reg.PublishMs("vqe_engine_ensembling_ms_total", sim, tb.ensembling_ms,
                "Simulated box-fusion overhead");
  reg.PublishMs("vqe_engine_fault_ms_total", sim, tb.fault_ms,
                "Simulated time wasted on faults (failed calls, retries, "
                "backoff)");
  reg.PublishMs("vqe_engine_tracker_ms_total", sim, tb.tracker_ms,
                "Simulated tracker time of the temporal fast path");
  reg.PublishMs("vqe_engine_charged_cost_ms_total", sim,
                result.charged_cost_ms,
                "Total budget-accountable simulated cost");
  reg.Publish("vqe_engine_model_call_failures_total", sim, model_failures,
              "Selected-member calls that failed after retries");
  reg.Publish("vqe_engine_breaker_opens_total", sim, breaker_opens,
              "Circuit-breaker open transitions");
  reg.PublishMs("vqe_engine_algorithm_ms_total", wall, tb.algorithm_ms,
                "Wall-clock spent in strategy Select/Observe");
  reg.Publish("vqe_engine_checkpoint_writes_total", sim,
              result.checkpoint.snapshots_written,
              "Checkpoint generations written");
  reg.PublishMs("vqe_engine_checkpoint_write_ms_total", wall,
                result.checkpoint.checkpoint_write_ms,
                "Wall-clock spent serializing + durably writing snapshots");
}

}  // namespace

Status EngineOptions::Validate() const {
  VQE_RETURN_NOT_OK(sc.Validate());
  if (budget_ms < 0.0) {
    return Status::InvalidArgument("budget_ms must be >= 0");
  }
  VQE_RETURN_NOT_OK(checkpoint.Validate());
  VQE_RETURN_NOT_OK(skip.Validate());
  return breaker.Validate();
}

EngineRun::EngineRun(EvaluationSource& source, SelectionStrategy* strategy,
                     const EngineOptions& options)
    : source_(&source),
      strategy_(strategy),
      options_(options),
      num_masks_(source.num_ensembles()),
      num_frames_(source.num_frames()),
      m_(source.num_models()),
      full_(FullEnsemble(source.num_models())),
      oracle_(&source, options.sc),
      breakers_(static_cast<size_t>(source.num_models()),
                CircuitBreaker(options.breaker)),
      est_score_(num_masks_ + 1),
      norm_cost_(num_masks_ + 1) {}

Result<std::unique_ptr<EngineRun>> EngineRun::Create(
    EvaluationSource& source, SelectionStrategy* strategy,
    const EngineOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  if (strategy == nullptr) {
    return Status::InvalidArgument("strategy is null");
  }
  if (source.num_models() < 1 || source.num_models() > kMaxPoolSize) {
    return Status::InvalidArgument("source has invalid num_models");
  }
  std::unique_ptr<EngineRun> run(new EngineRun(source, strategy, options));
  if (options.skip.enabled()) {
    if (!source.SupportsPropagation()) {
      return Status::InvalidArgument(
          "skip-enabled run needs a source with temporal propagation "
          "support (LazyFrameEvaluator; an eager FrameMatrix has none)");
    }
    VQE_ASSIGN_OR_RETURN(run->gate_, TemporalGate::Create(options.skip));
  }
  VQE_RETURN_NOT_OK(run->Init());
  return run;
}

Status EngineRun::Init() {
  StrategyContext ctx;
  ctx.num_models = m_;
  ctx.num_frames = num_frames_;
  ctx.sc = options_.sc;
  ctx.seed = options_.strategy_seed;
  ctx.oracle = &oracle_;
  {
    ScopedTimer timer(&algo_time_);
    strategy_->BeginVideo(ctx);
  }

  result_.regret_available = options_.compute_regret;
  result_.selection_counts.assign(num_masks_ + 1, 0);
  result_.model_availability.assign(static_cast<size_t>(m_), {});

  // Checkpointing: fingerprint this configuration, then try to resume from
  // the newest good generation. A missing directory or no snapshots means a
  // fresh start; a snapshot from a *different* configuration is an error
  // (resuming it would silently change results).
  identity_.Str("strategy", strategy_->name())
      .U64("num_models", m_)
      .U64("num_frames", num_frames_)
      .U64("strategy_seed", options_.strategy_seed)
      .F64("budget_ms", options_.budget_ms)
      .F64("sc.w1", options_.sc.w1)
      .F64("sc.w2", options_.sc.w2)
      .U64("sc.form", static_cast<uint64_t>(options_.sc.form))
      .U64("compute_regret", options_.compute_regret)
      .U64("record_cost_curve", options_.record_cost_curve)
      .U64("breaker.failure_threshold", options_.breaker.failure_threshold)
      .U64("breaker.open_frames", options_.breaker.open_frames)
      .U64("breaker.half_open_probes", options_.breaker.half_open_probes);
  WriteSkipOptionsIdentity(identity_, options_.skip);

  if (options_.checkpoint.enabled()) {
    ckpt_ = std::make_unique<CheckpointManager>(
        options_.checkpoint.directory, options_.checkpoint.keep_generations);
    Result<CheckpointManager::Loaded> loaded = ckpt_->LoadLatestGood();
    if (loaded.ok()) {
      result_.checkpoint.generations_rejected = loaded->rejected;
      VQE_RETURN_NOT_OK(RestoreFromSnapshot(loaded->snapshot));
      result_.checkpoint.resumed = true;
      result_.checkpoint.resumed_from_frame = next_frame_;
      next_generation_ = loaded->sequence + 1;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  if (options_.obs.enabled()) SetObs(options_.obs);
  return Status::OK();
}

bool EngineRun::done() const {
  if (finished_ || next_frame_ >= num_frames_) return true;
  // Alg. 2 line 6: proceed only while C <= B.
  return options_.budget_ms > 0.0 &&
         result_.charged_cost_ms > options_.budget_ms;
}

Status EngineRun::StepFrame() {
  if (done()) {
    return Status::FailedPrecondition("StepFrame on a finished run");
  }
  const size_t t = next_frame_;

  // Temporal gate first, fed only by the frame's scene-context byte: on a
  // skip the detectors (and, on a lazy source, the frame materialization
  // itself) never run. With the gate disabled this block compiles away to
  // a null check.
  if (gate_ != nullptr && gate_->ShouldSkip(source_->PeekContext(t))) {
    return StepSkippedFrame(t);
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Observability prologue: instrumentation only ever READS run state, so
  // the enabled path stays bit-identical to the disabled one (enforced by
  // the obs_test matrix). All sim-domain spans timestamp on this stream's
  // own charged-cost clock; wall spans on the run's instrumented-wall
  // ledger — both monotone per track by construction.
  const bool obs_on = obs_.enabled();
  const int64_t frame_i64 = static_cast<int64_t>(t);
  const double sim0 = result_.charged_cost_ms;

  // Mask open-breaker models out of the strategy's candidate arms. If
  // everything is open there is no arm left — fall back to the full pool
  // (equivalent to probing everything) rather than selecting nothing.
  EnsembleId healthy = 0;
  for (int i = 0; i < m_; ++i) {
    if (breakers_[static_cast<size_t>(i)].AllowsCallAt(t)) {
      healthy |= Singleton(i);
    }
  }
  if (healthy == 0) healthy = full_;
  // Overload-ladder ensemble shrink: restrict to the degradation mask when
  // it leaves at least one healthy model; an empty intersection means the
  // mask would starve the run, so health wins.
  if (degrade_mask_ != 0) {
    const EnsembleId shrunk = healthy & degrade_mask_;
    if (shrunk != 0) healthy = shrunk;
  }
  strategy_->SetEligibleModels(healthy);

  const double select_algo0 = obs_on ? algo_time_.total_seconds() : 0.0;
  EnsembleId selected;
  {
    ScopedTimer timer(&algo_time_);
    selected = strategy_->Select(t);
  }
  if (obs_on) {
    const double select_ms =
        (algo_time_.total_seconds() - select_algo0) * 1e3;
    obs_.Span(MetricDomain::kWall, frame_i64, "select", wall_ledger_ms_,
              select_ms);
    wall_ledger_ms_ += select_ms;
  }
  if (selected == 0 || selected > num_masks_) {
    return Status::Internal("strategy selected an invalid ensemble mask");
  }

  // Stats after Select so a lazy source only touches processed frames.
  const FrameStats stats = source_->Stats(t);
  // The arm that actually ran: the selected members whose call succeeded.
  const EnsembleId avail = stats.available_mask;
  const EnsembleId realized = selected & avail;

  // Charged cost (Eq. 14; Eq. 12 during full-pool initialization):
  // every selected model once — failed calls included, their time was
  // spent — plus fusion overhead for each realized subset. Wasted time
  // moves from detector_ms to fault_ms; breakers see each member's
  // outcome.
  double frame_cost = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (!ContainsModel(selected, i)) continue;
    const size_t idx = static_cast<size_t>(i);
    const double model_ms = (*stats.model_cost_ms)[idx];
    const double fault_i = (*stats.model_fault_ms)[idx];
    frame_cost += model_ms;
    result_.breakdown.detector_ms += model_ms - fault_i;
    result_.breakdown.fault_ms += fault_i;
    RunResult::ModelAvailability& health = result_.model_availability[idx];
    ++health.frames_selected;
    health.fault_ms += fault_i;
    if (ContainsModel(avail, i)) {
      breakers_[idx].RecordSuccess(t);
    } else {
      ++health.frames_failed;
      const uint64_t opens_before = breakers_[idx].opens();
      breakers_[idx].RecordFailure(t);
      if (breakers_[idx].opens() > opens_before) {
        obs_.Instant(MetricDomain::kSimulated, frame_i64, "breaker_open",
                     sim0, "model", static_cast<double>(i));
      }
    }
  }
  if (obs_on) {
    // The detect phase: every selected member's simulated inference
    // (faulted time included — it was spent on this frame).
    obs_.Span(MetricDomain::kSimulated, frame_i64, "detect", sim0,
              frame_cost);
  }

  // One pass over the *realized* arm's subset lattice: accumulate fusion
  // overhead and publish estimated rewards (information protocol — NaN
  // for masks whose outputs do not exist, including every mask touching
  // a failed member). ForEachSubset visits the realized mask first, so
  // its own evaluation is captured on the way. Only the realized mask's
  // true AP is measured, so strict subsets are estimate reads — unless
  // the regret scan is about to read every true AP of the frame, when a
  // full read now keeps any cell from being fused twice.
  const double inv_max =
      stats.max_cost_ms > 0.0 ? 1.0 / stats.max_cost_ms : 0.0;
  est_score_.assign(num_masks_ + 1, nan);
  norm_cost_.assign(num_masks_ + 1, nan);
  double overhead = 0.0;
  MaskEvaluation sel_eval;
  if (realized != 0) {
    ForEachSubset(realized, [&](EnsembleId sub) {
      const MaskEvaluation e = sub == realized || options_.compute_regret
                                   ? source_->Eval(t, sub)
                                   : source_->EvalEstimate(t, sub);
      if (sub == realized) sel_eval = e;
      overhead += e.fusion_overhead_ms;
      norm_cost_[sub] = e.cost_ms * inv_max;
      est_score_[sub] = options_.sc.Score(e.est_ap, norm_cost_[sub]);
    });
  }
  if (obs_on) {
    obs_.Span(MetricDomain::kSimulated, frame_i64, "fuse_eval",
              sim0 + frame_cost, overhead, "lattice_masks",
              realized != 0
                  ? static_cast<double>((1u << EnsembleSize(realized)) - 1)
                  : 0.0);
  }
  frame_cost += overhead;
  result_.breakdown.ensembling_ms += overhead;
  result_.charged_cost_ms += frame_cost;
  if (realized == 0) {
    ++result_.failed_frames;
  } else if (realized != selected) {
    ++result_.fallback_frames;
  }

  if (strategy_->UsesReferenceModel()) {
    result_.breakdown.reference_ms += stats.ref_cost_ms;
  }

  if (realized != 0) {
    FrameFeedback feedback;
    feedback.t = t;
    feedback.selected = selected;
    feedback.realized = realized;
    feedback.est_score = &est_score_;
    feedback.norm_cost = &norm_cost_;
    const double observe_algo0 = obs_on ? algo_time_.total_seconds() : 0.0;
    {
      ScopedTimer timer(&algo_time_);
      strategy_->Observe(feedback);
    }
    if (obs_on) {
      const double observe_ms =
          (algo_time_.total_seconds() - observe_algo0) * 1e3;
      obs_.Span(MetricDomain::kWall, frame_i64, "observe", wall_ledger_ms_,
                observe_ms);
      wall_ledger_ms_ += observe_ms;
    }
  }

  // Detect-frame gate ingest: the realized mask's fused boxes drive the
  // tracker, close the open skip episode (bandit feedback) and plan the
  // next one. Tracker upkeep on detect frames is charged to the ledger
  // like fusion overhead is — the fast path's bookkeeping is not free.
  if (gate_ != nullptr) {
    const DetectionList* fused =
        realized != 0 ? source_->FusedOutput(t, realized) : nullptr;
    gate_->ObserveDetections(fused != nullptr ? *fused : no_detections_,
                             static_cast<int64_t>(t));
    const double tracker_ms =
        SimulatedTrackerCostMs(fused != nullptr ? fused->size() : 0);
    result_.charged_cost_ms += tracker_ms;
    result_.breakdown.tracker_ms += tracker_ms;
    ++result_.skip.detect_frames;
    result_.skip.forced_detects = gate_->forced_detects();
    last_max_cost_ms_ = stats.max_cost_ms;
    obs_.Span(MetricDomain::kSimulated, frame_i64, "tracker",
              result_.charged_cost_ms - tracker_ms, tracker_ms);
  }

  // Measurements (true scores; §5.5). A fully failed frame produced no
  // output: its true score and AP are zero by definition, not
  // Score(0, 0) (which would credit the cost term).
  const double sel_norm_cost =
      realized != 0 ? sel_eval.cost_ms * inv_max : 0.0;
  const double sel_true =
      realized != 0 ? options_.sc.Score(sel_eval.true_ap, sel_norm_cost)
                    : 0.0;
  if (options_.compute_regret) {
    result_.regret += BestTrueScore(t, inv_max) - sel_true;
  }
  result_.s_sum += sel_true;
  result_.avg_true_ap += sel_eval.true_ap;
  result_.avg_norm_cost += sel_norm_cost;
  ++result_.selection_counts[selected];
  ++result_.frames_processed;
  if (options_.record_cost_curve) {
    result_.cost_curve.emplace_back(result_.frames_processed,
                                    result_.charged_cost_ms);
  }
  obs_.Observe(obs_ids_.frame_cost_hist, result_.charged_cost_ms - sim0);
  ++frames_this_invocation_;
  next_frame_ = t + 1;
  return FrameEpilogue(t);
}

Status EngineRun::StepSkippedFrame(size_t t) {
  // Coast the confirmed tracks one frame and serve them as this frame's
  // output. The ledger is charged only simulated tracker time — that is
  // the entire point of the fast path.
  const DetectionList& propagated = gate_->Propagate();
  const double tracker_ms = SimulatedTrackerCostMs(propagated.size());
  VQE_ASSIGN_OR_RETURN(const double true_ap,
                       source_->ScorePropagated(t, propagated));

  // Normalized cost against the LAST detect frame's normalizer: reading
  // this frame's own max_S c_{S|v} would materialize its detectors on a
  // lazy source. The two are within simulator noise of each other, and
  // the ĉ semantics ("share of the frame's priciest ensemble") carry over.
  const double norm_cost =
      last_max_cost_ms_ > 0.0 ? tracker_ms / last_max_cost_ms_ : 0.0;
  const double sel_true = options_.sc.Score(true_ap, norm_cost);

  result_.charged_cost_ms += tracker_ms;
  result_.breakdown.tracker_ms += tracker_ms;
  if (options_.compute_regret) {
    // Regret keeps honest books on skipped frames too: the baseline is
    // still the best detect-path ensemble. This reads Stats/Eval — full
    // materialization on a lazy source — mirroring the detect path's
    // "regret defeats laziness" caveat.
    const FrameStats stats = source_->Stats(t);
    const double inv_max =
        stats.max_cost_ms > 0.0 ? 1.0 / stats.max_cost_ms : 0.0;
    result_.regret += BestTrueScore(t, inv_max) - sel_true;
  }
  result_.s_sum += sel_true;
  result_.avg_true_ap += true_ap;
  result_.avg_norm_cost += norm_cost;
  ++result_.frames_processed;
  ++result_.skip.skipped_frames;
  result_.skip.propagated_ap_sum += true_ap;
  // The skip path charges only tracker time; its span starts where the
  // stream's sim clock stood before this frame.
  obs_.Observe(obs_ids_.frame_cost_hist, tracker_ms);
  obs_.Span(MetricDomain::kSimulated, static_cast<int64_t>(t), "tracker",
            result_.charged_cost_ms - tracker_ms, tracker_ms);
  if (options_.record_cost_curve) {
    result_.cost_curve.emplace_back(result_.frames_processed,
                                    result_.charged_cost_ms);
  }
  ++frames_this_invocation_;
  next_frame_ = t + 1;
  return FrameEpilogue(t);
}

void EngineRun::SetDegradation(int skip_boost, EnsembleId model_mask) {
  degrade_mask_ = model_mask & full_;
  if (gate_ != nullptr) gate_->SetSkipBoost(skip_boost);
}

void EngineRun::SetObs(const ObsHandle& obs) {
  obs_ = obs;
  if (obs_.metrics == nullptr) return;
  // The per-frame histogram is the one series the frame loop touches, so
  // its id is cached here; the counters are published by Finish.
  obs_ids_.frame_cost_hist = obs_.metrics->Histogram(
      "vqe_engine_frame_cost_ms", MetricDomain::kSimulated,
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0}, MetricUnit::kMs,
      "Per-frame charged simulated cost");
}

Result<std::vector<uint8_t>> EngineRun::ExportSnapshot() const {
  if (finished_) {
    return Status::FailedPrecondition("ExportSnapshot on a finished run");
  }
  SnapshotWriter snap;
  snap.AddSection(kEngineMetaSection)
      .Bytes(identity_.bytes().data(), identity_.bytes().size());
  snap.AddSection(kEngineCursorSection).U64(next_frame_);
  WriteRunResult(snap.AddSection(kEngineResultSection), result_);
  VQE_RETURN_NOT_OK(strategy_->SaveState(snap.AddSection(kStrategySection)));
  {
    ByteWriter& w = snap.AddSection(kBreakersSection);
    w.U64(breakers_.size());
    for (const CircuitBreaker& b : breakers_) {
      VQE_RETURN_NOT_OK(b.SaveState(w));
    }
  }
  if (gate_ != nullptr) {
    ByteWriter& w = snap.AddSection(kTemporalSection);
    w.F64(last_max_cost_ms_);
    VQE_RETURN_NOT_OK(gate_->SaveState(w));
  }
  return snap.Finish();
}

Status EngineRun::RestoreFromSnapshot(const SnapshotReader& snapshot) {
  if (finished_) {
    return Status::FailedPrecondition("RestoreFromSnapshot on a finished run");
  }
  if (frames_this_invocation_ > 0) {
    return Status::FailedPrecondition(
        "RestoreFromSnapshot requires a freshly created run (this one "
        "already stepped frames)");
  }
  VQE_ASSIGN_OR_RETURN(ByteReader meta, snapshot.Section(kEngineMetaSection));
  VQE_RETURN_NOT_OK(ExpectSameIdentity(meta, identity_));

  VQE_ASSIGN_OR_RETURN(ByteReader cursor,
                       snapshot.Section(kEngineCursorSection));
  uint64_t frame = 0;
  VQE_RETURN_NOT_OK(cursor.U64(&frame));
  // Older builds also wrote the run's wall-clock strategy seconds here;
  // skip them, so their checkpoints and payloads still resume.
  if (cursor.remaining() == sizeof(double)) {
    VQE_RETURN_NOT_OK(cursor.Skip(sizeof(double)));
  }
  VQE_RETURN_NOT_OK(cursor.ExpectEnd());
  if (frame >= num_frames_) {
    return Status::DataLoss("checkpoint cursor beyond end of video");
  }

  VQE_ASSIGN_OR_RETURN(ByteReader res, snapshot.Section(kEngineResultSection));
  RunResult restored;
  VQE_RETURN_NOT_OK(ReadRunResult(res, &restored));
  VQE_RETURN_NOT_OK(res.ExpectEnd());
  if (restored.selection_counts.size() != num_masks_ + 1 ||
      restored.model_availability.size() != static_cast<size_t>(m_)) {
    return Status::DataLoss("checkpoint result shape mismatch");
  }

  VQE_ASSIGN_OR_RETURN(ByteReader strat, snapshot.Section(kStrategySection));
  VQE_RETURN_NOT_OK(strategy_->RestoreState(strat));
  VQE_RETURN_NOT_OK(strat.ExpectEnd());

  VQE_ASSIGN_OR_RETURN(ByteReader brk, snapshot.Section(kBreakersSection));
  uint64_t breaker_count = 0;
  VQE_RETURN_NOT_OK(brk.U64(&breaker_count));
  if (breaker_count != breakers_.size()) {
    return Status::DataLoss("checkpoint breaker count mismatch");
  }
  for (CircuitBreaker& b : breakers_) {
    VQE_RETURN_NOT_OK(b.RestoreState(brk));
  }
  VQE_RETURN_NOT_OK(brk.ExpectEnd());

  if (gate_ != nullptr) {
    // A skip-enabled run whose checkpoint lacks the temporal section
    // cannot resume deterministically: the gate's planned skips, bandit
    // arms and tracks are unrecoverable. (Identity matching already
    // guarantees the section exists for snapshots this build wrote.)
    VQE_ASSIGN_OR_RETURN(ByteReader tmp, snapshot.Section(kTemporalSection));
    VQE_RETURN_NOT_OK(tmp.F64(&last_max_cost_ms_));
    VQE_RETURN_NOT_OK(gate_->RestoreState(tmp));
    VQE_RETURN_NOT_OK(tmp.ExpectEnd());
  }

  restored.checkpoint = result_.checkpoint;  // per-invocation, never restored
  result_ = std::move(restored);
  next_frame_ = static_cast<size_t>(frame);
  return Status::OK();
}

double EngineRun::BestTrueScore(size_t t, double inv_max) {
  // The regret baseline max_S r_{S*|v}: the maximizer of any monotone
  // score lies on the frame's ⟨true_ap, cost⟩ Pareto frontier, so scan
  // only those masks when the source caches one. Sources without a
  // frontier (hand-built matrices, lazy evaluators) fall back to the
  // exhaustive O(2^m) scan — on a lazy source that materializes the
  // whole lattice, which is why compute_regret defaults off for lazy
  // throughput runs.
  double best_true = -std::numeric_limits<double>::infinity();
  const std::vector<EnsembleId>* frontier = source_->TrueFrontier(t);
  if (frontier != nullptr && !frontier->empty()) {
    for (EnsembleId s : *frontier) {
      const MaskEvaluation e = source_->Eval(t, s);
      const double r = options_.sc.Score(e.true_ap, e.cost_ms * inv_max);
      if (r > best_true) best_true = r;
    }
  } else {
    for (EnsembleId s = 1; s <= num_masks_; ++s) {
      const MaskEvaluation e = source_->Eval(t, s);
      const double r = options_.sc.Score(e.true_ap, e.cost_ms * inv_max);
      if (r > best_true) best_true = r;
    }
  }
  return best_true;
}

Status EngineRun::FrameEpilogue(size_t t) {
  // Snapshot the run every `every_frames` frames. Skipped after the last
  // frame: the run is about to finish and the result is returned anyway.
  if (ckpt_ != nullptr &&
      (t + 1) % options_.checkpoint.every_frames == 0 &&
      t + 1 < num_frames_) {
    Stopwatch watch;
    VQE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ExportSnapshot());
    VQE_RETURN_NOT_OK(ckpt_->Write(next_generation_, bytes));
    ++next_generation_;
    ++result_.checkpoint.snapshots_written;
    const double write_ms = watch.ElapsedMillis();
    result_.checkpoint.checkpoint_write_ms += write_ms;
    if (obs_.enabled()) {
      obs_.Span(MetricDomain::kWall, static_cast<int64_t>(t),
                "checkpoint_write", wall_ledger_ms_, write_ms);
      wall_ledger_ms_ += write_ms;
    }
  }

  // Crash injection for the resume tests: abort after this invocation has
  // processed `crash_after_frames` frames, *after* any checkpoint due at
  // this frame has been durably written (a real crash can land anywhere;
  // the harness aborts at the worst recoverable point — everything since
  // the last checkpoint is lost).
  if (options_.checkpoint.crash_after_frames > 0 &&
      frames_this_invocation_ >= options_.checkpoint.crash_after_frames &&
      t + 1 < num_frames_) {
    return Status::Aborted("crash injection after frame " +
                           std::to_string(t));
  }
  return Status::OK();
}

Result<RunResult> EngineRun::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice on an EngineRun");
  }
  finished_ = true;
  if (result_.frames_processed > 0) {
    const double n = static_cast<double>(result_.frames_processed);
    result_.avg_true_ap /= n;
    result_.avg_norm_cost /= n;
  }
  for (int i = 0; i < m_; ++i) {
    result_.model_availability[static_cast<size_t>(i)].breaker_opens =
        breakers_[static_cast<size_t>(i)].opens();
  }
  result_.breakdown.algorithm_ms = algo_time_.total_seconds() * 1e3;
  if (obs_.metrics != nullptr) PublishRunResult(*obs_.metrics, result_);
  return std::move(result_);
}

Result<RunResult> RunStrategy(EvaluationSource& source,
                              SelectionStrategy* strategy,
                              const EngineOptions& options) {
  VQE_ASSIGN_OR_RETURN(std::unique_ptr<EngineRun> run,
                       EngineRun::Create(source, strategy, options));
  while (!run->done()) {
    VQE_RETURN_NOT_OK(run->StepFrame());
  }
  return run->Finish();
}

Result<RunResult> RunStrategy(const FrameMatrix& matrix,
                              SelectionStrategy* strategy,
                              const EngineOptions& options) {
  if (matrix.num_models < 1 || matrix.num_models > kMaxPoolSize) {
    return Status::InvalidArgument("matrix has invalid num_models");
  }
  MatrixEvaluationSource source(matrix);
  return RunStrategy(source, strategy, options);
}

}  // namespace vqe
