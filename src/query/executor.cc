#include "query/executor.h"

#include <cmath>
#include <limits>
#include <memory>

#include "common/stopwatch.h"
#include "snapshot/identity.h"
#include "snapshot/snapshot.h"
#include "snapshot/wire.h"
#include "common/strings.h"
#include "core/baselines.h"
#include "core/frame_eval.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/wbf.h"
#include "models/model_zoo.h"
#include "query/explain.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "runtime/retry.h"
#include "sim/dataset.h"
#include "temporal/gate.h"
#include "track/tracker.h"

namespace vqe {

Status QueryEngineOptions::Validate() const {
  if (scene_scale <= 0.0 || scene_scale > 1.0) {
    return Status::InvalidArgument("scene_scale must be in (0, 1]");
  }
  if (gamma < 1) return Status::InvalidArgument("gamma must be >= 1");
  if (sw_window < 2) return Status::InvalidArgument("sw_window must be >= 2");
  VQE_RETURN_NOT_OK(sc.Validate());
  VQE_RETURN_NOT_OK(breaker.Validate());
  for (const FaultScript& script : fault_scripts) {
    VQE_RETURN_NOT_OK(script.Validate());
  }
  VQE_RETURN_NOT_OK(checkpoint.Validate());
  VQE_RETURN_NOT_OK(skip.Validate());
  return retry.Validate();
}

namespace {

// Section names of a query checkpoint (container format in
// snapshot/snapshot.h).
constexpr char kQueryMetaSection[] = "query.meta";
constexpr char kQueryCursorSection[] = "query.cursor";
constexpr char kQueryOutputSection[] = "query.output";
constexpr char kQueryStrategySection[] = "strategy";
constexpr char kQueryRuntimeSection[] = "runtime";
constexpr char kQueryTrackerSection[] = "tracker";
// Skip gate state (policy + propagation tracker); present only in
// skip-enabled runs. When the gate is enabled it owns the only tracker in
// the run, so the standalone tracker section is not written.
constexpr char kQueryTemporalSection[] = "temporal";

/// Serializes every QueryOutput accumulator except wall_seconds (wall
/// clock), model_names (reconstructed from the pool) and the per-invocation
/// CheckpointReport.
void WriteQueryOutput(ByteWriter& w, const QueryOutput& out) {
  w.U64(out.frame_ids.size());
  for (int64_t id : out.frame_ids) w.I64(id);
  w.U64(out.frames_processed);
  w.U64(out.frames_matched);
  w.F64(out.charged_cost_ms);
  w.F64(out.reference_cost_ms);
  WriteVecU64(w, out.selection_counts);
  w.U64(out.fallback_frames);
  w.U64(out.failed_frames);
  w.F64(out.fault_ms);
  WriteVecU64(w, out.model_failures);
  w.U64(out.skipped_frames);
  w.F64(out.tracker_ms);
}

Status ReadQueryOutput(ByteReader& r, QueryOutput* out) {
  uint64_t ids = 0, frames_processed = 0, frames_matched = 0, fallback = 0, failed = 0;
  VQE_RETURN_NOT_OK(r.U64(&ids));
  if (ids > r.remaining() / 8) {
    return Status::DataLoss("frame-id count exceeds payload");
  }
  out->frame_ids.clear();
  out->frame_ids.reserve(static_cast<size_t>(ids));
  for (uint64_t i = 0; i < ids; ++i) {
    int64_t id = 0;
    VQE_RETURN_NOT_OK(r.I64(&id));
    out->frame_ids.push_back(id);
  }
  VQE_RETURN_NOT_OK(r.U64(&frames_processed));
  VQE_RETURN_NOT_OK(r.U64(&frames_matched));
  VQE_RETURN_NOT_OK(r.F64(&out->charged_cost_ms));
  VQE_RETURN_NOT_OK(r.F64(&out->reference_cost_ms));
  VQE_RETURN_NOT_OK(ReadVecU64(r, &out->selection_counts));
  VQE_RETURN_NOT_OK(r.U64(&fallback));
  VQE_RETURN_NOT_OK(r.U64(&failed));
  VQE_RETURN_NOT_OK(r.F64(&out->fault_ms));
  VQE_RETURN_NOT_OK(ReadVecU64(r, &out->model_failures));
  uint64_t skipped = 0;
  VQE_RETURN_NOT_OK(r.U64(&skipped));
  VQE_RETURN_NOT_OK(r.F64(&out->tracker_ms));
  out->skipped_frames = static_cast<size_t>(skipped);
  out->frames_processed = static_cast<size_t>(frames_processed);
  out->frames_matched = static_cast<size_t>(frames_matched);
  out->fallback_frames = static_cast<size_t>(fallback);
  out->failed_frames = static_cast<size_t>(failed);
  return Status::OK();
}

/// Serializes the complete resumable state of a query run.
Result<std::vector<uint8_t>> BuildQuerySnapshot(
    const IdentityWriter& identity, size_t next_t, size_t next_iteration,
    const QueryOutput& out, const SelectionStrategy& strategy,
    const std::vector<CircuitBreaker>& breakers, const IouTracker* tracker,
    const TemporalGate* gate) {
  SnapshotWriter snap;
  snap.AddSection(kQueryMetaSection)
      .Bytes(identity.bytes().data(), identity.bytes().size());
  {
    ByteWriter& w = snap.AddSection(kQueryCursorSection);
    w.U64(next_t);
    w.U64(next_iteration);
  }
  WriteQueryOutput(snap.AddSection(kQueryOutputSection), out);
  VQE_RETURN_NOT_OK(strategy.SaveState(snap.AddSection(kQueryStrategySection)));
  {
    ByteWriter& w = snap.AddSection(kQueryRuntimeSection);
    w.U64(breakers.size());
    for (const CircuitBreaker& breaker : breakers) {
      VQE_RETURN_NOT_OK(breaker.SaveState(w));
    }
  }
  if (tracker != nullptr) {
    VQE_RETURN_NOT_OK(
        tracker->SaveState(snap.AddSection(kQueryTrackerSection)));
  }
  if (gate != nullptr) {
    VQE_RETURN_NOT_OK(gate->SaveState(snap.AddSection(kQueryTemporalSection)));
  }
  return snap.Finish();
}

/// Overlays a validated snapshot onto a freshly initialized query run.
/// The identity is checked before any run state is touched.
Status RestoreQueryRun(const SnapshotReader& snap,
                       const IdentityWriter& identity, size_t num_frames,
                       SelectionStrategy* strategy,
                       std::vector<CircuitBreaker>* breakers,
                       IouTracker* tracker, TemporalGate* gate,
                       QueryOutput* out, size_t* next_t,
                       size_t* next_iteration) {
  VQE_ASSIGN_OR_RETURN(ByteReader meta, snap.Section(kQueryMetaSection));
  VQE_RETURN_NOT_OK(ExpectSameIdentity(meta, identity));

  VQE_ASSIGN_OR_RETURN(ByteReader cursor, snap.Section(kQueryCursorSection));
  uint64_t t = 0, iteration = 0;
  VQE_RETURN_NOT_OK(cursor.U64(&t));
  VQE_RETURN_NOT_OK(cursor.U64(&iteration));
  VQE_RETURN_NOT_OK(cursor.ExpectEnd());
  if (t >= num_frames) {
    return Status::DataLoss("query checkpoint cursor beyond end of video");
  }

  VQE_ASSIGN_OR_RETURN(ByteReader res, snap.Section(kQueryOutputSection));
  QueryOutput restored;
  VQE_RETURN_NOT_OK(ReadQueryOutput(res, &restored));
  VQE_RETURN_NOT_OK(res.ExpectEnd());
  if (restored.selection_counts.size() !=
          NumEnsembles(static_cast<int>(breakers->size())) + 1 ||
      restored.model_failures.size() != breakers->size()) {
    return Status::DataLoss("query checkpoint output shape mismatch");
  }

  VQE_ASSIGN_OR_RETURN(ByteReader strat, snap.Section(kQueryStrategySection));
  VQE_RETURN_NOT_OK(strategy->RestoreState(strat));
  VQE_RETURN_NOT_OK(strat.ExpectEnd());

  VQE_ASSIGN_OR_RETURN(ByteReader rt, snap.Section(kQueryRuntimeSection));
  uint64_t runtime_count = 0;
  VQE_RETURN_NOT_OK(rt.U64(&runtime_count));
  if (runtime_count != breakers->size()) {
    return Status::DataLoss("query checkpoint runtime count mismatch");
  }
  for (CircuitBreaker& breaker : *breakers) {
    VQE_RETURN_NOT_OK(breaker.RestoreState(rt));
  }
  VQE_RETURN_NOT_OK(rt.ExpectEnd());

  if (tracker != nullptr) {
    if (!snap.HasSection(kQueryTrackerSection)) {
      return Status::DataLoss(
          "query checkpoint is missing the tracker section");
    }
    VQE_ASSIGN_OR_RETURN(ByteReader trk, snap.Section(kQueryTrackerSection));
    VQE_RETURN_NOT_OK(tracker->RestoreState(trk));
    VQE_RETURN_NOT_OK(trk.ExpectEnd());
  }

  if (gate != nullptr) {
    if (!snap.HasSection(kQueryTemporalSection)) {
      return Status::DataLoss(
          "query checkpoint is missing the temporal section");
    }
    VQE_ASSIGN_OR_RETURN(ByteReader tmp, snap.Section(kQueryTemporalSection));
    VQE_RETURN_NOT_OK(gate->RestoreState(tmp));
    VQE_RETURN_NOT_OK(tmp.ExpectEnd());
  }

  // model_names and the per-invocation report are rebuilt by the caller.
  restored.model_names = std::move(out->model_names);
  restored.checkpoint = out->checkpoint;
  *out = std::move(restored);
  *next_t = static_cast<size_t>(t);
  *next_iteration = static_cast<size_t>(iteration);
  return Status::OK();
}

Result<std::unique_ptr<SelectionStrategy>> MakeStrategy(
    const Query& query, const QueryEngineOptions& options) {
  const UsingClause& clause = query.using_clause;
  const double budget_ms = query.budget_ms;
  const std::string name = ToUpper(clause.strategy);
  const bool needs_ref =
      name == "MES" || name == "MES-B" || name == "MES-A" || name == "SW-MES";
  if (needs_ref && !clause.has_reference) {
    return Status::InvalidArgument(
        clause.strategy + " requires a reference model: USING " +
        clause.strategy + "(...; REF)");
  }
  // WINDOW binds the sliding-window length λ — meaningless for strategies
  // without one, so reject instead of silently ignoring the clause.
  if (query.window > 0 && name != "SW-MES") {
    return Status::InvalidArgument(
        "WINDOW applies only to SW-MES; " + clause.strategy +
        " has no sliding window (at offset " +
        std::to_string(query.window_pos) + ")");
  }
  if (name == "MES") {
    MesOptions mes;
    mes.gamma = options.gamma;
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<MesStrategy>(mes));
  }
  if (name == "MES-B") {
    if (budget_ms <= 0.0) {
      return Status::InvalidArgument("MES-B requires a BUDGET clause");
    }
    MesBOptions mes_b;
    mes_b.gamma = options.gamma;
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<MesBStrategy>(mes_b));
  }
  if (name == "MES-A") {
    MesOptions mes;
    mes.gamma = options.gamma;
    mes.subset_updates = false;
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<MesStrategy>(mes));
  }
  if (name == "SW-MES") {
    SwMesOptions sw;
    sw.gamma = options.gamma;
    sw.window = query.window > 0 ? query.window : options.sw_window;
    sw.exploration_scale = 0.05;
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<SwMesStrategy>(sw));
  }
  if (name == "BF") {
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<BruteForceStrategy>());
  }
  if (name == "RAND") {
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<RandomStrategy>());
  }
  if (name == "EF") {
    return std::unique_ptr<SelectionStrategy>(
        std::make_unique<ExploreFirstStrategy>());
  }
  if (name == "OPT" || name == "SGL") {
    return Status::InvalidArgument(
        name + " is an offline oracle baseline and cannot run in a query");
  }
  return Status::NotFound("unknown strategy: " + clause.strategy);
}

/// Metric ids the query's frame loop touches (kInvalidId when obs is off,
/// so every observation site is a guarded no-op).
struct QueryObsIds {
  MetricsRegistry::Id frame_cost = MetricsRegistry::kInvalidId;
};

QueryObsIds RegisterQueryObs(MetricsRegistry& reg) {
  QueryObsIds ids;
  ids.frame_cost = reg.Histogram(
      "vqe_query_frame_cost_ms", MetricDomain::kSimulated,
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0}, MetricUnit::kMs,
      "Per-frame simulated charged cost");
  return ids;
}

/// Adds a finished query's totals to the `vqe_query_*` counters: the
/// registry's only writer of them.
void PublishQueryOutput(MetricsRegistry& reg, const QueryOutput& out) {
  const MetricDomain sim = MetricDomain::kSimulated;
  const MetricDomain wall = MetricDomain::kWall;
  uint64_t model_failures = 0;
  for (const uint64_t n : out.model_failures) model_failures += n;
  reg.Publish("vqe_query_frames_total", sim, out.frames_processed,
              "Frames consumed by the query loop");
  reg.Publish("vqe_query_frames_matched_total", sim, out.frames_matched,
              "Frames passing WHERE");
  reg.Publish("vqe_query_frames_skipped_total", sim, out.skipped_frames,
              "Frames answered from tracker propagation");
  reg.Publish("vqe_query_frames_failed_total", sim, out.failed_frames,
              "Frames where every selected member failed");
  reg.Publish("vqe_query_fallback_frames_total", sim, out.fallback_frames,
              "Frames completed on a strict sub-mask of the selection");
  reg.PublishMs("vqe_query_charged_cost_ms_total", sim, out.charged_cost_ms,
                "Simulated inference cost charged (Eq. 12/14)");
  reg.PublishMs("vqe_query_reference_ms_total", sim, out.reference_cost_ms,
                "Simulated reference-model cost");
  reg.PublishMs("vqe_query_fault_ms_total", sim, out.fault_ms,
                "Simulated time lost to faults");
  reg.Publish("vqe_query_model_call_failures_total", sim, model_failures,
              "Per-model failed calls");
  reg.Publish("vqe_query_checkpoint_writes_total", sim,
              out.checkpoint.snapshots_written, "Snapshots durably written");
  reg.PublishMs("vqe_query_checkpoint_write_ms_total", wall,
                out.checkpoint.checkpoint_write_ms,
                "Wall-clock spent writing snapshots");
  reg.PublishMs("vqe_query_wall_ms_total", wall, out.wall_seconds * 1000.0,
                "Wall-clock of whole query executions");
}

}  // namespace

Result<QueryOutput> ExecuteQuery(const Query& query,
                                 const QueryEngineOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  VQE_RETURN_NOT_OK(ValidatePredicate(query.where.get()));

  // The frame-cost histogram is registered once, up front (locks, may
  // allocate); the frame loop then only touches lock-free cells, and the
  // counters are published from `out` once the query completes.
  const ObsHandle& obs = options.obs;
  QueryObsIds qobs;
  if (obs.metrics != nullptr) qobs = RegisterQueryObs(*obs.metrics);

  Stopwatch wall;

  // Resolve the input video.
  VQE_ASSIGN_OR_RETURN(const DatasetSpec* dataset,
                       DatasetCatalog::Default().Find(query.video_name));
  SampleOptions sample;
  sample.scene_scale =
      query.process.scale > 0.0 ? query.process.scale : options.scene_scale;
  sample.seed = query.process.seed > 0 ? query.process.seed : options.seed;
  VQE_ASSIGN_OR_RETURN(Video video, SampleVideo(*dataset, sample));
  const size_t stride = std::max<size_t>(query.process.stride, 1);

  // Resolve the detector pool.
  DetectorPool pool;
  if (query.using_clause.detector_names.empty()) {
    VQE_ASSIGN_OR_RETURN(pool, BuildPoolForDataset(dataset->name));
  } else {
    std::vector<DetectorProfile> profiles;
    for (const auto& det_name : query.using_clause.detector_names) {
      VQE_ASSIGN_OR_RETURN(DetectorProfile p, ParseDetectorName(det_name));
      profiles.push_back(std::move(p));
    }
    VQE_ASSIGN_OR_RETURN(pool, BuildPool(profiles));
  }
  if (!options.fault_scripts.empty()) {
    if (options.fault_scripts.size() != pool.detectors.size()) {
      return Status::InvalidArgument(
          "fault_scripts size must equal the pool size");
    }
    for (size_t i = 0; i < pool.detectors.size(); ++i) {
      pool.detectors[i] = std::make_unique<FaultInjectingDetector>(
          std::move(pool.detectors[i]), options.fault_scripts[i]);
    }
  }
  const int m = static_cast<int>(pool.size());
  const uint32_t num_masks = NumEnsembles(m);

  VQE_ASSIGN_OR_RETURN(auto strategy, MakeStrategy(query, options));
  const WbfFusion fusion;

  StrategyContext ctx;
  ctx.num_models = m;
  ctx.num_frames = video.size();
  ctx.sc = options.sc;
  ctx.seed = options.seed;
  ctx.oracle = nullptr;  // queries run online: no ground truth exists
  strategy->BeginVideo(ctx);

  QueryOutput out;
  out.selection_counts.assign(num_masks + 1, 0);
  out.model_failures.assign(static_cast<size_t>(m), 0);
  for (const auto& d : pool.detectors) out.model_names.push_back(d->name());

  // The fault-tolerance stack: every pool model's calls run under the
  // retry policy (DetectWithRetries), behind its own circuit breaker. With
  // the default policy and no fault scripts every call succeeds on the
  // first attempt, the breakers never leave closed, and the execution is
  // bit-identical to the pre-runtime path.
  std::vector<CircuitBreaker> breakers(pool.detectors.size(),
                                       CircuitBreaker(options.breaker));

  // Temporal predicates (TRACKS) need an online tracker over the fused
  // detections of the selected ensembles.
  const bool needs_tracks = PredicateUsesTracks(query.where.get());
  IouTracker tracker;

  // The temporal skip/detect gate. When enabled, its propagation tracker
  // is THE tracker of the run: TRACKS() predicates read it instead of the
  // standalone one, so detections are never tracked twice.
  std::unique_ptr<TemporalGate> gate;
  if (options.skip.enabled()) {
    VQE_ASSIGN_OR_RETURN(gate, TemporalGate::Create(options.skip));
  }
  IouTracker* standalone_tracker =
      (needs_tracks && gate == nullptr) ? &tracker : nullptr;

  std::vector<double> est_score(num_masks + 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<DetectionList> model_out(static_cast<size_t>(m));
  // Steady-state scratch for the per-frame subset-fusion loop, rebuilt in
  // place every detect frame so it stops allocating once warmed up: the
  // per-model costs, the reference pseudo-ground truth and its index, the
  // frame's SoA store, the input span, and the realized mask's
  // fused-output buffer FuseInto refills.
  std::vector<double> model_cost(static_cast<size_t>(m));
  GroundTruthList ref_gt;
  GroundTruthIndex ref_index;
  FrameSoA frame_soa;
  std::vector<const DetectionList*> inputs;
  inputs.reserve(static_cast<size_t>(m));
  DetectionList selected_fused;

  // Checkpointing: fingerprint the query configuration, then try to resume
  // from the newest good generation in the checkpoint directory. The
  // sampling knobs come before the video length they determine, so a
  // changed seed is reported as the seed; the pool size comes before the
  // names, so an added detector is reported as num_models.
  IdentityWriter identity;
  identity.Str("strategy", ToUpper(query.using_clause.strategy))
      .Str("video", query.video_name)
      .U64("seed", sample.seed)
      .F64("scene_scale", sample.scene_scale)
      .U64("num_models", m)
      .Str("models", Join(out.model_names, ", "))
      .U64("num_video_frames", video.size())
      .U64("stride", stride)
      .F64("budget_ms", query.budget_ms)
      .U64("limit", query.limit)
      .Str("where", PredicateToString(query.where.get()))
      .F64("sc.w1", options.sc.w1)
      .F64("sc.w2", options.sc.w2)
      .U64("sc.form", static_cast<uint64_t>(options.sc.form))
      .U64("gamma", options.gamma)
      // The effective λ, so a checkpoint taken with a WINDOW clause cannot
      // resume under a different window.
      .U64("sw_window", query.window > 0 ? query.window : options.sw_window)
      .U64("breaker.failure_threshold", options.breaker.failure_threshold)
      .U64("breaker.open_frames", options.breaker.open_frames)
      .U64("breaker.half_open_probes", options.breaker.half_open_probes);
  WriteSkipOptionsIdentity(identity, options.skip);

  size_t start_t = 0;
  size_t iteration = 0;
  uint64_t next_generation = 1;
  std::unique_ptr<CheckpointManager> ckpt;
  if (options.checkpoint.enabled()) {
    ckpt = std::make_unique<CheckpointManager>(
        options.checkpoint.directory, options.checkpoint.keep_generations);
    Result<CheckpointManager::Loaded> loaded = ckpt->LoadLatestGood();
    if (loaded.ok()) {
      out.checkpoint.generations_rejected = loaded->rejected;
      VQE_RETURN_NOT_OK(RestoreQueryRun(
          loaded->snapshot, identity, video.size(), strategy.get(), &breakers,
          standalone_tracker, gate.get(), &out, &start_t, &iteration));
      out.checkpoint.resumed = true;
      out.checkpoint.resumed_from_iteration = iteration;
      next_generation = loaded->sequence + 1;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  size_t frames_this_invocation = 0;

  // Simulated clock at the top of the current frame (per-frame span base
  // and cost-delta anchor for the epilogue's observations).
  double frame_sim0 = 0.0;

  // Shared per-frame epilogue — skipped or detected, failed or not, the
  // frame was consumed and the run state advanced, so it is a valid
  // checkpoint boundary.
  auto frame_epilogue = [&](size_t t) -> Status {
    ++out.frames_processed;
    ++frames_this_invocation;
    if (obs.enabled()) {
      const double frame_ms = out.charged_cost_ms - frame_sim0;
      obs.Observe(qobs.frame_cost, frame_ms);
      obs.Span(MetricDomain::kSimulated, video.frames[t].frame_index,
               "query_frame", frame_sim0, frame_ms);
    }

    if (ckpt != nullptr &&
        out.frames_processed % options.checkpoint.every_frames == 0 &&
        t + stride < video.size()) {
      Stopwatch watch;
      VQE_ASSIGN_OR_RETURN(
          std::vector<uint8_t> bytes,
          BuildQuerySnapshot(identity, t + stride, iteration, out, *strategy,
                             breakers, standalone_tracker, gate.get()));
      VQE_RETURN_NOT_OK(ckpt->Write(next_generation, bytes));
      ++next_generation;
      ++out.checkpoint.snapshots_written;
      const double write_ms = watch.ElapsedMillis();
      out.checkpoint.checkpoint_write_ms += write_ms;
    }

    // Crash injection for the resume tests (see CheckpointPolicy): abort
    // after any checkpoint due at this frame has been durably written.
    if (options.checkpoint.crash_after_frames > 0 &&
        frames_this_invocation >= options.checkpoint.crash_after_frames &&
        t + stride < video.size()) {
      return Status::Aborted("crash injection after query frame " +
                             std::to_string(t));
    }
    return Status::OK();
  };

  for (size_t t = start_t; t < video.size(); t += stride) {
    if (query.budget_ms > 0.0 && out.charged_cost_ms > query.budget_ms) break;
    if (query.limit > 0 && out.frames_matched >= query.limit) break;
    const VideoFrame& frame = video.frames[t];
    frame_sim0 = out.charged_cost_ms;

    // Temporal fast path: answer the frame from coasted tracks. No model
    // runs, no selection is made, and the strategy/breaker iteration clock
    // does not tick — the bandit's frame sequence is simply the detect
    // frames, with gaps where the gate skipped.
    if (gate != nullptr && gate->ShouldSkip(frame.context)) {
      const DetectionList& propagated = gate->Propagate();
      const double tracker_cost = SimulatedTrackerCostMs(propagated.size());
      out.charged_cost_ms += tracker_cost;
      out.tracker_ms += tracker_cost;
      std::vector<Track> active_tracks;
      if (needs_tracks) active_tracks = gate->tracker().ActiveConfirmed();
      if (EvaluatePredicate(query.where.get(), propagated,
                            needs_tracks ? &active_tracks : nullptr)) {
        out.frame_ids.push_back(frame.frame_index);
        ++out.frames_matched;
      }
      ++out.skipped_frames;
      VQE_RETURN_NOT_OK(frame_epilogue(t));
      continue;
    }

    const size_t frame_t = iteration++;

    // Mask breaker-open models out of the candidate ensembles for this
    // frame. All-open degenerates to the full pool: the strategy must pick
    // something, and half-open probes are how breakers recover.
    EnsembleId healthy = 0;
    for (int i = 0; i < m; ++i) {
      if (breakers[static_cast<size_t>(i)].StateAt(frame_t) !=
          BreakerState::kOpen) {
        healthy |= Singleton(i);
      }
    }
    if (healthy == 0) healthy = FullEnsemble(m);
    strategy->SetEligibleModels(healthy);

    const EnsembleId selected = strategy->Select(frame_t);
    if (selected == 0 || selected > num_masks) {
      return Status::Internal("strategy selected an invalid ensemble");
    }

    // Run exactly the selected models (online behaviour).
    double frame_cost = 0.0;
    double full_cost_bound = 0.0;
    for (int i = 0; i < m; ++i) {
      // c_max normalization needs every model's cost; cost simulation is
      // free to query (a deployment would use calibrated per-model costs).
      full_cost_bound +=
          pool.detectors[static_cast<size_t>(i)]->InferenceCostMs(
              frame, options.seed);
    }
    model_cost.assign(static_cast<size_t>(m), 0.0);
    EnsembleId realized = 0;
    for (int i = 0; i < m; ++i) {
      if (!ContainsModel(selected, i)) {
        model_out[static_cast<size_t>(i)].clear();
        continue;
      }
      // The fault-tolerant call path: retries + deadline under the policy,
      // with the outcome fed to the model's breaker. An open breaker
      // refuses the call at zero cost: no attempt, no recorded failure.
      const ObjectDetector& detector = *pool.detectors[static_cast<size_t>(i)];
      CircuitBreaker& breaker = breakers[static_cast<size_t>(i)];
      DetectorCallOutcome call;
      if (breaker.AllowsCallAt(frame_t)) {
        call =
            DetectWithRetries(detector, frame, options.seed, options.retry);
        if (call.ok()) {
          breaker.RecordSuccess(frame_t);
        } else {
          breaker.RecordFailure(frame_t);
        }
      } else {
        call.status =
            Status::Unavailable(detector.name() + ": circuit breaker open");
      }
      out.fault_ms += call.fault_ms;
      frame_cost += call.charged_ms();
      if (call.ok()) {
        model_out[static_cast<size_t>(i)] = std::move(call.detections);
        model_cost[static_cast<size_t>(i)] = call.inference_ms;
        realized |= Singleton(i);
      } else {
        model_out[static_cast<size_t>(i)].clear();
        ++out.model_failures[static_cast<size_t>(i)];
      }
    }

    if (realized == 0) {
      // Every selected member failed: the frame yields no detections, so
      // there is nothing to fuse, learn from, or match. The cost already
      // burnt (retries, error latency) is still charged; the tracker sees
      // an empty frame so stale tracks age out on schedule.
      out.charged_cost_ms += frame_cost;
      ++out.failed_frames;
      if (gate != nullptr) {
        // The gate still observes the (empty) frame: stale tracks age out,
        // the open skip episode closes, and tracker time is charged.
        gate->ObserveDetections(DetectionList{}, frame.frame_index);
        const double tracker_cost = SimulatedTrackerCostMs(0);
        out.charged_cost_ms += tracker_cost;
        out.tracker_ms += tracker_cost;
      } else if (needs_tracks) {
        tracker.Update(DetectionList{}, frame.frame_index);
      }
    } else {
      if (realized != selected) ++out.fallback_frames;

      // Reference model (AP estimation) when the strategy learns from it.
      const bool uses_ref = strategy->UsesReferenceModel();
      if (uses_ref) {
        const DetectionList ref_out =
            pool.reference->Detect(frame, options.seed);
        const double ref_ms =
            pool.reference->InferenceCostMs(frame, options.seed);
        out.reference_cost_ms += ref_ms;
        DetectionsAsGroundTruth(ref_out, kReferenceMinConfidence, &ref_gt);
        RebuildGroundTruthIndex(ref_gt, &ref_index);
      }

      // Estimate the reward of every subset of the *realized* ensemble
      // (outputs are reused; only the cheap box fusion re-runs) — failed
      // members contribute nothing, so the realized sub-masks are the only
      // arms with honest observations. The subsets all fuse the same cached
      // boxes, so share one SoA store across them (model_out is reused
      // between frames: rebuild it every frame). Only the realized mask's
      // boxes are kept (WHERE, TRACKS() and the gate read them); a strict
      // subset is fused class-major straight into its est_ap, and not at
      // all when the strategy learns nothing from the reference.
      est_score.assign(num_masks + 1, nan);
      frame_soa.Rebuild(model_out);
      ForEachSubset(realized, [&](EnsembleId sub) {
        inputs.clear();
        size_t boxes = 0;
        double cost = 0.0;
        for (int i = 0; i < m; ++i) {
          if (!ContainsModel(sub, i)) continue;
          const DetectionList& out_i = model_out[static_cast<size_t>(i)];
          inputs.push_back(&out_i);
          boxes += out_i.size();
          cost += model_cost[static_cast<size_t>(i)];
        }
        const double overhead = SimulatedFusionOverheadMs(boxes);
        frame_cost += overhead;
        cost += overhead;
        double est_ap = 0.0;
        if (sub == realized) {
          fusion.FuseInto(DetectionListSpan(inputs), &frame_soa,
                          &selected_fused);
          if (uses_ref) {
            est_ap = FrameMeanAp(selected_fused, ref_index);
          }
        } else if (uses_ref) {
          ClassMajorMeanAp accumulator(ref_index);
          fusion.FuseByClass(DetectionListSpan(inputs), &frame_soa,
                             &accumulator);
          est_ap = accumulator.Finish();
        }
        if (uses_ref) {
          const double full_bound = full_cost_bound + overhead;
          est_score[sub] = options.sc.Score(
              est_ap, full_bound > 0 ? cost / full_bound : 0.0);
        }
      });
      out.charged_cost_ms += frame_cost;

      FrameFeedback feedback;
      feedback.t = frame_t;
      feedback.selected = selected;
      feedback.realized = realized;
      feedback.est_score = &est_score;
      strategy->Observe(feedback);

      if (gate != nullptr) {
        gate->ObserveDetections(selected_fused, frame.frame_index);
        const double tracker_cost =
            SimulatedTrackerCostMs(selected_fused.size());
        out.charged_cost_ms += tracker_cost;
        out.tracker_ms += tracker_cost;
      } else if (needs_tracks) {
        tracker.Update(selected_fused, frame.frame_index);
      }
      std::vector<Track> active_tracks;
      if (needs_tracks) {
        active_tracks = gate != nullptr ? gate->tracker().ActiveConfirmed()
                                        : tracker.ActiveConfirmed();
      }
      if (EvaluatePredicate(query.where.get(), selected_fused,
                            needs_tracks ? &active_tracks : nullptr)) {
        out.frame_ids.push_back(frame.frame_index);
        ++out.frames_matched;
      }
    }

    ++out.selection_counts[selected];
    VQE_RETURN_NOT_OK(frame_epilogue(t));
  }

  out.wall_seconds = wall.ElapsedSeconds();
  if (obs.metrics != nullptr) PublishQueryOutput(*obs.metrics, out);
  obs.Span(MetricDomain::kWall, -1, "execute_query", 0.0,
           out.wall_seconds * 1000.0);
  return out;
}

Result<QueryOutput> ExecuteQuery(const std::string& sql,
                                 const QueryEngineOptions& options) {
  VQE_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  return ExecuteQuery(query, options);
}

}  // namespace vqe
