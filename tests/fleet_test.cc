// Fleet-layer chaos matrix for ISSUE 8: sharded serving with live session
// migration, shard failover and deterministic chaos injection. The load-
// bearing invariant is bit-identity — every stream that completes, whether
// it ran on one shard, migrated mid-video, or was restarted after a shard
// crash or a corrupted migration payload, must produce a RunResult
// bit-identical to its solo RunStrategy run. On top of that: the hostile
// payload sweeps (every bit flip and truncation of a migration envelope is
// rejected with DataLoss before any state moves), cross-session identity
// rejection (FailedPrecondition, target untouched), the fleet admission
// front door, and longest-first placement by remaining frames.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "fleet/chaos.h"
#include "fleet/migration.h"
#include "fleet/sharded_server.h"
#include "models/model_zoo.h"
#include "runtime/fault_injection.h"
#include "serve/scheduler.h"
#include "serve/stream_session.h"
#include "sim/dataset.h"
#include "snapshot/checkpoint.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::ExpectSameRun;
using test::MakePool;
using test::MakeStrategy;
using test::MakeVideo;
using test::ScratchDir;

constexpr char kScratch[] = "vqe_fleet_test";

/// The serve_test fault mix: a scripted mid-video outage on model 0,
/// random per-attempt errors on model 1.
std::vector<FaultScript> MakeScripts(size_t m) {
  std::vector<FaultScript> scripts(m);
  scripts[0].bursts.push_back({2, 8, FaultKind::kError, -1});
  if (m > 1) scripts[1].error_rate = 0.2;
  return scripts;
}

struct StreamSpec {
  std::string name;
  std::string strategy = "MES";
  PriorityClass priority = PriorityClass::kStandard;
  uint64_t trial_seed = 9;
  uint64_t strategy_seed = 42;
  /// Serves the video's first `frames` frames (0 = all of it).
  size_t frames = 0;
  /// Off unless a test sets a directory and a cadence.
  CheckpointPolicy checkpoint = {};
};

EngineOptions MakeEngine(const StreamSpec& spec) {
  EngineOptions e;
  e.strategy_seed = spec.strategy_seed;
  e.compute_regret = false;
  e.checkpoint = spec.checkpoint;
  return e;
}

/// The part of `video` that `spec` serves.
Video Clip(const Video& video, const StreamSpec& spec) {
  Video clip = video;
  if (spec.frames > 0) clip.frames.resize(spec.frames);
  return clip;
}

RunResult SoloBaseline(const Video& video, const DetectorPool& base,
                       const StreamSpec& spec, bool lazy, bool faults) {
  const DetectorPool* pool = &base;
  DetectorPool faulty;
  if (faults) {
    faulty =
        std::move(ApplyFaultScripts(base, MakeScripts(base.size()))).value();
    pool = &faulty;
  }
  std::unique_ptr<SelectionStrategy> strategy = MakeStrategy(spec.strategy);
  const EngineOptions engine = MakeEngine(spec);
  const Video clip = Clip(video, spec);
  if (lazy) {
    auto source = LazyFrameEvaluator::Create(clip, *pool, spec.trial_seed, {});
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    return std::move(RunStrategy(**source, strategy.get(), engine)).value();
  }
  auto matrix = BuildFrameMatrix(clip, *pool, spec.trial_seed, {});
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return std::move(RunStrategy(*matrix, strategy.get(), engine)).value();
}

/// Result-returning session builder — safe to call from shard threads
/// (no gtest assertions), which is exactly what SessionFactory requires.
Result<std::unique_ptr<StreamSession>> BuildSession(
    const Video& video, const DetectorPool& base, const StreamSpec& spec,
    bool lazy, bool faults) {
  std::vector<std::unique_ptr<DetectorPool>> owned;
  const DetectorPool* pool = &base;
  if (faults) {
    VQE_ASSIGN_OR_RETURN(DetectorPool faulty,
                         ApplyFaultScripts(*pool, MakeScripts(pool->size())));
    auto holder = std::make_unique<DetectorPool>(std::move(faulty));
    pool = holder.get();
    owned.push_back(std::move(holder));
  }
  std::unique_ptr<EvaluationSource> source;
  const Video clip = Clip(video, spec);
  if (lazy) {
    VQE_ASSIGN_OR_RETURN(
        source, LazyFrameEvaluator::Create(clip, *pool, spec.trial_seed, {}));
  } else {
    VQE_ASSIGN_OR_RETURN(FrameMatrix matrix,
                         BuildFrameMatrix(clip, *pool, spec.trial_seed, {}));
    source = std::make_unique<MatrixEvaluationSource>(std::move(matrix));
  }
  StreamSessionConfig cfg;
  cfg.name = spec.name;
  cfg.priority = spec.priority;
  cfg.engine = MakeEngine(spec);
  for (const auto& det : pool->detectors) {
    cfg.model_names.push_back(det->name());
  }
  return StreamSession::Create(std::move(cfg), std::move(source),
                               MakeStrategy(spec.strategy), std::move(owned));
}

SessionFactory MakeFactory(const Video& video, const DetectorPool& base,
                           StreamSpec spec, bool lazy, bool faults) {
  return [&video, &base, spec, lazy, faults] {
    return BuildSession(video, base, spec, lazy, faults);
  };
}

/// Fine-grained rounds so chaos events land mid-video: ~1 frame per round.
ServeOptions FineGrainedShard(int workers) {
  ServeOptions shard;
  shard.quantum_ms = 10.0;
  shard.max_frames_per_round = 2;
  shard.parallelism = workers;
  return shard;
}

/// One whole fleet run: options, streams, chaos script, and the pool size,
/// backend and fault mix every stream is served with.
struct FleetScenario {
  FleetOptions options;
  std::vector<StreamSpec> specs;
  ChaosScript chaos;
  int pool_size = 3;
  bool lazy = false;
  bool faults = false;
};

FleetReport RunScenario(const FleetScenario& scenario, const Video& video,
                        const DetectorPool& pool) {
  std::vector<FleetStreamSpec> fleet;
  for (const StreamSpec& spec : scenario.specs) {
    fleet.push_back({spec.name, MakeFactory(video, pool, spec, scenario.lazy,
                                            scenario.faults)});
  }
  ShardedServer server(scenario.options);
  return std::move(server.Run(std::move(fleet), scenario.chaos)).value();
}

/// Five streams of uneven lengths on two shards: placement puts them
/// longest first on the shard with the fewest frames, and the shards
/// drain at different rounds.
FleetScenario UnevenScenario() {
  FleetScenario scenario;
  scenario.pool_size = 2;
  const size_t lengths[] = {12, 30, 18, 24, 8};
  for (size_t k = 0; k < 5; ++k) {
    StreamSpec spec{"uneven" + std::to_string(k), "MES",
                    PriorityClass::kStandard, 20 + k, 50 + k};
    spec.frames = lengths[k];
    scenario.specs.push_back(spec);
  }
  scenario.options.num_shards = 2;
  scenario.options.shard = FineGrainedShard(1);
  return scenario;
}

/// Concurrent faults — detector outages, a migration 0 -> 1 whose payload
/// arrives damaged, and a later kill of shard 1 — over five equal-length
/// streams, which placement deals round-robin: cm-mig, cm-a and cm-c on
/// shard 0, cm-dead and cm-b on shard 1.
FleetScenario ChaosMatrixScenario(bool lazy, int workers) {
  FleetScenario scenario;
  scenario.lazy = lazy;
  scenario.faults = true;
  const std::string mover = "cm-mig";
  scenario.specs = {
      {mover, "MES", PriorityClass::kStandard, 9, 42},
      {"cm-dead", "MES-B", PriorityClass::kInteractive, 10, 43},
      {"cm-a", "SW-MES", PriorityClass::kBatch, 11, 44},
      {"cm-b", "D-MES", PriorityClass::kStandard, 12, 45},
      {"cm-c", "RAND", PriorityClass::kStandard, 13, 46},
  };
  scenario.options.num_shards = 2;
  scenario.options.max_restarts = 3;
  scenario.options.shard = FineGrainedShard(workers);

  ChaosEvent migrate;  // clean migration 0 -> 1, mid-video
  migrate.kind = ChaosEvent::Kind::kMigrate;
  migrate.at_round = 2;
  migrate.shard = 0;
  migrate.stream = mover;
  migrate.target_shard = 1;
  scenario.chaos.events.push_back(migrate);
  ChaosEvent damage;  // ...but the payload arrives damaged
  damage.kind = ChaosEvent::Kind::kCorruptNextMigration;
  damage.shard = 1;
  damage.flip_byte = 7;
  damage.flip_bit = 2;
  scenario.chaos.events.push_back(damage);
  ChaosEvent kill;  // and later shard 1 dies outright
  kill.kind = ChaosEvent::Kind::kKillShard;
  kill.at_round = 6;
  kill.shard = 1;
  scenario.chaos.events.push_back(kill);
  return scenario;
}

/// Fleet health by its order-free per-model totals; breaker states and
/// opens depend on the order in which shards publish, so they are skipped.
void ExpectSameHealthTotals(
    const std::vector<BreakerRegistry::ModelHealth>& a,
    const std::vector<BreakerRegistry::ModelHealth>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].successes, b[i].successes);
    EXPECT_EQ(a[i].failures, b[i].failures);
  }
}

/// Every ServeStats field except the wall-clock ones (wall_ms,
/// algorithm_wall_ms and the frame-latency percentiles).
void ExpectSameServeStats(const ServeStats& a, const ServeStats& b) {
  EXPECT_EQ(a.simulated_ms, b.simulated_ms);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.skipped_frames, b.skipped_frames);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed_submissions, b.shed_submissions);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.peak_queued, b.peak_queued);
  EXPECT_EQ(a.failed_streams, b.failed_streams);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].stream_id, b.errors[i].stream_id);
    EXPECT_EQ(a.errors[i].name, b.errors[i].name);
    EXPECT_EQ(a.errors[i].code, b.errors[i].code);
    EXPECT_EQ(a.errors[i].message, b.errors[i].message);
  }
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const ServeStats::ClassStats& x = a.classes[c];
    const ServeStats::ClassStats& y = b.classes[c];
    EXPECT_EQ(x.submitted, y.submitted);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.shed_submissions, y.shed_submissions);
    EXPECT_EQ(x.frames, y.frames);
    EXPECT_EQ(x.sim_p50_ms, y.sim_p50_ms);
    EXPECT_EQ(x.sim_p99_ms, y.sim_p99_ms);
    EXPECT_EQ(x.sim_p999_ms, y.sim_p999_ms);
    EXPECT_EQ(x.shed_rate, y.shed_rate);
  }
  EXPECT_EQ(a.degradation_level, b.degradation_level);
  EXPECT_EQ(a.peak_degradation_level, b.peak_degradation_level);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  ASSERT_EQ(a.degradations.size(), b.degradations.size());
  for (size_t i = 0; i < a.degradations.size(); ++i) {
    const DegradationTransition& x = a.degradations[i];
    const DegradationTransition& y = b.degradations[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.from, y.from);
    EXPECT_EQ(x.to, y.to);
    EXPECT_EQ(x.trigger_class, y.trigger_class);
    EXPECT_EQ(x.queue_triggered, y.queue_triggered);
    EXPECT_EQ(x.observed_p99_ms, y.observed_p99_ms);
    EXPECT_EQ(x.queue_depth, y.queue_depth);
  }
  ExpectSameHealthTotals(a.fleet_health, b.fleet_health);
}

/// Every FleetReport field except wall_ms, the migration latencies, each
/// shard's wall-clock stats and the fleet-health breaker states.
void ExpectSameLedger(const FleetReport& a, const FleetReport& b) {
  const FleetStats& x = a.stats;
  const FleetStats& y = b.stats;
  EXPECT_EQ(x.num_shards, y.num_shards);
  EXPECT_EQ(x.submitted, y.submitted);
  EXPECT_EQ(x.admitted, y.admitted);
  EXPECT_EQ(x.shed, y.shed);
  EXPECT_EQ(x.shards_killed, y.shards_killed);
  EXPECT_EQ(x.failover_streams, y.failover_streams);
  EXPECT_EQ(x.completed_streams, y.completed_streams);
  EXPECT_EQ(x.failed_streams, y.failed_streams);
  EXPECT_EQ(x.migration.attempted, y.migration.attempted);
  EXPECT_EQ(x.migration.completed, y.migration.completed);
  EXPECT_EQ(x.migration.rejected_corrupt, y.migration.rejected_corrupt);
  EXPECT_EQ(x.migration.rejected_identity, y.migration.rejected_identity);
  EXPECT_EQ(x.migration.fallback_restarts, y.migration.fallback_restarts);
  EXPECT_EQ(x.migration.aborted, y.migration.aborted);
  EXPECT_EQ(x.peak_degradation_level, y.peak_degradation_level);
  EXPECT_EQ(x.degradation_transitions, y.degradation_transitions);
  ASSERT_EQ(x.shards.size(), y.shards.size());
  for (size_t i = 0; i < x.shards.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(x.shards[i].shard, y.shards[i].shard);
    EXPECT_EQ(x.shards[i].dead, y.shards[i].dead);
    ExpectSameServeStats(x.shards[i].stats, y.shards[i].stats);
  }
  ExpectSameHealthTotals(x.fleet_health, y.fleet_health);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (size_t i = 0; i < a.streams.size(); ++i) {
    const FleetStreamReport& s = a.streams[i];
    const FleetStreamReport& t = b.streams[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, t.name);
    EXPECT_EQ(s.shard, t.shard);
    EXPECT_EQ(s.restarts, t.restarts);
    EXPECT_EQ(s.migrations, t.migrations);
    EXPECT_EQ(s.report.stream_id, t.report.stream_id);
    EXPECT_EQ(s.report.name, t.report.name);
    EXPECT_EQ(s.report.priority, t.report.priority);
    EXPECT_EQ(s.report.status.ToString(), t.report.status.ToString());
    EXPECT_EQ(s.report.frames, t.report.frames);
    EXPECT_EQ(s.report.rounds_active, t.report.rounds_active);
    EXPECT_EQ(s.report.admitted_round, t.report.admitted_round);
    ExpectSameRun(s.report.result, t.report.result);
  }
}

// ---------------------------------------------------------------------------
// Migration payload wire format (satellite: hostile payload sweeps).

MigrationPayload SamplePayload(const std::vector<uint8_t>& snapshot) {
  MigrationPayload payload;
  payload.stream_name = "stream-7";
  payload.source_shard = 3;
  payload.sequence = 99;
  payload.carry.frames = 17;
  payload.carry.rounds_active = 5;
  payload.engine_snapshot = snapshot;
  return payload;
}

TEST(MigrationPayloadTest, RoundTrip) {
  const std::vector<uint8_t> snapshot = {1, 2, 3, 250, 0, 7};
  const std::vector<uint8_t> bytes =
      EncodeMigrationPayload(SamplePayload(snapshot));
  const MigrationPayload decoded =
      std::move(DecodeMigrationPayload(bytes)).value();
  EXPECT_EQ(decoded.stream_name, "stream-7");
  EXPECT_EQ(decoded.source_shard, 3);
  EXPECT_EQ(decoded.sequence, 99u);
  EXPECT_EQ(decoded.carry.frames, 17u);
  EXPECT_EQ(decoded.carry.rounds_active, 5u);
  EXPECT_EQ(decoded.engine_snapshot, snapshot);
}

TEST(MigrationPayloadTest, EveryBitFlipIsRejected) {
  const std::vector<uint8_t> bytes =
      EncodeMigrationPayload(SamplePayload({9, 8, 7, 6, 5}));
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = bytes;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      const auto decoded = DecodeMigrationPayload(bad);
      EXPECT_FALSE(decoded.ok())
          << "flip byte " << i << " bit " << bit << " was accepted";
    }
  }
}

TEST(MigrationPayloadTest, EveryTruncationIsDataLoss) {
  const std::vector<uint8_t> bytes =
      EncodeMigrationPayload(SamplePayload({1, 2, 3}));
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> bad(bytes.begin(),
                                   bytes.begin() + static_cast<long>(len));
    const auto decoded = DecodeMigrationPayload(bad);
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

// ---------------------------------------------------------------------------
// Session-level implant rejection (satellite: state untouched on reject).

TEST(SessionImplantTest, CorruptSnapshotRejectedAndTargetUnharmed) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const StreamSpec spec{"victim", "MES", PriorityClass::kStandard, 9, 42};

  auto source =
      std::move(BuildSession(video, pool, spec, /*lazy=*/false, false))
          .value();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(source->StepFrame().ok());
  std::vector<uint8_t> snapshot = std::move(source->ExportState()).value();

  // Every 3rd byte flipped (the full sweep lives at the payload layer; here
  // we pin that a damaged *engine* snapshot is DataLoss and leaves the
  // target in its pristine state).
  auto target =
      std::move(BuildSession(video, pool, spec, /*lazy=*/false, false))
          .value();
  for (size_t i = 0; i < snapshot.size(); i += 3) {
    std::vector<uint8_t> bad = snapshot;
    bad[i] ^= 0x10;
    const Status status = target->ImplantState(bad);
    ASSERT_FALSE(status.ok()) << "flip at byte " << i << " was accepted";
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_EQ(target->next_frame(), 0u) << "rejected implant moved state";
  }

  // The pristine target still runs its whole solo video bit-identically.
  while (!target->done()) ASSERT_TRUE(target->StepFrame().ok());
  ExpectSameRun(SoloBaseline(video, pool, spec, false, false),
                std::move(target->Finish()).value());
}

TEST(SessionImplantTest, CrossSessionFingerprintIsFailedPrecondition) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const StreamSpec mes{"a", "MES", PriorityClass::kStandard, 9, 42};
  const StreamSpec sw{"b", "SW-MES", PriorityClass::kStandard, 9, 42};
  const StreamSpec reseeded{"c", "MES", PriorityClass::kStandard, 9, 43};

  auto source =
      std::move(BuildSession(video, pool, mes, /*lazy=*/false, false)).value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(source->StepFrame().ok());
  const std::vector<uint8_t> snapshot =
      std::move(source->ExportState()).value();

  for (const StreamSpec* other : {&sw, &reseeded}) {
    auto target =
        std::move(BuildSession(video, pool, *other, /*lazy=*/false, false))
            .value();
    const Status status = target->ImplantState(snapshot);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_EQ(target->next_frame(), 0u) << "rejected implant moved state";
  }
}

// ---------------------------------------------------------------------------
// Scheduler-level extract/implant: a stitched run is one run.

TEST(SchedulerMigrationTest, ExtractImplantStitchesOneBitIdenticalRun) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const StreamSpec spec{"mover", "MES-B", PriorityClass::kStandard, 9, 42};

  ServeOptions opt = FineGrainedShard(/*workers=*/1);
  StreamScheduler source_shard(opt);
  StreamScheduler target_shard(opt);
  ASSERT_TRUE(
      source_shard
          .Submit(std::move(BuildSession(video, pool, spec, true, true))
                      .value())
          .ok());

  // A few fine-grained rounds: the session is mid-video.
  ASSERT_TRUE(source_shard.BeginServing().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(std::move(source_shard.RunRound()).value());
  }
  auto extracted = std::move(source_shard.ExtractSession("mover")).value();
  ASSERT_GT(extracted.carry.frames, 0u);
  ASSERT_FALSE(extracted.session->done());
  EXPECT_EQ(source_shard.active_sessions(), 0);
  EXPECT_EQ(source_shard.ExtractSession("mover").status().code(),
            StatusCode::kNotFound);

  // Through the wire: export -> envelope -> decode -> fresh shell -> overlay.
  MigrationPayload payload;
  payload.stream_name = spec.name;
  payload.carry = extracted.carry;
  payload.engine_snapshot = std::move(extracted.session->ExportState()).value();
  const MigrationPayload arrived =
      std::move(DecodeMigrationPayload(EncodeMigrationPayload(payload)))
          .value();
  auto implanted =
      std::move(BuildSession(video, pool, spec, true, true)).value();
  ASSERT_TRUE(implanted->ImplantState(arrived.engine_snapshot).ok());
  ASSERT_TRUE(
      target_shard.ImplantSession(std::move(implanted), arrived.carry).ok());

  const ServeReport report =
      std::move(target_shard.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), 1u);
  const StreamReport& sr = report.streams[0];
  ASSERT_TRUE(sr.status.ok()) << sr.status.ToString();
  EXPECT_EQ(sr.frames, video.size()) << "carried frames must continue";
  ExpectSameRun(SoloBaseline(video, pool, spec, true, true), sr.result);
}

// ---------------------------------------------------------------------------
// Fleet options / chaos script validation.

TEST(FleetOptionsTest, Validation) {
  FleetOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  FleetOptions bad = ok;
  bad.num_shards = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = ok;
  bad.max_sessions = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = ok;
  bad.max_restarts = -1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = ok;
  bad.shard.quantum_ms = 0.0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ChaosScriptTest, Validation) {
  ChaosScript script;
  EXPECT_TRUE(script.Validate(2).ok());
  ChaosEvent kill;
  kill.kind = ChaosEvent::Kind::kKillShard;
  kill.shard = 2;
  script.events = {kill};
  EXPECT_EQ(script.Validate(2).code(), StatusCode::kInvalidArgument);
  ChaosEvent migrate;
  migrate.kind = ChaosEvent::Kind::kMigrate;
  migrate.shard = 0;
  migrate.target_shard = 0;
  migrate.stream = "s";
  script.events = {migrate};
  EXPECT_EQ(script.Validate(2).code(), StatusCode::kInvalidArgument);
  migrate.target_shard = 1;
  migrate.stream.clear();
  script.events = {migrate};
  EXPECT_EQ(script.Validate(2).code(), StatusCode::kInvalidArgument);
  migrate.stream = "s";
  script.events = {migrate};
  EXPECT_TRUE(script.Validate(2).ok());
}

// ---------------------------------------------------------------------------
// Fleet serving.

TEST(ShardedServerTest, MultiShardFleetMatchesSoloAcrossBackendsAndWorkers) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const std::vector<StreamSpec> specs = {
      {"f0", "MES", PriorityClass::kInteractive, 9, 42},
      {"f1", "MES-B", PriorityClass::kStandard, 10, 43},
      {"f2", "SW-MES", PriorityClass::kBatch, 11, 44},
      {"f3", "D-MES", PriorityClass::kStandard, 12, 45},
      {"f4", "RAND", PriorityClass::kStandard, 13, 46},
      {"f5", "MES", PriorityClass::kBatch, 14, 47},
  };
  for (const bool lazy : {false, true}) {
    for (const int workers : {1, 4}) {
      for (const int num_shards : {2, 4}) {
        SCOPED_TRACE((lazy ? "lazy" : "eager") + std::string("/w") +
                     std::to_string(workers) + "/shards" +
                     std::to_string(num_shards));
        FleetOptions opt;
        opt.num_shards = num_shards;
        opt.shard = FineGrainedShard(workers);
        ShardedServer server(opt);
        std::vector<FleetStreamSpec> fleet;
        for (const StreamSpec& spec : specs) {
          fleet.push_back(
              {spec.name, MakeFactory(video, pool, spec, lazy, true)});
        }
        const FleetReport report =
            std::move(server.Run(std::move(fleet))).value();
        EXPECT_EQ(report.stats.admitted, specs.size());
        EXPECT_EQ(report.stats.shed, 0u);
        EXPECT_EQ(report.stats.completed_streams, specs.size());
        ASSERT_EQ(report.streams.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
          SCOPED_TRACE(specs[i].name);
          const FleetStreamReport& fsr = report.streams[i];
          EXPECT_EQ(fsr.name, specs[i].name);
          ASSERT_TRUE(fsr.report.status.ok())
              << fsr.report.status.ToString();
          ExpectSameRun(SoloBaseline(video, pool, specs[i], lazy, true),
                        fsr.report.result);
        }
      }
    }
  }
}

TEST(ShardedServerTest, FleetFrontDoorShedsBeyondGlobalCap) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.01, 3);
  FleetOptions opt;
  opt.num_shards = 2;
  opt.max_sessions = 2;
  opt.shard = FineGrainedShard(1);
  ShardedServer server(opt);
  std::vector<FleetStreamSpec> fleet;
  std::vector<StreamSpec> specs;
  for (int i = 0; i < 4; ++i) {
    StreamSpec spec{"shed" + std::to_string(i), "MES",
                    PriorityClass::kStandard, 9, 42};
    specs.push_back(spec);
    fleet.push_back({spec.name, MakeFactory(video, pool, spec, false, false)});
  }
  const FleetReport report = std::move(server.Run(std::move(fleet))).value();
  EXPECT_EQ(report.stats.submitted, 4u);
  EXPECT_EQ(report.stats.admitted, 2u);
  EXPECT_EQ(report.stats.shed, 2u);
  EXPECT_EQ(report.stats.completed_streams, 2u);
  EXPECT_EQ(report.stats.failed_streams, 2u);
  ASSERT_EQ(report.streams.size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(report.streams[i].report.status.ok());
    ExpectSameRun(SoloBaseline(video, pool, specs[i], false, false),
                  report.streams[i].report.result);
  }
  for (size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(report.streams[i].report.status.code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(report.streams[i].shard, -1);
  }
}

// ---------------------------------------------------------------------------
// Placement: longest first by remaining frames, each stream onto the live
// shard with a free slot and the fewest placed frames (ties: lowest index).

/// Runs `scenario` and checks that stream i finished on `shards[i]` (-1:
/// never placed), that every placed stream is bit-identical to its solo
/// run, and that shard j stepped `frames[j]` frames (its planned load; 0
/// for a dead shard, whose stats are lost).
FleetReport ExpectPlacement(const FleetScenario& scenario, const Video& video,
                            const std::vector<int>& shards,
                            const std::vector<uint64_t>& frames) {
  const DetectorPool pool = MakePool(scenario.pool_size);
  const FleetReport report = RunScenario(scenario, video, pool);
  EXPECT_EQ(report.streams.size(), shards.size());
  for (size_t i = 0; i < report.streams.size() && i < shards.size(); ++i) {
    const FleetStreamReport& fsr = report.streams[i];
    SCOPED_TRACE(fsr.name);
    EXPECT_EQ(fsr.shard, shards[i]);
    if (shards[i] < 0) continue;
    EXPECT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
    StreamSpec solo = scenario.specs[i];
    solo.checkpoint = {};
    ExpectSameRun(SoloBaseline(video, pool, solo, scenario.lazy,
                               scenario.faults),
                  fsr.report.result);
  }
  EXPECT_EQ(report.stats.shards.size(), frames.size());
  for (size_t j = 0; j < report.stats.shards.size() && j < frames.size();
       ++j) {
    EXPECT_EQ(report.stats.shards[j].stats.frames, frames[j])
        << "shard " << j;
  }
  return report;
}

FleetScenario PlacementScenario(int num_shards,
                                const std::vector<size_t>& lengths) {
  FleetScenario scenario;
  scenario.pool_size = 2;
  scenario.lazy = true;
  for (size_t k = 0; k < lengths.size(); ++k) {
    StreamSpec spec{"p" + std::to_string(k), "MES", PriorityClass::kStandard,
                    30 + k, 60 + k};
    spec.frames = lengths[k];
    scenario.specs.push_back(spec);
  }
  scenario.options.num_shards = num_shards;
  scenario.options.shard = FineGrainedShard(1);
  return scenario;
}

TEST(FleetPlacementTest, DistinctLengthsLandOnLongestFirstShards) {
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GE(video.size(), 28u);
  // Longest first: 28 -> 0, 24 -> 1, 20 -> 2, 16 -> 2 (20 is the fewest),
  // 14 -> 1 (24), 12 -> 0 (28), 10 -> 2 (36 against 38 and 40).
  ExpectPlacement(PlacementScenario(3, {16, 28, 10, 24, 14, 20, 12}), video,
                  {2, 0, 2, 1, 1, 2, 0}, {28 + 12, 24 + 14, 20 + 16 + 10});
}

TEST(FleetPlacementTest, EqualLengthsPlaceRoundRobinInSubmissionOrder) {
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GE(video.size(), 10u);
  ExpectPlacement(PlacementScenario(3, std::vector<size_t>(7, 10)), video,
                  {0, 1, 2, 0, 1, 2, 0}, {30, 20, 20});
}

TEST(FleetPlacementTest, FullShardsAreSkippedAndTheRestShedInSubmissionOrder) {
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GE(video.size(), 30u);
  // Two slots per shard (one active, one queued), four fleet-wide. The
  // first four submissions are admitted whatever their lengths. Longest
  // first: 30 -> 0, 10 -> 1, 8 -> 1 (which is then full), and 6 goes to
  // shard 0 although shard 1 holds fewer frames.
  FleetScenario scenario = PlacementScenario(2, {30, 6, 8, 10, 14, 12});
  scenario.options.shard.max_sessions = 1;
  scenario.options.shard.queue_depth = 1;
  const FleetReport report = ExpectPlacement(scenario, video,
                                             {0, 0, 1, 1, -1, -1}, {36, 18});
  EXPECT_EQ(report.stats.admitted, 4u);
  EXPECT_EQ(report.stats.shed, 2u);
  for (size_t i = 4; i < report.streams.size(); ++i) {
    const Status& status = report.streams[i].report.status;
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(status.message().find("every shard is full"), std::string::npos)
        << status.ToString();
  }
  for (const FleetStats::ShardSummary& shard : report.stats.shards) {
    EXPECT_EQ(shard.stats.peak_active, 1);
    EXPECT_EQ(shard.stats.peak_queued, 1);
  }
}

TEST(FleetPlacementTest, ResumedStreamIsPlacedByItsRemainingFrames) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GE(video.size(), 30u);
  FleetScenario scenario = PlacementScenario(2, {30, 16, 12});
  StreamSpec& resumed = scenario.specs[0];
  resumed.checkpoint.directory = ScratchDir(kScratch, "placement-resume");
  resumed.checkpoint.every_frames = 4;

  // An earlier process served 22 of its 30 frames and crashed; its newest
  // checkpoint holds frame 20, so 10 frames remain.
  StreamSpec crashed = resumed;
  crashed.checkpoint.crash_after_frames = 22;
  std::unique_ptr<StreamSession> first =
      std::move(BuildSession(video, pool, crashed, /*lazy=*/true, false))
          .value();
  Status step = Status::OK();
  while (step.ok() && !first->done()) step = first->StepFrame();
  ASSERT_EQ(step.code(), StatusCode::kAborted) << step.ToString();

  // By remaining frames: 16 -> 0, 12 -> 1, 10 -> 1. Placed by its 30
  // frames the resumed stream would have taken shard 0.
  const FleetReport report =
      ExpectPlacement(scenario, video, {1, 0, 1}, {16, 12 + 10});
  ASSERT_EQ(report.streams.size(), 3u);
  const FleetStreamReport& fsr = report.streams[0];
  EXPECT_TRUE(fsr.report.result.checkpoint.resumed);
  EXPECT_EQ(fsr.report.result.checkpoint.resumed_from_frame, 20u);
  EXPECT_EQ(fsr.report.frames, 10u);
}

TEST(FleetPlacementTest, FailoverGoesToTheSurvivorWithTheFewestPlacedFrames) {
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GE(video.size(), 30u);
  // 30 -> 0, 24 -> 1, 10 -> 2, 8 -> 2, and shard 0 dies with its stream.
  // Before its first round, the stream restarts on shard 2: two streams
  // but 18 frames, against shard 1's one stream of 24. After it, the
  // other shards have drained (a shard with no event due steps until it
  // drains) and finished streams leave the load, so the tie goes to
  // shard 1.
  for (const uint64_t round : {0, 1}) {
    SCOPED_TRACE("kill at round " + std::to_string(round));
    FleetScenario scenario = PlacementScenario(3, {30, 24, 10, 8});
    ChaosEvent kill;
    kill.kind = ChaosEvent::Kind::kKillShard;
    kill.at_round = round;
    kill.shard = 0;
    scenario.chaos.events.push_back(kill);
    const FleetReport report =
        round == 0
            ? ExpectPlacement(scenario, video, {2, 1, 2, 2}, {0, 24, 18 + 30})
            : ExpectPlacement(scenario, video, {1, 1, 2, 2}, {0, 24 + 30, 18});
    EXPECT_EQ(report.stats.failover_streams, 1u);
    ASSERT_EQ(report.streams.size(), 4u);
    EXPECT_EQ(report.streams[0].restarts, 1);
    EXPECT_TRUE(report.stats.shards[0].dead);
  }
}

TEST(ShardedServerTest, ScriptedMigrationMovesLiveSessionBitIdentically) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const std::string mover = "mig";  // a lone stream is placed on shard 0
  const StreamSpec spec{mover, "MES", PriorityClass::kStandard, 9, 42};

  FleetOptions opt;
  opt.num_shards = 2;
  opt.shard = FineGrainedShard(1);
  ChaosScript chaos;
  ChaosEvent migrate;
  migrate.kind = ChaosEvent::Kind::kMigrate;
  migrate.at_round = 3;  // fine-grained rounds => mid-video
  migrate.shard = 0;
  migrate.stream = mover;
  migrate.target_shard = 1;
  chaos.events.push_back(migrate);

  ShardedServer server(opt);
  const FleetReport report =
      std::move(server.Run({{mover, MakeFactory(video, pool, spec, true,
                                                true)}},
                           chaos))
          .value();
  EXPECT_EQ(report.stats.migration.attempted, 1u);
  EXPECT_EQ(report.stats.migration.completed, 1u);
  EXPECT_EQ(report.stats.migration.rejected_corrupt, 0u);
  EXPECT_EQ(report.stats.migration.fallback_restarts, 0u);
  ASSERT_EQ(report.streams.size(), 1u);
  const FleetStreamReport& fsr = report.streams[0];
  ASSERT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
  EXPECT_EQ(fsr.shard, 1) << "stream must finish on the migration target";
  EXPECT_EQ(fsr.migrations, 1);
  EXPECT_EQ(fsr.restarts, 0);
  EXPECT_EQ(fsr.report.frames, video.size());
  ExpectSameRun(SoloBaseline(video, pool, spec, true, true),
                fsr.report.result);
}

TEST(ShardedServerTest, CorruptedMigrationIsRejectedAndStreamRestarts) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const std::string mover = "cor";  // a lone stream is placed on shard 0
  const StreamSpec spec{mover, "MES", PriorityClass::kStandard, 9, 42};

  for (const bool truncate : {false, true}) {
    SCOPED_TRACE(truncate ? "truncate" : "bit-flip");
    FleetOptions opt;
    opt.num_shards = 2;
    opt.shard = FineGrainedShard(1);
    ChaosScript chaos;
    ChaosEvent migrate;
    migrate.kind = ChaosEvent::Kind::kMigrate;
    migrate.at_round = 3;
    migrate.shard = 0;
    migrate.stream = mover;
    migrate.target_shard = 1;
    chaos.events.push_back(migrate);
    ChaosEvent damage;
    damage.kind = ChaosEvent::Kind::kCorruptNextMigration;
    damage.shard = 1;  // damages the payload addressed to the target
    damage.flip_byte = 41;
    damage.flip_bit = 5;
    damage.truncate = truncate;
    chaos.events.push_back(damage);

    ShardedServer server(opt);
    const FleetReport report =
        std::move(server.Run({{mover, MakeFactory(video, pool, spec, false,
                                                  true)}},
                             chaos))
            .value();
    EXPECT_EQ(report.stats.migration.attempted, 1u);
    EXPECT_EQ(report.stats.migration.completed, 0u);
    EXPECT_EQ(report.stats.migration.rejected_corrupt, 1u)
        << "a damaged payload must be DataLoss, never an implant";
    EXPECT_EQ(report.stats.migration.fallback_restarts, 1u);
    ASSERT_EQ(report.streams.size(), 1u);
    const FleetStreamReport& fsr = report.streams[0];
    ASSERT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
    EXPECT_EQ(fsr.restarts, 1);
    ExpectSameRun(SoloBaseline(video, pool, spec, false, true),
                  fsr.report.result);
  }
}

TEST(ShardedServerTest, ShardDeathFailsOverAndResultsStayBitIdentical) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  // Equal lengths place round-robin in submission order: dead-a and
  // dead-b on the doomed shard 0, safe on shard 1.
  const std::vector<StreamSpec> specs = {
      {"dead-a", "MES", PriorityClass::kStandard, 9, 42},
      {"safe", "SW-MES", PriorityClass::kStandard, 11, 44},
      {"dead-b", "MES-B", PriorityClass::kStandard, 10, 43},
  };
  FleetOptions opt;
  opt.num_shards = 2;
  opt.shard = FineGrainedShard(1);
  ChaosScript chaos;
  ChaosEvent kill;
  kill.kind = ChaosEvent::Kind::kKillShard;
  kill.at_round = 4;  // streams are mid-video when the shard dies
  kill.shard = 0;
  chaos.events.push_back(kill);

  ShardedServer server(opt);
  std::vector<FleetStreamSpec> fleet;
  for (const StreamSpec& spec : specs) {
    fleet.push_back({spec.name, MakeFactory(video, pool, spec, true, true)});
  }
  const FleetReport report =
      std::move(server.Run(std::move(fleet), chaos)).value();
  EXPECT_EQ(report.stats.shards_killed, 1);
  // Both doomed streams were live on shard 0 when it died at its round 4.
  EXPECT_EQ(report.stats.failover_streams, 2u);
  EXPECT_EQ(report.stats.completed_streams, specs.size());
  ASSERT_EQ(report.stats.shards.size(), 2u);
  EXPECT_TRUE(report.stats.shards[0].dead);
  EXPECT_FALSE(report.stats.shards[1].dead);
  EXPECT_GT(report.stats.shards[1].stats.frames, 0u);
  ASSERT_EQ(report.streams.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    const FleetStreamReport& fsr = report.streams[i];
    ASSERT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
    EXPECT_EQ(fsr.shard, 1) << "only shard 1 survived";
    EXPECT_EQ(fsr.restarts, specs[i].name == "safe" ? 0 : 1);
    ExpectSameRun(SoloBaseline(video, pool, specs[i], true, true),
                  fsr.report.result);
  }
}

// ---------------------------------------------------------------------------
// The full chaos matrix: concurrent faults — detector outages, a scripted
// shard crash, a migration, a corrupted payload — across backends and
// worker counts. Every stream must still complete bit-identically.

TEST(ShardedServerTest, ChaosMatrixEveryCompletingStreamIsBitIdentical) {
  const Video video = MakeVideo(0.02, 17);
  const DetectorPool pool = MakePool(3);
  for (const bool lazy : {false, true}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE((lazy ? "lazy" : "eager") + std::string("/w") +
                   std::to_string(workers));
      const FleetScenario scenario = ChaosMatrixScenario(lazy, workers);
      const FleetReport report = RunScenario(scenario, video, pool);
      EXPECT_EQ(report.stats.shards_killed, 1);
      EXPECT_EQ(report.stats.migration.attempted, 1u);
      EXPECT_EQ(report.stats.migration.completed, 0u)
          << "a corrupted payload must never implant";
      EXPECT_EQ(report.stats.migration.rejected_corrupt, 1u);
      EXPECT_EQ(report.stats.migration.fallback_restarts, 1u);
      EXPECT_EQ(report.stats.completed_streams, scenario.specs.size())
          << "every stream must survive the chaos script";
      ASSERT_EQ(report.streams.size(), scenario.specs.size());
      for (size_t i = 0; i < scenario.specs.size(); ++i) {
        SCOPED_TRACE(scenario.specs[i].name);
        const FleetStreamReport& fsr = report.streams[i];
        ASSERT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
        EXPECT_EQ(fsr.shard, 0) << "only shard 0 survives this script";
        ExpectSameRun(SoloBaseline(video, pool, scenario.specs[i], lazy, true),
                      fsr.report.result);
      }
    }
  }
}

// Every control decision (chaos, migrations, failover) is taken between
// step phases in shard order, so the whole fleet ledger — not only each
// stream's result — repeats exactly from run to run.
TEST(ShardedServerTest, FleetLedgerRepeatsExactly) {
  const Video video = MakeVideo(0.02, 17);
  for (const FleetScenario& scenario :
       {UnevenScenario(), ChaosMatrixScenario(/*lazy=*/true, /*workers=*/4)}) {
    SCOPED_TRACE(scenario.chaos.empty() ? "uneven" : "chaos matrix");
    const DetectorPool pool = MakePool(scenario.pool_size);
    const FleetReport first = RunScenario(scenario, video, pool);
    for (int run = 2; run <= 3; ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      ExpectSameLedger(first, RunScenario(scenario, video, pool));
    }
  }
}

}  // namespace
}  // namespace vqe
