// Fleet-layer chaos matrix for ISSUE 8: sharded serving with live session
// migration, shard failover and deterministic chaos injection. The load-
// bearing invariant is bit-identity — every stream that completes, whether
// it ran on one shard, migrated mid-video, or was restarted after a shard
// crash or a corrupted migration payload, must produce a RunResult
// bit-identical to its solo RunStrategy run. On top of that: the hostile
// payload sweeps (every bit flip and truncation of a migration envelope is
// rejected with DataLoss before any state moves), cross-session identity
// rejection (FailedPrecondition, target untouched), the fleet admission
// front door, and skew rebalancing.

#include <gtest/gtest.h>

#include <cstdint>
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

namespace vqe {
namespace {

DetectorPool MakePool(int m) {
  const std::vector<std::string> names = {
      "yolov7-tiny@clear", "yolov7-tiny@night", "yolov7-tiny@rainy",
      "yolov7@clear",      "yolov7-micro@clear"};
  std::vector<DetectorProfile> profiles;
  for (int i = 0; i < m; ++i) {
    profiles.push_back(
        std::move(ParseDetectorName(names[static_cast<size_t>(i)])).value());
  }
  return std::move(BuildPool(profiles)).value();
}

Video MakeVideo(double scene_scale, uint64_t seed) {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = scene_scale;
  sample.seed = seed;
  return std::move(SampleVideo(*spec, sample)).value();
}

std::unique_ptr<SelectionStrategy> MakeStrategy(const std::string& kind) {
  if (kind == "MES") {
    MesOptions o;
    o.gamma = 2;
    return std::make_unique<MesStrategy>(o);
  }
  if (kind == "MES-B") {
    MesBOptions o;
    o.gamma = 2;
    return std::make_unique<MesBStrategy>(o);
  }
  if (kind == "SW-MES") {
    SwMesOptions o;
    o.gamma = 2;
    o.window = 8;
    return std::make_unique<SwMesStrategy>(o);
  }
  if (kind == "D-MES") {
    DucbOptions o;
    o.gamma = 2;
    return std::make_unique<DucbMesStrategy>(o);
  }
  return std::make_unique<RandomStrategy>();
}

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
};

EngineOptions MakeEngine(const StreamSpec& spec) {
  EngineOptions e;
  e.strategy_seed = spec.strategy_seed;
  e.compute_regret = false;
  return e;
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
  if (lazy) {
    auto source = LazyFrameEvaluator::Create(video, *pool, spec.trial_seed, {});
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    return std::move(RunStrategy(**source, strategy.get(), engine)).value();
  }
  auto matrix = BuildFrameMatrix(video, *pool, spec.trial_seed, {});
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
  if (lazy) {
    VQE_ASSIGN_OR_RETURN(
        source, LazyFrameEvaluator::Create(video, *pool, spec.trial_seed, {}));
  } else {
    VQE_ASSIGN_OR_RETURN(FrameMatrix matrix,
                         BuildFrameMatrix(video, *pool, spec.trial_seed, {}));
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

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.s_sum, b.s_sum);
  EXPECT_EQ(a.avg_true_ap, b.avg_true_ap);
  EXPECT_EQ(a.avg_norm_cost, b.avg_norm_cost);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.regret_available, b.regret_available);
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.charged_cost_ms, b.charged_cost_ms);
  EXPECT_EQ(a.breakdown.detector_ms, b.breakdown.detector_ms);
  EXPECT_EQ(a.breakdown.reference_ms, b.breakdown.reference_ms);
  EXPECT_EQ(a.breakdown.ensembling_ms, b.breakdown.ensembling_ms);
  EXPECT_EQ(a.breakdown.fault_ms, b.breakdown.fault_ms);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.cost_curve, b.cost_curve);
  EXPECT_EQ(a.fallback_frames, b.fallback_frames);
  EXPECT_EQ(a.failed_frames, b.failed_frames);
  ASSERT_EQ(a.model_availability.size(), b.model_availability.size());
  for (size_t i = 0; i < a.model_availability.size(); ++i) {
    EXPECT_EQ(a.model_availability[i].frames_selected,
              b.model_availability[i].frames_selected);
    EXPECT_EQ(a.model_availability[i].frames_failed,
              b.model_availability[i].frames_failed);
    EXPECT_EQ(a.model_availability[i].breaker_opens,
              b.model_availability[i].breaker_opens);
    EXPECT_EQ(a.model_availability[i].fault_ms,
              b.model_availability[i].fault_ms);
  }
}

/// Shard a name routes to under `num_shards`.
int HomeShard(const std::string& name, int num_shards) {
  return static_cast<int>(FleetRouteHash(name) %
                          static_cast<uint64_t>(num_shards));
}

/// A stream name with the given home shard ("<prefix><k>" search).
std::string NameOnShard(const std::string& prefix, int shard,
                        int num_shards) {
  for (int k = 0; k < 1000; ++k) {
    const std::string name = prefix + std::to_string(k);
    if (HomeShard(name, num_shards) == shard) return name;
  }
  ADD_FAILURE() << "no name found on shard " << shard;
  return prefix;
}

/// Fine-grained rounds so chaos events land mid-video: ~1 frame per round.
ServeOptions FineGrainedShard(int workers) {
  ServeOptions shard;
  shard.quantum_ms = 10.0;
  shard.max_frames_per_round = 2;
  shard.parallelism = workers;
  return shard;
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

TEST(ShardedServerTest, ScriptedMigrationMovesLiveSessionBitIdentically) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const std::string mover = NameOnShard("mig", 0, 2);
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
  const std::string mover = NameOnShard("cor", 0, 2);
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
  // Two streams homed on the doomed shard 0, one safe on shard 1.
  const std::vector<StreamSpec> specs = {
      {NameOnShard("dead-a", 0, 2), "MES", PriorityClass::kStandard, 9, 42},
      {NameOnShard("dead-b", 0, 2), "MES-B", PriorityClass::kStandard, 10,
       43},
      {NameOnShard("safe", 1, 2), "SW-MES", PriorityClass::kStandard, 11,
       44},
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
  // At least one doomed stream was live on shard 0 when it died (its round
  // clock only advances with work); the other may still have been in the
  // shard's inbox, in which case it reroutes via the submit-failure path
  // instead of counting as a failover.
  EXPECT_GE(report.stats.failover_streams, 1u);
  EXPECT_LE(report.stats.failover_streams, 2u);
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
    if (i < 2) {
      EXPECT_EQ(fsr.restarts, 1);
    }
    ExpectSameRun(SoloBaseline(video, pool, specs[i], true, true),
                  fsr.report.result);
  }
}

TEST(ShardedServerTest, SkewRebalancingMigratesOffTheBusiestShard) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 17);
  // All four streams hash-home to shard 0: without rebalancing shard 1
  // would idle the whole run.
  std::vector<StreamSpec> specs;
  std::vector<std::string> used;
  for (int k = 0; specs.size() < 4 && k < 1000; ++k) {
    const std::string name = "skew" + std::to_string(k);
    if (HomeShard(name, 2) != 0) continue;
    specs.push_back({name, "MES", PriorityClass::kStandard,
                     static_cast<uint64_t>(20 + k),
                     static_cast<uint64_t>(50 + k)});
  }
  ASSERT_EQ(specs.size(), 4u);

  FleetOptions opt;
  opt.num_shards = 2;
  opt.rebalance_threshold = 2;
  opt.shard = FineGrainedShard(1);
  ShardedServer server(opt);
  std::vector<FleetStreamSpec> fleet;
  for (const StreamSpec& spec : specs) {
    fleet.push_back({spec.name, MakeFactory(video, pool, spec, false, false)});
  }
  const FleetReport report =
      std::move(server.Run(std::move(fleet))).value();
  EXPECT_GE(report.stats.migration.attempted, 1u);
  EXPECT_GE(report.stats.migration.completed, 1u);
  EXPECT_EQ(report.stats.completed_streams, specs.size());
  bool any_on_shard_1 = false;
  ASSERT_EQ(report.streams.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    const FleetStreamReport& fsr = report.streams[i];
    ASSERT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
    any_on_shard_1 = any_on_shard_1 || fsr.shard == 1;
    ExpectSameRun(SoloBaseline(video, pool, specs[i], false, false),
                  fsr.report.result);
  }
  EXPECT_TRUE(any_on_shard_1) << "rebalancing must spread the skewed load";
}

// ---------------------------------------------------------------------------
// The full chaos matrix: concurrent faults — detector outages, a scripted
// shard crash, a migration, a corrupted payload — across backends and
// worker counts. Every stream must still complete bit-identically.

TEST(ShardedServerTest, ChaosMatrixEveryCompletingStreamIsBitIdentical) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const std::string mover = NameOnShard("cm-mig", 0, 2);
  const std::string doomed = NameOnShard("cm-dead", 1, 2);
  const std::vector<StreamSpec> specs = {
      {mover, "MES", PriorityClass::kStandard, 9, 42},
      {doomed, "MES-B", PriorityClass::kInteractive, 10, 43},
      {NameOnShard("cm-a", 0, 2), "SW-MES", PriorityClass::kBatch, 11, 44},
      {NameOnShard("cm-b", 1, 2), "D-MES", PriorityClass::kStandard, 12, 45},
      {NameOnShard("cm-c", 0, 2), "RAND", PriorityClass::kStandard, 13, 46},
  };

  for (const bool lazy : {false, true}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE((lazy ? "lazy" : "eager") + std::string("/w") +
                   std::to_string(workers));
      FleetOptions opt;
      opt.num_shards = 2;
      opt.max_restarts = 3;
      opt.shard = FineGrainedShard(workers);

      ChaosScript chaos;
      ChaosEvent migrate;  // clean migration 0 -> 1, mid-video
      migrate.kind = ChaosEvent::Kind::kMigrate;
      migrate.at_round = 2;
      migrate.shard = 0;
      migrate.stream = mover;
      migrate.target_shard = 1;
      chaos.events.push_back(migrate);
      ChaosEvent damage;  // ...but the payload arrives damaged
      damage.kind = ChaosEvent::Kind::kCorruptNextMigration;
      damage.shard = 1;
      damage.flip_byte = 7;
      damage.flip_bit = 2;
      chaos.events.push_back(damage);
      ChaosEvent kill;  // and later shard 1 dies outright
      kill.kind = ChaosEvent::Kind::kKillShard;
      kill.at_round = 6;
      kill.shard = 1;
      chaos.events.push_back(kill);

      ShardedServer server(opt);
      std::vector<FleetStreamSpec> fleet;
      for (const StreamSpec& spec : specs) {
        fleet.push_back(
            {spec.name, MakeFactory(video, pool, spec, lazy, true)});
      }
      const FleetReport report =
          std::move(server.Run(std::move(fleet), chaos)).value();
      EXPECT_EQ(report.stats.shards_killed, 1);
      EXPECT_EQ(report.stats.migration.attempted, 1u);
      // The corrupted payload is either implant-rejected with DataLoss
      // (shard 1 still alive when it arrives) or undeliverable (shard 1
      // already executed its kill) — never implanted. Either way the
      // stream falls back to a restart. The deterministic always-rejected
      // guarantee is pinned by CorruptedMigrationIsRejectedAndStreamRestarts.
      EXPECT_EQ(report.stats.migration.completed, 0u)
          << "a corrupted payload must never implant";
      EXPECT_LE(report.stats.migration.rejected_corrupt, 1u);
      EXPECT_GE(report.stats.migration.fallback_restarts, 1u);
      EXPECT_EQ(report.stats.completed_streams, specs.size())
          << "every stream must survive the chaos script";
      ASSERT_EQ(report.streams.size(), specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        const FleetStreamReport& fsr = report.streams[i];
        ASSERT_TRUE(fsr.report.status.ok()) << fsr.report.status.ToString();
        EXPECT_EQ(fsr.shard, 0) << "only shard 0 survives this script";
        ExpectSameRun(SoloBaseline(video, pool, specs[i], lazy, true),
                      fsr.report.result);
      }
    }
  }
}

}  // namespace
}  // namespace vqe
