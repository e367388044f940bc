// Serving-layer matrix: per-stream bit-identity under the StreamScheduler
// (any session count, worker count, faults on/off, eager and lazy
// backends), admission control and load shedding (kResourceExhausted,
// never a stall), deficit-round-robin fairness across priority classes,
// fleet breaker aggregation, per-session checkpoint/resume under the
// scheduler, and the two-ledger time accounting (wall-clock vs summed
// frame-clock).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "models/model_zoo.h"
#include "runtime/breaker_registry.h"
#include "runtime/fault_injection.h"
#include "serve/latency_histogram.h"
#include "serve/overload.h"
#include "serve/scheduler.h"
#include "serve/stream_session.h"
#include "sim/dataset.h"
#include "temporal/skip_policy.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::ExpectSameRun;
using test::MakePool;
using test::MakeStrategy;
using test::MakeVideo;
using test::ScratchDir;

constexpr char kScratch[] = "vqe_serve_test";

/// The PR 3 fault mix: a scripted mid-video outage on model 0, random
/// per-attempt errors on model 1.
std::vector<FaultScript> MakeScripts(size_t m) {
  std::vector<FaultScript> scripts(m);
  scripts[0].bursts.push_back({2, 8, FaultKind::kError, -1});
  if (m > 1) scripts[1].error_rate = 0.2;
  return scripts;
}

/// One stream's identity inside the bit-identity matrix.
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
  e.compute_regret = false;  // keeps the lazy backend lazy
  return e;
}

/// Solo ground truth: the exact run a stream would do alone, no scheduler
/// — the reference every serve configuration must reproduce.
RunResult SoloBaseline(const Video& video, const DetectorPool& base,
                       const StreamSpec& spec, bool lazy, bool faults) {
  const DetectorPool* pool = &base;
  DetectorPool faulty;
  if (faults) {
    faulty = std::move(ApplyFaultScripts(base, MakeScripts(base.size()))).value();
    pool = &faulty;
  }
  std::unique_ptr<SelectionStrategy> strategy = MakeStrategy(spec.strategy);
  const EngineOptions engine = MakeEngine(spec);
  if (lazy) {
    auto source =
        LazyFrameEvaluator::Create(video, *pool, spec.trial_seed, {});
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    return std::move(RunStrategy(**source, strategy.get(), engine)).value();
  }
  auto matrix = BuildFrameMatrix(video, *pool, spec.trial_seed, {});
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return std::move(RunStrategy(*matrix, strategy.get(), engine)).value();
}

/// Builds a serving session over the decorated pool chain:
/// base → (faults?) → source.
std::unique_ptr<StreamSession> MakeServeSession(
    const Video& video, const DetectorPool& base, const StreamSpec& spec,
    bool lazy, bool faults, EngineOptions engine_override = {},
    bool use_override = false) {
  std::vector<std::unique_ptr<DetectorPool>> owned;
  const DetectorPool* pool = &base;
  if (faults) {
    auto faulty = std::make_unique<DetectorPool>(
        std::move(ApplyFaultScripts(*pool, MakeScripts(pool->size())))
            .value());
    pool = faulty.get();
    owned.push_back(std::move(faulty));
  }
  std::unique_ptr<EvaluationSource> source;
  if (lazy) {
    source =
        std::move(LazyFrameEvaluator::Create(video, *pool, spec.trial_seed, {}))
            .value();
  } else {
    source = std::make_unique<MatrixEvaluationSource>(
        std::move(BuildFrameMatrix(video, *pool, spec.trial_seed, {}))
            .value());
  }
  StreamSessionConfig cfg;
  cfg.name = spec.name;
  cfg.priority = spec.priority;
  cfg.engine = use_override ? engine_override : MakeEngine(spec);
  for (const auto& det : pool->detectors) {
    cfg.model_names.push_back(det->name());
  }
  return std::move(StreamSession::Create(std::move(cfg), std::move(source),
                                         MakeStrategy(spec.strategy),
                                         std::move(owned)))
      .value();
}

// ---------------------------------------------------------------------------
// Priority classes.

TEST(PriorityClassTest, WeightsAndNames) {
  EXPECT_EQ(PriorityWeight(PriorityClass::kInteractive), 4);
  EXPECT_EQ(PriorityWeight(PriorityClass::kStandard), 2);
  EXPECT_EQ(PriorityWeight(PriorityClass::kBatch), 1);
  EXPECT_STREQ(PriorityClassToString(PriorityClass::kInteractive),
               "interactive");
  EXPECT_STREQ(PriorityClassToString(PriorityClass::kStandard), "standard");
  EXPECT_STREQ(PriorityClassToString(PriorityClass::kBatch), "batch");
}

TEST(ServeOptionsTest, Validation) {
  ServeOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  ServeOptions bad = ok;
  bad.max_sessions = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = ok;
  bad.queue_depth = -1;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = ok;
  bad.quantum_ms = 0.0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  bad = ok;
  bad.max_frames_per_round = 0;
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, CreateValidatesInputs) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.01, 3);
  StreamSpec spec{"s", "MES", PriorityClass::kStandard, 1, 2};

  StreamSessionConfig nameless;
  auto source = std::make_unique<MatrixEvaluationSource>(
      std::move(BuildFrameMatrix(video, pool, 1, {})).value());
  auto r = StreamSession::Create(nameless, std::move(source),
                                 MakeStrategy("MES"));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  StreamSessionConfig cfg;
  cfg.name = "s";
  cfg.model_names = {"just-one"};  // pool has two models
  auto source2 = std::make_unique<MatrixEvaluationSource>(
      std::move(BuildFrameMatrix(video, pool, 1, {})).value());
  auto r2 = StreamSession::Create(cfg, std::move(source2),
                                  MakeStrategy("MES"));
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  cfg.model_names.clear();
  auto r3 = StreamSession::Create(cfg, nullptr, MakeStrategy("MES"));
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  (void)spec;
}

// ---------------------------------------------------------------------------
// BreakerRegistry: fleet-wide per-model health.

TEST(BreakerRegistryTest, UnknownModelIsHealthy) {
  BreakerRegistry registry;
  EXPECT_TRUE(registry.AllowsCall("never-seen", 0));
  EXPECT_TRUE(registry.Snapshot(0).empty());
}

TEST(BreakerRegistryTest, ConsecutiveFailuresTripTheFleetBreaker) {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 3;
  BreakerRegistry registry(opt);
  registry.Record("yolo", /*tick=*/1, /*successes=*/0, /*failures=*/3);
  EXPECT_FALSE(registry.AllowsCall("yolo", 1));
  const auto health = registry.Snapshot(1);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].model, "yolo");
  EXPECT_EQ(health[0].state, BreakerState::kOpen);
  EXPECT_EQ(health[0].failures, 3u);
  EXPECT_EQ(health[0].opens, 1u);
}

TEST(BreakerRegistryTest, SuccessesApplyBeforeFailures) {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 3;
  BreakerRegistry registry(opt);
  // Each frame both succeeds and fails once: the success resets the
  // consecutive-failure streak first, so the single failure per frame can
  // never accumulate to the threshold.
  for (uint64_t t = 1; t <= 10; ++t) {
    registry.Record("yolo", t, /*successes=*/1, /*failures=*/1);
  }
  EXPECT_TRUE(registry.AllowsCall("yolo", 10));
  // Pure failures still trip it.
  registry.Record("yolo", 11, 0, 3);
  EXPECT_FALSE(registry.AllowsCall("yolo", 11));
}

TEST(BreakerRegistryTest, OpenBreakerAdmitsProbesAfterCooldown) {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 2;
  opt.open_frames = 5;
  BreakerRegistry registry(opt);
  registry.Record("m", 10, 0, 2);
  EXPECT_FALSE(registry.AllowsCall("m", 10));
  EXPECT_TRUE(registry.AllowsCall("m", 15));  // half-open probe window
  const auto health = registry.Snapshot(15);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].state, BreakerState::kHalfOpen);
}

TEST(BreakerRegistryTest, TicksAreClampedMonotone) {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 2;
  opt.open_frames = 50;
  BreakerRegistry registry(opt);
  registry.Record("m", 100, 0, 2);  // opens at clamped tick 100
  // A stale, smaller tick must not rewind the clock past the open window.
  EXPECT_FALSE(registry.AllowsCall("m", 5));
  EXPECT_FALSE(registry.AllowsCall("m", 100));
  EXPECT_TRUE(registry.AllowsCall("m", 150));
}

TEST(BreakerRegistryTest, SnapshotIsSortedByModelName) {
  BreakerRegistry registry;
  registry.Record("zebra", 1, 1, 0);
  registry.Record("alpha", 1, 1, 0);
  registry.Record("mid", 1, 1, 0);
  const auto health = registry.Snapshot(1);
  ASSERT_EQ(health.size(), 3u);
  EXPECT_EQ(health[0].model, "alpha");
  EXPECT_EQ(health[1].model, "mid");
  EXPECT_EQ(health[2].model, "zebra");
}

// ---------------------------------------------------------------------------
// Admission control and shedding.

TEST(StreamSchedulerTest, ShedsBeyondCapacityWithResourceExhausted) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.01, 7);
  ServeOptions opt;
  opt.max_sessions = 2;
  opt.queue_depth = 1;
  StreamScheduler scheduler(opt);

  auto submit = [&](const std::string& name) {
    StreamSpec spec{name, "MES", PriorityClass::kStandard, 1, 2};
    return scheduler.Submit(MakeServeSession(video, pool, spec, /*lazy=*/true,
                                             /*faults=*/false));
  };
  EXPECT_EQ(std::move(submit("a")).value(), 0u);
  EXPECT_EQ(std::move(submit("b")).value(), 1u);
  EXPECT_EQ(std::move(submit("c")).value(), 2u);  // queued
  EXPECT_EQ(scheduler.active_sessions(), 2);
  EXPECT_EQ(scheduler.queued_sessions(), 1);
  const auto shed = submit("d");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // Overload rejected new work but admitted work must drain completely.
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), 3u);
  for (const auto& s : report.streams) {
    EXPECT_TRUE(s.status.ok()) << s.name << ": " << s.status.ToString();
    EXPECT_GT(s.frames, 0u);
  }
  EXPECT_EQ(report.stats.shed_submissions, 1u);
  EXPECT_EQ(report.stats.admitted, 3u);
  EXPECT_EQ(report.stats.submitted, 4u);
  EXPECT_EQ(report.stats.peak_active, 2);
  EXPECT_EQ(report.stats.peak_queued, 1);
  // Queued stream admitted only after a slot freed.
  EXPECT_GT(report.streams[2].admitted_round, 0u);
}

TEST(StreamSchedulerTest, FleetDarkPoolIsShedAtAdmission) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.01, 7);
  CircuitBreakerOptions breaker;
  breaker.failure_threshold = 1;
  ServeOptions opt;
  opt.fleet_breaker = breaker;
  StreamScheduler scheduler(opt);
  // Every model of the candidate pool is fleet-open.
  for (const auto& det : pool.detectors) {
    scheduler.fleet_health().Record(det->name(), 1, 0, 1);
  }
  StreamSpec spec{"dark", "MES", PriorityClass::kStandard, 1, 2};
  const auto shed = scheduler.Submit(MakeServeSession(
      video, pool, spec, /*lazy=*/true, /*faults=*/false));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// The bit-identity matrix: every stream served under any scheduler/worker/
// fault configuration must reproduce its solo run bit for bit.

void RunBitIdentityCase(const Video& video, const DetectorPool& pool,
                        bool lazy, int workers, bool faults) {
  const std::vector<StreamSpec> specs = {
      {"interactive-mes", "MES", PriorityClass::kInteractive, 9, 42},
      {"standard-swmes", "SW-MES", PriorityClass::kStandard, 10, 43},
      {"batch-dmes", "D-MES", PriorityClass::kBatch, 11, 44},
      {"standard-rand", "RAND", PriorityClass::kStandard, 12, 45},
  };

  ServeOptions opt;
  opt.max_sessions = 3;  // forces the 4th stream through the queue
  opt.queue_depth = 4;
  opt.quantum_ms = 40.0;
  opt.max_frames_per_round = 8;
  opt.parallelism = workers;
  StreamScheduler scheduler(opt);

  for (size_t i = 0; i < specs.size(); ++i) {
    auto id =
        scheduler.Submit(MakeServeSession(video, pool, specs[i], lazy, faults));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, i);
  }
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    const StreamReport& sr = report.streams[i];
    EXPECT_EQ(sr.stream_id, i);
    EXPECT_EQ(sr.name, specs[i].name);
    ASSERT_TRUE(sr.status.ok()) << sr.status.ToString();
    const RunResult solo = SoloBaseline(video, pool, specs[i], lazy, faults);
    ExpectSameRun(solo, sr.result);
  }
  // The two ledgers: summed simulated frame-clock is exactly the sum over
  // streams; wall-clock is measured, not summed.
  double simulated = 0.0;
  for (const auto& s : report.streams) {
    simulated += s.result.breakdown.SimulatedMs();
  }
  EXPECT_DOUBLE_EQ(report.stats.simulated_ms, simulated);
  EXPECT_GT(report.stats.simulated_ms, 0.0);
  EXPECT_GT(report.stats.wall_ms, 0.0);
  EXPECT_GT(report.stats.frames, 0u);
}

TEST(ServeBitIdentityTest, EagerBackendMatrix) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GT(video.size(), 12u);
  for (const int workers : {1, 4}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE("eager/w" + std::to_string(workers) +
                   (faults ? "/faults" : "/clean"));
      RunBitIdentityCase(video, pool, /*lazy=*/false, workers, faults);
    }
  }
}

TEST(ServeBitIdentityTest, LazyBackendMatrix) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  ASSERT_GT(video.size(), 12u);
  for (const int workers : {1, 4}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE("lazy/w" + std::to_string(workers) +
                   (faults ? "/faults" : "/clean"));
      RunBitIdentityCase(video, pool, /*lazy=*/true, workers, faults);
    }
  }
}

// ---------------------------------------------------------------------------
// Deficit round-robin fairness.

TEST(StreamSchedulerTest, InteractiveClassFinishesInFewerRounds) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  // Identical work, different classes: weights 4/2/1 mean the interactive
  // stream earns quanta 4x faster and must retire in no more rounds than
  // standard, which in turn beats batch.
  const std::vector<StreamSpec> specs = {
      {"fast", "MES", PriorityClass::kInteractive, 9, 42},
      {"mid", "MES", PriorityClass::kStandard, 9, 42},
      {"slow", "MES", PriorityClass::kBatch, 9, 42},
  };
  ServeOptions opt;
  opt.max_sessions = 3;
  opt.quantum_ms = 20.0;  // small quantum => many rounds => weights matter
  opt.max_frames_per_round = 64;
  opt.parallelism = 1;
  StreamScheduler scheduler(opt);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(
        scheduler
            .Submit(MakeServeSession(video, pool, specs[i], /*lazy=*/true,
                                     /*faults=*/false))
            .ok());
  }
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), 3u);
  const auto& interactive = report.streams[0];
  const auto& standard = report.streams[1];
  const auto& batch = report.streams[2];
  EXPECT_EQ(interactive.frames, standard.frames);  // same total work
  EXPECT_EQ(standard.frames, batch.frames);
  EXPECT_LE(interactive.rounds_active, standard.rounds_active);
  EXPECT_LE(standard.rounds_active, batch.rounds_active);
  EXPECT_LT(interactive.rounds_active, batch.rounds_active)
      << "a 4x weight advantage must be visible in rounds-to-finish";
}

// ---------------------------------------------------------------------------
// Per-stream fault containment and checkpoint/resume under the scheduler.

TEST(StreamSchedulerTest, CrashingSessionRetiresWithoutStallingOthers) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  ServeOptions opt;
  opt.max_sessions = 2;
  opt.parallelism = 2;
  StreamScheduler scheduler(opt);

  StreamSpec healthy{"healthy", "MES", PriorityClass::kStandard, 9, 42};
  StreamSpec doomed{"doomed", "SW-MES", PriorityClass::kStandard, 10, 43};
  EngineOptions crash = MakeEngine(doomed);
  crash.checkpoint.directory = ScratchDir(kScratch, "crash-contained");
  crash.checkpoint.every_frames = 4;
  crash.checkpoint.crash_after_frames = 5;

  ASSERT_TRUE(scheduler
                  .Submit(MakeServeSession(video, pool, healthy, true, false))
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(MakeServeSession(video, pool, doomed, true, false,
                                           crash, /*use_override=*/true))
                  .ok());

  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), 2u);
  EXPECT_TRUE(report.streams[0].status.ok());
  EXPECT_EQ(report.streams[0].result.frames_processed, video.size());
  EXPECT_EQ(report.streams[1].status.code(), StatusCode::kAborted);
  EXPECT_LT(report.streams[1].frames, video.size());
  // The terminal error is surfaced in the aggregate stats, not only in the
  // per-stream report: fleet summaries read stats.errors to explain WHY
  // streams died.
  EXPECT_EQ(report.stats.failed_streams, 1u);
  ASSERT_EQ(report.stats.errors.size(), 1u);
  EXPECT_EQ(report.stats.errors[0].stream_id, report.streams[1].stream_id);
  EXPECT_EQ(report.stats.errors[0].name, "doomed");
  EXPECT_EQ(report.stats.errors[0].code, StatusCode::kAborted);
  EXPECT_FALSE(report.stats.errors[0].message.empty());
}

TEST(StreamSchedulerTest, SessionCheckpointResumesBitIdenticallyUnderServe) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  StreamSpec spec{"resumable", "MES", PriorityClass::kStandard, 9, 42};
  const RunResult solo = SoloBaseline(video, pool, spec, /*lazy=*/true,
                                      /*faults=*/false);

  EngineOptions ck = MakeEngine(spec);
  ck.checkpoint.directory = ScratchDir(kScratch, "serve-resume");
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;

  // First serving process: the session dies mid-video (kAborted).
  {
    StreamScheduler scheduler;
    ASSERT_TRUE(scheduler
                    .Submit(MakeServeSession(video, pool, spec, true, false,
                                             ck, true))
                    .ok());
    const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
    ASSERT_EQ(report.streams.size(), 1u);
    ASSERT_EQ(report.streams[0].status.code(), StatusCode::kAborted);
  }

  // Restarted serving process: a fresh session over the same checkpoint
  // directory resumes and completes; the stitched run must equal the
  // uninterrupted solo run bit for bit.
  ck.checkpoint.crash_after_frames = 0;
  StreamScheduler scheduler;
  ASSERT_TRUE(scheduler
                  .Submit(MakeServeSession(video, pool, spec, true, false,
                                           ck, true))
                  .ok());
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), 1u);
  ASSERT_TRUE(report.streams[0].status.ok())
      << report.streams[0].status.ToString();
  EXPECT_TRUE(report.streams[0].result.checkpoint.resumed);
  ExpectSameRun(solo, report.streams[0].result);
}

// ---------------------------------------------------------------------------
// Fleet health aggregation across sessions.

TEST(StreamSchedulerTest, FaultedSessionsPopulateFleetHealth) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  ServeOptions opt;
  opt.max_sessions = 2;
  StreamScheduler scheduler(opt);
  const std::vector<StreamSpec> specs = {
      {"f0", "MES", PriorityClass::kStandard, 9, 42},
      {"f1", "SW-MES", PriorityClass::kStandard, 10, 43},
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(MakeServeSession(video, pool, specs[i],
                                             /*lazy=*/true, /*faults=*/true))
                    .ok());
  }
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_FALSE(report.stats.fleet_health.empty());
  uint64_t total_failures = 0;
  uint64_t total_successes = 0;
  for (const auto& h : report.stats.fleet_health) {
    total_failures += h.failures;
    total_successes += h.successes;
  }
  // The scripted outage on model 0 must surface as fleet-visible failures,
  // aggregated from BOTH sessions' private runs.
  EXPECT_GT(total_failures, 0u);
  EXPECT_GT(total_successes, 0u);
  // Per-stream results remain solo-identical despite shared reporting.
  for (size_t i = 0; i < specs.size(); ++i) {
    const RunResult solo =
        SoloBaseline(video, pool, specs[i], /*lazy=*/true, /*faults=*/true);
    ExpectSameRun(solo, report.streams[i].result);
  }
}

// ---------------------------------------------------------------------------
// Two-ledger time accounting.

TEST(TimeBreakdownTest, SimulatedAndWallLedgersAreSeparate) {
  TimeBreakdown b;
  b.detector_ms = 10.0;
  b.reference_ms = 5.0;
  b.ensembling_ms = 2.0;
  b.fault_ms = 3.0;
  b.algorithm_ms = 100.0;  // wall-clock share, not simulated
  EXPECT_DOUBLE_EQ(b.SimulatedMs(), 20.0);
  EXPECT_DOUBLE_EQ(b.TotalMs(), 120.0);
}

TEST(StreamSchedulerTest, ServeStatsKeepLedgersApart) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.01, 7);
  ServeOptions opt;
  opt.max_sessions = 2;
  StreamScheduler scheduler(opt);
  for (size_t i = 0; i < 2; ++i) {
    StreamSpec spec{"s" + std::to_string(i), "MES",
                    PriorityClass::kStandard, 9 + i, 42 + i};
    ASSERT_TRUE(scheduler
                    .Submit(MakeServeSession(video, pool, spec, true, false))
                    .ok());
  }
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  double simulated = 0.0;
  double algo = 0.0;
  for (const auto& s : report.streams) {
    simulated += s.result.breakdown.SimulatedMs();
    algo += s.result.breakdown.algorithm_ms;
  }
  EXPECT_DOUBLE_EQ(report.stats.simulated_ms, simulated);
  EXPECT_DOUBLE_EQ(report.stats.algorithm_wall_ms, algo);
  EXPECT_GT(report.stats.wall_ms, 0.0);
  // Simulated frame-clock is orders of magnitude above the real wall
  // clock here (no real GPUs run), which is exactly why the ledgers must
  // never be summed together.
  EXPECT_NE(report.stats.simulated_ms, report.stats.wall_ms);
  // Latency percentiles recorded and ordered.
  EXPECT_GE(report.stats.frame_p99_ms, report.stats.frame_p50_ms);
}

// ---------------------------------------------------------------------------
// Overload control (ISSUE 9): the percentile sensor, option validation,
// the hysteresis ladder state machine, per-class serve accounting, the
// level-3 batch shed, and the engine-side degradation actuators.

TEST(SamplePercentileTest, NearestRank) {
  EXPECT_EQ(SamplePercentile({}, 0.99), 0.0);
  EXPECT_EQ(SamplePercentile({7.0}, 0.5), 7.0);
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(static_cast<double>(i));
  EXPECT_EQ(SamplePercentile(ten, 0.5), 5.0);   // ceil(0.5 * 10) = 5th
  EXPECT_EQ(SamplePercentile(ten, 0.99), 10.0);  // ceil(9.9) = 10th
  EXPECT_EQ(SamplePercentile(ten, 1.0), 10.0);
}

// The one percentile rule the scheduler, fleet and controller share: q is
// clamped (q <= 0 is the minimum, never a wrapped rank), and the in-place
// form reorders its input yet keeps answering exactly.
TEST(SamplePercentileTest, ClampsAndSelectsInPlace) {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(static_cast<double>(i));
  EXPECT_EQ(SamplePercentile(ten, 0.0), 1.0);
  EXPECT_EQ(SamplePercentile(ten, -0.5), 1.0);
  EXPECT_EQ(SamplePercentile(ten, 1.5), 10.0);
  std::vector<double> empty;
  EXPECT_EQ(SamplePercentileInPlace(empty, 0.5), 0.0);
  std::vector<double> in_place = ten;
  for (const double q : {0.999, 0.5, 0.99, 0.1, 0.0, 0.55}) {
    EXPECT_EQ(SamplePercentileInPlace(in_place, q), SamplePercentile(ten, q))
        << "q=" << q;
  }
}

// The scheduler's bounded stand-in for keeping every frame latency: each
// percentile is the upper edge of a 64-per-octave bucket, so it lies in
// [exact, exact·(1 + ε)] with ε = 2^(1/64) − 1 < 1.1 %, where exact is the
// nearest-rank percentile of the same samples. Zeros report exactly 0.
TEST(LatencyHistogramTest, PercentilesStayWithinOneBucketOfExact) {
  const double kEpsilon = 0.011;
  const double kQuantiles[] = {0.0, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    for (const size_t n : {1u, 2u, 17u, 1000u, 5000u}) {
      LatencyHistogram hist;
      std::vector<double> samples;
      for (size_t i = 0; i < n; ++i) {
        double v = 0.0;
        switch (rng.UniformInt(5)) {
          case 0:  // exact zero
            break;
          case 1:  // tiny
            v = std::pow(10.0, rng.Uniform(-12.0, -9.0));
            break;
          case 2:  // huge
            v = std::pow(10.0, rng.Uniform(6.0, 12.0));
            break;
          case 3:  // an exact bucket edge or power of two
            v = std::exp2(static_cast<double>(rng.UniformInt(129)) / 64.0 -
                          1.0);
            break;
          default:  // typical frame latencies
            v = std::pow(10.0, rng.Uniform(-3.0, 3.0));
            break;
        }
        hist.Add(v);
        samples.push_back(v);
      }
      ASSERT_EQ(hist.count(), n);
      for (const double q : kQuantiles) {
        const double exact = SamplePercentile(samples, q);
        const double got = hist.Percentile(q);
        EXPECT_GE(got, exact) << "seed " << seed << " n " << n << " q " << q;
        EXPECT_LE(got, exact * (1.0 + kEpsilon))
            << "seed " << seed << " n " << n << " q " << q;
      }
    }
  }
}

TEST(LatencyHistogramTest, EmptyZerosAndMemoryBound) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  LatencyHistogram zeros;
  for (int i = 0; i < 10; ++i) zeros.Add(0.0);
  EXPECT_EQ(zeros.Percentile(1.0), 0.0);
  EXPECT_EQ(zeros.num_buckets(), 0u);

  // A million log-uniform samples over six decades hold at most the
  // buckets of six decades (about 20 octaves), not a million counters.
  LatencyHistogram many;
  Rng rng(9);
  for (int i = 0; i < 1000000; ++i) {
    many.Add(std::pow(10.0, rng.Uniform(-3.0, 3.0)));
  }
  EXPECT_EQ(many.count(), 1000000u);
  EXPECT_LE(many.num_buckets(),
            static_cast<size_t>(std::ceil(6.0 * std::log2(10.0) * 64.0)) + 1);
}

TEST(OverloadOptionsTest, DisabledBypassesValidation) {
  OverloadOptions off;
  off.window = -5;  // nonsense, but the controller is never constructed
  EXPECT_TRUE(off.Validate().ok());
}

TEST(OverloadOptionsTest, EnabledValidatesEveryKnob) {
  OverloadOptions ok;
  ok.enabled = true;
  EXPECT_TRUE(ok.Validate().ok());
  const auto expect_bad = [&](void (*mutate)(OverloadOptions&)) {
    OverloadOptions bad = ok;
    mutate(bad);
    EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
  };
  expect_bad([](OverloadOptions& o) { o.window = 0; });
  expect_bad([](OverloadOptions& o) { o.min_samples = 0; });
  expect_bad([](OverloadOptions& o) { o.min_samples = o.window + 1; });
  expect_bad([](OverloadOptions& o) { o.queue_trigger = -1; });
  expect_bad([](OverloadOptions& o) { o.dwell_rounds = 0; });
  expect_bad([](OverloadOptions& o) { o.recover_rounds = 0; });
  expect_bad([](OverloadOptions& o) { o.skip_boost = -1; });
  expect_bad([](OverloadOptions& o) { o.skip_boost = kMaxSkipBoost + 1; });
  expect_bad([](OverloadOptions& o) { o.slo[0].p99_ms = std::nan(""); });
  expect_bad([](OverloadOptions& o) { o.slo[0].p99_ms = -1.0; });
  expect_bad([](OverloadOptions& o) { o.slo[1].shed_budget = -0.1; });
  expect_bad([](OverloadOptions& o) { o.slo[1].shed_budget = 1.5; });
}

OverloadOptions LadderOptions() {
  OverloadOptions o;
  o.enabled = true;
  o.window = 16;
  o.min_samples = 4;
  o.queue_trigger = 1;
  o.dwell_rounds = 2;
  o.recover_rounds = 2;
  o.skip_boost = 3;
  o.shrink_mask = 0x2;
  return o;
}

TEST(OverloadControllerTest, FirstQueueBreachStepsImmediatelyThenDwells) {
  OverloadController c(LadderOptions());
  ASSERT_EQ(c.level(), 0);
  c.EndRound(0, /*queue_depth=*/5);  // no prior transition: steps at once
  EXPECT_EQ(c.level(), 1);
  c.EndRound(1, 5);  // dwell_rounds = 2 gates the next step
  EXPECT_EQ(c.level(), 1);
  c.EndRound(2, 5);
  EXPECT_EQ(c.level(), 2);
  ASSERT_EQ(c.ledger().size(), 2u);
  EXPECT_EQ(c.ledger()[0].round, 0u);
  EXPECT_EQ(c.ledger()[0].from, 0);
  EXPECT_EQ(c.ledger()[0].to, 1);
  EXPECT_EQ(c.ledger()[0].trigger_class, -1);
  EXPECT_TRUE(c.ledger()[0].queue_triggered);
  EXPECT_EQ(c.ledger()[0].queue_depth, 5);
  EXPECT_EQ(c.ledger()[1].round, 2u);
}

TEST(OverloadControllerTest, LatencyBreachAttributesTheClass) {
  OverloadOptions opt = LadderOptions();
  opt.queue_trigger = 0;  // latency sensor only
  opt.slo[PriorityClassIndex(PriorityClass::kInteractive)].p99_ms = 10.0;
  OverloadController c(opt);
  // Below min_samples the window is not judged.
  for (int i = 0; i < 3; ++i) {
    c.RecordFrameCost(PriorityClass::kInteractive, 50.0);
  }
  c.EndRound(0, 0);
  EXPECT_EQ(c.level(), 0);
  c.RecordFrameCost(PriorityClass::kInteractive, 50.0);
  c.EndRound(1, 0);
  EXPECT_EQ(c.level(), 1);
  EXPECT_EQ(c.ClassP99(PriorityClassIndex(PriorityClass::kInteractive)), 50.0);
  ASSERT_EQ(c.ledger().size(), 1u);
  EXPECT_EQ(c.ledger()[0].trigger_class,
            PriorityClassIndex(PriorityClass::kInteractive));
  EXPECT_FALSE(c.ledger()[0].queue_triggered);
  EXPECT_EQ(c.ledger()[0].observed_p99_ms, 50.0);
}

TEST(OverloadControllerTest, RecoveryNeedsHealthyStreakAndDwell) {
  OverloadController c(LadderOptions());
  c.EndRound(0, 5);
  ASSERT_EQ(c.level(), 1);
  c.EndRound(1, 0);  // healthy, but streak 1 < recover_rounds
  EXPECT_EQ(c.level(), 1);
  c.EndRound(2, 0);  // streak 2, dwell satisfied: one rung up
  EXPECT_EQ(c.level(), 0);
  // The dwell gates BOTH directions: a breach one round after the
  // recovery transition cannot immediately re-trip.
  c.EndRound(3, 5);
  EXPECT_EQ(c.level(), 0);
  c.EndRound(4, 5);  // dwell satisfied: re-trips
  ASSERT_EQ(c.level(), 1);
  c.EndRound(5, 5);  // still hot: the healthy streak stays at zero
  EXPECT_EQ(c.level(), 1);
  c.EndRound(6, 0);  // streak 1 of 2
  EXPECT_EQ(c.level(), 1);
  c.EndRound(7, 0);  // streak 2: recovers
  EXPECT_EQ(c.level(), 0);
}

TEST(OverloadControllerTest, StaleWindowDrainsInsteadOfWedgingTheLadder) {
  OverloadOptions opt = LadderOptions();
  opt.queue_trigger = 0;
  opt.dwell_rounds = 1;
  opt.min_samples = 1;
  opt.slo[0].p99_ms = 10.0;
  OverloadController c(opt);
  c.RecordFrameCost(PriorityClass::kInteractive, 100.0);
  c.EndRound(0, 0);
  ASSERT_GE(c.level(), 1);
  EXPECT_EQ(c.ClassP99(0), 100.0);
  // The class never sends traffic again. The fossil sample must drain
  // after recover_rounds idle rounds and the ladder must fully recover.
  uint64_t round = 1;
  for (; round < 20 && c.level() != 0; ++round) c.EndRound(round, 0);
  EXPECT_EQ(c.level(), 0) << "ladder wedged on a stale window";
  EXPECT_EQ(c.ClassP99(0), 0.0);
}

TEST(OverloadControllerTest, ActuatorViewsFollowTheLevel) {
  OverloadOptions opt = LadderOptions();
  opt.dwell_rounds = 1;
  opt.recover_rounds = 1;
  OverloadController c(opt);
  EXPECT_EQ(c.skip_boost(), 0);
  EXPECT_EQ(c.model_mask(), EnsembleId{0});
  EXPECT_FALSE(c.throttle_batch());

  c.EndRound(0, 5);
  ASSERT_EQ(c.level(), 1);
  EXPECT_EQ(c.skip_boost(), 3);
  EXPECT_EQ(c.model_mask(), EnsembleId{0});
  EXPECT_FALSE(c.throttle_batch());

  c.EndRound(1, 5);
  ASSERT_EQ(c.level(), 2);
  EXPECT_EQ(c.skip_boost(), 3);
  EXPECT_EQ(c.model_mask(), EnsembleId{0x2});
  EXPECT_FALSE(c.throttle_batch());

  c.EndRound(2, 5);
  ASSERT_EQ(c.level(), 3);
  EXPECT_TRUE(c.throttle_batch());
  c.EndRound(3, 5);  // bottom rung: stays
  EXPECT_EQ(c.level(), 3);

  // Recovery walks the actuators back the same one-rung way.
  c.EndRound(4, 0);
  EXPECT_EQ(c.level(), 2);
  EXPECT_FALSE(c.throttle_batch());
  c.EndRound(5, 0);
  EXPECT_EQ(c.level(), 1);
  EXPECT_EQ(c.model_mask(), EnsembleId{0});
  c.EndRound(6, 0);
  EXPECT_EQ(c.level(), 0);
  EXPECT_EQ(c.skip_boost(), 0);
}

TEST(ServeClassStatsTest, PerClassAccountingAndPercentiles) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 7);
  ServeOptions opt;
  opt.max_sessions = 3;
  StreamScheduler scheduler(opt);
  const std::vector<StreamSpec> specs = {
      {"i", "MES", PriorityClass::kInteractive, 9, 42},
      {"s", "MES", PriorityClass::kStandard, 10, 43},
      {"b", "MES", PriorityClass::kBatch, 11, 44},
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(MakeServeSession(video, pool, specs[i], true,
                                             false))
                    .ok());
  }
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  uint64_t class_frames = 0;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    SCOPED_TRACE(PriorityClassToString(static_cast<PriorityClass>(c)));
    const auto& cs = report.stats.classes[c];
    EXPECT_EQ(cs.submitted, 1u);
    EXPECT_EQ(cs.admitted, 1u);
    EXPECT_EQ(cs.shed_submissions, 0u);
    EXPECT_EQ(cs.shed_rate, 0.0);
    EXPECT_GT(cs.frames, 0u);
    EXPECT_GT(cs.sim_p50_ms, 0.0);
    EXPECT_LE(cs.sim_p50_ms, cs.sim_p99_ms);
    EXPECT_LE(cs.sim_p99_ms, cs.sim_p999_ms);
    class_frames += cs.frames;
  }
  EXPECT_EQ(class_frames, report.stats.frames);
}

TEST(ServeOverloadTest, LevelThreeShedsBatchButAdmitsInteractive) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 7);
  ServeOptions opt;
  opt.max_sessions = 1;  // one slot: submissions pile into the queue
  opt.queue_depth = 8;
  opt.overload.enabled = true;
  opt.overload.queue_trigger = 1;
  opt.overload.dwell_rounds = 1;
  opt.overload.recover_rounds = 64;  // never recovers inside this test
  StreamScheduler scheduler(opt);
  for (int i = 0; i < 3; ++i) {
    StreamSpec spec{"s" + std::to_string(i), "MES", PriorityClass::kStandard,
                    9 + static_cast<uint64_t>(i),
                    42 + static_cast<uint64_t>(i)};
    ASSERT_TRUE(scheduler
                    .Submit(MakeServeSession(video, pool, spec, true, false))
                    .ok());
  }
  ASSERT_TRUE(scheduler.BeginServing().ok());
  // Queue depth 2 >= trigger: the ladder walks one rung per round.
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(std::move(scheduler.RunRound()).value());
  }
  ASSERT_NE(scheduler.overload_controller(), nullptr);
  ASSERT_EQ(scheduler.overload_controller()->level(), 3);

  // At kShedBatch a new batch submission is refused even though the
  // queue has room — but interactive work is still welcome.
  StreamSpec batch{"late-batch", "MES", PriorityClass::kBatch, 20, 60};
  const auto shed = scheduler.Submit(
      MakeServeSession(video, pool, batch, true, false));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  StreamSpec inter{"late-inter", "MES", PriorityClass::kInteractive, 21, 61};
  EXPECT_TRUE(scheduler
                  .Submit(MakeServeSession(video, pool, inter, true, false))
                  .ok());

  while (std::move(scheduler.RunRound()).value()) {
  }
  const ServeReport report = std::move(scheduler.FinishServing()).value();
  const auto& bcls =
      report.stats.classes[PriorityClassIndex(PriorityClass::kBatch)];
  EXPECT_EQ(bcls.submitted, 1u);
  EXPECT_EQ(bcls.shed_submissions, 1u);
  EXPECT_EQ(bcls.shed_rate, 1.0);
  const auto& icls =
      report.stats.classes[PriorityClassIndex(PriorityClass::kInteractive)];
  EXPECT_EQ(icls.shed_submissions, 0u);
  EXPECT_EQ(report.stats.peak_degradation_level, 3);
  EXPECT_GE(report.stats.degraded_rounds, 3u);
  ASSERT_GE(report.stats.degradations.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(report.stats.degradations[i].from, static_cast<int>(i));
    EXPECT_EQ(report.stats.degradations[i].to, static_cast<int>(i) + 1);
  }
}

TEST(ServeOverloadTest, QuietControllerStaysBitIdenticalToSolo) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17);
  const std::vector<StreamSpec> specs = {
      {"i", "MES", PriorityClass::kInteractive, 9, 42},
      {"b", "D-MES", PriorityClass::kBatch, 11, 44},
  };
  ServeOptions opt;
  opt.max_sessions = 2;
  // Enabled, but no latency SLO and no queue sensor: the controller runs
  // every round yet never leaves level 0 — SetDegradation(0, 0) must be a
  // true no-op on every stream.
  opt.overload.enabled = true;
  StreamScheduler scheduler(opt);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(MakeServeSession(video, pool, specs[i], true,
                                             false))
                    .ok());
  }
  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), specs.size());
  EXPECT_EQ(report.stats.peak_degradation_level, 0);
  EXPECT_TRUE(report.stats.degradations.empty());
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    ASSERT_TRUE(report.streams[i].status.ok());
    ExpectSameRun(SoloBaseline(video, pool, specs[i], /*lazy=*/true,
                               /*faults=*/false),
                  report.streams[i].result);
  }
}

// ---------------------------------------------------------------------------
// Engine-side degradation actuators.

RunResult RunEngineWithDegradation(const Video& video,
                                   const DetectorPool& pool, int skip_boost,
                                   EnsembleId mask, bool call_every_frame) {
  auto source =
      std::move(LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/9, {}))
          .value();
  std::unique_ptr<SelectionStrategy> strategy = MakeStrategy("MES");
  EngineOptions e;
  e.strategy_seed = 42;
  e.compute_regret = false;
  auto run = std::move(EngineRun::Create(*source, strategy.get(), e)).value();
  bool applied = false;
  while (!run->done()) {
    if (call_every_frame || !applied) {
      run->SetDegradation(skip_boost, mask);
      applied = true;
    }
    const Status st = run->StepFrame();
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      break;
    }
  }
  return std::move(run->Finish()).value();
}

TEST(EngineDegradationTest, ShrinkMaskRestrictsSelection) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 7);
  const RunResult r = RunEngineWithDegradation(video, pool, 0, EnsembleId{1},
                                               /*call_every_frame=*/true);
  ASSERT_FALSE(r.selection_counts.empty());
  for (size_t mask = 0; mask < r.selection_counts.size(); ++mask) {
    if (mask == 1) {
      EXPECT_EQ(r.selection_counts[mask], r.frames_processed);
    } else {
      EXPECT_EQ(r.selection_counts[mask], 0u) << "mask " << mask;
    }
  }
}

TEST(EngineDegradationTest, OutOfPoolMaskIsUnrestricted) {
  const DetectorPool pool = MakePool(2);  // full mask 0x3
  const Video video = MakeVideo(0.02, 7);
  const RunResult base = RunEngineWithDegradation(video, pool, 0, 0, false);
  // Bits entirely outside the pool drop out of the overlay; an all-foreign
  // mask degenerates to "unrestricted", never "select nothing".
  const RunResult foreign = RunEngineWithDegradation(
      video, pool, 0, EnsembleId{0x4}, /*call_every_frame=*/true);
  ExpectSameRun(base, foreign);
}

TEST(EngineDegradationTest, ZeroOverlayEveryFrameIsBitIdentical) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 7);
  const RunResult base = RunEngineWithDegradation(video, pool, 0, 0, false);
  const RunResult zeroed =
      RunEngineWithDegradation(video, pool, 0, 0, /*call_every_frame=*/true);
  ExpectSameRun(base, zeroed);
}

// ---------------------------------------------------------------------------
// BreakerRegistry under concurrent multi-shard publication (ISSUE 9
// satellite): shards publish in parallel; totals must be exact and the
// open -> half-open -> closed walk must survive the contention. Run under
// TSan via tools/check.sh --full.

TEST(BreakerRegistryTest, ConcurrentPublicationKeepsExactTotals) {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 3;
  BreakerRegistry registry(opt);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 200;
  std::atomic<bool> stop{false};
  // Reader thread races Snapshot/AllowsCall against the publishers.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.AllowsCall("shared", 1);
      (void)registry.Snapshot(1);
    }
  });
  std::vector<std::thread> shards;
  for (int t = 0; t < kThreads; ++t) {
    shards.emplace_back([&registry, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // success-before-failure per record: the shared breaker's
        // consecutive-failure count never reaches the threshold, so the
        // totals are pure counting with no state transitions racing.
        registry.Record("shared", i, 1, 1);
        registry.Record("own-" + std::to_string(t), i, 1, 0);
      }
    });
  }
  for (auto& th : shards) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto health = registry.Snapshot(kPerThread);
  ASSERT_EQ(health.size(), static_cast<size_t>(kThreads) + 1);
  for (const auto& h : health) {
    if (h.model == "shared") {
      EXPECT_EQ(h.successes, kThreads * kPerThread);
      EXPECT_EQ(h.failures, kThreads * kPerThread);
      EXPECT_EQ(h.state, BreakerState::kClosed);
    } else {
      EXPECT_EQ(h.successes, kPerThread);
      EXPECT_EQ(h.failures, 0u);
    }
  }
  EXPECT_TRUE(registry.AllowsCall("shared", kPerThread));
}

TEST(BreakerRegistryTest, ConcurrentTripThenHalfOpenProbeCloses) {
  CircuitBreakerOptions opt;
  opt.failure_threshold = 3;
  opt.open_frames = 10;
  BreakerRegistry registry(opt);
  std::vector<std::thread> shards;
  for (int t = 0; t < 8; ++t) {
    shards.emplace_back([&registry, t] {
      for (uint64_t i = 0; i < 50; ++i) {
        registry.Record("flaky", 100 + i, 0, 1);
        (void)registry.AllowsCall("flaky", 100 + i);
      }
    });
  }
  for (auto& th : shards) th.join();
  // 400 consecutive failures: open at tick 149, regardless of
  // interleaving. The failure recorded at 149 finds the breaker either
  // half-open (it re-trips at 149) or tripped at 140 or later; one tick
  // on, a trip at exactly 140 has cooled down, which interleaving decides.
  EXPECT_FALSE(registry.AllowsCall("flaky", 149));
  {
    const auto health = registry.Snapshot(149);
    ASSERT_EQ(health.size(), 1u);
    EXPECT_EQ(health[0].state, BreakerState::kOpen);
    EXPECT_GE(health[0].opens, 1u);
    EXPECT_EQ(health[0].failures, 400u);
  }
  // Past the cooldown the breaker admits a probe; its success closes it.
  EXPECT_TRUE(registry.AllowsCall("flaky", 500));
  registry.Record("flaky", 500, /*successes=*/3, /*failures=*/0);
  const auto health = registry.Snapshot(501);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].state, BreakerState::kClosed);
  EXPECT_TRUE(registry.AllowsCall("flaky", 501));
}

}  // namespace
}  // namespace vqe
