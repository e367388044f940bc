// The fault-tolerant detector runtime (ISSUE 3): deterministic fault
// injection, deadline/retry semantics, the circuit-breaker state machine,
// and — end to end — graceful degradation through the evaluation engine:
// scripted outages never abort a run, open breakers mask models out of the
// strategy's candidate arms until recovery, and faulted runs stay
// bit-identical across worker counts and evaluation backends.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "runtime/circuit_breaker.h"
#include "runtime/fault_injection.h"
#include "runtime/retry.h"
#include "sim/dataset.h"
#include "snapshot/checkpoint.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::ExpectSameRun;
using test::MakePool;
using test::MakeVideo;

// A detector with a fixed output and latency — the controlled inner model
// for retry/breaker unit tests.
class FakeDetector final : public ObjectDetector {
 public:
  explicit FakeDetector(double latency_ms = 10.0) : latency_ms_(latency_ms) {}

  const std::string& name() const override {
    static const std::string kName = "fake";
    return kName;
  }
  DetectionList Detect(const VideoFrame& frame, uint64_t) const override {
    Detection d;
    d.label = 0;
    d.box = BBox::FromCenter(frame.image_width / 2, frame.image_height / 2,
                             80.0, 60.0);
    d.confidence = 0.9;
    return {d};
  }
  double InferenceCostMs(const VideoFrame&, uint64_t) const override {
    return latency_ms_;
  }
  uint64_t param_count() const override { return 1; }
  const std::string& structure_name() const override {
    static const std::string kStructure = "Fake";
    return kStructure;
  }

 private:
  double latency_ms_;
};

VideoFrame MakeFrame(int64_t index,
                     SceneContext context = SceneContext::kClear) {
  VideoFrame frame;
  frame.frame_index = index;
  frame.scene_id = 1;
  frame.context = context;
  return frame;
}

// Records (t, eligible-at-select, selected) so tests can watch a model
// disappear from the candidate arms while its breaker is open.
class RecordingStrategy : public SelectionStrategy {
 public:
  struct Entry {
    size_t t;
    EnsembleId eligible;
    EnsembleId selected;
  };

  explicit RecordingStrategy(std::unique_ptr<SelectionStrategy> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  void BeginVideo(const StrategyContext& ctx) override {
    log_.clear();
    last_eligible_ = 0;
    inner_->BeginVideo(ctx);
  }
  EnsembleId Select(size_t t) override {
    const EnsembleId selected = inner_->Select(t);
    log_.push_back({t, last_eligible_, selected});
    return selected;
  }
  void Observe(const FrameFeedback& feedback) override {
    inner_->Observe(feedback);
  }
  bool UsesReferenceModel() const override {
    return inner_->UsesReferenceModel();
  }
  bool needs_full_lattice() const override {
    return inner_->needs_full_lattice();
  }
  void SetEligibleModels(EnsembleId eligible) override {
    last_eligible_ = eligible;
    inner_->SetEligibleModels(eligible);
  }

  const std::vector<Entry>& log() const { return log_; }

 private:
  std::unique_ptr<SelectionStrategy> inner_;
  EnsembleId last_eligible_ = 0;
  std::vector<Entry> log_;
};

// ---------------------------------------------------------------------------
// Fault injection

TEST(FaultInjectionTest, FaultsAreDeterministicInSeedAndFrame) {
  FakeDetector inner;
  FaultScript script;
  script.error_rate = 0.2;
  script.spike_rate = 0.2;
  script.empty_rate = 0.2;
  script.garbage_rate = 0.2;
  const FaultInjectingDetector a(&inner, script);
  const FaultInjectingDetector b(&inner, script);

  bool any_fault = false;
  for (int64_t idx = 0; idx < 64; ++idx) {
    const VideoFrame frame = MakeFrame(idx);
    for (int attempt = 0; attempt < 3; ++attempt) {
      const FaultKind kind = a.FaultAt(frame, /*trial_seed=*/5, attempt);
      EXPECT_EQ(kind, b.FaultAt(frame, 5, attempt));
      EXPECT_EQ(kind, a.FaultAt(frame, 5, attempt)) << "draws must be pure";
      if (kind != FaultKind::kNone) any_fault = true;
    }
    // Distinct seeds draw independent faults but stay internally stable.
    EXPECT_EQ(a.FaultAt(frame, 9, 0), b.FaultAt(frame, 9, 0));
  }
  EXPECT_TRUE(any_fault) << "80% fault mass never fired across 192 draws";
}

TEST(FaultInjectionTest, BurstDominatesRatesAndPersistsAcrossAttempts) {
  FakeDetector inner;
  FaultScript script;
  script.bursts.push_back({/*begin_frame=*/2, /*end_frame=*/5,
                           FaultKind::kError, /*context=*/-1});
  const FaultInjectingDetector faulty(&inner, script);

  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(faulty.FaultAt(MakeFrame(2), 1, attempt), FaultKind::kError)
        << "bursts must not clear on retry";
    EXPECT_EQ(faulty.FaultAt(MakeFrame(4), 1, attempt), FaultKind::kError);
    EXPECT_EQ(faulty.FaultAt(MakeFrame(1), 1, attempt), FaultKind::kNone);
    EXPECT_EQ(faulty.FaultAt(MakeFrame(5), 1, attempt), FaultKind::kNone)
        << "end_frame is exclusive";
  }

  const AttemptOutcome out = faulty.Attempt(MakeFrame(3), 1, 0);
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(out.detections.empty());
  EXPECT_EQ(out.latency_ms, script.error_latency_ms);
}

TEST(FaultInjectionTest, ContextGatedBurstFiresOnlyInThatContext) {
  FakeDetector inner;
  FaultScript script;
  FaultBurst burst;
  burst.begin_frame = 0;
  burst.end_frame = 100;
  burst.kind = FaultKind::kEmptyOutput;
  burst.context = static_cast<int>(SceneContext::kNight);
  script.bursts.push_back(burst);
  const FaultInjectingDetector faulty(&inner, script);

  EXPECT_EQ(faulty.FaultAt(MakeFrame(7, SceneContext::kNight), 1, 0),
            FaultKind::kEmptyOutput);
  EXPECT_EQ(faulty.FaultAt(MakeFrame(7, SceneContext::kClear), 1, 0),
            FaultKind::kNone);
}

TEST(FaultInjectionTest, OutputFaultsSucceedWithCorruptedDetections) {
  FakeDetector inner;
  const VideoFrame frame = MakeFrame(0);

  FaultScript empty;
  empty.empty_rate = 1.0;
  const AttemptOutcome silent =
      FaultInjectingDetector(&inner, empty).Attempt(frame, 1, 0);
  EXPECT_TRUE(silent.status.ok());
  EXPECT_TRUE(silent.detections.empty());
  EXPECT_EQ(silent.latency_ms, inner.InferenceCostMs(frame, 1));

  FaultScript garbage;
  garbage.garbage_rate = 1.0;
  const AttemptOutcome corrupt =
      FaultInjectingDetector(&inner, garbage).Attempt(frame, 1, 0);
  EXPECT_TRUE(corrupt.status.ok());
  ASSERT_FALSE(corrupt.detections.empty());
  for (const Detection& d : corrupt.detections) {
    EXPECT_GE(d.confidence, 0.5) << "garbage must look confident";
  }
}

TEST(FaultInjectionTest, ValidateRejectsBadScripts) {
  FaultScript over;
  over.error_rate = 0.6;
  over.spike_rate = 0.6;
  EXPECT_FALSE(over.Validate().ok()) << "rates summing over 1 must fail";

  FaultScript bad_burst;
  bad_burst.bursts.push_back({5, 2, FaultKind::kError, -1});
  EXPECT_FALSE(bad_burst.Validate().ok());
}

// ---------------------------------------------------------------------------
// Deadlines and retries

TEST(RetryTest, PlainDetectorDefaultPolicyMatchesDirectCall) {
  const FakeDetector plain(12.5);
  const VideoFrame frame = MakeFrame(0);
  const DetectorCallOutcome call =
      DetectWithRetries(plain, frame, /*trial_seed=*/3, RetryPolicy{});
  EXPECT_TRUE(call.ok());
  EXPECT_EQ(call.attempts, 1);
  EXPECT_EQ(call.inference_ms, 12.5);
  EXPECT_EQ(call.fault_ms, 0.0);
  EXPECT_EQ(call.charged_ms(), 12.5);
  EXPECT_EQ(call.detections.size(), plain.Detect(frame, 3).size());
}

TEST(RetryTest, TransientErrorClearsOnRetryAndChargesBackoff) {
  FakeDetector inner(10.0);
  FaultScript script;
  script.error_rate = 0.5;
  const FaultInjectingDetector faulty(&inner, script);

  // Find a frame whose attempt 0 faults but attempt 1 succeeds — the
  // deterministic fault channel makes this a stable property of the seed.
  int64_t idx = -1;
  for (int64_t candidate = 0; candidate < 256; ++candidate) {
    if (faulty.FaultAt(MakeFrame(candidate), 7, 0) == FaultKind::kError &&
        faulty.FaultAt(MakeFrame(candidate), 7, 1) == FaultKind::kNone) {
      idx = candidate;
      break;
    }
  }
  ASSERT_GE(idx, 0) << "no transient-fault frame among 256 candidates";

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0.25;
  const DetectorCallOutcome call =
      DetectWithRetries(faulty, MakeFrame(idx), 7, policy);
  EXPECT_TRUE(call.ok());
  EXPECT_EQ(call.attempts, 2);
  EXPECT_EQ(call.inference_ms, 10.0);
  // Wasted: the failed attempt's error latency plus one backoff sleep.
  EXPECT_DOUBLE_EQ(call.fault_ms, script.error_latency_ms + 0.25);
  EXPECT_FALSE(call.detections.empty());
}

TEST(RetryTest, PersistentOutageExhaustsRetries) {
  FakeDetector inner;
  FaultScript script;
  script.bursts.push_back({0, 1000, FaultKind::kError, -1});
  const FaultInjectingDetector faulty(&inner, script);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0.25;
  policy.backoff_multiplier = 2.0;
  const DetectorCallOutcome call =
      DetectWithRetries(faulty, MakeFrame(10), 1, policy);
  EXPECT_FALSE(call.ok());
  EXPECT_EQ(call.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(call.attempts, 3);
  EXPECT_EQ(call.inference_ms, 0.0);
  // Three error latencies plus backoffs 0.25 and 0.5.
  EXPECT_DOUBLE_EQ(call.fault_ms, 3 * script.error_latency_ms + 0.75);
  EXPECT_TRUE(call.detections.empty());
}

TEST(RetryTest, DeadlineOverrunIsChargedExactlyTheDeadline) {
  FakeDetector inner(10.0);
  FaultScript script;
  script.bursts.push_back({0, 1000, FaultKind::kLatencySpike, -1});
  script.spike_factor = 25.0;  // 250ms, far past the deadline
  const FaultInjectingDetector faulty(&inner, script);

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.deadline_ms = 50.0;
  policy.backoff_base_ms = 0.5;
  const DetectorCallOutcome call =
      DetectWithRetries(faulty, MakeFrame(0), 1, policy);
  EXPECT_FALSE(call.ok());
  EXPECT_EQ(call.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(call.attempts, 2);
  // Each abandoned attempt costs exactly the deadline, plus one backoff.
  EXPECT_DOUBLE_EQ(call.fault_ms, 2 * 50.0 + 0.5);
  EXPECT_TRUE(call.detections.empty());

  // A comfortable deadline leaves the healthy path untouched.
  policy.deadline_ms = 500.0;
  const DetectorCallOutcome relaxed =
      DetectWithRetries(faulty, MakeFrame(0), 1, policy);
  EXPECT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed.inference_ms, 250.0);
}

// ---------------------------------------------------------------------------
// Circuit breaker

TEST(CircuitBreakerTest, ClosedToOpenToHalfOpenToClosed) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_frames = 10;
  options.half_open_probes = 2;
  CircuitBreaker breaker(options);

  EXPECT_EQ(breaker.StateAt(0), BreakerState::kClosed);
  breaker.RecordFailure(0);
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.StateAt(2), BreakerState::kClosed)
      << "below threshold must stay closed";
  // A success resets the consecutive-failure count.
  breaker.RecordSuccess(2);
  breaker.RecordFailure(3);
  breaker.RecordFailure(4);
  EXPECT_EQ(breaker.StateAt(5), BreakerState::kClosed);
  breaker.RecordFailure(5);
  EXPECT_EQ(breaker.StateAt(6), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowsCallAt(14));
  EXPECT_EQ(breaker.StateAt(15), BreakerState::kHalfOpen)
      << "open_frames elapsed at 5 + 10";
  EXPECT_TRUE(breaker.AllowsCallAt(15));
  breaker.RecordSuccess(15);
  EXPECT_EQ(breaker.StateAt(16), BreakerState::kHalfOpen)
      << "needs two probe successes";
  breaker.RecordSuccess(16);
  EXPECT_EQ(breaker.StateAt(17), BreakerState::kClosed);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_EQ(breaker.failures(), 5u);
  EXPECT_EQ(breaker.successes(), 3u);
}

TEST(CircuitBreakerTest, HalfOpenFailureTripsOpenAgain) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_frames = 5;
  CircuitBreaker breaker(options);

  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.StateAt(4), BreakerState::kOpen);
  EXPECT_EQ(breaker.StateAt(5), BreakerState::kHalfOpen);
  breaker.RecordFailure(5);
  EXPECT_EQ(breaker.StateAt(6), BreakerState::kOpen);
  EXPECT_EQ(breaker.StateAt(10), BreakerState::kHalfOpen)
      << "cool-down restarts from the re-trip frame";
  EXPECT_EQ(breaker.opens(), 2u);
}

// ---------------------------------------------------------------------------
// Engine-level degradation (the ISSUE 3 acceptance scenarios)

// (a) A scripted mid-video outage never aborts the run: every frame
// completes, outage frames fall back to the surviving sub-mask, and a
// window where *everything* is down still just counts failed frames.
TEST(EngineFaultToleranceTest, ScriptedOutageNeverAbortsTheRun) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.03, /*seed=*/11);
  ASSERT_GE(video.size(), 20u);

  // Model 0 is down for the first ten frames; every model is down for
  // frames [12, 14).
  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].bursts.push_back({0, 10, FaultKind::kError, -1});
  for (auto& script : scripts) {
    script.bursts.push_back({12, 14, FaultKind::kError, -1});
  }
  const DetectorPool faulty =
      std::move(ApplyFaultScripts(pool, scripts)).value();

  const auto matrix =
      std::move(BuildFrameMatrix(video, faulty, /*trial_seed=*/7)).value();

  EngineOptions engine;
  engine.strategy_seed = 5;
  engine.compute_regret = false;
  MesOptions mes;
  mes.gamma = 2;
  MesStrategy strategy(mes);
  const RunResult run = std::move(RunStrategy(matrix, &strategy, engine)).value();

  EXPECT_EQ(run.frames_processed, video.size())
      << "an outage must never abort the run";
  // At least the all-models window; the bandit may also have tried the
  // dead model alone during the first outage.
  EXPECT_GE(run.failed_frames, 2u);
  EXPECT_GE(run.fallback_frames, 2u)
      << "initialization selects the full pool while model 0 is down";
  EXPECT_GT(run.model_availability[0].frames_failed, 0u);
  EXPECT_GT(run.model_availability[0].fault_ms, 0.0);
  EXPECT_GT(run.breakdown.fault_ms, 0.0);
  // Wasted time is charged, split out of detector_ms, and in the total.
  EXPECT_GT(run.breakdown.TotalMs(), 0.0);
}

// (b) The breaker opens at the failure threshold, the open model disappears
// from the strategy's candidate arms, and it is re-included once the
// half-open probe succeeds.
TEST(EngineFaultToleranceTest, BreakerMasksModelOutUntilRecovery) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.03, /*seed=*/11);
  ASSERT_GE(video.size(), 16u);

  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].bursts.push_back({3, 9, FaultKind::kError, -1});
  const DetectorPool faulty =
      std::move(ApplyFaultScripts(pool, scripts)).value();
  const auto matrix =
      std::move(BuildFrameMatrix(video, faulty, /*trial_seed=*/7)).value();

  EngineOptions engine;
  engine.compute_regret = false;
  engine.breaker.failure_threshold = 2;
  engine.breaker.open_frames = 4;

  // BF always selects the whole eligible pool, so the outage is observed
  // immediately and the eligibility trace is easy to read.
  RecordingStrategy strategy(std::make_unique<BruteForceStrategy>());
  const RunResult run =
      std::move(RunStrategy(matrix, &strategy, engine)).value();
  EXPECT_EQ(run.frames_processed, video.size());

  const EnsembleId full = FullEnsemble(m);
  const EnsembleId without0 = full & ~Singleton(0);
  const auto& log = strategy.log();
  ASSERT_EQ(log.size(), video.size());

  // Failures at t = 3, 4 trip the breaker; frames 5..7 run without model 0.
  for (size_t t = 0; t <= 4; ++t) {
    EXPECT_EQ(log[t].eligible, full) << "t=" << t;
    EXPECT_EQ(log[t].selected, full) << "t=" << t;
  }
  for (size_t t = 5; t <= 7; ++t) {
    EXPECT_EQ(log[t].eligible, without0)
        << "open breaker must mask model 0 out, t=" << t;
    EXPECT_EQ(log[t].selected, without0) << "t=" << t;
  }
  // Cool-down elapsed at t = 4 + 4 = 8: the half-open probe at t = 8 still
  // hits the burst and re-trips; the probe at t = 12 succeeds and closes.
  EXPECT_EQ(log[8].eligible, full) << "half-open must re-admit the model";
  for (size_t t = 9; t <= 11; ++t) {
    EXPECT_EQ(log[t].eligible, without0) << "re-tripped open, t=" << t;
  }
  for (size_t t = 12; t < log.size(); ++t) {
    EXPECT_EQ(log[t].eligible, full) << "recovered for good, t=" << t;
    EXPECT_EQ(log[t].selected, full) << "t=" << t;
  }

  EXPECT_EQ(run.model_availability[0].breaker_opens, 2u);
  EXPECT_EQ(run.model_availability[0].frames_failed, 3u)
      << "t = 3, 4 and the failed half-open probe at t = 8";
  EXPECT_EQ(run.fallback_frames, 3u);
  EXPECT_EQ(run.failed_frames, 0u);
}

// (c) Identical fault scripts and seeds produce bit-identical runs across
// worker counts and across the eager and lazy evaluation backends.
TEST(EngineFaultToleranceTest, FaultedRunsBitIdenticalAcrossWorkersAndBackends) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.03, /*seed=*/17);
  ASSERT_GT(video.size(), 10u);

  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].bursts.push_back({2, 8, FaultKind::kError, -1});
  scripts[1].error_rate = 0.2;
  scripts[1].empty_rate = 0.2;
  scripts[2].spike_rate = 0.3;
  scripts[2].garbage_rate = 0.2;
  const DetectorPool faulty =
      std::move(ApplyFaultScripts(pool, scripts)).value();

  MatrixOptions options;
  options.retry.max_attempts = 2;
  options.retry.backoff_base_ms = 0.25;

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  engine.breaker.failure_threshold = 2;
  engine.breaker.open_frames = 5;
  MesOptions mes;
  mes.gamma = 2;

  auto run_eager = [&](int workers) {
    MatrixOptions opt = options;
    opt.parallelism = workers;
    const auto matrix =
        std::move(BuildFrameMatrix(video, faulty, /*trial_seed=*/9, opt))
            .value();
    MesStrategy strategy(mes);
    return std::move(RunStrategy(matrix, &strategy, engine)).value();
  };
  auto run_lazy = [&](int workers) {
    MatrixOptions opt = options;
    opt.parallelism = workers;
    auto lazy = std::move(LazyFrameEvaluator::Create(video, faulty,
                                                     /*trial_seed=*/9, opt))
                    .value();
    MesStrategy strategy(mes);
    return std::move(RunStrategy(*lazy, &strategy, engine)).value();
  };

  const RunResult baseline = run_eager(1);
  EXPECT_GT(baseline.fallback_frames + baseline.failed_frames, 0u)
      << "the scripts must actually degrade some frames";
  EXPECT_GT(baseline.breakdown.fault_ms, 0.0);
  for (const int workers : {1, 2, 8}) {
    ExpectSameRun(baseline, run_eager(workers));
    ExpectSameRun(baseline, run_lazy(workers));
  }
}

// Satellite (c): under faults, the lazy evaluator and the eager matrix
// agree cell-for-cell — availability, per-model fault charges, and every
// evaluation on the realized sub-masks — for every worker count.
TEST(EngineFaultToleranceTest, DegradedCellsBitIdenticalLazyVsEager) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23);
  ASSERT_GT(video.size(), 0u);

  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].error_rate = 0.3;
  scripts[1].bursts.push_back({1, 4, FaultKind::kError, -1});
  scripts[2].empty_rate = 0.3;
  const DetectorPool faulty =
      std::move(ApplyFaultScripts(pool, scripts)).value();

  MatrixOptions options;
  options.retry.max_attempts = 2;

  bool any_degraded = false;
  for (const int workers : {1, 2, 8}) {
    options.parallelism = workers;
    const auto matrix =
        std::move(BuildFrameMatrix(video, faulty, /*trial_seed=*/13, options))
            .value();
    auto lazy = std::move(LazyFrameEvaluator::Create(video, faulty,
                                                     /*trial_seed=*/13,
                                                     options))
                    .value();
    ASSERT_EQ(lazy->num_frames(), matrix.size());
    for (size_t t = 0; t < matrix.size(); ++t) {
      const FrameEvaluation& fe = matrix.frames[t];
      const FrameStats stats = lazy->Stats(t);
      ASSERT_EQ(stats.available_mask, fe.available_mask) << "t=" << t;
      ASSERT_NE(stats.model_fault_ms, nullptr);
      EXPECT_EQ(*stats.model_fault_ms, fe.model_fault_ms);
      EXPECT_EQ(*stats.model_cost_ms, fe.model_cost_ms);
      if (fe.available_mask != FullEnsemble(m)) any_degraded = true;
      if (fe.available_mask == 0) continue;
      ForEachSubset(fe.available_mask, [&](EnsembleId sub) {
        const MaskEvaluation e = lazy->Eval(t, sub);
        ASSERT_EQ(e.est_ap, fe.est_ap[sub]) << "t=" << t << " mask=" << sub;
        ASSERT_EQ(e.true_ap, fe.true_ap[sub]);
        ASSERT_EQ(e.cost_ms, fe.cost_ms[sub]);
        ASSERT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[sub]);
      });
    }
  }
  EXPECT_TRUE(any_degraded) << "scripts never produced a degraded frame";
}

// ---------------------------------------------------------------------------
// Experiment harness integration

TEST(ExperimentFaultTest, FaultScriptsSurfaceInTheReport) {
  const DetectorPool pool = MakePool(3);
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");

  ExperimentConfig config;
  config.dataset = spec;
  config.scene_scale = 0.02;
  config.trials = 2;
  config.pool_size = 3;
  config.base_seed = 31;
  config.engine.compute_regret = false;
  config.fault_scripts.assign(3, FaultScript{});
  config.fault_scripts[0].bursts.push_back({0, 6, FaultKind::kError, -1});

  std::vector<StrategySpec> strategies = {
      {"MES",
       [] {
         MesOptions opt;
         opt.gamma = 2;
         return std::make_unique<MesStrategy>(opt);
       }},
  };
  const auto result =
      std::move(RunExperiment(config, pool, strategies)).value();
  ASSERT_EQ(result.outcomes.size(), 1u);
  const StrategyOutcome& outcome = result.outcomes[0];
  EXPECT_GT(outcome.fallback_frames.mean, 0.0)
      << "the outage must show up as fallback frames in the report";
  EXPECT_GT(outcome.fault_ms.mean, 0.0);

  // Fault-free configs keep the counters at exactly zero.
  config.fault_scripts.clear();
  const auto clean = std::move(RunExperiment(config, pool, strategies)).value();
  EXPECT_EQ(clean.outcomes[0].fallback_frames.mean, 0.0);
  EXPECT_EQ(clean.outcomes[0].fault_ms.mean, 0.0);
}

// The online executor runs the same stack live: an outage degrades frames
// to the surviving sub-ensemble, surfaces in the output counters, and
// never aborts the query. The resolved nusc-night pool has 3 detectors.
TEST(ExperimentFaultTest, OnlineQuerySurvivesScriptedOutage) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE COUNT(car) >= 1";

  QueryEngineOptions options;
  options.scene_scale = 0.03;
  const QueryOutput clean = std::move(ExecuteQuery(sql, options)).value();
  ASSERT_GT(clean.frames_processed, 10u);
  EXPECT_EQ(clean.fallback_frames, 0u);
  EXPECT_EQ(clean.failed_frames, 0u);
  EXPECT_EQ(clean.fault_ms, 0.0);

  options.fault_scripts.assign(clean.model_names.size(), FaultScript{});
  options.fault_scripts[0].bursts.push_back({0, 8, FaultKind::kError, -1});
  options.retry.max_attempts = 2;
  options.breaker.failure_threshold = 2;
  options.breaker.open_frames = 4;
  const QueryOutput outage = std::move(ExecuteQuery(sql, options)).value();
  EXPECT_EQ(outage.frames_processed, clean.frames_processed)
      << "the outage must never abort the query";
  EXPECT_GT(outage.fallback_frames, 0u);
  EXPECT_GT(outage.fault_ms, 0.0);
  EXPECT_GT(outage.model_failures[0], 0u);

  // Misaligned scripts are rejected up front.
  options.fault_scripts.resize(1);
  EXPECT_FALSE(ExecuteQuery(sql, options).ok());
}

// The executor's breakers, one model: every call fails on frames [0, 6).
// The breaker (threshold 2, cool-down 4) trips at frame 1, refuses frames
// 2-4, lets the half-open probe at frame 5 hit the outage and re-trip,
// refuses frames 6-8, and closes on the probe at frame 9. A one-model pool
// whose breaker is open still selects that model, so each refused call is
// a failed call and a failed frame — and costs nothing: the query's fault
// time is exactly that of the three calls made at frames 0, 1 and 5, and
// the breaker the query checkpoints has recorded those three failures
// only.
TEST(QueryBreakerTest, ShortCircuitsWhileOpenAndRecovers) {
  const std::string detector = "yolov7-tiny@night";
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING RAND(" + detector + ")) WHERE COUNT(car) >= 1";
  FaultScript outage;
  outage.bursts.push_back({0, 6, FaultKind::kError, -1});
  QueryEngineOptions options;
  options.scene_scale = 0.03;
  options.fault_scripts = {outage};
  options.breaker.failure_threshold = 2;
  options.breaker.open_frames = 4;
  options.checkpoint.directory =
      ::testing::TempDir() + "vqe_runtime_test/query_breaker";
  options.checkpoint.every_frames = 10;
  ASSERT_EQ(
      std::system(("rm -rf '" + options.checkpoint.directory + "'").c_str()),
      0);
  const QueryOutput out = std::move(ExecuteQuery(sql, options)).value();
  ASSERT_GT(out.frames_processed, 12u);
  ASSERT_EQ(out.model_failures.size(), 1u);
  EXPECT_EQ(out.model_failures[0], 9u)
      << "frames 0-8 fail: three calls and six refusals";
  EXPECT_EQ(out.failed_frames, 9u) << "the model recovers at frame 9";
  EXPECT_EQ(out.fallback_frames, 0u);

  // The same three calls, made directly on the query's frames.
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = options.scene_scale;
  sample.seed = options.seed;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  const DetectorPool pool =
      std::move(BuildPool({std::move(ParseDetectorName(detector)).value()}))
          .value();
  const FaultInjectingDetector faulty(pool.detectors[0].get(), outage);
  double attempted_fault_ms = 0.0;
  for (const size_t t : {0u, 1u, 5u}) {
    ASSERT_EQ(video.frames[t].frame_index, static_cast<int64_t>(t));
    attempted_fault_ms +=
        DetectWithRetries(faulty, video.frames[t], options.seed, RetryPolicy{})
            .fault_ms;
  }
  EXPECT_GT(attempted_fault_ms, 0.0);
  EXPECT_EQ(out.fault_ms, attempted_fault_ms)
      << "a call refused by an open breaker must cost nothing";

  // The newest checkpoint's runtime section: the breaker count, then each
  // breaker's state.
  const CheckpointManager ckpt(options.checkpoint.directory);
  auto loaded = ckpt.LoadLatestGood();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto runtime = loaded->snapshot.Section("runtime");
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  uint64_t count = 0;
  ASSERT_TRUE(runtime->U64(&count).ok());
  ASSERT_EQ(count, 1u);
  CircuitBreaker breaker(options.breaker);
  ASSERT_TRUE(breaker.RestoreState(*runtime).ok());
  EXPECT_TRUE(runtime->ExpectEnd().ok());
  EXPECT_EQ(breaker.failures(), 3u) << "a refused call is not a failure";
  EXPECT_EQ(breaker.opens(), 2u);
}

TEST(ExperimentFaultTest, ApplyFaultScriptsValidatesAlignment) {
  const DetectorPool pool = MakePool(3);
  const std::vector<FaultScript> wrong_size(2);
  EXPECT_FALSE(ApplyFaultScripts(pool, wrong_size).ok());

  std::vector<FaultScript> scripts(3);
  const auto decorated = ApplyFaultScripts(pool, scripts);
  ASSERT_TRUE(decorated.ok());
  EXPECT_EQ(decorated.value().detectors.size(), pool.detectors.size());
  for (size_t i = 0; i < pool.detectors.size(); ++i) {
    EXPECT_EQ(decorated.value().detectors[i]->name(),
              pool.detectors[i]->name())
        << "decoration must be name-transparent";
  }
}

}  // namespace
}  // namespace vqe
