// Tests for the temporal-coherence fast path (ISSUE 7): the difficulty
// signal, the skip policy (fixed / gated / bandit) and its snapshot
// round-trip, tracker propagation, and the engine/query integration —
// including the two load-bearing invariants: the disabled path is
// bit-identical to a skip-free build across every strategy, backend and
// worker count, and a skip-enabled run crash-resumes bit-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/frame_matrix.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "sim/dataset.h"
#include "snapshot/identity.h"
#include "snapshot/wire.h"
#include "temporal/difficulty.h"
#include "temporal/gate.h"
#include "temporal/propagation.h"
#include "temporal/skip_policy.h"
#include "test_util.h"
#include "track/tracker.h"

namespace vqe {
namespace {

using test::ExpectSameQuery;
using test::ExpectSameRun;
using test::MakePool;
using test::MakeStrategy;
using test::MakeVideo;
using test::ScratchDir;

constexpr char kScratch[] = "vqe_temporal_test";

// ------------------------------------------------------------ options --

TEST(SkipOptionsTest, DefaultsAreOffAndValid) {
  SkipOptions o;
  EXPECT_TRUE(o.Validate().ok());
  EXPECT_FALSE(o.enabled());
  // Mode without budget (and vice versa) still means "no gate".
  o.mode = SkipMode::kFixedInterval;
  EXPECT_FALSE(o.enabled());
  o.mode = SkipMode::kOff;
  o.skip_budget = 4;
  EXPECT_FALSE(o.enabled());
  o.mode = SkipMode::kBandit;
  EXPECT_TRUE(o.enabled());
}

TEST(SkipOptionsTest, ValidationBounds) {
  const auto bad = [](const std::function<void(SkipOptions&)>& mutate) {
    SkipOptions o;
    mutate(o);
    return !o.Validate().ok();
  };
  EXPECT_TRUE(bad([](SkipOptions& o) { o.skip_budget = -1; }));
  EXPECT_TRUE(bad([](SkipOptions& o) { o.skip_budget = 1025; }));
  EXPECT_FALSE(bad([](SkipOptions& o) { o.skip_budget = 1024; }));
}

TEST(SkipOptionsTest, PropagationTrackerLowersConfidenceFloorOnly) {
  const TrackerOptions prop = PropagationTrackerDefaults();
  const TrackerOptions plain;
  EXPECT_DOUBLE_EQ(prop.min_confidence, 0.05);
  EXPECT_DOUBLE_EQ(prop.iou_threshold, plain.iou_threshold);
  EXPECT_EQ(prop.max_missed, plain.max_missed);
  EXPECT_EQ(prop.min_hits, plain.min_hits);
}

TEST(SkipOptionsTest, ModeNames) {
  EXPECT_STREQ(SkipModeToString(SkipMode::kOff), "off");
  EXPECT_STREQ(SkipModeToString(SkipMode::kFixedInterval), "fixed");
  EXPECT_STREQ(SkipModeToString(SkipMode::kDifficultyGated), "gated");
  EXPECT_STREQ(SkipModeToString(SkipMode::kBandit), "bandit");
}

TEST(SkipOptionsTest, IdentityRoundTripAndMismatchNaming) {
  SkipOptions o;
  o.mode = SkipMode::kBandit;
  o.skip_budget = 7;

  IdentityWriter saved;
  WriteSkipOptionsIdentity(saved, o);
  auto compare = [&](const SkipOptions& run) {
    IdentityWriter live;
    WriteSkipOptionsIdentity(live, run);
    return ExpectSameIdentity(
        ByteReader(saved.bytes().data(), saved.bytes().size()), live);
  };
  EXPECT_TRUE(compare(o).ok());

  // Every skip.* field is checked by name through real engine and query
  // restores (snapshot_test, resume_test); one suffices here.
  SkipOptions other = o;
  other.skip_budget = 8;
  const Status mismatch = compare(other);
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mismatch.message().find("different skip.skip_budget:"),
            std::string::npos)
      << mismatch.ToString();
}

// --------------------------------------------------------- difficulty --

TEST(DifficultyTest, ContextChangeDominatesEverything) {
  DifficultySignals s;
  s.context_changed = true;
  s.detection_churn = 0.0;
  s.track_instability = 0.0;
  s.agreement = 1.0;
  EXPECT_DOUBLE_EQ(DifficultyScore(s), 1.0);
}

TEST(DifficultyTest, ConvexWeights) {
  DifficultySignals s;  // churn 0, instability 0, agreement 1
  EXPECT_DOUBLE_EQ(DifficultyScore(s), 0.0);
  s.detection_churn = 1.0;
  EXPECT_DOUBLE_EQ(DifficultyScore(s), 0.45);
  s.detection_churn = 0.0;
  s.track_instability = 1.0;
  EXPECT_DOUBLE_EQ(DifficultyScore(s), 0.35);
  s.track_instability = 0.0;
  s.agreement = 0.0;
  EXPECT_DOUBLE_EQ(DifficultyScore(s), 0.20);
  // Out-of-range inputs are clamped, never amplified.
  s.detection_churn = 5.0;
  s.track_instability = 5.0;
  s.agreement = -3.0;
  EXPECT_DOUBLE_EQ(DifficultyScore(s), 1.0);
}

TEST(DifficultyTest, BucketEdges) {
  EXPECT_EQ(DifficultyBucket(0.0), 0);
  EXPECT_EQ(DifficultyBucket(0.33), 0);
  EXPECT_EQ(DifficultyBucket(0.34), 1);
  EXPECT_EQ(DifficultyBucket(0.66), 1);
  EXPECT_EQ(DifficultyBucket(0.67), 2);
  EXPECT_EQ(DifficultyBucket(1.0), 2);
}

// -------------------------------------------------------- skip policy --

TEST(SkipPolicyTest, FixedIntervalIgnoresDifficulty) {
  SkipOptions o;
  o.mode = SkipMode::kFixedInterval;
  o.skip_budget = 5;
  SkipPolicy p(o);
  EXPECT_EQ(p.PlanSkips(0.0), 5);
  EXPECT_EQ(p.PlanSkips(1.0), 5);
}

TEST(SkipPolicyTest, DifficultyGateIsAThreshold) {
  SkipOptions o;
  o.mode = SkipMode::kDifficultyGated;
  o.skip_budget = 3;
  SkipPolicy p(o);
  EXPECT_EQ(p.PlanSkips(0.0), 3);
  EXPECT_EQ(p.PlanSkips(0.349), 3);
  EXPECT_EQ(p.PlanSkips(0.35), 0);  // strict less-than
  EXPECT_EQ(p.PlanSkips(0.9), 0);
}

TEST(SkipPolicyTest, BanditWarmsUpShallowestFirst) {
  SkipOptions o;
  o.mode = SkipMode::kBandit;
  o.skip_budget = 2;
  SkipPolicy p(o);
  // Untried arms win in depth order; each episode close records one play.
  EXPECT_EQ(p.PlanSkips(0.0), 0);
  p.OnEpisodeEnd(0, 1.0);
  EXPECT_EQ(p.PlanSkips(0.0), 1);
  p.OnEpisodeEnd(1, 1.0);
  EXPECT_EQ(p.PlanSkips(0.0), 2);
  p.OnEpisodeEnd(2, 1.0);
  EXPECT_EQ(p.episodes(), 3u);
  EXPECT_EQ(p.ArmPlays(0, 0), 1u);
  EXPECT_EQ(p.ArmPlays(0, 1), 1u);
  EXPECT_EQ(p.ArmPlays(0, 2), 1u);
  // Arm 0 has no throughput gain to reward; the full-agreement skip arms
  // earned completed/planned * agreement = 1.
  EXPECT_DOUBLE_EQ(p.ArmRewardSum(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.ArmRewardSum(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(p.ArmRewardSum(0, 2), 1.0);
  // Buckets are independent: a hard frame starts its own warmup.
  EXPECT_EQ(p.PlanSkips(0.9), 0);
  EXPECT_EQ(p.ArmPlays(2, 0), 0u);
}

TEST(SkipPolicyTest, BanditPenalizesDriftedEpisodes) {
  SkipOptions o;
  o.mode = SkipMode::kBandit;
  o.skip_budget = 1;
  SkipPolicy p(o);
  ASSERT_EQ(p.PlanSkips(0.0), 0);
  p.OnEpisodeEnd(0, 1.0);
  ASSERT_EQ(p.PlanSkips(0.0), 1);
  p.OnEpisodeEnd(1, 0.2);  // drifted: agreement below the floor
  EXPECT_DOUBLE_EQ(p.ArmRewardSum(0, 1), -kSkipDriftPenalty);
  // Each arm has one play, so their exploration bonuses tie: with the
  // skip arm's mean negative and the detect arm's at 0, UCB steers back
  // toward detecting.
  EXPECT_EQ(p.PlanSkips(0.0), 0);
}

TEST(SkipPolicyTest, BanditIsDeterministic) {
  SkipOptions o;
  o.mode = SkipMode::kBandit;
  o.skip_budget = 3;
  SkipPolicy a(o);
  SkipPolicy b(o);
  for (int i = 0; i < 200; ++i) {
    // A deterministic but varied difficulty/agreement schedule.
    const double difficulty = (i * 37 % 100) / 100.0;
    const double agreement = (i * 13 % 100) / 100.0;
    const int plan_a = a.PlanSkips(difficulty);
    const int plan_b = b.PlanSkips(difficulty);
    ASSERT_EQ(plan_a, plan_b) << "diverged at step " << i;
    a.OnEpisodeEnd(plan_a, agreement);
    b.OnEpisodeEnd(plan_b, agreement);
  }
  EXPECT_EQ(a.episodes(), b.episodes());
}

TEST(SkipPolicyTest, SaveRestoreRoundTripsBanditState) {
  SkipOptions o;
  o.mode = SkipMode::kBandit;
  o.skip_budget = 2;
  SkipPolicy original(o);
  for (int i = 0; i < 40; ++i) {
    const int plan = original.PlanSkips((i * 29 % 100) / 100.0);
    original.OnEpisodeEnd(plan, (i * 17 % 100) / 100.0);
  }
  // Leave an episode OPEN so pending_cell/pending_depth are exercised.
  const int open_plan = original.PlanSkips(0.1);

  ByteWriter w;
  ASSERT_TRUE(original.SaveState(w).ok());
  SkipPolicy restored(o);
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(restored.RestoreState(r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());

  EXPECT_EQ(restored.episodes(), original.episodes());
  for (int bucket = 0; bucket < kNumDifficultyBuckets; ++bucket) {
    for (int depth = 0; depth <= o.skip_budget; ++depth) {
      EXPECT_EQ(restored.ArmPlays(bucket, depth),
                original.ArmPlays(bucket, depth));
      EXPECT_EQ(restored.ArmRewardSum(bucket, depth),
                original.ArmRewardSum(bucket, depth));
    }
  }
  // The restored policy continues exactly where the original would.
  original.OnEpisodeEnd(open_plan, 0.8);
  restored.OnEpisodeEnd(open_plan, 0.8);
  for (int i = 0; i < 50; ++i) {
    const double difficulty = (i * 41 % 100) / 100.0;
    const int plan_o = original.PlanSkips(difficulty);
    const int plan_r = restored.PlanSkips(difficulty);
    ASSERT_EQ(plan_o, plan_r) << "post-restore divergence at step " << i;
    original.OnEpisodeEnd(plan_o, 0.9);
    restored.OnEpisodeEnd(plan_r, 0.9);
  }
}

TEST(SkipPolicyTest, RestoreRejectsMismatchedDimensions) {
  SkipOptions o;
  o.mode = SkipMode::kBandit;
  o.skip_budget = 2;
  SkipPolicy saved(o);
  ByteWriter w;
  ASSERT_TRUE(saved.SaveState(w).ok());

  SkipOptions wider = o;
  wider.skip_budget = 3;  // 4 arms, snapshot has 3
  SkipPolicy other(wider);
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(other.RestoreState(r).code(), StatusCode::kDataLoss);
}

// -------------------------------------------------------- propagation --

Detection Det(double x, double y, double w, double h, double conf,
              ClassId label = 0) {
  Detection d;
  d.box = BBox::FromXYWH(x, y, w, h);
  d.confidence = conf;
  d.label = label;
  return d;
}

TEST(TrackPropagatorTest, PropagateCoastsAndDecaysExactly) {
  TrackPropagator prop(PropagationTrackerDefaults(), 0.9);
  prop.ObserveDetections({Det(0, 0, 40, 40, 0.8)}, 0);
  prop.ObserveDetections({Det(6, 0, 40, 40, 0.8)}, 1);
  ASSERT_EQ(prop.tracker().tracks().size(), 1u);
  const Track base = prop.tracker().tracks()[0];
  ASSERT_GT(base.vx, 0.0);

  // Two coast steps: the box advances by the velocity one Euler step at a
  // time (bit-exact incremental accumulation), confidence by decay^streak.
  const DetectionList& first = prop.Propagate();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].box.x1, base.box.x1 + base.vx);
  EXPECT_EQ(first[0].confidence, base.confidence * 0.9);
  EXPECT_EQ(prop.coast_streak(), 1);

  const DetectionList& second = prop.Propagate();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].box.x1, (base.box.x1 + base.vx) + base.vx);
  EXPECT_EQ(second[0].confidence, base.confidence * (0.9 * 0.9));
  EXPECT_EQ(prop.coast_streak(), 2);

  // A detect frame resets the streak.
  prop.ObserveDetections({Det(18, 0, 40, 40, 0.8)}, 4);
  EXPECT_EQ(prop.coast_streak(), 0);
}

TEST(TrackPropagatorTest, TentativeTracksPropagateTooAndMissedOnesDoNot) {
  TrackPropagator prop(PropagationTrackerDefaults(), 0.92);
  // One observation: the track is tentative (1 hit < min_hits) but it IS
  // what the detector just reported, so the propagated list must carry it.
  prop.ObserveDetections({Det(0, 0, 40, 40, 0.8)}, 0);
  EXPECT_TRUE(prop.CanPropagate());
  EXPECT_EQ(prop.Propagate().size(), 1u);

  // The detectors then contradict the track (empty frame): it coasts as
  // missed and must drop out of propagation.
  prop.ObserveDetections({}, 1);
  EXPECT_TRUE(prop.Propagate().empty());
}

TEST(TrackPropagatorTest, EmptySceneIsPropagatable) {
  TrackPropagator prop(PropagationTrackerDefaults(), 0.92);
  prop.ObserveDetections({}, 0);
  EXPECT_TRUE(prop.CanPropagate());
  EXPECT_TRUE(prop.Propagate().empty());
  EXPECT_DOUBLE_EQ(prop.agreement(), 1.0);

  // Detections present but below the confidence floor: nothing tracked,
  // nothing to coast — the gate must force a detect instead.
  prop.ObserveDetections({Det(0, 0, 40, 40, 0.01)}, 1);
  EXPECT_FALSE(prop.CanPropagate());
}

TEST(TrackPropagatorTest, SaveRestoreRoundTrip) {
  TrackPropagator prop(PropagationTrackerDefaults(), 0.9);
  prop.ObserveDetections({Det(0, 0, 40, 40, 0.8)}, 0);
  prop.ObserveDetections({Det(5, 0, 40, 40, 0.8), Det(200, 0, 30, 30, 0.7)},
                         1);
  prop.Propagate();

  ByteWriter w;
  ASSERT_TRUE(prop.SaveState(w).ok());
  TrackPropagator restored(PropagationTrackerDefaults(), 0.9);
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(restored.RestoreState(r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());

  EXPECT_EQ(restored.coast_streak(), prop.coast_streak());
  EXPECT_EQ(restored.detection_churn(), prop.detection_churn());
  EXPECT_EQ(restored.track_instability(), prop.track_instability());
  EXPECT_EQ(restored.agreement(), prop.agreement());
  // Both propagate the same boxes afterwards.
  const DetectionList a = prop.Propagate();
  const DetectionList b = restored.Propagate();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box.x1, b[i].box.x1);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
  }
}

// Restored streaks are bounded by the longest episode a gate can plan,
// and a refused payload leaves the propagator as it was.
TEST(TrackPropagatorTest, RestoreRejectsUnreachableStreak) {
  TrackPropagator source(PropagationTrackerDefaults(), 0.9);
  source.ObserveDetections({Det(0, 0, 40, 40, 0.8)}, 0);
  source.Propagate();
  ByteWriter w;
  ASSERT_TRUE(source.SaveState(w).ok());
  auto with_streak = [&](int64_t streak) {
    ByteWriter head;
    head.I64(streak);
    std::vector<uint8_t> bytes = w.bytes();
    std::copy(head.bytes().begin(), head.bytes().end(), bytes.begin());
    return bytes;
  };
  const int64_t longest = kMaxSkipBudget + kMaxSkipBoost;
  for (const int64_t streak :
       {int64_t{-1}, longest + 1, int64_t{1} << 31,
        int64_t{std::numeric_limits<int>::max()}}) {
    TrackPropagator target(PropagationTrackerDefaults(), 0.9);
    target.ObserveDetections({Det(0, 0, 40, 40, 0.8)}, 0);
    target.Propagate();
    target.Propagate();
    const std::vector<uint8_t> bytes = with_streak(streak);
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_EQ(target.RestoreState(r).code(), StatusCode::kDataLoss) << streak;
    EXPECT_EQ(target.coast_streak(), 2) << streak;
  }
  const std::vector<uint8_t> bytes = with_streak(longest);
  TrackPropagator target(PropagationTrackerDefaults(), 0.9);
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(target.RestoreState(r).ok());
  EXPECT_EQ(target.coast_streak(), longest);
}

// ------------------------------------------------- engine integration --

/// One run on the chosen backend/worker count, fresh source each call.
Result<RunResult> RunOnce(const Video& video, const DetectorPool& pool,
                          const std::string& kind, bool lazy_backend,
                          int workers, const EngineOptions& engine) {
  MatrixOptions matrix_options;
  matrix_options.parallelism = workers;
  std::unique_ptr<SelectionStrategy> strategy = MakeStrategy(kind);
  if (lazy_backend) {
    auto lazy = LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/9,
                                           matrix_options);
    if (!lazy.ok()) return lazy.status();
    return RunStrategy(**lazy, strategy.get(), engine);
  }
  auto matrix = BuildFrameMatrix(video, pool, /*trial_seed=*/9,
                                 matrix_options);
  if (!matrix.ok()) return matrix.status();
  return RunStrategy(*matrix, strategy.get(), engine);
}

// The disabled-path invariant: with skipping off (the default, and the
// explicit budget-0 spelling), every strategy on both backends at several
// worker counts produces the same bits it produced before this subsystem
// existed.
TEST(TemporalEngineTest, DisabledPathIsBitIdenticalEverywhere) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 17, "nusc-night");
  ASSERT_GT(video.size(), 12u);

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;

  // Budget 0 means !enabled(): no gate is constructed at all.
  EngineOptions budget_zero = engine;
  budget_zero.skip.mode = SkipMode::kDifficultyGated;
  budget_zero.skip.skip_budget = 0;

  const std::vector<std::string> kinds = {"MES",   "MES-B", "SW-MES",
                                          "D-MES", "RAND",  "EF"};
  for (const std::string& kind : kinds) {
    const Result<RunResult> baseline =
        RunOnce(video, pool, kind, /*lazy=*/false, /*workers=*/1, engine);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(baseline->skip.skipped_frames, 0u);
    EXPECT_EQ(baseline->breakdown.tracker_ms, 0.0);

    for (const bool lazy_backend : {false, true}) {
      for (const int workers : {1, 4}) {
        for (const bool zero_budget : {false, true}) {
          SCOPED_TRACE(kind + (lazy_backend ? "/lazy" : "/eager") + "/w" +
                       std::to_string(workers) +
                       (zero_budget ? "/budget0" : "/default"));
          const Result<RunResult> run =
              RunOnce(video, pool, kind, lazy_backend, workers,
                      zero_budget ? budget_zero : engine);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          ExpectSameRun(*baseline, *run);
        }
      }
    }
  }
}

// Skip-enabled runs on the lazy source match the eager reference
// (test::EagerTemporalSource: the matrix's cells plus fresh-context fused
// boxes and ground-truth scoring) at every worker count.
TEST(TemporalEngineTest, SkipEnabledRunsMatchAcrossBackendsAndWorkers) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.004, 17, "nusc-lowmotion");
  ASSERT_GT(video.size(), 12u);

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  engine.skip.mode = SkipMode::kFixedInterval;
  engine.skip.skip_budget = 3;

  const Result<RunResult> baseline =
      RunOnce(video, pool, "MES", /*lazy=*/true, /*workers=*/1, engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->skip.skipped_frames, 0u);
  EXPECT_GT(baseline->breakdown.tracker_ms, 0.0);

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("w" + std::to_string(workers));
    const Result<RunResult> lazy =
        RunOnce(video, pool, "MES", /*lazy=*/true, workers, engine);
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    ExpectSameRun(*baseline, *lazy);

    MatrixOptions matrix_options;
    matrix_options.parallelism = workers;
    const FrameMatrix matrix =
        std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/9,
                                   matrix_options))
            .value();
    test::EagerTemporalSource eager(matrix, video, pool, /*trial_seed=*/9,
                                    matrix_options);
    std::unique_ptr<SelectionStrategy> strategy = MakeStrategy("MES");
    const Result<RunResult> run = RunStrategy(eager, strategy.get(), engine);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectSameRun(*baseline, *run);
  }
}

TEST(TemporalEngineTest, EagerBackendWithoutTemporalOutputsIsRejected) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 17, "nusc-night");

  EngineOptions engine;
  engine.compute_regret = false;
  engine.skip.mode = SkipMode::kFixedInterval;
  engine.skip.skip_budget = 2;

  const Result<RunResult> run =
      RunOnce(video, pool, "MES", /*lazy=*/false, /*workers=*/1, engine);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(TemporalEngineTest, LowMotionSkippingCutsSimulatedTime) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.004, 23, "nusc-lowmotion");
  ASSERT_GT(video.size(), 20u);

  EngineOptions plain;
  plain.strategy_seed = 7;
  plain.compute_regret = false;

  EngineOptions skipping = plain;
  skipping.skip.mode = SkipMode::kFixedInterval;
  skipping.skip.skip_budget = 4;

  const Result<RunResult> base =
      RunOnce(video, pool, "MES", /*lazy=*/true, 1, plain);
  const Result<RunResult> fast =
      RunOnce(video, pool, "MES", /*lazy=*/true, 1, skipping);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  EXPECT_EQ(fast->frames_processed, base->frames_processed);
  EXPECT_GT(fast->skip.skipped_frames, fast->frames_processed / 2);
  EXPECT_LT(fast->breakdown.SimulatedMs(),
            0.5 * base->breakdown.SimulatedMs());
  // Skipped frames still contribute accuracy accounting.
  EXPECT_GT(fast->skip.propagated_ap_sum, 0.0);
  // Skipped frames select no ensemble: the selection histogram only counts
  // detect frames.
  uint64_t selections = 0;
  for (const uint64_t c : fast->selection_counts) selections += c;
  EXPECT_EQ(selections, fast->skip.detect_frames);
  EXPECT_EQ(fast->skip.detect_frames + fast->skip.skipped_frames,
            fast->frames_processed);
}

// Crash mid-skip-run and resume: the gate (policy arms, open episode,
// tracker, coast streak) is part of the snapshot, so the resumed run must
// be bit-identical — bandit mode exercises all of that state.
TEST(TemporalEngineTest, BanditSkipRunCrashResumesBitIdentically) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.004, 31, "nusc-lowmotion");
  ASSERT_GT(video.size(), 12u);

  EngineOptions engine;
  engine.strategy_seed = 11;
  engine.compute_regret = false;
  engine.skip.mode = SkipMode::kBandit;
  engine.skip.skip_budget = 3;

  const Result<RunResult> baseline =
      RunOnce(video, pool, "MES", /*lazy=*/true, 1, engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->skip.skipped_frames, 0u);

  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, "bandit-crash");
  int invocations = 0;
  RunResult resumed;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    Result<RunResult> run =
        RunOnce(video, pool, "MES", /*lazy=*/true, 1, ck);
    if (run.ok()) {
      invocations = attempt;
      resumed = std::move(run).value();
      break;
    }
    ASSERT_EQ(run.status().code(), StatusCode::kAborted)
        << run.status().ToString();
  }
  ASSERT_GT(invocations, 1) << "the crash must actually fire";
  ExpectSameRun(*baseline, resumed);
}

// Resuming a skip-enabled run under different skip settings must be
// refused — the options are part of the run identity.
TEST(TemporalEngineTest, ResumeWithDifferentSkipSettingsIsRejected) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.004, 31, "nusc-lowmotion");

  EngineOptions ck;
  ck.strategy_seed = 11;
  ck.compute_regret = false;
  ck.skip.mode = SkipMode::kFixedInterval;
  ck.skip.skip_budget = 3;
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, "skip-identity");
  ASSERT_EQ(RunOnce(video, pool, "MES", true, 1, ck).status().code(),
            StatusCode::kAborted);

  EngineOptions other = ck;
  other.checkpoint.crash_after_frames = 0;
  other.skip.skip_budget = 4;
  EXPECT_EQ(
      RunOnce(video, pool, "MES", true, 1, other).status().code(),
      StatusCode::kFailedPrecondition);

  ck.checkpoint.crash_after_frames = 0;
  const Result<RunResult> ok =
      RunOnce(video, pool, "MES", true, 1, ck);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->checkpoint.resumed);
}

// -------------------------------------------------- query integration --

constexpr char kCountSql[] =
    "SELECT frameID FROM (PROCESS nusc-lowmotion PRODUCE frameID, "
    "Detections USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
    "WHERE COUNT(car) >= 1";

QueryEngineOptions SmallQueryOptions() {
  QueryEngineOptions opt;
  opt.scene_scale = 0.004;
  opt.seed = 3;
  return opt;
}

TEST(TemporalQueryTest, SkipAnswersFramesFromPropagation) {
  QueryEngineOptions opt = SmallQueryOptions();
  const Result<QueryOutput> plain = ExecuteQuery(kCountSql, opt);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->skipped_frames, 0u);
  EXPECT_EQ(plain->tracker_ms, 0.0);

  opt.skip.mode = SkipMode::kFixedInterval;
  opt.skip.skip_budget = 4;
  const Result<QueryOutput> fast = ExecuteQuery(kCountSql, opt);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->frames_processed, plain->frames_processed);
  EXPECT_GT(fast->skipped_frames, 0u);
  EXPECT_GT(fast->tracker_ms, 0.0);
  EXPECT_LT(fast->charged_cost_ms, plain->charged_cost_ms);
  // Skipped frames still answer the predicate; on a low-motion video the
  // propagated answers should track the detect-path answers closely.
  EXPECT_GT(fast->frames_matched, 0u);
}

TEST(TemporalQueryTest, BudgetZeroIsBitIdenticalToNoSkip) {
  const QueryEngineOptions plain = SmallQueryOptions();
  const Result<QueryOutput> base = ExecuteQuery(kCountSql, plain);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  QueryEngineOptions zero = plain;
  zero.skip.mode = SkipMode::kBandit;
  zero.skip.skip_budget = 0;  // !enabled(): no gate is constructed
  const Result<QueryOutput> run = ExecuteQuery(kCountSql, zero);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectSameQuery(*base, *run);
}

TEST(TemporalQueryTest, TracksPredicateSharesTheGateTracker) {
  // With the gate enabled there is exactly one tracker per run: TRACKS()
  // reads the gate's tracker, on skipped and detect frames alike.
  QueryEngineOptions opt = SmallQueryOptions();
  opt.skip.mode = SkipMode::kFixedInterval;
  opt.skip.skip_budget = 3;
  const Result<QueryOutput> out = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc-lowmotion PRODUCE frameID, "
      "Detections USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE TRACKS(car) >= 1",
      opt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->skipped_frames, 0u);
  EXPECT_GT(out->frames_matched, 0u);
  EXPECT_LE(out->frames_matched, out->frames_processed);
}

TEST(TemporalQueryTest, SkipQueryCrashResumesBitIdentically) {
  QueryEngineOptions opt = SmallQueryOptions();
  opt.skip.mode = SkipMode::kBandit;
  opt.skip.skip_budget = 3;
  const Result<QueryOutput> baseline = ExecuteQuery(kCountSql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->skipped_frames, 0u);

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 5;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = ScratchDir(kScratch, "query-bandit-crash");
  int invocations = 0;
  QueryOutput resumed;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const Result<QueryOutput> out = ExecuteQuery(kCountSql, ck);
    if (out.ok()) {
      invocations = attempt;
      resumed = *out;
      break;
    }
    ASSERT_EQ(out.status().code(), StatusCode::kAborted)
        << out.status().ToString();
  }
  ASSERT_GT(invocations, 1) << "the crash must actually fire";
  ExpectSameQuery(*baseline, resumed);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// ------------------------------------------------ overload skip boost --
// The gate's dynamic degradation overlay (ISSUE 9): SetSkipBoost extends
// every planned episode, including zero-plans, survives the snapshot
// round-trip as bounded dynamic state, and rejects hostile counters.

SkipOptions BoostOptions() {
  SkipOptions o;
  o.mode = SkipMode::kFixedInterval;
  o.skip_budget = 2;
  return o;
}

TEST(TemporalGateBoostTest, SetSkipBoostClampsToBounds) {
  auto gate = std::move(TemporalGate::Create(BoostOptions())).value();
  EXPECT_EQ(gate->skip_boost(), 0);
  gate->SetSkipBoost(-7);
  EXPECT_EQ(gate->skip_boost(), 0);
  gate->SetSkipBoost(kMaxSkipBoost + 500);
  EXPECT_EQ(gate->skip_boost(), kMaxSkipBoost);
  gate->SetSkipBoost(3);
  EXPECT_EQ(gate->skip_boost(), 3);
}

TEST(TemporalGateBoostTest, BoostExtendsEveryPlannedEpisode) {
  auto plain = std::move(TemporalGate::Create(BoostOptions())).value();
  auto boosted = std::move(TemporalGate::Create(BoostOptions())).value();
  boosted->SetSkipBoost(3);
  for (TemporalGate* g : {plain.get(), boosted.get()}) {
    EXPECT_FALSE(g->ShouldSkip(SceneContext::kClear));  // first frame
    g->ObserveDetections({Det(0, 0, 40, 40, 0.9)}, 0);
  }
  EXPECT_EQ(boosted->remaining_skips(), plain->remaining_skips() + 3);
}

TEST(TemporalGateBoostTest, BoostCoastsEvenZeroPlans) {
  // A scene-context change scores difficulty 1.0, at or above the gated
  // threshold, so the gated policy plans zero skips for the episode that
  // follows it — the boost must still coast frames.
  SkipOptions o = BoostOptions();
  o.mode = SkipMode::kDifficultyGated;
  auto plain = std::move(TemporalGate::Create(o)).value();
  auto boosted = std::move(TemporalGate::Create(o)).value();
  boosted->SetSkipBoost(2);
  for (TemporalGate* g : {plain.get(), boosted.get()}) {
    EXPECT_FALSE(g->ShouldSkip(SceneContext::kClear));
    g->ObserveDetections({Det(0, 0, 40, 40, 0.9)}, 0);
    EXPECT_FALSE(g->ShouldSkip(SceneContext::kNight));  // forced detect
    g->ObserveDetections({Det(0, 0, 40, 40, 0.9)}, 1);
    ASSERT_GE(g->last_difficulty(), kSkipDifficultyThreshold);
  }
  EXPECT_EQ(plain->remaining_skips(), 0);
  EXPECT_EQ(boosted->remaining_skips(), 2);
  // The boosted gate actually answers the next frames from propagation.
  EXPECT_TRUE(boosted->ShouldSkip(SceneContext::kNight));
  EXPECT_FALSE(plain->ShouldSkip(SceneContext::kNight));
}

TEST(TemporalGateBoostTest, BoostIncreasesCoastedFramesEndToEnd) {
  const DetectorPool pool = MakePool(2);
  const Video video = MakeVideo(0.02, 7, "nusc-night");
  const auto run_with_boost = [&](int boost) {
    auto source = std::move(LazyFrameEvaluator::Create(video, pool,
                                                       /*trial_seed=*/9, {}))
                      .value();
    std::unique_ptr<SelectionStrategy> strategy = MakeStrategy("MES");
    EngineOptions e;
    e.strategy_seed = 42;
    e.compute_regret = false;
    e.skip.mode = SkipMode::kFixedInterval;
    e.skip.skip_budget = 1;
    auto run =
        std::move(EngineRun::Create(*source, strategy.get(), e)).value();
    while (!run->done()) {
      run->SetDegradation(boost, 0);
      const Status st = run->StepFrame();
      if (!st.ok()) {
        ADD_FAILURE() << st.ToString();
        break;
      }
    }
    return std::move(run->Finish()).value();
  };
  const RunResult base = run_with_boost(0);
  const RunResult boosted = run_with_boost(6);
  EXPECT_EQ(base.frames_processed, boosted.frames_processed);
  EXPECT_GT(boosted.skip.skipped_frames, base.skip.skipped_frames);
  // The boosted run spends fewer detector calls for the same frames.
  EXPECT_LT(boosted.charged_cost_ms, base.charged_cost_ms);
}

TEST(TemporalGateBoostTest, SaveRestoreRoundTripsBoostedState) {
  auto original = std::move(TemporalGate::Create(BoostOptions())).value();
  original->SetSkipBoost(3);
  EXPECT_FALSE(original->ShouldSkip(SceneContext::kClear));
  original->ObserveDetections({Det(0, 0, 40, 40, 0.9)}, 0);
  ASSERT_GT(original->remaining_skips(), BoostOptions().skip_budget)
      << "episode must be boosted past the configured budget";

  ByteWriter w;
  ASSERT_TRUE(original->SaveState(w).ok());
  auto restored = std::move(TemporalGate::Create(BoostOptions())).value();
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(restored->RestoreState(r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());

  EXPECT_EQ(restored->skip_boost(), original->skip_boost());
  EXPECT_EQ(restored->remaining_skips(), original->remaining_skips());
  EXPECT_EQ(restored->forced_detects(), original->forced_detects());
  EXPECT_EQ(restored->last_difficulty(), original->last_difficulty());
  // Both gates take the same decisions afterwards.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(original->ShouldSkip(SceneContext::kClear),
              restored->ShouldSkip(SceneContext::kClear))
        << "divergence at post-restore frame " << i;
  }
}

/// The gate header exactly as SaveState lays it out, with attacker-chosen
/// counters. Restore must bounds-check BEFORE touching policy bytes, so
/// the truncated tail is never reached.
ByteWriter HostileGateHeader(int64_t remaining, int64_t completed,
                             int64_t boost, int64_t planned_base) {
  ByteWriter w;
  w.I64(remaining);
  w.I64(completed);
  w.Bool(false);  // episode_open
  w.Bool(false);  // has_context
  w.Bool(false);  // context_changed
  w.U8(0);        // last_context
  w.F64(1.0);     // last_difficulty
  w.U64(0);       // forced_detects
  w.I64(boost);
  w.I64(planned_base);
  return w;
}

TEST(TemporalGateBoostTest, RestoreRejectsHostileCounters) {
  const struct {
    const char* name;
    int64_t remaining, completed, boost, planned_base;
  } corpus[] = {
      {"boost over cap", 0, 0, kMaxSkipBoost + 1, 0},
      {"negative boost", 0, 0, -1, 0},
      {"planned base over budget", 0, 0, 0, 3},
      {"remaining past budget+boost", 5, 0, 2, 2},
      {"negative remaining", -1, 0, 0, 0},
      {"completed past budget+boost", 0, 9, 1, 1},
  };
  for (const auto& c : corpus) {
    auto gate = std::move(TemporalGate::Create(BoostOptions())).value();
    const ByteWriter w = HostileGateHeader(c.remaining, c.completed, c.boost,
                                           c.planned_base);
    ByteReader r(w.bytes().data(), w.size());
    EXPECT_EQ(gate->RestoreState(r).code(), StatusCode::kDataLoss) << c.name;
  }
}

}  // namespace
}  // namespace vqe
