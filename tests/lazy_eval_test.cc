// Lazy memoized evaluation: every cell a LazyFrameEvaluator materializes
// must be bit-identical to the eagerly built FrameMatrix (both run the
// shared FrameEvalContext kernel — these tests pin the contract), engine
// runs must be indistinguishable across backends, and lazy MES runs must
// actually skip most of the lattice.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "models/model_zoo.h"
#include "models/reference_detector.h"
#include "runtime/fault_injection.h"
#include "sim/dataset.h"
#include "temporal/skip_policy.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::ExpectSameRun;
using test::MakePool;
using test::MakeVideo;

/// Forwards to a pool detector and counts its Detect calls — the work a
/// rebuilt frame context repeats.
class CountingDetector final : public ObjectDetector {
 public:
  CountingDetector(const ObjectDetector& inner, std::atomic<uint64_t>* calls)
      : inner_(&inner), calls_(calls) {}
  const std::string& name() const override { return inner_->name(); }
  DetectionList Detect(const VideoFrame& frame,
                       uint64_t trial_seed) const override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return inner_->Detect(frame, trial_seed);
  }
  double InferenceCostMs(const VideoFrame& frame,
                         uint64_t trial_seed) const override {
    return inner_->InferenceCostMs(frame, trial_seed);
  }
  uint64_t param_count() const override { return inner_->param_count(); }
  const std::string& structure_name() const override {
    return inner_->structure_name();
  }

 private:
  const ObjectDetector* inner_;
  std::atomic<uint64_t>* calls_;
};

/// `pool` with every candidate detector counted into `calls`.
DetectorPool CountingPool(const DetectorPool& pool,
                          std::atomic<uint64_t>* calls) {
  DetectorPool counting;
  for (const auto& d : pool.detectors) {
    counting.detectors.push_back(std::make_unique<CountingDetector>(*d, calls));
  }
  counting.reference =
      std::make_unique<ReferenceDetector>(pool.reference->profile());
  return counting;
}

bool SameDetections(const DetectionList& a, const DetectionList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].box == b[i].box) || a[i].confidence != b[i].confidence ||
        a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

// Every cell and every frame stat, for eager builds at several worker
// counts.
TEST(LazyEvalTest, EveryCellBitIdenticalToEagerMatrix) {
  const int m = 4;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/11);
  ASSERT_GT(video.size(), 0u);

  MatrixOptions options;
  for (const int workers : {1, 2, 8}) {
    options.parallelism = workers;
    const auto matrix =
        std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/7, options))
            .value();
    auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                     /*trial_seed=*/7,
                                                     options))
                    .value();
    ASSERT_EQ(lazy->num_frames(), matrix.size());
    ASSERT_EQ(lazy->num_models(), matrix.num_models);
    const uint32_t num_masks = matrix.num_ensembles();
    for (size_t t = 0; t < matrix.size(); ++t) {
      const FrameEvaluation& fe = matrix.frames[t];
      const FrameStats stats = lazy->Stats(t);
      EXPECT_EQ(stats.context, fe.context);
      EXPECT_EQ(*stats.model_cost_ms, fe.model_cost_ms);
      EXPECT_EQ(stats.ref_cost_ms, fe.ref_cost_ms);
      EXPECT_EQ(stats.max_cost_ms, fe.max_cost_ms)
          << "FullEnsembleCostMs must equal the eager running max";
      for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
        const MaskEvaluation e = lazy->Eval(t, mask);
        ASSERT_EQ(e.est_ap, fe.est_ap[mask]) << " t=" << t << " mask=" << mask;
        ASSERT_EQ(e.true_ap, fe.true_ap[mask]);
        ASSERT_EQ(e.cost_ms, fe.cost_ms[mask]);
        ASSERT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[mask]);
      }
    }
    EXPECT_EQ(lazy->frames_touched(), matrix.size());
    EXPECT_EQ(lazy->masks_materialized(),
              static_cast<uint64_t>(matrix.size()) * num_masks);
  }
}

// Memoization: re-reading a cell serves the memo and returns the same
// value; instrumentation counts distinct cells, not reads.
TEST(LazyEvalTest, EvalIsMemoized) {
  const DetectorPool pool = MakePool(3);
  auto lazy = std::move(LazyFrameEvaluator::Create(
                            MakeVideo(0.02, 3), pool, /*trial_seed=*/3))
                  .value();
  ASSERT_GT(lazy->num_frames(), 0u);
  const MaskEvaluation first = lazy->Eval(0, 5);
  EXPECT_EQ(lazy->masks_materialized(), 1u);
  EXPECT_EQ(lazy->memo_hits(), 0u);
  const MaskEvaluation again = lazy->Eval(0, 5);
  EXPECT_EQ(lazy->masks_materialized(), 1u);
  EXPECT_EQ(lazy->memo_hits(), 1u);
  EXPECT_EQ(first.est_ap, again.est_ap);
  EXPECT_EQ(first.true_ap, again.true_ap);
  EXPECT_EQ(first.cost_ms, again.cost_ms);
  EXPECT_EQ(first.fusion_overhead_ms, again.fusion_overhead_ms);
}

// True AP on demand: an estimate-only read scores est_ap and the costs
// bit-identically to the eager matrix and leaves true_ap NaN; a later full
// read upgrades the cell to the eager one — even after its frame was
// evicted — counted as a memo hit and an upgrade, never as a second
// materialization. Any later read is a plain memo hit of the full cell.
TEST(LazyMemoTest, EstimateThenFullReadUpgradesToTheEagerCell) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/3);
  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/3)).value();
  auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                   /*trial_seed=*/3))
                  .value();
  const uint32_t num_masks = matrix.num_ensembles();
  const uint64_t cells = static_cast<uint64_t>(matrix.size()) * num_masks;
  ASSERT_GT(cells, 0u);

  for (size_t t = 0; t < matrix.size(); ++t) {
    const FrameEvaluation& fe = matrix.frames[t];
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      const MaskEvaluation e = lazy->EvalEstimate(t, mask);
      ASSERT_EQ(e.est_ap, fe.est_ap[mask]) << "t=" << t << " mask=" << mask;
      ASSERT_EQ(e.cost_ms, fe.cost_ms[mask]);
      ASSERT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[mask]);
      ASSERT_TRUE(std::isnan(e.true_ap));
    }
  }
  EXPECT_EQ(lazy->masks_materialized(), cells);
  EXPECT_EQ(lazy->memo_hits(), 0u);
  EXPECT_EQ(lazy->cells_upgraded(), 0u);

  // Every frame's context was evicted by now: each upgrade pass rebuilds.
  for (const bool again : {false, true}) {
    for (size_t t = 0; t < matrix.size(); ++t) {
      const FrameEvaluation& fe = matrix.frames[t];
      for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
        const MaskEvaluation e =
            again ? lazy->EvalEstimate(t, mask) : lazy->Eval(t, mask);
        ASSERT_EQ(e.est_ap, fe.est_ap[mask]) << "t=" << t << " mask=" << mask;
        ASSERT_EQ(e.true_ap, fe.true_ap[mask]);
        ASSERT_EQ(e.cost_ms, fe.cost_ms[mask]);
        ASSERT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[mask]);
      }
    }
    EXPECT_EQ(lazy->masks_materialized(), cells);
    EXPECT_EQ(lazy->memo_hits(), again ? 2 * cells : cells);
    EXPECT_EQ(lazy->cells_upgraded(), cells);
  }
  EXPECT_EQ(lazy->frames_rebuilt(), matrix.size());
}

/// Forwards every read to a lazy evaluator and counts them. With
/// `forward_estimates` false it keeps EvaluationSource's default
/// EvalEstimate (a full Eval), so a run reads every cell in full — the
/// read pattern of a source without estimate-only cells.
class ReadCountingSource final : public EvaluationSource {
 public:
  ReadCountingSource(LazyFrameEvaluator* inner, bool forward_estimates)
      : inner_(inner), forward_estimates_(forward_estimates) {}
  int num_models() const override { return inner_->num_models(); }
  size_t num_frames() const override { return inner_->num_frames(); }
  FrameStats Stats(size_t t) override { return inner_->Stats(t); }
  MaskEvaluation Eval(size_t t, EnsembleId mask) override {
    ++full_reads;
    return inner_->Eval(t, mask);
  }
  MaskEvaluation EvalEstimate(size_t t, EnsembleId mask) override {
    if (!forward_estimates_) return Eval(t, mask);
    ++estimate_reads;
    return inner_->EvalEstimate(t, mask);
  }
  SceneContext PeekContext(size_t t) override {
    return inner_->PeekContext(t);
  }
  bool SupportsPropagation() const override { return true; }
  Result<double> ScorePropagated(size_t t,
                                 const DetectionList& dets) override {
    return inner_->ScorePropagated(t, dets);
  }
  const DetectionList* FusedOutput(size_t t, EnsembleId mask) override {
    return inner_->FusedOutput(t, mask);
  }
  const std::vector<EnsembleId>* TrueFrontier(size_t t) override {
    return inner_->TrueFrontier(t);
  }

  uint64_t full_reads = 0;
  uint64_t estimate_reads = 0;

 private:
  LazyFrameEvaluator* inner_;
  bool forward_estimates_;
};

// The engine reads strict subsets estimate-only (regret off) or in full
// (regret on), and the memo counters do not depend on which: every run
// below reports the same frames touched, cells materialized and memo hits
// as the same run with every read forced full, and those equal the values
// builds without estimate-only cells reported (pinned). No cell is ever
// upgraded, so no cell is fused twice.
TEST(LazyMemoTest, SinglePassCountersDoNotDependOnEstimateReads) {
  using Factory = std::function<std::unique_ptr<SelectionStrategy>()>;
  struct Case {
    std::string label;
    int m;
    std::string dataset;
    double scene_scale;
    uint64_t seed;
    Factory make;
    bool regret;
    bool skip;
    uint64_t touched, cells, hits;
  };
  const std::vector<Case> cases = {
      {"MES m=8", 8, "nusc-night", 0.03, 17,
       [] {
         MesOptions o;
         o.gamma = 2;
         return std::make_unique<MesStrategy>(o);
       },
       false, false, 100, 7184, 0},
      {"SW-MES", 6, "c&n&r", 0.03, 13,
       [] { return std::make_unique<SwMesStrategy>(); }, false, false, 800,
       15804, 0},
      {"gated D-MES", 6, "nusc-lowmotion", 0.05, 7,
       [] { return std::make_unique<DucbMesStrategy>(); }, false, true, 320,
       2018, 0},
      {"RAND regret", 4, "nusc-night", 0.02, 5,
       [] { return std::make_unique<RandomStrategy>(); }, true, false, 100,
       1500, 410},
      {"MES regret", 4, "nusc-night", 0.02, 9,
       [] { return std::make_unique<MesStrategy>(); }, true, false, 100, 1500,
       606},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const DetectorPool pool = MakePool(c.m);
    const DatasetSpec* spec = *DatasetCatalog::Default().Find(c.dataset);
    SampleOptions sample;
    sample.scene_scale = c.scene_scale;
    sample.seed = c.seed;
    const Video video = std::move(SampleVideo(*spec, sample)).value();
    EngineOptions engine;
    engine.strategy_seed = c.seed + 1;
    engine.compute_regret = c.regret;
    if (c.skip) {
      engine.skip.mode = SkipMode::kDifficultyGated;
      engine.skip.skip_budget = 4;
    }

    RunResult runs[2];
    std::unique_ptr<LazyFrameEvaluator> lazies[2];
    uint64_t estimate_reads = 0;
    for (const bool forward : {true, false}) {
      auto& lazy = lazies[forward ? 0 : 1];
      lazy = std::move(LazyFrameEvaluator::Create(video, pool, c.seed))
                 .value();
      ReadCountingSource source(lazy.get(), forward);
      auto strategy = c.make();
      runs[forward ? 0 : 1] =
          std::move(RunStrategy(source, strategy.get(), engine)).value();
      if (forward) estimate_reads = source.estimate_reads;
    }
    ExpectSameRun(runs[0], runs[1]);
    if (c.regret) {
      EXPECT_EQ(estimate_reads, 0u);
    } else {
      EXPECT_GT(estimate_reads, 0u);
    }
    for (const auto& lazy : lazies) {
      EXPECT_EQ(lazy->frames_touched(), c.touched);
      EXPECT_EQ(lazy->masks_materialized(), c.cells);
      EXPECT_EQ(lazy->memo_hits(), c.hits);
      EXPECT_EQ(lazy->cells_upgraded(), 0u);
      EXPECT_EQ(lazy->frames_rebuilt(), 0u);
    }
  }
}

// An MES run observes only the subset lattices of its selections, so the
// lazy backend must (a) reproduce the eager run bit-for-bit and (b)
// materialize strictly less than the full 2^m − 1 masks per frame on
// average — the whole point of laziness at m = 8.
TEST(LazyEvalTest, MesM8RunsBitIdenticalAndMaterializesSparsely) {
  const int m = 8;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.03, /*seed=*/17);
  ASSERT_GT(video.size(), 20u);

  EngineOptions engine;
  engine.sc = ScoringFunction{};
  engine.strategy_seed = 99;
  engine.compute_regret = false;

  MesOptions mes;
  mes.gamma = 2;

  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/17)).value();
  MesStrategy eager_mes(mes);
  const RunResult eager =
      std::move(RunStrategy(matrix, &eager_mes, engine)).value();

  auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                   /*trial_seed=*/17))
                  .value();
  MesStrategy lazy_mes(mes);
  const RunResult lazy_run =
      std::move(RunStrategy(*lazy, &lazy_mes, engine)).value();

  ExpectSameRun(eager, lazy_run);

  const uint64_t full_lattice =
      static_cast<uint64_t>(lazy->num_frames()) * matrix.num_ensembles();
  EXPECT_LT(lazy->masks_materialized(), full_lattice)
      << "lazy MES run materialized the whole lattice";
}

// With compute_regret on, a lazy source has no Pareto frontier, so the
// engine falls back to the exhaustive scan — slower, but the regret it
// reports must still match the eager frontier-accelerated scan.
TEST(LazyEvalTest, LazyRegretMatchesEagerFrontierRegret) {
  const DetectorPool pool = MakePool(4);
  const Video video = MakeVideo(0.02, 5);

  EngineOptions engine;
  engine.strategy_seed = 21;
  engine.compute_regret = true;

  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/5)).value();
  RandomStrategy eager_rand;
  const RunResult eager =
      std::move(RunStrategy(matrix, &eager_rand, engine)).value();

  auto lazy =
      std::move(LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/5))
          .value();
  RandomStrategy lazy_rand;
  const RunResult lazy_run =
      std::move(RunStrategy(*lazy, &lazy_rand, engine)).value();

  EXPECT_TRUE(eager.regret_available);
  ExpectSameRun(eager, lazy_run);
  // The exhaustive fallback materialized everything. With regret on the
  // engine reads the realized lattice in full, so the scan re-reads those
  // cells from the memo and never upgrades one: the counters are those of
  // a run without estimate-only reads.
  EXPECT_EQ(lazy->masks_materialized(),
            static_cast<uint64_t>(lazy->num_frames()) *
                matrix.num_ensembles());
  EXPECT_EQ(lazy->memo_hits(), 470u);
  EXPECT_EQ(lazy->cells_upgraded(), 0u);
}

TEST(LazyEvalTest, RegretSkippedWhenDisabled) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 5);
  EngineOptions engine;
  engine.compute_regret = false;
  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/5)).value();
  BruteForceStrategy bf;
  const RunResult run = std::move(RunStrategy(matrix, &bf, engine)).value();
  EXPECT_FALSE(run.regret_available);
  EXPECT_EQ(run.regret, 0.0);
}

TEST(LazyEvalTest, FullLatticeFlags) {
  EXPECT_TRUE(OptStrategy().needs_full_lattice());
  EXPECT_TRUE(BruteForceStrategy().needs_full_lattice());
  EXPECT_FALSE(SingleBestStrategy().needs_full_lattice());
  EXPECT_FALSE(RandomStrategy().needs_full_lattice());
  EXPECT_FALSE(ExploreFirstStrategy().needs_full_lattice());
  EXPECT_FALSE(MesStrategy(MesOptions{}).needs_full_lattice());
}

// The experiment harness goes lazy here (all online strategies, regret
// off) and must reproduce per-trial runs over the eager matrix.
TEST(LazyEvalTest, ExperimentBackendsAgree) {
  const DetectorPool pool = MakePool(3);
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");

  ExperimentConfig config;
  config.dataset = spec;
  config.scene_scale = 0.02;
  config.trials = 2;
  config.pool_size = 3;
  config.base_seed = 77;
  config.engine.compute_regret = false;

  std::vector<StrategySpec> strategies = {
      {"MES",
       [] {
         MesOptions opt;
         opt.gamma = 2;
         return std::make_unique<MesStrategy>(opt);
       }},
      {"RAND", [] { return std::make_unique<RandomStrategy>(); }},
      {"SGL", [] { return std::make_unique<SingleBestStrategy>(); }},
  };

  const auto eager =
      test::PerTrialRuns(config, pool, strategies, /*lazy=*/false);
  std::atomic<uint64_t> detect_calls{0};
  const DetectorPool counting = CountingPool(pool, &detect_calls);
  const auto lazy =
      std::move(RunExperiment(config, counting, strategies)).value();

  // The lazy line-up steps in lockstep over one evaluator per trial, so
  // every frame's detectors run once: SGL's calibration reads every frame
  // (frames_touched() is the video length) and a rebuilt frame would add
  // m more calls.
  uint64_t frames_touched = 0;
  for (int trial = 0; trial < config.trials; ++trial) {
    frames_touched += std::move(BuildTrialEvaluator(
                                    config, pool, static_cast<uint64_t>(trial)))
                          .value()
                          ->num_frames();
  }
  EXPECT_EQ(detect_calls.load(), frames_touched * pool.size());

  ASSERT_EQ(lazy.outcomes.size(), strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    ASSERT_EQ(lazy.outcomes[i].runs.size(), eager[i].size());
    for (size_t trial = 0; trial < eager[i].size(); ++trial) {
      ExpectSameRun(eager[i][trial], lazy.outcomes[i].runs[trial]);
    }
    EXPECT_FALSE(lazy.outcomes[i].regret_available);
  }
}

// A skip-enabled experiment runs lazy even with regret on and full-lattice
// strategies in the line-up: an eager matrix has no propagation hooks and
// refuses skip-enabled runs. It matches per-trial lazy runs.
TEST(LazyEvalTest, SkipEnabledExperimentRunsLazy) {
  const DetectorPool pool = MakePool(3);
  ExperimentConfig config;
  config.dataset = *DatasetCatalog::Default().Find("nusc-lowmotion");
  config.scene_scale = 0.004;
  config.trials = 2;
  config.pool_size = 3;
  config.base_seed = 29;
  config.engine.skip.mode = SkipMode::kFixedInterval;
  config.engine.skip.skip_budget = 2;
  const auto lineup = DefaultTuviStrategies(/*gamma=*/2, /*ef_explore=*/2);

  const auto result = RunExperiment(config, pool, lineup);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto per_trial = test::PerTrialRuns(config, pool, lineup,
                                            /*lazy=*/true);
  for (size_t i = 0; i < lineup.size(); ++i) {
    SCOPED_TRACE(lineup[i].label);
    for (int trial = 0; trial < config.trials; ++trial) {
      const RunResult& run =
          result->outcomes[i].runs[static_cast<size_t>(trial)];
      const RunResult& solo = per_trial[i][static_cast<size_t>(trial)];
      ExpectSameRun(solo, run);
      EXPECT_GT(run.skip.skipped_frames, 0u);
      EXPECT_EQ(run.skip.skipped_frames, solo.skip.skipped_frames);
      EXPECT_EQ(run.skip.propagated_ap_sum, solo.skip.propagated_ap_sum);
    }
    EXPECT_TRUE(result->outcomes[i].regret_available);
  }

  MesStrategy mes;
  const Result<RunResult> eager = RunStrategy(
      std::move(BuildTrialMatrix(config, pool, 0)).value(), &mes,
      config.engine);
  EXPECT_EQ(eager.status().code(), StatusCode::kInvalidArgument);
}

// The memory model: only the live frame keeps its detector context. An
// evicted frame's Stats() come from its record; its unmemoised cells and
// fused outputs rebuild the context, bit-identical to the eager matrix,
// and are counted as rebuilds, never as new touches.
TEST(LazyEvalTest, EvictedFrameRebuildsBitIdenticalToEagerMatrix) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/11);
  ASSERT_GE(video.size(), 2u);
  const MatrixOptions options;
  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/7, options))
          .value();
  auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                   /*trial_seed=*/7, options))
                  .value();
  const FrameEvaluation& fe = matrix.frames[0];

  lazy->Eval(0, Singleton(0));
  lazy->Eval(1, Singleton(0));  // frame 0's context is gone
  EXPECT_EQ(lazy->frames_touched(), 2u);
  const FrameStats stats = lazy->Stats(0);
  EXPECT_EQ(*stats.model_cost_ms, fe.model_cost_ms);
  EXPECT_EQ(*stats.model_fault_ms, fe.model_fault_ms);
  EXPECT_EQ(stats.ref_cost_ms, fe.ref_cost_ms);
  EXPECT_EQ(stats.max_cost_ms, fe.max_cost_ms);
  EXPECT_EQ(stats.available_mask, fe.available_mask);
  EXPECT_EQ(lazy->frames_rebuilt(), 0u) << "Stats() re-ran detectors";

  for (EnsembleId mask = 1; mask <= matrix.num_ensembles(); ++mask) {
    const MaskEvaluation e = lazy->Eval(0, mask);
    EXPECT_EQ(e.est_ap, fe.est_ap[mask]) << "mask=" << mask;
    EXPECT_EQ(e.true_ap, fe.true_ap[mask]);
    EXPECT_EQ(e.cost_ms, fe.cost_ms[mask]);
    EXPECT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[mask]);
  }
  EXPECT_EQ(lazy->frames_rebuilt(), 1u);

  lazy->Eval(1, Singleton(1));  // back to frame 1: rebuilt, frame 0 evicted
  EXPECT_EQ(lazy->frames_rebuilt(), 2u);
  const EnsembleId full = FullEnsemble(m);
  const DetectionList* fused = lazy->FusedOutput(0, full);
  ASSERT_NE(fused, nullptr);
  DetectionList fresh;
  FrameEvalContext(video.frames[0], pool, /*trial_seed=*/7, options)
      .Fuse(full, &fresh);
  EXPECT_TRUE(SameDetections(*fused, fresh));
  EXPECT_EQ(lazy->frames_rebuilt(), 3u);
  EXPECT_EQ(lazy->frames_touched(), 2u);
}

// A FrameStats handed out for one frame stays readable after the
// evaluator moved on (and freed that frame's context): its pointers
// target the frame's record, which lives as long as the evaluator.
TEST(LazyEvalTest, HeldFrameStatsOutliveEviction) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/5);
  ASSERT_GE(video.size(), 3u);
  auto lazy =
      std::move(LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/5))
          .value();
  const FrameStats held = lazy->Stats(0);
  const std::vector<double> costs = *held.model_cost_ms;
  const std::vector<double> faults = *held.model_fault_ms;
  for (size_t t = 1; t < video.size(); ++t) {
    lazy->Eval(t, FullEnsemble(m));
  }
  EXPECT_EQ(*held.model_cost_ms, costs);
  EXPECT_EQ(*held.model_fault_ms, faults);
  EXPECT_EQ(lazy->frames_rebuilt(), 0u);
}

// The engine never reads a frame again after stepping past it, so one
// live context suffices: no single-pass run of an online strategy — SGL's
// whole-video calibration included, and the skip gate's fused-output
// reads — rebuilds a frame, and every run still matches the eager one
// (with skip on, the eager reference test::EagerTemporalSource).
// The one exception is by design: SGL's calibration visits every frame
// before its run starts and the memo keeps scalars, not boxes, so a
// skip-gated SGL run rebuilds each detect frame for the tracker's input.
TEST(LazyEvalTest, SinglePassRunsNeverRebuild) {
  const int m = 4;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.03, /*seed=*/19);
  ASSERT_GT(video.size(), 20u);
  const MatrixOptions matrix_options;
  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/19,
                                 matrix_options))
          .value();
  test::EagerTemporalSource eager_source(matrix, video, pool,
                                         /*trial_seed=*/19, matrix_options);

  using Factory = std::function<std::unique_ptr<SelectionStrategy>()>;
  const std::vector<std::pair<std::string, Factory>> online = {
      {"MES", [] { return std::make_unique<MesStrategy>(); }},
      {"MES-B", [] { return std::make_unique<MesBStrategy>(); }},
      {"SW-MES", [] { return std::make_unique<SwMesStrategy>(); }},
      {"D-MES", [] { return std::make_unique<DucbMesStrategy>(); }},
      {"RAND", [] { return std::make_unique<RandomStrategy>(); }},
      {"EF", [] { return std::make_unique<ExploreFirstStrategy>(2); }},
      {"SGL", [] { return std::make_unique<SingleBestStrategy>(); }},
  };
  for (const bool skip : {false, true}) {
    for (const auto& [label, make] : online) {
      SCOPED_TRACE(label + (skip ? " +skip" : ""));
      EngineOptions engine;
      engine.strategy_seed = 31;
      engine.compute_regret = false;
      if (skip) {
        engine.skip.mode = SkipMode::kFixedInterval;
        engine.skip.skip_budget = 2;
      }
      auto eager_strategy = make();
      const RunResult eager =
          std::move(RunStrategy(eager_source, eager_strategy.get(), engine))
              .value();
      auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                       /*trial_seed=*/19))
                      .value();
      auto lazy_strategy = make();
      const RunResult run =
          std::move(RunStrategy(*lazy, lazy_strategy.get(), engine)).value();
      ExpectSameRun(eager, run);
      EXPECT_GT(lazy->frames_touched(), 0u);
      EXPECT_EQ(lazy->frames_rebuilt(),
                skip && label == "SGL" ? run.skip.detect_frames : 0u);
    }
  }
}

// The Figure 4 line-up with regret on shares one evaluator run after run
// without a rebuild (OPT and the regret scan materialize each frame's
// lattice while it is live, so later runs only hit the memo), and
// RunExperiment, which runs this line-up on eager matrices, matches those
// per-trial lazy runs.
TEST(LazyEvalTest, Figure4LineupWithRegretNeverRebuilds) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  std::atomic<uint64_t> detect_calls{0};
  const DetectorPool counting = CountingPool(pool, &detect_calls);
  const auto lineup = DefaultTuviStrategies(/*gamma=*/2, /*ef_explore=*/2);
  EngineOptions engine;
  engine.strategy_seed = 41;
  engine.compute_regret = true;

  auto lazy = std::move(LazyFrameEvaluator::Create(
                            MakeVideo(/*scene_scale=*/0.02, /*seed=*/41),
                            counting, /*trial_seed=*/41))
                  .value();
  for (const StrategySpec& spec : lineup) {
    auto strategy = spec.make();
    ASSERT_TRUE(RunStrategy(*lazy, strategy.get(), engine).ok());
  }
  EXPECT_EQ(lazy->frames_touched(), lazy->num_frames());
  EXPECT_EQ(lazy->frames_rebuilt(), 0u);
  EXPECT_EQ(detect_calls.load(), lazy->frames_touched() * m);

  ExperimentConfig config;
  config.dataset = *DatasetCatalog::Default().Find("nusc-night");
  config.scene_scale = 0.02;
  config.trials = 2;
  config.pool_size = m;
  config.base_seed = 43;
  config.engine = engine;
  const auto eager = std::move(RunExperiment(config, pool, lineup)).value();
  detect_calls = 0;
  const auto per_trial =
      test::PerTrialRuns(config, counting, lineup, /*lazy=*/true);
  uint64_t frames = 0;
  for (int trial = 0; trial < config.trials; ++trial) {
    frames += std::move(BuildTrialEvaluator(config, pool,
                                            static_cast<uint64_t>(trial)))
                  .value()
                  ->num_frames();
  }
  EXPECT_EQ(detect_calls.load(), frames * m);
  for (size_t i = 0; i < lineup.size(); ++i) {
    SCOPED_TRACE(lineup[i].label);
    for (int trial = 0; trial < config.trials; ++trial) {
      ExpectSameRun(eager.outcomes[i].runs[static_cast<size_t>(trial)],
                    per_trial[i][static_cast<size_t>(trial)]);
    }
  }
}

// RunExperiment stays eager when a full-lattice strategy (OPT) is in the
// line-up: the run still works and reports regret when asked.
TEST(LazyEvalTest, AutoKeepsEagerForOracleLineup) {
  const DetectorPool pool = MakePool(3);
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");

  ExperimentConfig config;
  config.dataset = spec;
  config.scene_scale = 0.02;
  config.trials = 1;
  config.pool_size = 3;
  config.base_seed = 13;

  std::vector<StrategySpec> strategies = {
      {"OPT", [] { return std::make_unique<OptStrategy>(); }},
  };
  const auto result =
      std::move(RunExperiment(config, pool, strategies)).value();
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].regret_available);
  // OPT's regret against its own argmax baseline is exactly zero.
  EXPECT_EQ(result.outcomes[0].runs[0].regret, 0.0);
}

// ------------------------------------------------- context reloading ---

void ExpectSameCell(const MaskEvaluation& a, const MaskEvaluation& b,
                    bool full, EnsembleId mask) {
  EXPECT_EQ(a.est_ap, b.est_ap) << "mask " << mask;
  EXPECT_EQ(a.cost_ms, b.cost_ms) << "mask " << mask;
  EXPECT_EQ(a.fusion_overhead_ms, b.fusion_overhead_ms) << "mask " << mask;
  if (full) {
    EXPECT_EQ(a.true_ap, b.true_ap) << "mask " << mask;
  } else {
    EXPECT_TRUE(std::isnan(a.true_ap) && std::isnan(b.true_ap))
        << "mask " << mask;
  }
}

void ExpectSameBoxes(const DetectionList& a, const DetectionList& b,
                     EnsembleId mask) {
  ASSERT_EQ(a.size(), b.size()) << "mask " << mask;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].box == b[i].box) << "mask " << mask << " box " << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << "mask " << mask;
    EXPECT_EQ(a[i].box_variance, b[i].box_variance) << "mask " << mask;
    EXPECT_EQ(a[i].label, b[i].label) << "mask " << mask;
    EXPECT_EQ(a[i].model_index, b[i].model_index) << "mask " << mask;
  }
}

// One context reloaded A → B → A must hold exactly what a fresh context
// over each frame holds: every cell, full and estimate-only, and every
// mask's fused boxes. A is the sparsest of the first frames and B the
// busiest, so the reloads both grow and shrink the reused buffers, and a
// detector fails on B, so its list must come back empty there and full
// again on A. A stale box, store slot or class range left by the previous
// frame would show here.
TEST(FrameEvalReloadTest, ReloadedContextMatchesFreshContext) {
  const int m = 4;
  const uint64_t seed = 31;
  const Video video = MakeVideo(/*scene_scale=*/0.02, seed);
  const size_t scan = std::min<size_t>(video.size(), 24);
  ASSERT_GE(scan, 3u);
  size_t a = 0;
  size_t b = 0;
  for (size_t t = 1; t < scan; ++t) {
    if (video.frames[t].objects.size() < video.frames[a].objects.size()) a = t;
    if (video.frames[t].objects.size() > video.frames[b].objects.size()) b = t;
  }
  const VideoFrame& frame_a = video.frames[a];
  const VideoFrame& frame_b = video.frames[b];
  ASSERT_LT(frame_a.objects.size(), frame_b.objects.size());
  ASSERT_NE(frame_a.frame_index, frame_b.frame_index);

  DetectorPool pool = MakePool(m);
  FaultScript outage;
  outage.bursts.push_back(
      {frame_b.frame_index, frame_b.frame_index + 1, FaultKind::kError, -1});
  pool.detectors[1] = std::make_unique<FaultInjectingDetector>(
      std::move(pool.detectors[1]), outage);

  const MatrixOptions options;
  const uint32_t num_masks = NumEnsembles(m);
  FrameEvalContext reused(pool, seed, options);
  DetectionList reused_boxes;
  DetectionList fresh_boxes;
  for (const VideoFrame* frame : {&frame_a, &frame_b, &frame_a}) {
    SCOPED_TRACE(frame == &frame_a ? "frame A" : "frame B");
    reused.Load(*frame);
    FrameEvalContext fresh(*frame, pool, seed, options);
    EXPECT_EQ(reused.model_ok(1), frame == &frame_a);
    EXPECT_EQ(reused.available_mask(), fresh.available_mask());
    EXPECT_EQ(reused.model_cost_ms(), fresh.model_cost_ms());
    EXPECT_EQ(reused.model_fault_ms(), fresh.model_fault_ms());
    EXPECT_EQ(reused.ref_cost_ms(), fresh.ref_cost_ms());
    EXPECT_EQ(reused.FullEnsembleCostMs(), fresh.FullEnsembleCostMs());
    EXPECT_EQ(reused.soa().packed_size(), fresh.soa().packed_size());
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      ExpectSameCell(reused.Evaluate(mask), fresh.Evaluate(mask),
                     /*full=*/true, mask);
      ExpectSameCell(reused.Evaluate(mask, /*with_true_ap=*/false),
                     fresh.Evaluate(mask, /*with_true_ap=*/false),
                     /*full=*/false, mask);
      reused.Fuse(mask, &reused_boxes);
      fresh.Fuse(mask, &fresh_boxes);
      ExpectSameBoxes(reused_boxes, fresh_boxes, mask);
    }
  }
}

}  // namespace
}  // namespace vqe
