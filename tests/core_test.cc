// Tests for the paper's core machinery: scoring function, arm statistics,
// the experiment engine (budget, regret, accounting invariants), and LRBP.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/arm_stats.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "core/lrbp.h"
#include "core/mes.h"
#include "core/pareto.h"
#include "core/scoring.h"
#include "test_util.h"

namespace vqe {
namespace {

// ---------------------------------------------------------------- scoring --

TEST(ScoringTest, BoundsAndEndpoints) {
  ScoringFunction sc{0.5, 0.5};
  EXPECT_DOUBLE_EQ(sc.Score(1.0, 0.0), 1.0);  // perfect AP, free
  EXPECT_DOUBLE_EQ(sc.Score(0.0, 1.0), 0.0);  // useless and maximally slow
  EXPECT_NEAR(sc.Score(0.0, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(sc.Score(1.0, 1.0), 0.5, 1e-12);
}

TEST(ScoringTest, ClampsOutOfRangeInputs) {
  ScoringFunction sc{0.5, 0.5};
  EXPECT_DOUBLE_EQ(sc.Score(2.0, -1.0), sc.Score(1.0, 0.0));
}

TEST(ScoringTest, Validation) {
  EXPECT_TRUE((ScoringFunction{0.5, 0.5}).Validate().ok());
  EXPECT_TRUE((ScoringFunction{0.0, 1.0}).Validate().ok());
  EXPECT_FALSE((ScoringFunction{0.6, 0.6}).Validate().ok());
  EXPECT_FALSE((ScoringFunction{-0.1, 1.1}).Validate().ok());
}

TEST(ScoreFormTest, LinearFormMeetsCriteria) {
  ScoringFunction sc{0.5, 0.5, ScoreForm::kLinear};
  EXPECT_DOUBLE_EQ(sc.Score(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sc.Score(0.0, 1.0), 0.0);
  for (double ap = 0.0; ap < 0.95; ap += 0.1) {
    for (double cost = 0.0; cost < 0.95; cost += 0.1) {
      const double base = sc.Score(ap, cost);
      EXPECT_GT(sc.Score(ap + 0.05, cost), base);
      EXPECT_LT(sc.Score(ap, cost + 0.05), base);
      EXPECT_GE(base, 0.0);
      EXPECT_LE(base, 1.0);
    }
  }
}

TEST(ScoreFormTest, FormsAgreeAtEndpointsDivergeInside) {
  ScoringFunction log_form{0.5, 0.5, ScoreForm::kLogarithmic};
  ScoringFunction lin_form{0.5, 0.5, ScoreForm::kLinear};
  EXPECT_DOUBLE_EQ(log_form.Score(1, 0), lin_form.Score(1, 0));
  EXPECT_DOUBLE_EQ(log_form.Score(0, 1), lin_form.Score(0, 1));
  // log2(x+1) >= x on [0,1]: the log form dominates inside.
  EXPECT_GT(log_form.Score(0.5, 0.5), lin_form.Score(0.5, 0.5));
}

// Monotonicity sweep: score rises in AP and falls in cost for all weights.
class ScoringMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(ScoringMonotonicityTest, MonotoneInApAndCost) {
  const double w1 = GetParam();
  ScoringFunction sc{w1, 1.0 - w1};
  for (double ap = 0.0; ap < 0.99; ap += 0.1) {
    for (double cost = 0.0; cost < 0.99; cost += 0.1) {
      const double base = sc.Score(ap, cost);
      if (w1 > 0) {
        EXPECT_GT(sc.Score(ap + 0.1, cost), base);
      }
      if (w1 < 1) {
        EXPECT_LT(sc.Score(ap, cost + 0.1), base);
      }
      EXPECT_GE(base, 0.0);
      EXPECT_LE(base, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, ScoringMonotonicityTest,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0));

// -------------------------------------------------------------- arm stats --

TEST(ArmStatsTest, RunningMean) {
  ArmStats stats;
  stats.Reset(2);
  EXPECT_EQ(stats.Count(1), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(1), 0.0);
  stats.Record(1, 0.5);
  stats.Record(1, 1.0);
  stats.Record(1, 0.0);
  EXPECT_EQ(stats.Count(1), 3u);
  EXPECT_NEAR(stats.Mean(1), 0.5, 1e-12);
  EXPECT_EQ(stats.Count(2), 0u);  // other arms untouched
}

TEST(ArmStatsTest, ResetClears) {
  ArmStats stats;
  stats.Reset(2);
  stats.Record(3, 1.0);
  stats.Reset(2);
  EXPECT_EQ(stats.Count(3), 0u);
}

TEST(SlidingWindowStatsTest, EvictsBeyondWindow) {
  SlidingWindowArmStats stats;
  stats.Reset(2, /*window=*/2);
  stats.RecordFrame({{1, 1.0}});
  stats.RecordFrame({{1, 0.0}});
  EXPECT_EQ(stats.Count(1), 2u);
  EXPECT_NEAR(stats.Mean(1), 0.5, 1e-12);
  stats.RecordFrame({{2, 0.7}});  // evicts the first frame
  EXPECT_EQ(stats.Count(1), 1u);
  EXPECT_NEAR(stats.Mean(1), 0.0, 1e-12);
  EXPECT_EQ(stats.FramesInWindow(), 2u);
}

TEST(SlidingWindowStatsTest, MatchesNaiveRecomputation) {
  Rng rng(8);
  SlidingWindowArmStats stats;
  const size_t window = 7;
  stats.Reset(3, window);
  std::vector<std::vector<std::pair<EnsembleId, double>>> history;
  for (int t = 0; t < 100; ++t) {
    std::vector<std::pair<EnsembleId, double>> obs;
    const EnsembleId sel = 1 + rng.UniformInt(7);
    ForEachSubset(sel, [&](EnsembleId s) {
      obs.emplace_back(s, rng.NextDouble());
    });
    history.push_back(obs);
    stats.RecordFrame(obs);

    // Naive recomputation over the last `window` frames.
    const size_t start = history.size() > window ? history.size() - window : 0;
    for (EnsembleId s = 1; s <= 7; ++s) {
      uint64_t count = 0;
      double sum = 0;
      for (size_t h = start; h < history.size(); ++h) {
        for (const auto& [arm, r] : history[h]) {
          if (arm == s) {
            ++count;
            sum += r;
          }
        }
      }
      ASSERT_EQ(stats.Count(s), count) << "arm " << s << " at t=" << t;
      if (count > 0) {
        ASSERT_NEAR(stats.Mean(s), sum / count, 1e-9);
      }
    }
  }
}

// Synthetic matrices come from tests/test_util.h.
using test::SimpleTwoModelMatrix;
using test::SyntheticMatrix;

// ----------------------------------------------------------------- engine --

EngineOptions DefaultEngine() {
  EngineOptions opt;
  opt.sc = ScoringFunction{0.5, 0.5};
  return opt;
}

TEST(EngineTest, OptHasZeroRegretAndTopScore) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(200);
  OptStrategy opt_strategy;
  const auto run = RunStrategy(matrix, &opt_strategy, DefaultEngine());
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run->regret, 0.0);
  EXPECT_EQ(run->frames_processed, 200u);
}

TEST(EngineTest, SelectionCountsSumToFrames) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(150);
  MesStrategy mes({/*gamma=*/5});
  const auto run = RunStrategy(matrix, &mes, DefaultEngine());
  ASSERT_TRUE(run.ok());
  uint64_t total = 0;
  for (uint64_t c : run->selection_counts) total += c;
  EXPECT_EQ(total, run->frames_processed);
}

TEST(EngineTest, BruteForceAlwaysPaysMaxCost) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(100);
  BruteForceStrategy bf;
  const auto run = RunStrategy(matrix, &bf, DefaultEngine());
  ASSERT_TRUE(run.ok());
  EXPECT_NEAR(run->avg_norm_cost, 1.0, 1e-9);
  EXPECT_EQ(run->selection_counts[3], 100u);
}

TEST(EngineTest, RegretNonNegative) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(100);
  for (int variant = 0; variant < 3; ++variant) {
    std::unique_ptr<SelectionStrategy> strategy;
    if (variant == 0) strategy = std::make_unique<RandomStrategy>();
    if (variant == 1) strategy = std::make_unique<MesStrategy>();
    if (variant == 2) strategy = std::make_unique<BruteForceStrategy>();
    const auto run = RunStrategy(matrix, strategy.get(), DefaultEngine());
    ASSERT_TRUE(run.ok());
    EXPECT_GE(run->regret, 0.0);
  }
}

TEST(EngineTest, BudgetStopsProcessing) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(500);
  EngineOptions opt = DefaultEngine();
  // Each frame costs >= 10ms; 200ms allows ~20 frames at most (init frames
  // cost ~20ms each).
  opt.budget_ms = 200.0;
  MesStrategy mes({/*gamma=*/2});
  const auto run = RunStrategy(matrix, &mes, opt);
  ASSERT_TRUE(run.ok());
  EXPECT_LT(run->frames_processed, 30u);
  EXPECT_GT(run->frames_processed, 5u);
  // Overshoot bounded by one frame's cost (Alg. 2 checks at loop top).
  EXPECT_LE(run->charged_cost_ms, opt.budget_ms + 25.0);
}

TEST(EngineTest, ZeroBudgetMeansUnrestricted) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(50);
  MesStrategy mes({/*gamma=*/2});
  const auto run = RunStrategy(matrix, &mes, DefaultEngine());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->frames_processed, 50u);
}

TEST(EngineTest, CostCurveRecordedWhenRequested) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(60);
  EngineOptions opt = DefaultEngine();
  opt.record_cost_curve = true;
  MesStrategy mes({/*gamma=*/2});
  const auto run = RunStrategy(matrix, &mes, opt);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->cost_curve.size(), 60u);
  // Strictly increasing cumulative cost, 1-based iterations.
  EXPECT_EQ(run->cost_curve.front().first, 1u);
  for (size_t i = 1; i < run->cost_curve.size(); ++i) {
    EXPECT_GT(run->cost_curve[i].second, run->cost_curve[i - 1].second);
  }
}

TEST(EngineTest, BreakdownAccountsComponents) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(100);
  MesStrategy mes({/*gamma=*/5});
  const auto run = RunStrategy(matrix, &mes, DefaultEngine());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->breakdown.detector_ms, 0.0);
  EXPECT_GT(run->breakdown.reference_ms, 0.0);  // MES uses REF every frame
  EXPECT_GT(run->breakdown.ensembling_ms, 0.0);
  // Ensembling overhead is tiny relative to inference (paper Fig. 13).
  EXPECT_LT(run->breakdown.ensembling_ms,
            0.05 * run->breakdown.detector_ms);
  // charged = detectors + ensembling (REF excluded per Alg. 2).
  EXPECT_NEAR(run->charged_cost_ms,
              run->breakdown.detector_ms + run->breakdown.ensembling_ms,
              1e-6);
}

TEST(EngineTest, OracleFreeStrategiesDontPayReference) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(50);
  BruteForceStrategy bf;
  const auto run = RunStrategy(matrix, &bf, DefaultEngine());
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run->breakdown.reference_ms, 0.0);
}

TEST(EngineTest, RejectsBadOptions) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(10);
  MesStrategy mes;
  EngineOptions opt = DefaultEngine();
  opt.budget_ms = -1;
  EXPECT_FALSE(RunStrategy(matrix, &mes, opt).ok());
  opt = DefaultEngine();
  opt.sc.w1 = 0.9;  // weights no longer sum to 1
  EXPECT_FALSE(RunStrategy(matrix, &mes, opt).ok());
  EXPECT_FALSE(RunStrategy(matrix, nullptr, DefaultEngine()).ok());
}

// ------------------------------------------------------------------- LRBP --

TEST(LrbpTest, ExactOnLinearCostCurve) {
  std::vector<std::pair<size_t, double>> curve;
  for (size_t t = 1; t <= 100; ++t) {
    curve.emplace_back(t, 12.5 * t);
  }
  const auto pred = PredictExtraBudget(curve, 400);
  ASSERT_TRUE(pred.ok());
  EXPECT_NEAR(pred->total_cost, 12.5 * 400, 1e-6);
  EXPECT_NEAR(pred->b_extra, 12.5 * 300, 1e-6);
  EXPECT_NEAR(pred->fit.slope, 12.5, 1e-9);
}

TEST(LrbpTest, NoisyCurveWithinTolerance) {
  Rng rng(10);
  std::vector<std::pair<size_t, double>> curve;
  double c = 0;
  for (size_t t = 1; t <= 500; ++t) {
    c += 20.0 + rng.Gaussian(0, 5.0);
    curve.emplace_back(t, c);
  }
  const auto pred = PredictExtraBudget(curve, 1000);
  ASSERT_TRUE(pred.ok());
  const double actual_extra = 20.0 * 500;
  EXPECT_NEAR(pred->b_extra, actual_extra, 0.1 * actual_extra);
}

TEST(LrbpTest, FullyProcessedVideoNeedsNothing) {
  std::vector<std::pair<size_t, double>> curve;
  for (size_t t = 1; t <= 50; ++t) curve.emplace_back(t, 10.0 * t);
  const auto pred = PredictExtraBudget(curve, 50);
  ASSERT_TRUE(pred.ok());
  EXPECT_NEAR(pred->b_extra, 0.0, 1e-9);
}

TEST(LrbpTest, ErrorCases) {
  EXPECT_FALSE(PredictExtraBudget({}, 10).ok());
  EXPECT_FALSE(PredictExtraBudget({{1, 5.0}}, 10).ok());
  std::vector<std::pair<size_t, double>> curve{{1, 5.0}, {2, 9.0}};
  EXPECT_FALSE(PredictExtraBudget(curve, 1).ok());  // fewer than processed
  EXPECT_TRUE(PredictExtraBudget(curve, 2).ok());
}

TEST(LrbpTest, EngineCurveFeedsLrbp) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(400);
  EngineOptions opt = DefaultEngine();
  opt.budget_ms = 1500.0;
  opt.record_cost_curve = true;
  MesStrategy mes({/*gamma=*/3});
  const auto run = RunStrategy(matrix, &mes, opt);
  ASSERT_TRUE(run.ok());
  ASSERT_LT(run->frames_processed, 400u);
  const auto pred = PredictExtraBudget(run->cost_curve, 400);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->b_extra, 0.0);

  // The prediction should land within 25% of the true remaining cost,
  // measured by actually finishing the video without a budget.
  MesStrategy mes_full({/*gamma=*/3});
  EngineOptions unrestricted = DefaultEngine();
  const auto full = RunStrategy(matrix, &mes_full, unrestricted);
  ASSERT_TRUE(full.ok());
  const double actual_extra = full->charged_cost_ms - run->charged_cost_ms;
  EXPECT_NEAR(pred->b_extra, actual_extra, 0.25 * actual_extra);
}

// ----------------------------------------------------------------- pareto --

TEST(ParetoTest, Dominance) {
  EnsemblePoint a{1, 0.8, 0.2};
  EnsemblePoint b{2, 0.7, 0.3};
  EnsemblePoint c{3, 0.8, 0.2};
  EXPECT_TRUE(Dominates(a, b));
  EXPECT_FALSE(Dominates(b, a));
  EXPECT_FALSE(Dominates(a, c));  // equal points don't dominate
}

TEST(ParetoTest, FrontierAgainstBruteForce) {
  Rng rng(21);
  std::vector<EnsemblePoint> points;
  for (uint32_t i = 1; i <= 31; ++i) {
    points.push_back({i, rng.NextDouble(), rng.NextDouble()});
  }
  const auto frontier = ParetoFrontier(points);
  ASSERT_FALSE(frontier.empty());
  // Brute force: a point is on the frontier iff nothing dominates it.
  for (const auto& p : points) {
    bool dominated = false;
    for (const auto& q : points) {
      if (Dominates(q, p)) dominated = true;
    }
    const bool on_frontier =
        std::any_of(frontier.begin(), frontier.end(),
                    [&](const EnsemblePoint& f) { return f.id == p.id; });
    EXPECT_EQ(on_frontier, !dominated) << "point " << p.id;
  }
  // Frontier sorted by cost with strictly increasing AP.
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i].avg_norm_cost, frontier[i - 1].avg_norm_cost);
    EXPECT_GT(frontier[i].avg_ap, frontier[i - 1].avg_ap);
  }
}

TEST(ParetoTest, ObjectivesFromMatrix) {
  const FrameMatrix matrix = SimpleTwoModelMatrix(100);
  const auto points = EnsembleObjectives(matrix);
  ASSERT_EQ(points.size(), 3u);
  // Arm 3 (both models) has roughly double the cost of arm 1.
  EXPECT_GT(points[2].avg_norm_cost, points[0].avg_norm_cost * 1.5);
  // Arm 1 (AP 0.8) clearly better than arm 2 (AP 0.3).
  EXPECT_GT(points[0].avg_ap, points[1].avg_ap);
  const auto frontier = ParetoFrontier(points);
  // Arm 2 is dominated by arm 1 (same cost, lower AP).
  for (const auto& f : frontier) EXPECT_NE(f.id, 2u);
}

}  // namespace
}  // namespace vqe
