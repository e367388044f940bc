// Integration tests: the full simulated pipeline (datasets -> detectors ->
// fusion -> matrix -> strategies) must reproduce the qualitative shapes the
// paper reports. These run on small dataset replicas, so assertions target
// robust orderings rather than exact values.

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/experiment.h"
#include "core/mes.h"
#include "core/pareto.h"
#include "models/model_zoo.h"

namespace vqe {
namespace {

ExperimentConfig SmallConfig(const char* dataset, double scale = 0.04,
                             int trials = 3) {
  ExperimentConfig config;
  config.dataset = *DatasetCatalog::Default().Find(dataset);
  config.scene_scale = scale;
  config.trials = trials;
  config.engine.sc = ScoringFunction{0.5, 0.5};
  return config;
}

TEST(IntegrationTest, MatrixBuildProducesConsistentEvaluations) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const auto matrix = BuildTrialMatrix(SmallConfig("nusc-clear", 0.01), pool,
                                       /*trial=*/0);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  EXPECT_EQ(matrix->num_models, 3);
  EXPECT_GT(matrix->size(), 0u);
  for (const auto& fe : matrix->frames) {
    EXPECT_GT(fe.max_cost_ms, 0.0);
    EXPECT_GT(fe.ref_cost_ms, 0.0);
    for (EnsembleId s = 1; s <= 7; ++s) {
      EXPECT_GE(fe.true_ap[s], 0.0);
      EXPECT_LE(fe.true_ap[s], 1.0);
      EXPECT_GE(fe.est_ap[s], 0.0);
      EXPECT_LE(fe.est_ap[s], 1.0);
      EXPECT_GT(fe.cost_ms[s], 0.0);
      EXPECT_LE(fe.cost_ms[s], fe.max_cost_ms + 1e-9);
      EXPECT_LT(fe.fusion_overhead_ms[s], 1.0);  // ensembling is cheap
      // Cost is superadditive in members: supersets cost more.
      for (EnsembleId sub = 1; sub < s; ++sub) {
        if (IsSubsetOf(sub, s) && sub != s) {
          EXPECT_LT(fe.cost_ms[sub], fe.cost_ms[s]);
        }
      }
    }
  }
}

TEST(IntegrationTest, EnsemblingRaisesApOverSingles) {
  // Figure 2's premise: the fused trio has clearly higher AP than the best
  // single model, at proportionally higher cost.
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const auto matrix =
      BuildTrialMatrix(SmallConfig("nusc", 0.02), pool, /*trial=*/0);
  ASSERT_TRUE(matrix.ok());
  const auto avg_ap = AverageTrueApPerEnsemble(*matrix);
  const double best_single =
      std::max({avg_ap[1], avg_ap[2], avg_ap[4]});
  EXPECT_GT(avg_ap[7], best_single * 1.05);  // trio beats best single
}

TEST(IntegrationTest, TuviOrderingMatchesFigure4) {
  auto pool = std::move(BuildNuscenesPool(5)).value();
  const auto result = RunExperiment(SmallConfig("nusc", 0.05, 3), pool,
                                    DefaultTuviStrategies(10, 2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto* opt = result->Find("OPT");
  const auto* bf = result->Find("BF");
  const auto* sgl = result->Find("SGL");
  const auto* rand = result->Find("RAND");
  const auto* mes = result->Find("MES");
  ASSERT_TRUE(opt && bf && sgl && rand && mes);
  // OPT dominates everything; MES above the non-adaptive baselines.
  EXPECT_GT(opt->s_sum.mean, mes->s_sum.mean);
  EXPECT_GT(mes->s_sum.mean, sgl->s_sum.mean);
  EXPECT_GT(mes->s_sum.mean, bf->s_sum.mean);
  EXPECT_GT(mes->s_sum.mean, rand->s_sum.mean);
  // MES reaches a large fraction of OPT (paper: > 85% at full scale; the
  // small replica warrants a safety margin).
  EXPECT_GT(mes->s_sum.mean, 0.75 * opt->s_sum.mean);
  // BF has normalized cost 1 by definition.
  EXPECT_NEAR(bf->avg_norm_cost.mean, 1.0, 1e-9);
}

// Figure 8's ablation: MES-A (MES without the subset updates) scores
// clearly below MES. EXPERIMENTS.md measures MES-A/MES at 0.82–0.93; this
// replica reads 0.93–0.95 over base seeds 1–20. Where EF lands is a
// documented deviation, so EF is left out. Regret off makes the run lazy:
// only the selections' subset lattices are scored.
TEST(IntegrationTest, SubsetUpdatesMatterFigure8) {
  auto pool = std::move(BuildNuscenesPool(5)).value();
  ExperimentConfig config = SmallConfig("nusc", 0.05, 3);
  config.base_seed = 1;
  config.engine.compute_regret = false;
  std::vector<StrategySpec> strategies{
      {"MES-A",
       [] {
         MesOptions o;
         o.subset_updates = false;
         return std::make_unique<MesStrategy>(o);
       }},
      {"MES", [] { return std::make_unique<MesStrategy>(); }},
  };
  const auto result = RunExperiment(config, pool, strategies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double mes_a = result->Find("MES-A")->s_sum.mean;
  const double mes = result->Find("MES")->s_sum.mean;
  EXPECT_LT(mes_a, mes);
  EXPECT_LT(mes_a, 0.97 * mes);
}

TEST(IntegrationTest, BudgetedRunsProcessFewerFrames) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  ExperimentConfig config = SmallConfig("nusc-clear", 0.03, 2);
  auto strategies = std::vector<StrategySpec>{
      {"MES", [] { return std::make_unique<MesStrategy>(); }}};
  const auto unrestricted = RunExperiment(config, pool, strategies);
  ASSERT_TRUE(unrestricted.ok());

  config.engine.budget_ms = 4000.0;
  const auto budgeted = RunExperiment(config, pool, strategies);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_LT(budgeted->outcomes[0].frames_processed.mean,
            unrestricted->outcomes[0].frames_processed.mean);
  EXPECT_LT(budgeted->outcomes[0].s_sum.mean,
            unrestricted->outcomes[0].s_sum.mean);
}

TEST(IntegrationTest, SwMesBeatsMesUnderDrift) {
  auto pool = std::move(BuildNuscenesPool(5)).value();
  ExperimentConfig config = SmallConfig("c&n", 0.6, 2);
  std::vector<StrategySpec> strategies{
      {"MES", [] { return std::make_unique<MesStrategy>(); }},
      {"SW-MES",
       [] {
         SwMesOptions o;
         o.window = 450;
         o.exploration_scale = 0.05;
         return std::make_unique<SwMesStrategy>(o);
       }},
  };
  const auto result = RunExperiment(config, pool, strategies);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->Find("SW-MES")->s_sum.mean,
            result->Find("MES")->s_sum.mean);
}

TEST(IntegrationTest, ParetoFrontierContainsCheapAndAccurateExtremes) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  const auto matrix =
      BuildTrialMatrix(SmallConfig("nusc", 0.02), pool, /*trial=*/0);
  ASSERT_TRUE(matrix.ok());
  const auto frontier = ParetoFrontier(EnsembleObjectives(*matrix));
  ASSERT_GE(frontier.size(), 2u);
  // The cheapest frontier point is a singleton; the most accurate point
  // must have at least as high AP as every ensemble.
  EXPECT_EQ(EnsembleSize(frontier.front().id), 1);
  const auto avg_ap = AverageTrueApPerEnsemble(*matrix);
  for (EnsembleId s = 1; s <= 7; ++s) {
    EXPECT_GE(frontier.back().avg_ap + 1e-9, avg_ap[s]);
  }
}

TEST(IntegrationTest, ExperimentValidation) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  ExperimentConfig config;  // no dataset
  EXPECT_FALSE(
      RunExperiment(config, pool, DefaultTuviStrategies(10, 2)).ok());
  config = SmallConfig("nusc");
  config.trials = 0;
  EXPECT_FALSE(
      RunExperiment(config, pool, DefaultTuviStrategies(10, 2)).ok());
  config = SmallConfig("nusc");
  EXPECT_FALSE(RunExperiment(config, pool, {}).ok());  // no strategies
  config.scene_scale = 2.0;
  EXPECT_FALSE(
      RunExperiment(config, pool, DefaultTuviStrategies(10, 2)).ok());
}

TEST(IntegrationTest, ParallelTrialsMatchSerialBitForBit) {
  auto pool = std::move(BuildNuscenesPool(3)).value();
  ExperimentConfig config = SmallConfig("nusc-clear", 0.02, 4);
  auto strategies = DefaultTuviStrategies(10, 2);

  config.parallelism = 1;
  const auto serial = RunExperiment(config, pool, strategies);
  config.parallelism = 4;
  const auto parallel = RunExperiment(config, pool, strategies);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->outcomes.size(), parallel->outcomes.size());
  for (size_t i = 0; i < serial->outcomes.size(); ++i) {
    ASSERT_EQ(serial->outcomes[i].runs.size(),
              parallel->outcomes[i].runs.size());
    for (size_t t = 0; t < serial->outcomes[i].runs.size(); ++t) {
      EXPECT_DOUBLE_EQ(serial->outcomes[i].runs[t].s_sum,
                       parallel->outcomes[i].runs[t].s_sum)
          << serial->outcomes[i].label << " trial " << t;
      EXPECT_EQ(serial->outcomes[i].runs[t].selection_counts,
                parallel->outcomes[i].runs[t].selection_counts);
    }
  }
}

TEST(IntegrationTest, TimeBreakdownShapeMatchesFigure13) {
  // Detector inference dominates; reference follows; ensembling and
  // algorithm overheads are negligible.
  auto pool = std::move(BuildNuscenesPool(5)).value();
  ExperimentConfig config = SmallConfig("nusc", 0.02, 1);
  std::vector<StrategySpec> strategies{
      {"MES", [] { return std::make_unique<MesStrategy>(); }}};
  const auto result = RunExperiment(config, pool, strategies);
  ASSERT_TRUE(result.ok());
  const TimeBreakdown& bd = result->outcomes[0].runs[0].breakdown;
  EXPECT_GT(bd.detector_ms, bd.reference_ms);
  EXPECT_GT(bd.reference_ms, bd.ensembling_ms);
  EXPECT_LT(bd.ensembling_ms + bd.algorithm_ms, 0.1 * bd.TotalMs());
}

}  // namespace
}  // namespace vqe
