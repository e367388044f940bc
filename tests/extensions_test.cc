// Tests for the extension features: D-MES (discounted UCB), query EXPLAIN,
// and context-dependent scene composition.

#include <gtest/gtest.h>

#include "core/ducb.h"
#include "core/engine.h"
#include "core/mes.h"
#include "query/explain.h"
#include "query/parser.h"
#include "sim/object_classes.h"
#include "sim/scene_generator.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::SyntheticMatrix;

EngineOptions DefaultEngine() {
  EngineOptions opt;
  opt.sc = ScoringFunction{0.5, 0.5};
  return opt;
}

// ------------------------------------------------------------------ D-MES --

TEST(DucbTest, OptionsValidation) {
  DucbOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.discount = 1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = DucbOptions{};
  o.discount = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = DucbOptions{};
  o.gamma = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = DucbOptions{};
  o.exploration_scale = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(DucbTest, HorizonHelpers) {
  DucbOptions o;
  o.discount = 0.99;
  EXPECT_NEAR(o.EffectiveHorizon(), 100.0, 1e-9);
  EXPECT_NEAR(DucbOptions::DiscountForHorizon(100.0), 0.99, 1e-12);
  EXPECT_DOUBLE_EQ(DucbOptions::DiscountForHorizon(0.5), 0.5);
}

TEST(DucbTest, DiscountedCountsDecay) {
  DucbMesStrategy ducb({/*gamma=*/1, /*discount=*/0.9,
                        /*exploration_scale=*/0.1, /*probe_interval=*/0});
  StrategyContext ctx;
  ctx.num_models = 2;
  ducb.BeginVideo(ctx);
  std::vector<double> rewards(4, 0.5);
  FrameFeedback fb;
  fb.est_score = &rewards;
  fb.selected = 3;  // full pool: updates arms 1, 2, 3
  fb.t = 0;
  ducb.Observe(fb);
  EXPECT_NEAR(ducb.DiscountedCount(1), 1.0, 1e-12);
  fb.selected = 1;  // only arm 1
  fb.t = 1;
  ducb.Observe(fb);
  // Arm 1: decayed to 0.9 then +1 = 1.9. Arm 2: decayed to 0.9.
  EXPECT_NEAR(ducb.DiscountedCount(1), 1.9, 1e-12);
  EXPECT_NEAR(ducb.DiscountedCount(2), 0.9, 1e-12);
  EXPECT_NEAR(ducb.DiscountedMean(2), 0.5, 1e-12);
}

TEST(DucbTest, ConvergesOnStationaryMatrix) {
  const FrameMatrix matrix = SyntheticMatrix(
      3, 2500, {0.0, 0.85, 0.40, 0.87, 0.30, 0.88, 0.50, 0.90},
      {10.0, 10.0, 10.0}, false, 0.05, 3);
  DucbOptions opt;
  opt.probe_interval = 60;
  DucbMesStrategy ducb(opt);
  const auto run = RunStrategy(matrix, &ducb, DefaultEngine());
  ASSERT_TRUE(run.ok());
  // Most selections go to the best arm {M0} (mask 1), modulo probes.
  EXPECT_GT(run->selection_counts[1], run->frames_processed / 2);
}

TEST(DucbTest, AdaptsToDriftAtLeastAsWellAsMes) {
  double ducb_total = 0.0;
  double mes_total = 0.0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const FrameMatrix matrix = SyntheticMatrix(
        3, 4000, {0.0, 0.9, 0.25, 0.5, 0.25, 0.5, 0.3, 0.55},
        {10.0, 10.0, 10.0}, /*drift_flip=*/true, 0.05, seed);
    DucbOptions opt;
    opt.discount = DucbOptions::DiscountForHorizon(300.0);
    DucbMesStrategy ducb(opt);
    MesStrategy mes({/*gamma=*/5});
    ducb_total += RunStrategy(matrix, &ducb, DefaultEngine())->s_sum;
    mes_total += RunStrategy(matrix, &mes, DefaultEngine())->s_sum;
  }
  EXPECT_GT(ducb_total, mes_total);
}

// ----------------------------------------------------------------- EXPLAIN --

TEST(ExplainTest, RendersPlanAndPredicate) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear; REF)) "
      "WHERE COUNT(car) >= 2 AND NOT EXISTS(bus) BUDGET 500 LIMIT 7");
  ASSERT_TRUE(q.ok());
  const std::string plan = ExplainQuery(*q);
  EXPECT_NE(plan.find("Select frameID"), std::string::npos);
  EXPECT_NE(plan.find("Limit: 7"), std::string::npos);
  EXPECT_NE(plan.find("(COUNT(car) >= 2 AND NOT EXISTS(bus))"),
            std::string::npos);
  EXPECT_NE(plan.find("video=nusc"), std::string::npos);
  EXPECT_NE(plan.find("strategy=MES"), std::string::npos);
  EXPECT_NE(plan.find("detectors=[yolov7-tiny@clear]"), std::string::npos);
  EXPECT_NE(plan.find("ref=yes"), std::string::npos);
  EXPECT_NE(plan.find("budget=500ms"), std::string::npos);
}

TEST(ExplainTest, DefaultPoolAndNoWhere) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS bdd PRODUCE frameID, Detections "
      "USING BF(*))");
  ASSERT_TRUE(q.ok());
  const std::string plan = ExplainQuery(*q);
  EXPECT_NE(plan.find("detectors=[default pool]"), std::string::npos);
  EXPECT_NE(plan.find("ref=no"), std::string::npos);
  EXPECT_EQ(plan.find("Filter"), std::string::npos);
}

TEST(ExplainTest, PredicateToStringForms) {
  EXPECT_EQ(PredicateToString(nullptr), "true");
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) "
      "WHERE (MAX_CONF(car) > 0.5 OR AVG_CONF(*) <= 0.25) AND "
      "COUNT(truck) != 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(PredicateToString(q->where.get()),
            "((MAX_CONF(car) > 0.5 OR AVG_CONF(*) <= 0.25) AND "
            "COUNT(truck) != 3)");

  // Exact rendering (query checkpoint identities compare it): a threshold
  // six digits cannot hold prints with 17, and a confidence floor changed
  // on a built query is shown.
  auto fine = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE COUNT(car) >= 2.0000001");
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(PredicateToString(fine->where.get()),
            "COUNT(car) >= 2.0000000999999998");
  fine->where->aggregate.min_confidence = 0.3;
  EXPECT_EQ(PredicateToString(fine->where.get()),
            "COUNT(car, min_confidence 0.3) >= 2.0000000999999998");
  // A threshold past long long's range renders without an integer cast.
  fine->where->value = 1e20;
  EXPECT_EQ(PredicateToString(fine->where.get()),
            "COUNT(car, min_confidence 0.3) >= 1e+20");
}

// ----------------------------------------------- context-dependent classes --

TEST(ContextFrequencyTest, NightThinsVulnerableRoadUsers) {
  const ClassId pedestrian = *ClassIdFromName("pedestrian");
  const ClassId car = *ClassIdFromName("car");
  EXPECT_LT(ContextFrequencyScale(1 /*night*/, pedestrian),
            ContextFrequencyScale(0 /*clear*/, pedestrian));
  EXPECT_GE(ContextFrequencyScale(1, car), 0.5);
  // Out-of-range inputs are neutral.
  EXPECT_DOUBLE_EQ(ContextFrequencyScale(-1, car), 1.0);
  EXPECT_DOUBLE_EQ(ContextFrequencyScale(0, 99), 1.0);
}

TEST(ContextFrequencyTest, SceneCompositionShifts) {
  SceneGeneratorOptions opt;
  opt.initial_objects_mean = 8.0;
  const ClassId pedestrian = *ClassIdFromName("pedestrian");
  size_t clear_peds = 0, clear_total = 0, night_peds = 0, night_total = 0;
  for (int s = 0; s < 120; ++s) {
    const Video c = GenerateScene(opt, SceneContext::kClear, s, 1, 500 + s);
    const Video n = GenerateScene(opt, SceneContext::kNight, s, 1, 500 + s);
    for (const auto& o : c.frames[0].objects) {
      ++clear_total;
      if (o.label == pedestrian) ++clear_peds;
    }
    for (const auto& o : n.frames[0].objects) {
      ++night_total;
      if (o.label == pedestrian) ++night_peds;
    }
  }
  ASSERT_GT(clear_total, 200u);
  ASSERT_GT(night_total, 200u);
  const double clear_frac = static_cast<double>(clear_peds) / clear_total;
  const double night_frac = static_cast<double>(night_peds) / night_total;
  EXPECT_LT(night_frac, clear_frac);
}

}  // namespace
}  // namespace vqe
