// Tests for the trace-driven workload engine (ISSUE 9): the hostile-input
// corpus for the trace parser (the trust boundary for operator-supplied
// traces), plan-expansion determinism, the scheduler driver's bit-identity
// and worker-count invariance under overload control, ladder shedding
// landing on batch only, and fleet-wide degradation propagation.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "models/model_zoo.h"
#include "serve/overload.h"
#include "serve/scheduler.h"
#include "test_util.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace vqe {
namespace {

using test::ExpectSameRun;
using test::MakePool;

// A small, fully featured reference trace: every line kind appears once.
const char kGoodTrace[] =
    "VQEWORK 1\n"
    "# comment lines and blank lines are ignored\n"
    "seed 7\n"
    "rounds 6\n"
    "dataset nusc-night\n"
    "scale 0.05\n"
    "models 3\n"
    "arrivals rate 0.6 alpha 1.6 cap 4\n"
    "diurnal period 6 amplitude 0.3\n"
    "drift lambda0 0.1 lambda1 0.4\n"
    "class interactive share 0.5 frames 8 skip bandit 2\n"
    "class batch share 0.5 frames 12 skip off 0\n"
    "slo interactive p99 50 shed 0.0\n"
    "storm rounds 1 3 models 1 kind error rate 1.0\n"
    "storm rounds 2 4 models 2 kind spike rate 0.5\n"
    "end\n";

/// Deep plan equality, fault scripts included.
void ExpectSamePlan(const WorkloadPlan& a, const WorkloadPlan& b) {
  EXPECT_EQ(a.capped_arrivals, b.capped_arrivals);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    const SessionPlan& x = a.sessions[i];
    const SessionPlan& y = b.sessions[i];
    EXPECT_EQ(x.arrival_round, y.arrival_round);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.priority, y.priority);
    EXPECT_EQ(x.frames, y.frames);
    EXPECT_EQ(x.skip_mode, y.skip_mode);
    EXPECT_EQ(x.skip_budget, y.skip_budget);
    EXPECT_EQ(x.trial_seed, y.trial_seed);
    EXPECT_EQ(x.strategy_seed, y.strategy_seed);
    EXPECT_EQ(x.video_seed, y.video_seed);
    EXPECT_EQ(x.lambda0, y.lambda0);
    EXPECT_EQ(x.lambda1, y.lambda1);
    ASSERT_EQ(x.scripts.size(), y.scripts.size());
    for (size_t m = 0; m < x.scripts.size(); ++m) {
      ASSERT_EQ(x.scripts[m].bursts.size(), y.scripts[m].bursts.size());
      for (size_t k = 0; k < x.scripts[m].bursts.size(); ++k) {
        EXPECT_EQ(x.scripts[m].bursts[k].begin_frame,
                  y.scripts[m].bursts[k].begin_frame);
        EXPECT_EQ(x.scripts[m].bursts[k].end_frame,
                  y.scripts[m].bursts[k].end_frame);
        EXPECT_EQ(x.scripts[m].bursts[k].kind, y.scripts[m].bursts[k].kind);
      }
    }
  }
}

// ------------------------------------------------------------- parser --

TEST(WorkloadTraceTest, ParsesTheReferenceTrace) {
  auto trace_or = ParseWorkloadTrace(kGoodTrace);
  ASSERT_TRUE(trace_or.ok()) << trace_or.status().ToString();
  const WorkloadTrace t = std::move(trace_or).value();
  EXPECT_EQ(t.seed, 7u);
  EXPECT_EQ(t.rounds, 6u);
  EXPECT_EQ(t.dataset, "nusc-night");
  EXPECT_DOUBLE_EQ(t.scene_scale, 0.05);
  EXPECT_EQ(t.models, 3);
  EXPECT_DOUBLE_EQ(t.arrival_rate, 0.6);
  EXPECT_DOUBLE_EQ(t.pareto_alpha, 1.6);
  EXPECT_DOUBLE_EQ(t.diurnal_amplitude, 0.3);
  ASSERT_EQ(t.mix.size(), 2u);
  EXPECT_EQ(t.mix[0].priority, PriorityClass::kInteractive);
  EXPECT_EQ(t.mix[0].skip_mode, SkipMode::kBandit);
  EXPECT_EQ(t.mix[0].skip_budget, 2);
  EXPECT_EQ(t.mix[1].priority, PriorityClass::kBatch);
  ASSERT_EQ(t.storms.size(), 2u);
  EXPECT_EQ(t.storms[0].models, EnsembleId{1});
  EXPECT_EQ(t.storms[0].kind, FaultKind::kError);
  EXPECT_EQ(t.storms[1].kind, FaultKind::kLatencySpike);
  const int ii = PriorityClassIndex(PriorityClass::kInteractive);
  EXPECT_TRUE(t.has_slo[ii]);
  EXPECT_DOUBLE_EQ(t.slo[ii].p99_ms, 50.0);
  EXPECT_DOUBLE_EQ(t.slo[ii].shed_budget, 0.0);
  EXPECT_FALSE(t.has_slo[PriorityClassIndex(PriorityClass::kBatch)]);
}

TEST(WorkloadTraceTest, FormatRoundTripsExactly) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  const std::string text = FormatWorkloadTrace(t);
  auto back = ParseWorkloadTrace(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Fixed point: formatting the reparsed trace reproduces the bytes.
  EXPECT_EQ(FormatWorkloadTrace(std::move(back).value()), text);
}

/// Structural violations die with kParseError (named corpus entries).
TEST(WorkloadTraceTest, HostileCorpusDiesWithParseError) {
  const struct {
    const char* name;
    const char* text;
  } corpus[] = {
      {"empty input", ""},
      {"bad magic", "VQEWRK 1\nend\n"},
      {"magic version", "VQEWORK 2\nend\n"},
      {"missing end (truncated)",
       "VQEWORK 1\nseed 3\nclass batch share 1 frames 8 skip off 0\n"},
      {"content after end",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\nend\nseed 3\n"},
      {"duplicate seed",
       "VQEWORK 1\nseed 1\nseed 2\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"duplicate arrivals",
       "VQEWORK 1\narrivals rate 1 alpha 2 cap 2\n"
       "arrivals rate 1 alpha 2 cap 2\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"duplicate class",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\n"
       "class batch share 2 frames 8 skip off 0\nend\n"},
      {"duplicate slo",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\n"
       "slo batch p99 1 shed 0.5\nslo batch p99 2 shed 0.5\nend\n"},
      {"class missing budget",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off\nend\n"},
      {"class extra token",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0 0\nend\n"},
      {"class bad label",
       "VQEWORK 1\nclass batch weight 1 frames 8 skip off 0\nend\n"},
      {"unknown priority",
       "VQEWORK 1\nclass premium share 1 frames 8 skip off 0\nend\n"},
      {"unknown skip mode",
       "VQEWORK 1\nclass batch share 1 frames 8 skip turbo 1\nend\n"},
      {"unknown fault kind",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\n"
       "storm rounds 0 2 models 1 kind meteor rate 1\nend\n"},
      {"nan rate",
       "VQEWORK 1\narrivals rate nan alpha 2 cap 2\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"inf scale",
       "VQEWORK 1\nscale inf\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"negative seed",
       "VQEWORK 1\nseed -4\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"trailing garbage number",
       "VQEWORK 1\nrounds 12x\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"unknown key",
       "VQEWORK 1\nturbo 9\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"frames over cap",
       "VQEWORK 1\nclass batch share 1 frames 999999 skip off 0\nend\n"},
      {"skip budget over cap",
       "VQEWORK 1\nclass batch share 1 frames 8 skip fixed 9999\nend\n"},
  };
  for (const auto& c : corpus) {
    const auto r = ParseWorkloadTrace(c.text);
    ASSERT_FALSE(r.ok()) << "corpus entry accepted: " << c.name;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError)
        << c.name << ": " << r.status().ToString();
  }
}

/// Semantic violations (well-formed lines, hostile values) die with
/// kInvalidArgument from Validate — still a clean Status, never a crash.
TEST(WorkloadTraceTest, SemanticCorpusDiesWithInvalidArgument) {
  const struct {
    const char* name;
    const char* text;
  } corpus[] = {
      {"no classes", "VQEWORK 1\nseed 1\nend\n"},
      {"zero share",
       "VQEWORK 1\nclass batch share 0 frames 8 skip off 0\nend\n"},
      {"zero rounds",
       "VQEWORK 1\nrounds 0\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"zero models",
       "VQEWORK 1\nmodels 0\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"zero scale",
       "VQEWORK 1\nscale 0\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"amplitude one",
       "VQEWORK 1\ndiurnal period 8 amplitude 1.0\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"drift lambda over one",
       "VQEWORK 1\ndrift lambda0 0.2 lambda1 1.5\n"
       "class batch share 1 frames 8 skip off 0\nend\n"},
      {"skip mode without budget",
       "VQEWORK 1\nclass batch share 1 frames 8 skip bandit 0\nend\n"},
      {"inverted storm window",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\n"
       "storm rounds 5 5 models 1 kind error rate 1\nend\n"},
      {"storm mask outside pool",
       "VQEWORK 1\nmodels 2\nclass batch share 1 frames 8 skip off 0\n"
       "storm rounds 0 2 models 4 kind error rate 1\nend\n"},
      {"storm mask zero",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\n"
       "storm rounds 0 2 models 0 kind error rate 1\nend\n"},
      {"slo shed over one",
       "VQEWORK 1\nclass batch share 1 frames 8 skip off 0\n"
       "slo batch p99 1 shed 1.5\nend\n"},
  };
  for (const auto& c : corpus) {
    const auto r = ParseWorkloadTrace(c.text);
    ASSERT_FALSE(r.ok()) << "corpus entry accepted: " << c.name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << c.name << ": " << r.status().ToString();
  }
}

/// Every proper line-prefix of the reference trace is a truncation and
/// must be rejected (the trailing `end` is the anti-truncation seal).
TEST(WorkloadTraceTest, EveryTruncationPrefixIsRejected) {
  std::vector<std::string> lines;
  std::istringstream in(kGoodTrace);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line + "\n");
  std::string prefix;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    prefix += lines[i];
    EXPECT_FALSE(ParseWorkloadTrace(prefix).ok())
        << "prefix of " << i + 1 << " lines accepted";
  }
}

// ------------------------------------------------------ plan expansion --

TEST(WorkloadPlanTest, SameTraceSamePlan) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  ExpectSamePlan(BuildWorkloadPlan(t), BuildWorkloadPlan(t));
}

TEST(WorkloadPlanTest, SeedMovesThePlan) {
  WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  const WorkloadPlan a = BuildWorkloadPlan(t);
  t.seed = 8;
  const WorkloadPlan b = BuildWorkloadPlan(t);
  bool differs = a.sessions.size() != b.sessions.size();
  for (size_t i = 0; !differs && i < a.sessions.size(); ++i) {
    differs = a.sessions[i].trial_seed != b.sessions[i].trial_seed;
  }
  EXPECT_TRUE(differs) << "seed change left the plan untouched";
}

TEST(WorkloadPlanTest, ArrivalCapsAreReportedNotSilent) {
  WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  t.arrival_rate = 64.0;  // far over both per-round and total caps
  t.rounds = 64;
  t.storms.clear();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  EXPECT_EQ(plan.sessions.size(), kMaxPlannedSessions);
  EXPECT_GT(plan.capped_arrivals, 0u);
}

TEST(WorkloadPlanTest, StormCoverageFollowsTheWindow) {
  WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  // A full-horizon persistent storm afflicts every session...
  t.storms.clear();
  t.storms.push_back({0, t.rounds, EnsembleId{1}, FaultKind::kError, 1.0});
  const WorkloadPlan stormy = BuildWorkloadPlan(t);
  ASSERT_FALSE(stormy.sessions.empty());
  for (const SessionPlan& s : stormy.sessions) {
    EXPECT_TRUE(s.stormy()) << s.name;
    // ...and only the masked model carries bursts.
    EXPECT_FALSE(s.scripts[0].bursts.empty());
    EXPECT_TRUE(s.scripts[1].bursts.empty());
    EXPECT_TRUE(s.scripts[2].bursts.empty());
  }
  // No storms: no session is stormy.
  t.storms.clear();
  for (const SessionPlan& s : BuildWorkloadPlan(t).sessions) {
    EXPECT_FALSE(s.stormy()) << s.name;
  }
}

TEST(WorkloadPlanTest, SessionVideoIsDeterministicAndTruncated) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  ASSERT_FALSE(plan.sessions.empty());
  const SessionPlan& s = plan.sessions[0];
  const Video a = std::move(BuildSessionVideo(plan, s)).value();
  const Video b = std::move(BuildSessionVideo(plan, s)).value();
  EXPECT_LE(a.frames.size(), static_cast<size_t>(s.frames));
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].context, b.frames[i].context);
    EXPECT_EQ(a.frames[i].scene_id, b.frames[i].scene_id);
  }
}

TEST(WorkloadPlanTest, MakeServeOptionsLayersTraceSlos) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  ServeOptions base;
  base.overload.queue_trigger = 3;
  const ServeOptions off = MakeServeOptions(t, base, false);
  EXPECT_FALSE(off.overload.enabled);
  const ServeOptions on = MakeServeOptions(t, base, true);
  EXPECT_TRUE(on.overload.enabled);
  EXPECT_EQ(on.overload.queue_trigger, 3);
  const int ii = PriorityClassIndex(PriorityClass::kInteractive);
  EXPECT_DOUBLE_EQ(on.overload.slo[ii].p99_ms, 50.0);
  // Classes without an slo line keep the base target.
  const int bi = PriorityClassIndex(PriorityClass::kBatch);
  EXPECT_DOUBLE_EQ(on.overload.slo[bi].p99_ms, base.overload.slo[bi].p99_ms);
}

// ------------------------------------------------------------- driver --

ServeOptions SmallServe() {
  ServeOptions o;
  o.max_sessions = 2;
  o.queue_depth = 64;
  o.quantum_ms = 60.0;
  o.max_frames_per_round = 8;
  o.overload.window = 64;
  o.overload.min_samples = 8;
  o.overload.queue_trigger = 2;
  o.overload.dwell_rounds = 1;
  o.overload.recover_rounds = 2;
  o.overload.skip_boost = 2;
  o.overload.shrink_mask = 0x1;
  return o;
}

TEST(WorkloadDriverTest, SchedulerRunIsIdenticalAcrossWorkerCounts) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);

  WorkloadRunReport runs[2];
  for (int i = 0; i < 2; ++i) {
    ServeOptions serve = MakeServeOptions(t, SmallServe(), true);
    serve.parallelism = i == 0 ? 1 : 0;
    runs[i] =
        std::move(RunWorkloadOnScheduler(plan, pool, serve)).value();
  }
  const ServeStats& a = runs[0].serve.stats;
  const ServeStats& b = runs[1].serve.stats;
  ASSERT_EQ(a.degradations.size(), b.degradations.size());
  for (size_t i = 0; i < a.degradations.size(); ++i) {
    EXPECT_EQ(a.degradations[i], b.degradations[i]);
  }
  EXPECT_EQ(a.peak_degradation_level, b.peak_degradation_level);
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    EXPECT_EQ(a.classes[c].submitted, b.classes[c].submitted);
    EXPECT_EQ(a.classes[c].frames, b.classes[c].frames);
    EXPECT_EQ(a.classes[c].shed_submissions, b.classes[c].shed_submissions);
    EXPECT_EQ(a.classes[c].sim_p99_ms, b.classes[c].sim_p99_ms);
  }
  // Per-stream results agree too (retirement order may differ only if the
  // schedule differed — it must not).
  ASSERT_EQ(runs[0].serve.streams.size(), runs[1].serve.streams.size());
  for (size_t i = 0; i < runs[0].serve.streams.size(); ++i) {
    EXPECT_EQ(runs[0].serve.streams[i].name, runs[1].serve.streams[i].name);
    ExpectSameRun(runs[0].serve.streams[i].result,
                  runs[1].serve.streams[i].result);
  }
}

TEST(WorkloadDriverTest, DisabledControllerMatchesSoloBaselines) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);
  const ServeOptions serve = MakeServeOptions(t, SmallServe(), false);
  const WorkloadRunReport run =
      std::move(RunWorkloadOnScheduler(plan, pool, serve)).value();
  ASSERT_GT(run.submitted, 0u);
  size_t compared = 0;
  for (const StreamReport& sr : run.serve.streams) {
    if (!sr.status.ok()) continue;
    const SessionPlan* sp = nullptr;
    for (const SessionPlan& s : plan.sessions) {
      if (s.name == sr.name) sp = &s;
    }
    ASSERT_NE(sp, nullptr) << sr.name;
    ExpectSameRun(std::move(RunWorkloadSessionSolo(plan, *sp, pool)).value(),
                  sr.result);
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

/// A deliberately under-provisioned run: one slot, steady arrivals. The
/// ladder must walk down one rung at a time to shed-batch, every shed must
/// land on batch, and the ledger must be monotone single-rung steps.
TEST(WorkloadDriverTest, LadderWalksToShedBatchAndBatchAbsorbsSheds) {
  WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  t.rounds = 10;
  t.arrival_rate = 3.0;
  t.pareto_cap = 1.0;  // burst multiplier pinned at 1: steady arrivals
  t.diurnal_amplitude = 0.0;
  t.storms.clear();
  ServeOptions serve = MakeServeOptions(t, SmallServe(), true);
  serve.max_sessions = 1;
  serve.overload.queue_trigger = 1;
  serve.parallelism = 1;

  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);
  const WorkloadRunReport run =
      std::move(RunWorkloadOnScheduler(plan, pool, serve)).value();
  const ServeStats& stats = run.serve.stats;

  EXPECT_EQ(stats.peak_degradation_level, 3);
  ASSERT_GE(stats.degradations.size(), 3u);
  int level = 0;
  for (const DegradationTransition& tr : stats.degradations) {
    EXPECT_EQ(tr.from, level);
    EXPECT_EQ(tr.to - tr.from == 1 || tr.from - tr.to == 1, true)
        << "ladder moved more than one rung";
    if (tr.to > tr.from) {
      EXPECT_TRUE(tr.queue_triggered || tr.trigger_class >= 0);
    }
    level = tr.to;
  }
  const auto& icls = stats.classes[PriorityClassIndex(
      PriorityClass::kInteractive)];
  const auto& bcls = stats.classes[PriorityClassIndex(PriorityClass::kBatch)];
  EXPECT_EQ(icls.shed_submissions, 0u);
  EXPECT_GT(bcls.shed_submissions, 0u);
  EXPECT_EQ(run.shed, bcls.shed_submissions);
  // Shed + submitted accounts for every planned session.
  EXPECT_EQ(run.submitted + run.shed, run.planned);
}

TEST(WorkloadFleetTest, FleetPropagatesOverloadToEveryShard) {
  WorkloadTrace t = std::move(ParseWorkloadTrace(kGoodTrace)).value();
  t.rounds = 6;
  t.arrival_rate = 2.0;
  t.pareto_cap = 1.0;
  t.storms.clear();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);

  FleetOptions fleet;
  fleet.num_shards = 2;
  fleet.max_sessions = 64;
  fleet.shard = MakeServeOptions(t, SmallServe(), true);
  fleet.shard.max_sessions = 1;
  fleet.shard.overload.queue_trigger = 1;

  const FleetReport report =
      std::move(RunWorkloadOnFleet(plan, pool, fleet)).value();
  EXPECT_EQ(report.streams.size(), plan.sessions.size());
  EXPECT_GT(report.stats.completed_streams, 0u);
  // Both shards ran under pressure: the aggregate ladder stats must show
  // degradation, and every per-shard ledger is exposed for audit.
  EXPECT_GE(report.stats.peak_degradation_level, 1);
  EXPECT_GE(report.stats.degradation_transitions, 1u);
  uint64_t ledger_sum = 0;
  for (const auto& shard : report.stats.shards) {
    ledger_sum += shard.stats.degradations.size();
  }
  EXPECT_EQ(report.stats.degradation_transitions, ledger_sum);
}

}  // namespace
}  // namespace vqe
