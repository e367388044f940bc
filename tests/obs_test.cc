// Tests for the observability subsystem (ISSUE 10): registry determinism
// (fixed-point simulated-domain counters identical across thread counts),
// trace-buffer overflow accounting (never silent), the Chrome trace-event
// and Prometheus-text exporters with their built-in validators/parsers,
// and the two tentpole contracts — obs disabled leaves every run
// bit-identical with a zero-cost frame loop, obs enabled leaves results
// bit-identical while simulated metrics fingerprint identically across
// worker counts, shard counts and evaluation backends. Checkpoint/resume
// interaction rides the same harness as resume_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/mes.h"
#include "models/model_zoo.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "serve/scheduler.h"
#include "sim/dataset.h"
#include "test_util.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace vqe {
namespace {

using test::ExpectSameRun;
using test::MakePool;
using test::MakeVideo;
using test::ScratchDir;

constexpr char kScratch[] = "vqe_obs_test";

/// Raw value of every counter whose name starts with `prefix`, by name;
/// only the simulated-domain ones when `sim_only`.
std::map<std::string, uint64_t> Counters(const MetricsRegistry& reg,
                                         const std::string& prefix,
                                         bool sim_only = false) {
  std::map<std::string, uint64_t> out;
  for (const MetricsRegistry::MetricView& v : reg.Snapshot()) {
    if (v.kind != MetricKind::kCounter || v.name.rfind(prefix, 0) != 0) {
      continue;
    }
    if (sim_only && v.domain != MetricDomain::kSimulated) continue;
    out[v.name] = v.raw;
  }
  return out;
}

/// What the `vqe_engine_*` counters read once `runs` have finished: each
/// count is the sum of its RunResult field, each ms series the sum of the
/// fields' MsToTicks.
std::map<std::string, uint64_t> EngineLedger(
    const std::vector<const RunResult*>& runs) {
  std::map<std::string, uint64_t> m;
  for (const RunResult* r : runs) {
    const TimeBreakdown& tb = r->breakdown;
    m["vqe_engine_frames_total"] += r->frames_processed;
    m["vqe_engine_frames_skipped_total"] += r->skip.skipped_frames;
    m["vqe_engine_frames_fallback_total"] += r->fallback_frames;
    m["vqe_engine_frames_failed_total"] += r->failed_frames;
    m["vqe_engine_detector_ms_total"] += MsToTicks(tb.detector_ms);
    m["vqe_engine_reference_ms_total"] += MsToTicks(tb.reference_ms);
    m["vqe_engine_ensembling_ms_total"] += MsToTicks(tb.ensembling_ms);
    m["vqe_engine_fault_ms_total"] += MsToTicks(tb.fault_ms);
    m["vqe_engine_tracker_ms_total"] += MsToTicks(tb.tracker_ms);
    m["vqe_engine_charged_cost_ms_total"] += MsToTicks(r->charged_cost_ms);
    m["vqe_engine_algorithm_ms_total"] += MsToTicks(tb.algorithm_ms);
    m["vqe_engine_checkpoint_writes_total"] += r->checkpoint.snapshots_written;
    m["vqe_engine_checkpoint_write_ms_total"] +=
        MsToTicks(r->checkpoint.checkpoint_write_ms);
    for (const RunResult::ModelAvailability& h : r->model_availability) {
      m["vqe_engine_model_call_failures_total"] += h.frames_failed;
      m["vqe_engine_breaker_opens_total"] += h.breaker_opens;
    }
  }
  return m;
}

/// The same for the `vqe_query_*` counters after one completed query.
std::map<std::string, uint64_t> QueryLedger(const QueryOutput& out) {
  uint64_t model_failures = 0;
  for (const uint64_t n : out.model_failures) model_failures += n;
  return {
      {"vqe_query_frames_total", out.frames_processed},
      {"vqe_query_frames_matched_total", out.frames_matched},
      {"vqe_query_frames_skipped_total", out.skipped_frames},
      {"vqe_query_frames_failed_total", out.failed_frames},
      {"vqe_query_fallback_frames_total", out.fallback_frames},
      {"vqe_query_charged_cost_ms_total", MsToTicks(out.charged_cost_ms)},
      {"vqe_query_reference_ms_total", MsToTicks(out.reference_cost_ms)},
      {"vqe_query_fault_ms_total", MsToTicks(out.fault_ms)},
      {"vqe_query_model_call_failures_total", model_failures},
      {"vqe_query_checkpoint_writes_total",
       out.checkpoint.snapshots_written},
      {"vqe_query_checkpoint_write_ms_total",
       MsToTicks(out.checkpoint.checkpoint_write_ms)},
      {"vqe_query_wall_ms_total", MsToTicks(out.wall_seconds * 1000.0)},
  };
}

// ---------------------------------------------------------------- metrics --

TEST(MetricsRegistryTest, CountersAndHistogramsAccumulate) {
  MetricsRegistry reg;
  const auto frames =
      reg.Counter("frames_total", MetricDomain::kSimulated);
  const auto cost = reg.Counter("charged_cost_ms", MetricDomain::kSimulated,
                                MetricUnit::kMs);
  const auto lat = reg.Histogram("frame_ms", MetricDomain::kSimulated,
                                 {1.0, 2.0});
  ASSERT_NE(frames, MetricsRegistry::kInvalidId);
  ASSERT_NE(lat, MetricsRegistry::kInvalidId);

  reg.Add(frames, 3);
  reg.AddMs(cost, 1.5);
  reg.AddMs(cost, -2.0);  // negative deltas clamp, counters stay monotone
  reg.Observe(lat, 0.5);
  reg.Observe(lat, 1.5);
  reg.Observe(lat, 9.0);

  bool saw_frames = false, saw_cost = false, saw_lat = false;
  for (const auto& view : reg.Snapshot()) {
    if (view.name == "frames_total") {
      saw_frames = true;
      EXPECT_EQ(view.kind, MetricKind::kCounter);
      EXPECT_EQ(view.raw, 3u);
      EXPECT_DOUBLE_EQ(view.value, 3.0);
    } else if (view.name == "charged_cost_ms") {
      saw_cost = true;
      EXPECT_EQ(view.raw, MsToTicks(1.5));
      EXPECT_DOUBLE_EQ(view.value, 1.5);
    } else if (view.name == "frame_ms") {
      saw_lat = true;
      EXPECT_EQ(view.kind, MetricKind::kHistogram);
      ASSERT_EQ(view.histogram.bucket_counts.size(), 3u);
      EXPECT_EQ(view.histogram.bucket_counts[0], 1u);  // <= 1
      EXPECT_EQ(view.histogram.bucket_counts[1], 1u);  // <= 2
      EXPECT_EQ(view.histogram.bucket_counts[2], 1u);  // +Inf
      EXPECT_EQ(view.histogram.count, 3u);
      EXPECT_DOUBLE_EQ(view.histogram.sum, 11.0);
    }
  }
  EXPECT_TRUE(saw_frames && saw_cost && saw_lat);
}

TEST(MetricsRegistryTest, ReRegistrationSharesSeriesAndChecksBounds) {
  MetricsRegistry reg;
  const auto a = reg.Counter("frames_total", MetricDomain::kSimulated);
  const auto b = reg.Counter("frames_total", MetricDomain::kSimulated);
  EXPECT_EQ(a, b);
  reg.Add(a, 1);
  reg.Add(b, 1);
  EXPECT_EQ(reg.Snapshot()[0].raw, 2u) << "re-registered id is a new series";

  const auto h = reg.Histogram("lat", MetricDomain::kWall, {1.0, 2.0});
  EXPECT_EQ(reg.Histogram("lat", MetricDomain::kWall, {1.0, 2.0}), h);
  // Same name with different bounds is a caller bug, not a silent merge.
  EXPECT_EQ(reg.Histogram("lat", MetricDomain::kWall, {1.0, 4.0}),
            MetricsRegistry::kInvalidId);
}

TEST(MetricsRegistryTest, FixedPointTickConversionIsExact) {
  EXPECT_EQ(MsToTicks(0.0), 0u);
  EXPECT_EQ(MsToTicks(-5.0), 0u);
  EXPECT_EQ(MsToTicks(1.0), static_cast<uint64_t>(kTicksPerMs));
  EXPECT_DOUBLE_EQ(TicksToMs(MsToTicks(123.456789)), 123.456789);
}

TEST(MetricsRegistryTest, SimulatedFingerprintIsThreadCountInvariant) {
  // The same multiset of observations, applied serially and by 4 threads
  // in arbitrary interleaving, must fingerprint byte-identically.
  auto apply = [](MetricsRegistry& reg, int begin, int end) {
    const auto frames =
        reg.Counter("frames_total", MetricDomain::kSimulated);
    const auto cost = reg.Counter("cost_ms", MetricDomain::kSimulated,
                                  MetricUnit::kMs);
    const auto lat =
        reg.Histogram("frame_ms", MetricDomain::kSimulated, {1.0, 4.0, 16.0});
    for (int i = begin; i < end; ++i) {
      reg.Add(frames);
      reg.AddMs(cost, 0.125 * i);
      reg.Observe(lat, 0.5 * (i % 40));
    }
  };

  MetricsRegistry serial;
  apply(serial, 0, 4000);

  MetricsRegistry threaded;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back(
        [&threaded, &apply, w] { apply(threaded, w * 1000, (w + 1) * 1000); });
  }
  for (auto& t : workers) t.join();

  const std::string fp = serial.SimulatedFingerprint();
  EXPECT_FALSE(fp.empty());
  EXPECT_EQ(fp, threaded.SimulatedFingerprint());
}

TEST(MetricsRegistryTest, FingerprintExcludesWallMetrics) {
  MetricsRegistry a, b;
  for (MetricsRegistry* reg : {&a, &b}) {
    reg->Add(reg->Counter("sim_total", MetricDomain::kSimulated), 5);
  }
  // Divergent wall-domain state must not move the fingerprint: wall values
  // are real measurements.
  a.AddMs(a.Counter("wall_ms", MetricDomain::kWall, MetricUnit::kMs), 123.0);
  EXPECT_EQ(a.SimulatedFingerprint(), b.SimulatedFingerprint());
}

// ------------------------------------------------------------------ trace --

TEST(TraceRecorderTest, OverflowIsCountedNeverSilent) {
  TraceRecorder rec(/*capacity_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    rec.Span(MetricDomain::kSimulated, /*track=*/1, /*frame=*/i, "step",
             /*ts_ms=*/static_cast<double>(i), /*dur_ms=*/0.5);
  }
  EXPECT_EQ(rec.event_count(), 8u);
  EXPECT_EQ(rec.dropped_events(), 12u);
  // Keep-oldest: the retained prefix is the first 8 events in order.
  const std::vector<TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].frame, static_cast<int64_t>(i));
  }
  // The exporter surfaces the drop count and the result still validates.
  const std::string json = ChromeTraceJson(rec);
  EXPECT_NE(json.find("dropped_events"), std::string::npos);
  const Status valid = ValidateChromeTrace(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(TraceRecorderTest, CollectMergesThreadBuffersInStableOrder) {
  TraceRecorder rec(64);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&rec, w] {
      for (int i = 0; i < 8; ++i) {
        rec.Instant(MetricDomain::kWall, /*track=*/w, /*frame=*/i, "tick",
                    /*ts_ms=*/static_cast<double>(i));
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(rec.dropped_events(), 0u);
  const std::vector<TraceEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 32u);
  for (size_t i = 1; i < events.size(); ++i) {
    const bool ordered =
        events[i - 1].track < events[i].track ||
        (events[i - 1].track == events[i].track &&
         events[i - 1].ts_ms <= events[i].ts_ms);
    EXPECT_TRUE(ordered) << "Collect() order broke at event " << i;
  }
}

// -------------------------------------------------------------- exporters --

TEST(ChromeTraceValidatorTest, AcceptsBothContainerForms) {
  EXPECT_TRUE(ValidateChromeTrace("[]").ok());
  EXPECT_TRUE(ValidateChromeTrace(R"({"traceEvents": []})").ok());
  EXPECT_TRUE(ValidateChromeTrace(
                  R"([{"ph":"X","name":"a","pid":1,"tid":1,"ts":0,"dur":5},)"
                  R"({"ph":"i","name":"b","pid":1,"tid":1,"ts":7}])")
                  .ok());
}

TEST(ChromeTraceValidatorTest, MalformedJsonIsParseError) {
  for (const char* hostile :
       {"", "not json", "[{\"ph\":", "{\"traceEvents\": [",
        R"([{"ph":"X" "name":"a"}])", "[1,]"}) {
    const Status s = ValidateChromeTrace(hostile);
    ASSERT_FALSE(s.ok()) << "accepted: " << hostile;
    EXPECT_EQ(s.code(), StatusCode::kParseError) << hostile;
  }
}

TEST(ChromeTraceValidatorTest, StructuralViolationsAreInvalidArgument) {
  const struct {
    const char* name;
    const char* json;
  } corpus[] = {
      {"missing ph", R"([{"name":"a","pid":1,"tid":1,"ts":0}])"},
      {"missing name", R"([{"ph":"i","pid":1,"tid":1,"ts":0}])"},
      {"missing ts", R"([{"ph":"i","name":"a","pid":1,"tid":1}])"},
      {"negative dur",
       R"([{"ph":"X","name":"a","pid":1,"tid":1,"ts":0,"dur":-1}])"},
      {"unclosed B", R"([{"ph":"B","name":"a","pid":1,"tid":1,"ts":0}])"},
      {"E without B", R"([{"ph":"E","name":"a","pid":1,"tid":1,"ts":0}])"},
      {"ts regression on one track",
       R"([{"ph":"X","name":"a","pid":1,"tid":1,"ts":5,"dur":1},)"
       R"({"ph":"X","name":"b","pid":1,"tid":1,"ts":1,"dur":1}])"},
  };
  for (const auto& c : corpus) {
    const Status s = ValidateChromeTrace(c.json);
    ASSERT_FALSE(s.ok()) << "accepted: " << c.name;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << c.name << ": " << s.ToString();
  }
  // Interleaved tracks each monotone: fine.
  EXPECT_TRUE(ValidateChromeTrace(
                  R"([{"ph":"i","name":"a","pid":1,"tid":1,"ts":5},)"
                  R"({"ph":"i","name":"b","pid":1,"tid":2,"ts":1}])")
                  .ok());
}

TEST(MetricsTextTest, ExportRoundTripsThroughTheParser) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("frames_total", MetricDomain::kSimulated,
                      MetricUnit::kCount, "frames processed"),
          3);
  reg.AddMs(reg.Counter("wall_ms", MetricDomain::kWall, MetricUnit::kMs), 1.5);
  const auto lat =
      reg.Histogram("frame_ms", MetricDomain::kSimulated, {1.0, 2.0});
  reg.Observe(lat, 0.5);
  reg.Observe(lat, 1.5);
  reg.Observe(lat, 9.0);

  const std::string text = ExportMetricsText(reg);
  EXPECT_NE(text.find("# HELP"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);

  auto parsed = ParseMetricsText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  double frames = -1.0, wall = -1.0;
  double bucket_sum = -1.0, bucket_count = -1.0, inf_bucket = -1.0;
  size_t buckets = 0;
  for (const MetricSample& s : *parsed) {
    if (s.name == "frames_total") {
      frames = s.value;
      EXPECT_EQ(s.labels.at("domain"), "sim");
    } else if (s.name == "wall_ms") {
      wall = s.value;
      EXPECT_EQ(s.labels.at("domain"), "wall");
    } else if (s.name == "frame_ms_bucket") {
      ++buckets;
      if (s.labels.at("le") == "+Inf") inf_bucket = s.value;
    } else if (s.name == "frame_ms_sum") {
      bucket_sum = s.value;
    } else if (s.name == "frame_ms_count") {
      bucket_count = s.value;
    }
  }
  EXPECT_DOUBLE_EQ(frames, 3.0);
  EXPECT_DOUBLE_EQ(wall, 1.5);
  EXPECT_EQ(buckets, 3u) << "two bounds + the +Inf bucket";
  EXPECT_DOUBLE_EQ(inf_bucket, 3.0) << "cumulative buckets end at count";
  EXPECT_DOUBLE_EQ(bucket_sum, 11.0);
  EXPECT_DOUBLE_EQ(bucket_count, 3.0);
}

TEST(MetricsTextTest, ParserRejectsMalformedLinesWithLineNumber) {
  for (const char* hostile :
       {"no_value_here\n", "name{unclosed=\"x\" 1\n", "name 1 2 3\n",
        "name{le=\"1\"} not_a_number\n"}) {
    const auto r = ParseMetricsText(hostile);
    ASSERT_FALSE(r.ok()) << "accepted: " << hostile;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << hostile;
  }
}

// ------------------------------------------------ engine identity matrix --

/// One cell of the matrix over the Figure 4 line-up, as
/// runs[strategy][trial]: RunExperiment (eager for this line-up, regret
/// on) with `parallelism` trial workers, or the same trials run strategy
/// by strategy on lazy evaluators (test::PerTrialRuns).
std::vector<std::vector<RunResult>> RunMatrixOnce(const DetectorPool& pool,
                                                  bool lazy, int parallelism,
                                                  const ObsHandle& obs) {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  ExperimentConfig config;
  config.dataset = spec;
  config.scene_scale = 0.02;
  config.trials = 2;
  config.pool_size = 3;
  config.base_seed = 11;
  config.parallelism = parallelism;
  config.engine.obs = obs;
  const std::vector<StrategySpec> lineup = DefaultTuviStrategies(2, 2);
  if (lazy) return test::PerTrialRuns(config, pool, lineup, /*lazy=*/true);
  auto result = RunExperiment(config, pool, lineup);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::vector<RunResult>> runs;
  if (result.ok()) {
    for (const StrategyOutcome& outcome : result->outcomes) {
      runs.push_back(outcome.runs);
    }
  }
  return runs;
}

void ExpectSameExperiment(const std::vector<std::vector<RunResult>>& a,
                          const std::vector<std::vector<RunResult>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    SCOPED_TRACE("strategy " + std::to_string(s));
    ASSERT_EQ(a[s].size(), b[s].size());
    for (size_t t = 0; t < a[s].size(); ++t) {
      ExpectSameRun(a[s][t], b[s][t]);
    }
  }
}

// The tentpole contract, both directions, over six strategies on eager
// experiments at worker counts {1, 4} and on lazy per-trial runs:
// disabling obs changes nothing, enabling obs changes nothing, and the
// enabled runs' simulated-domain fingerprint is one byte string
// regardless of backend or thread count.
TEST(ObsIdentityTest, EnabledAndDisabledRunsAreBitIdenticalEverywhere) {
  const DetectorPool pool = MakePool(3);

  std::vector<std::vector<RunResult>> baseline;  // eager, serial, no obs
  std::string fingerprint;
  bool first = true;
  const struct {
    bool lazy;
    int workers;
  } cells[] = {{false, 1}, {false, 4}, {true, 1}};
  for (const auto& cell : cells) {
    SCOPED_TRACE(std::string(cell.lazy ? "lazy" : "eager") + "/w" +
                 std::to_string(cell.workers));
    const auto off = RunMatrixOnce(pool, cell.lazy, cell.workers, {});

    Observability obs;
    const auto on = RunMatrixOnce(pool, cell.lazy, cell.workers, obs.handle());

    // Observation never perturbs selection...
    ExpectSameExperiment(off, on);
    // ...every cell matches the very first one...
    if (first) {
      baseline = off;
      first = false;
    } else {
      ExpectSameExperiment(baseline, off);
    }
    // ...and the simulated metrics are one fingerprint for all cells.
    const std::string fp = obs.metrics().SimulatedFingerprint();
    ASSERT_FALSE(fp.empty());
    EXPECT_GT(obs.trace().event_count(), 0u);
    if (fingerprint.empty()) {
      fingerprint = fp;
    } else {
      EXPECT_EQ(fp, fingerprint);
    }
  }
}

// ------------------------------------------------- scheduler & fleet obs --

const char kObsTrace[] =
    "VQEWORK 1\n"
    "seed 7\n"
    "rounds 6\n"
    "dataset nusc-night\n"
    "scale 0.05\n"
    "models 3\n"
    "arrivals rate 0.6 alpha 1.6 cap 4\n"
    "class interactive share 0.5 frames 8 skip bandit 2\n"
    "class batch share 0.5 frames 12 skip off 0\n"
    "end\n";

ServeOptions SmallServe() {
  ServeOptions o;
  o.max_sessions = 4;
  o.queue_depth = 64;
  o.quantum_ms = 60.0;
  o.max_frames_per_round = 8;
  return o;
}

TEST(ObsServeTest, SchedulerMetricsFingerprintIsWorkerCountInvariant) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kObsTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);

  WorkloadRunReport uninstrumented;
  std::string fingerprint;
  for (const int parallelism : {1, 0}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    ServeOptions plain = MakeServeOptions(t, SmallServe(), false);
    plain.parallelism = parallelism;
    WorkloadRunReport off =
        std::move(RunWorkloadOnScheduler(plan, pool, plain)).value();

    Observability obs;
    ServeOptions instrumented = plain;
    instrumented.obs = obs.handle();
    const WorkloadRunReport on =
        std::move(RunWorkloadOnScheduler(plan, pool, instrumented)).value();

    // Instrumentation leaves every stream bit-identical...
    ASSERT_EQ(off.serve.streams.size(), on.serve.streams.size());
    for (size_t i = 0; i < off.serve.streams.size(); ++i) {
      EXPECT_EQ(off.serve.streams[i].name, on.serve.streams[i].name);
      ExpectSameRun(off.serve.streams[i].result, on.serve.streams[i].result);
    }
    // ...the scheduler recorded wall-domain activity on its node track...
    EXPECT_GT(obs.trace().event_count(), 0u);
    // ...and the simulated fingerprint ignores the worker count.
    const std::string fp = obs.metrics().SimulatedFingerprint();
    ASSERT_FALSE(fp.empty());
    if (fingerprint.empty()) {
      fingerprint = fp;
      uninstrumented = std::move(off);
    } else {
      EXPECT_EQ(fp, fingerprint);
    }

    // The round barrier's wall accounting stays out of the fingerprint,
    // and slots can only be busy within the capacity the rounds offered.
    const MetricsRegistry::MetricView* busy = nullptr;
    const MetricsRegistry::MetricView* capacity = nullptr;
    const auto views = obs.metrics().Snapshot();
    for (const auto& v : views) {
      if (v.name == "vqe_sched_slot_busy_ms_total") busy = &v;
      if (v.name == "vqe_sched_step_capacity_ms_total") capacity = &v;
    }
    ASSERT_NE(busy, nullptr);
    ASSERT_NE(capacity, nullptr);
    for (const auto* v : {busy, capacity}) {
      EXPECT_EQ(v->domain, MetricDomain::kWall);
      EXPECT_EQ(fp.find(v->name), std::string::npos) << v->name;
    }
    EXPECT_GT(busy->raw, 0u);
    EXPECT_LE(busy->raw, capacity->raw);
  }
  ASSERT_FALSE(uninstrumented.serve.streams.empty());
}

TEST(ObsFleetTest, FleetMetricsFingerprintIsShardCountInvariant) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kObsTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);

  std::string fingerprint;
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Observability obs;
    FleetOptions fleet;
    fleet.num_shards = shards;
    fleet.max_sessions = 64;
    // Overload control off: the ladder reacts to per-shard queue depth, so
    // it is the one mechanism that legitimately varies with the topology.
    fleet.shard = MakeServeOptions(t, SmallServe(), false);
    fleet.obs = obs.handle();

    const FleetReport report =
        std::move(RunWorkloadOnFleet(plan, pool, fleet)).value();
    EXPECT_EQ(report.streams.size(), plan.sessions.size());
    EXPECT_GT(report.stats.completed_streams, 0u);

    const std::string fp = obs.metrics().SimulatedFingerprint();
    ASSERT_FALSE(fp.empty());
    EXPECT_GT(obs.trace().event_count(), 0u);
    if (fingerprint.empty()) {
      fingerprint = fp;
    } else {
      EXPECT_EQ(fp, fingerprint);
    }
  }
}

// The kObsTrace mix under an error storm and a latency-spike storm, with
// an interactive SLO for the overload ladder to defend.
const char kObsStormTrace[] =
    "VQEWORK 1\n"
    "seed 7\n"
    "rounds 6\n"
    "dataset nusc-night\n"
    "scale 0.05\n"
    "models 3\n"
    "arrivals rate 0.6 alpha 1.6 cap 4\n"
    "class interactive share 0.5 frames 8 skip bandit 2\n"
    "class batch share 0.5 frames 12 skip off 0\n"
    "slo interactive p99 50 shed 0.0\n"
    "storm rounds 1 3 models 1 kind error rate 1.0\n"
    "storm rounds 2 4 models 2 kind spike rate 0.5\n"
    "end\n";

// The registry is a view of the structs: after a served workload every
// vqe_engine_* counter equals the sum of its RunResult field over the
// streams, and the scheduler's mirrored counters equal ServeStats.
TEST(ObsServeTest, MirroredSeriesEqualTheServeReport) {
  const WorkloadTrace t =
      std::move(ParseWorkloadTrace(kObsStormTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);
  Observability obs;
  ServeOptions serve = MakeServeOptions(t, SmallServe(), true);
  serve.obs = obs.metrics_handle();
  const WorkloadRunReport report =
      std::move(RunWorkloadOnScheduler(plan, pool, serve)).value();

  std::vector<const RunResult*> runs;
  for (const StreamReport& stream : report.serve.streams) {
    ASSERT_TRUE(stream.status.ok()) << stream.status.ToString();
    runs.push_back(&stream.result);
  }
  ASSERT_FALSE(runs.empty());
  const std::map<std::string, uint64_t> engine =
      Counters(obs.metrics(), "vqe_engine_");
  EXPECT_EQ(engine, EngineLedger(runs));
  EXPECT_GT(engine.at("vqe_engine_frames_skipped_total"), 0u);
  EXPECT_GT(engine.at("vqe_engine_fault_ms_total"), 0u);

  const ServeStats& stats = report.serve.stats;
  const std::map<std::string, uint64_t> sched =
      Counters(obs.metrics(), "vqe_sched_");
  EXPECT_EQ(sched.at("vqe_sched_rounds_total"), stats.rounds);
  EXPECT_EQ(sched.at("vqe_sched_admitted_total"), stats.admitted);
  EXPECT_EQ(sched.at("vqe_sched_shed_total"), stats.shed_submissions);
  EXPECT_EQ(sched.at("vqe_sched_stream_errors_total"), stats.failed_streams);
  EXPECT_EQ(sched.at("vqe_sched_overload_transitions_total"),
            stats.degradations.size());

  // The four totals are their classes' sums.
  uint64_t submitted = 0, admitted = 0, shed = 0, frames = 0;
  for (const ServeStats::ClassStats& cs : stats.classes) {
    submitted += cs.submitted;
    admitted += cs.admitted;
    shed += cs.shed_submissions;
    frames += cs.frames;
  }
  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.admitted, admitted);
  EXPECT_EQ(stats.shed_submissions, shed);
  EXPECT_EQ(stats.frames, frames);
  EXPECT_EQ(stats.submitted, report.submitted);
}

// A chaos fleet whose streams all complete counts each logical frame
// once: sessions lost with a killed shard or extracted for migration
// publish nothing, and each completing session publishes its whole run.
// So the engine counters equal the clean fleet's, and the fleet's own
// counters equal FleetStats.
TEST(ObsFleetTest, ChaosFleetCountsEachFrameOnce) {
  const WorkloadTrace t = std::move(ParseWorkloadTrace(kObsTrace)).value();
  const WorkloadPlan plan = BuildWorkloadPlan(t);
  const DetectorPool pool = MakePool(t.models);
  auto run = [&](const ChaosScript& chaos, Observability& obs) {
    FleetOptions fleet;
    fleet.num_shards = 3;
    fleet.shard = MakeServeOptions(t, SmallServe(), false);
    fleet.obs = obs.metrics_handle();
    return std::move(RunWorkloadOnFleet(plan, pool, fleet, chaos)).value();
  };
  Observability clean_obs;
  const FleetReport clean = run({}, clean_obs);

  // Migrate the longest stream placed on shard 0 to shard 1 after one
  // round, and kill shard 2 after one round.
  std::string moved;
  size_t moved_frames = 0;
  for (size_t i = 0; i < clean.streams.size(); ++i) {
    if (clean.streams[i].shard == 0 &&
        clean.streams[i].report.frames > moved_frames) {
      moved = clean.streams[i].name;
      moved_frames = clean.streams[i].report.frames;
    }
  }
  ASSERT_FALSE(moved.empty());
  ChaosScript chaos;
  ChaosEvent migrate;
  migrate.kind = ChaosEvent::Kind::kMigrate;
  migrate.at_round = 1;
  migrate.shard = 0;
  migrate.stream = moved;
  migrate.target_shard = 1;
  ChaosEvent kill;
  kill.kind = ChaosEvent::Kind::kKillShard;
  kill.at_round = 1;
  kill.shard = 2;
  chaos.events = {migrate, kill};
  Observability chaos_obs;
  const FleetReport report = run(chaos, chaos_obs);

  const FleetStats& stats = report.stats;
  ASSERT_EQ(stats.completed_streams, plan.sessions.size());
  ASSERT_EQ(stats.migration.completed, 1u);
  ASSERT_EQ(stats.shards_killed, 1);
  ASSERT_GT(stats.failover_streams, 0u);
  EXPECT_EQ(Counters(chaos_obs.metrics(), "vqe_engine_", true),
            Counters(clean_obs.metrics(), "vqe_engine_", true));

  const std::map<std::string, uint64_t> fleet =
      Counters(chaos_obs.metrics(), "vqe_fleet_");
  EXPECT_EQ(fleet.at("vqe_fleet_migrations_attempted_total"),
            stats.migration.attempted);
  EXPECT_EQ(fleet.at("vqe_fleet_migrations_completed_total"),
            stats.migration.completed);
  EXPECT_EQ(fleet.at("vqe_fleet_migrations_rejected_total"),
            stats.migration.rejected_corrupt +
                stats.migration.rejected_identity);
  EXPECT_EQ(fleet.at("vqe_fleet_migration_fallback_restarts_total"),
            stats.migration.fallback_restarts);
  EXPECT_EQ(fleet.at("vqe_fleet_failover_streams_total"),
            stats.failover_streams);
  EXPECT_EQ(fleet.at("vqe_fleet_shards_killed_total"),
            static_cast<uint64_t>(stats.shards_killed));
  for (const MetricsRegistry::MetricView& v : chaos_obs.metrics().Snapshot()) {
    if (v.name == "vqe_fleet_migration_latency_ms") {
      EXPECT_EQ(v.histogram.count, stats.migration.completed);
    }
  }
}

// --------------------------------------------------- checkpoint interplay --

// An instrumented run that crashes and resumes must end bit-identical to
// an uninstrumented, uninterrupted one: obs state is a node property and
// never enters the snapshot.
TEST(ObsCheckpointTest, InstrumentedCrashResumeMatchesPlainBaseline) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  ASSERT_GT(video.size(), 10u);
  const auto matrix =
      BuildFrameMatrix(video, pool, /*trial_seed=*/9, MatrixOptions{});
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();

  auto run_once = [&](const EngineOptions& engine) -> Result<RunResult> {
    MesOptions o;
    o.gamma = 2;
    MesStrategy strategy(o);
    return RunStrategy(*matrix, &strategy, engine);
  };

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  Observability uninterrupted_obs;
  EngineOptions uninterrupted = engine;
  uninterrupted.obs = uninterrupted_obs.handle();
  ASSERT_TRUE(run_once(uninterrupted).ok());

  Observability obs;
  EngineOptions ck = engine;
  ck.obs = obs.handle();
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, "crash-resume");

  int invocations = 0;
  RunResult resumed;
  for (int attempt = 1;; ++attempt) {
    ASSERT_LE(attempt, 64) << "crash-resume loop never completed";
    Result<RunResult> run = run_once(ck);
    if (run.ok()) {
      invocations = attempt;
      resumed = std::move(run).value();
      break;
    }
    ASSERT_EQ(run.status().code(), StatusCode::kAborted)
        << run.status().ToString();
  }
  EXPECT_GT(invocations, 1) << "the crash must actually fire";
  EXPECT_TRUE(resumed.checkpoint.resumed);
  ExpectSameRun(*baseline, resumed);

  // The crashed invocations published nothing and the last one its whole
  // run, so every simulated engine counter reads as the uninterrupted
  // run's, checkpoint writes aside: those are the last invocation's.
  std::map<std::string, uint64_t> counters =
      Counters(obs.metrics(), "vqe_engine_", true);
  std::map<std::string, uint64_t> expected =
      Counters(uninterrupted_obs.metrics(), "vqe_engine_", true);
  EXPECT_EQ(counters.at("vqe_engine_checkpoint_writes_total"),
            resumed.checkpoint.snapshots_written);
  counters.erase("vqe_engine_checkpoint_writes_total");
  expected.erase("vqe_engine_checkpoint_writes_total");
  EXPECT_EQ(counters, expected);
  EXPECT_EQ(counters.at("vqe_engine_frames_total"), resumed.frames_processed);
  EXPECT_GT(obs.trace().event_count(), 0u);
}

// A query publishes its QueryOutput once, when it completes: after a
// plain query and after a crashed-then-resumed one the vqe_query_*
// counters equal that invocation's output.
TEST(ObsCheckpointTest, QueryCountersEqualTheQueryOutput) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(car) >= 1";
  QueryEngineOptions options;
  options.scene_scale = 0.02;
  options.seed = 3;
  options.retry.max_attempts = 2;
  options.fault_scripts.resize(2);
  options.fault_scripts[0].error_rate = 0.3;

  Observability plain_obs;
  QueryEngineOptions plain = options;
  plain.obs = plain_obs.handle();
  const QueryOutput out = std::move(ExecuteQuery(sql, plain)).value();
  ASSERT_GT(out.fault_ms, 0.0);
  EXPECT_EQ(Counters(plain_obs.metrics(), "vqe_query_"), QueryLedger(out));

  Observability obs;
  QueryEngineOptions ck = options;
  ck.obs = obs.handle();
  ck.checkpoint.every_frames = 5;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = ScratchDir(kScratch, "query-crash-resume");
  QueryOutput resumed;
  for (int attempt = 1;; ++attempt) {
    ASSERT_LE(attempt, 64) << "crash-resume loop never completed";
    Result<QueryOutput> run = ExecuteQuery(sql, ck);
    if (run.ok()) {
      resumed = std::move(run).value();
      break;
    }
    ASSERT_EQ(run.status().code(), StatusCode::kAborted)
        << run.status().ToString();
  }
  ASSERT_TRUE(resumed.checkpoint.resumed);
  test::ExpectSameQuery(out, resumed);
  EXPECT_EQ(Counters(obs.metrics(), "vqe_query_"), QueryLedger(resumed));
}

// ----------------------------------------------- emitted artifacts (sat 4) --

// A real instrumented run's exported trace passes the Chrome validator and
// its metrics text round-trips — the same gate tools/check.sh applies to
// the bench binaries' --trace-out output.
TEST(ObsExportTest, RealRunArtifactsValidateAndRoundTrip) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/5);
  const auto matrix =
      BuildFrameMatrix(video, pool, /*trial_seed=*/5, MatrixOptions{});
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();

  Observability obs;
  EngineOptions engine;
  engine.strategy_seed = 3;
  engine.compute_regret = false;
  engine.obs = obs.handle();
  MesOptions o;
  o.gamma = 2;
  MesStrategy strategy(o);
  const auto run = RunStrategy(*matrix, &strategy, engine);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ASSERT_GT(obs.trace().event_count(), 0u);
  EXPECT_EQ(obs.trace().dropped_events(), 0u);
  const std::string json = ChromeTraceJson(obs.trace());
  const Status valid = ValidateChromeTrace(json);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(json.find("traceEvents"), std::string::npos);

  const auto samples = ParseMetricsText(ExportMetricsText(obs.metrics()));
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  EXPECT_FALSE(samples->empty());
  bool saw_sim = false;
  for (const MetricSample& s : *samples) {
    const auto domain = s.labels.find("domain");
    if (domain != s.labels.end() && domain->second == "sim") saw_sim = true;
  }
  EXPECT_TRUE(saw_sim) << "an engine run must emit simulated-domain series";
}

}  // namespace
}  // namespace vqe
