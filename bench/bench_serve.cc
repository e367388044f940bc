// Multi-stream serving throughput: streams/sec and per-frame latency
// percentiles versus concurrent session count.
//
// For each session count n ∈ {1, 2, 4, 8} the bench submits n streams
// (mixed strategies, seeds and priority classes) to a StreamScheduler,
// drains them, and reports wall-clock throughput (frames/sec,
// streams/sec), the p50/p99 per-frame step latency and DRR round counts.
// Every stream's RunResult is verified bit-identical to its solo
// RunStrategy baseline — the serving layer may only change WHEN work
// happens, never WHAT any stream computes.
//
// Also sweeps the temporal skip gate (mode × budget × motion level): each
// configuration runs solo and through skip-enabled serving sessions, and
// the bench reports simulated/wall speedup over the budget-0 baseline plus
// the accuracy delta. Bit-identity gates the exit code: budget 0 must
// reproduce the no-skip run exactly, and served skip streams must match
// their solo baselines.
//
// Finally sweeps the sharded fleet: 16 streams served by 1/2/4/8 shard
// threads, clean and under a chaos script (one scripted migration plus a
// shard kill). Reports throughput-versus-shards, migration handoff
// latency percentiles, and failover counts. On a small machine the
// wall-clock scaling is whatever the core count allows — the exit code
// gates bit-identity (every completing stream, migrated or restarted,
// must match its solo baseline) and each chaos row's one completed
// migration.
//
// Emits BENCH_serve.json so later PRs can track the trajectory.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "fleet/sharded_server.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "models/model_zoo.h"
#include "serve/scheduler.h"
#include "serve/stream_session.h"
#include "sim/dataset.h"

using namespace vqe;
using namespace vqe::bench;

namespace {

struct StreamSpec {
  std::string name;
  std::string strategy;
  PriorityClass priority = PriorityClass::kStandard;
  uint64_t trial_seed = 0;
  uint64_t strategy_seed = 0;
  SkipOptions skip;  // default: off
};

std::unique_ptr<SelectionStrategy> MakeStrategy(const std::string& kind) {
  if (kind == "MES") {
    MesOptions o;
    o.gamma = 2;
    return std::make_unique<MesStrategy>(o);
  }
  if (kind == "SW-MES") {
    SwMesOptions o;
    o.gamma = 2;
    o.window = 64;
    return std::make_unique<SwMesStrategy>(o);
  }
  if (kind == "D-MES") {
    DucbOptions o;
    o.gamma = 2;
    return std::make_unique<DucbMesStrategy>(o);
  }
  return std::make_unique<RandomStrategy>();
}

StreamSpec MakeSpec(size_t i) {
  static const char* kKinds[] = {"MES", "SW-MES", "D-MES", "RAND"};
  static const PriorityClass kClasses[] = {PriorityClass::kInteractive,
                                           PriorityClass::kStandard,
                                           PriorityClass::kStandard,
                                           PriorityClass::kBatch};
  StreamSpec spec;
  spec.strategy = kKinds[i % 4];
  spec.priority = kClasses[i % 4];
  spec.name = std::string("stream-") + std::to_string(i) + "-" +
              spec.strategy;
  spec.trial_seed = 100 + i;
  spec.strategy_seed = 200 + i;
  return spec;
}

EngineOptions MakeEngine(const StreamSpec& spec) {
  EngineOptions e;
  e.strategy_seed = spec.strategy_seed;
  e.compute_regret = false;
  e.skip = spec.skip;
  return e;
}

/// Deterministic-field equality between a served stream and its solo run.
bool SameRun(const RunResult& a, const RunResult& b) {
  return a.s_sum == b.s_sum && a.avg_true_ap == b.avg_true_ap &&
         a.frames_processed == b.frames_processed &&
         a.charged_cost_ms == b.charged_cost_ms &&
         a.selection_counts == b.selection_counts &&
         a.fallback_frames == b.fallback_frames &&
         a.failed_frames == b.failed_frames &&
         a.skip.skipped_frames == b.skip.skipped_frames &&
         a.skip.detect_frames == b.skip.detect_frames;
}

struct ConfigRow {
  int sessions = 0;
  double wall_ms = 0.0;
  uint64_t frames = 0;
  double frames_per_sec = 0.0;
  double streams_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t rounds = 0;
  bool bit_identical = true;
};

/// One cell of the skip-knob sweep (solo run of one configuration).
struct SkipRow {
  std::string dataset;
  std::string mode;  // "gated" | "bandit"
  int budget = 0;
  uint64_t frames = 0;
  uint64_t skipped = 0;
  uint64_t forced = 0;
  double wall_ms = 0.0;
  double wall_fps = 0.0;
  double sim_ms = 0.0;
  /// Simulated-time speedup over this dataset's budget-0 baseline (the
  /// ledger ratio — what frame skipping actually buys).
  double sim_speedup = 1.0;
  double wall_speedup = 1.0;
  double avg_true_ap = 0.0;
  /// avg_true_ap minus the budget-0 baseline's (negative = accuracy lost).
  double ap_delta = 0.0;
  /// budget-0 rows only: bit-identical to the engine with no skip options?
  bool baseline_identical = true;
};

/// One cell of the shard sweep (one fleet run).
struct FleetRow {
  int shards = 0;
  bool chaos = false;
  double wall_ms = 0.0;
  uint64_t frames = 0;
  double frames_per_sec = 0.0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  int shards_killed = 0;
  uint64_t failover_streams = 0;
  uint64_t migrations_attempted = 0;
  uint64_t migrations_completed = 0;
  double migration_p50_ms = 0.0;
  double migration_p99_ms = 0.0;
  bool bit_identical = true;
};

SkipOptions MakeSkip(const std::string& mode, int budget) {
  SkipOptions s;
  s.mode = mode == "bandit"  ? SkipMode::kBandit
           : mode == "fixed" ? SkipMode::kFixedInterval
                             : SkipMode::kDifficultyGated;
  s.skip_budget = budget;
  return s;
}

/// One stream's serving session over the lazy backend. Fleet streams
/// rebuild their session from scratch on failover, so this factory must
/// be repeatable and thread-safe (pool and video are only read).
Result<std::unique_ptr<StreamSession>> BuildSession(
    const Video& video, const DetectorPool& pool, const StreamSpec& spec) {
  VQE_ASSIGN_OR_RETURN(auto source, LazyFrameEvaluator::Create(
                                        video, pool, spec.trial_seed, {}));
  StreamSessionConfig cfg;
  cfg.name = spec.name;
  cfg.priority = spec.priority;
  cfg.engine = MakeEngine(spec);
  for (const auto& det : pool.detectors) {
    cfg.model_names.push_back(det->name());
  }
  return StreamSession::Create(std::move(cfg), std::move(source),
                               MakeStrategy(spec.strategy), {});
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out <path>: instrument the widest serving config (sessions=8)
  // with the observability layer and write its Chrome trace JSON there,
  // validated before exit. The bit-identity verdict for that config then
  // doubles as the obs-enabled identity check: instrumented streams must
  // still match their solo baselines exactly.
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::cerr << "usage: bench_serve [--trace-out <path>]\n";
      return 1;
    }
  }
  Observability obs;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Multi-stream serving throughput",
              "serving layer (sessions, DRR scheduling)",
              settings);

  const DatasetSpec& spec = **DatasetCatalog::Default().Find("nusc-night");
  // (scaled down: eight solo baselines plus four serve configs per run)
  const double scale =
      ScaleFor(spec, std::min(settings.target_frames, 600.0));
  SampleOptions sample;
  sample.scene_scale = scale;
  sample.seed = 17;
  const Video video = std::move(SampleVideo(spec, sample)).value();
  const DetectorPool pool = std::move(BuildNuscenesPool(5)).value();
  std::cout << "video: " << video.size() << " frames, pool m="
            << pool.size() << "\n\n";

  // Solo baselines (and their wall time, the 1-stream-at-a-time reference).
  std::vector<RunResult> solo(8);
  Stopwatch solo_watch;
  for (size_t i = 0; i < solo.size(); ++i) {
    const StreamSpec sspec = MakeSpec(i);
    auto source = std::move(LazyFrameEvaluator::Create(
                                video, pool, sspec.trial_seed, {}))
                      .value();
    auto strategy = MakeStrategy(sspec.strategy);
    solo[i] =
        std::move(RunStrategy(*source, strategy.get(), MakeEngine(sspec)))
            .value();
  }
  const double solo_ms = solo_watch.ElapsedMillis();
  std::cout << "8 solo runs back-to-back: " << Fmt(solo_ms) << " ms\n\n";

  std::vector<ConfigRow> rows;
  for (const int n : {1, 2, 4, 8}) {
    ServeOptions opt;
    opt.max_sessions = n;
    opt.queue_depth = 0;
    opt.quantum_ms = 150.0;
    opt.max_frames_per_round = 16;
    opt.parallelism = 0;  // all cores
    if (n == 8 && !trace_out.empty()) opt.obs = obs.handle();
    StreamScheduler scheduler(opt);
    for (int i = 0; i < n; ++i) {
      auto id = scheduler.Submit(
          std::move(BuildSession(video, pool, MakeSpec(i))).value());
      if (!id.ok()) {
        std::cerr << "submit failed: " << id.status().ToString() << "\n";
        return 1;
      }
    }
    const ServeReport report = std::move(scheduler.RunUntilDrained()).value();

    ConfigRow row;
    row.sessions = n;
    row.wall_ms = report.stats.wall_ms;
    row.frames = report.stats.frames;
    row.frames_per_sec =
        report.stats.wall_ms > 0.0
            ? 1e3 * static_cast<double>(report.stats.frames) /
                  report.stats.wall_ms
            : 0.0;
    row.streams_per_sec =
        report.stats.wall_ms > 0.0 ? 1e3 * n / report.stats.wall_ms : 0.0;
    row.p50_ms = report.stats.frame_p50_ms;
    row.p99_ms = report.stats.frame_p99_ms;
    row.rounds = report.stats.rounds;
    for (int i = 0; i < n; ++i) {
      if (!report.streams[static_cast<size_t>(i)].status.ok() ||
          !SameRun(solo[static_cast<size_t>(i)],
                   report.streams[static_cast<size_t>(i)].result)) {
        row.bit_identical = false;
      }
    }
    rows.push_back(row);

    // The widest config carries the full priority mix — show its
    // per-class breakdown (simulated frame clock, so the numbers are
    // machine-independent).
    if (n == 8) {
      std::cout << "per-class breakdown (sessions=8, sim clock):\n";
      for (int c = 0; c < kNumPriorityClasses; ++c) {
        const auto& cs = report.stats.classes[c];
        if (cs.submitted == 0 && cs.frames == 0) continue;
        std::cout << "  " << std::setw(11) << std::left
                  << PriorityClassToString(static_cast<PriorityClass>(c))
                  << std::right << " submitted " << cs.submitted
                  << ", frames " << cs.frames << ", sim p50/p99/p999 "
                  << Fmt(cs.sim_p50_ms, 3) << "/" << Fmt(cs.sim_p99_ms, 3)
                  << "/" << Fmt(cs.sim_p999_ms, 3) << " ms\n";
      }
    }

    std::cout << "sessions=" << n << ": wall " << Fmt(row.wall_ms)
              << " ms, " << Fmt(row.frames_per_sec, 0) << " frames/s, "
              << Fmt(row.streams_per_sec) << " streams/s, p50 "
              << Fmt(row.p50_ms, 3) << " ms, p99 " << Fmt(row.p99_ms, 3)
              << " ms, rounds " << row.rounds << ", identical="
              << (row.bit_identical ? "yes" : "NO") << "\n";
  }

  bool all_identical = true;
  for (const auto& row : rows) all_identical &= row.bit_identical;
  std::cout << "\nbit-identity across all configurations: "
            << (all_identical ? "PASS" : "FAIL") << "\n";

  // ---- Temporal skip-knob sweep: mode × budget × motion level ----
  //
  // Solo MES runs; the interesting ledger is simulated time (detector
  // inference the gate avoided), wall clock rides along because the lazy
  // backend never materializes a skipped frame. budget 0 must reproduce
  // the no-skip engine bit-for-bit — that identity gates the exit code,
  // the speedups are informational.
  std::cout << "\nskip sweep (solo MES runs, vs budget-0 baseline):\n";
  std::vector<SkipRow> skip_rows;
  bool skip_identity = true;
  std::vector<std::pair<std::string, Video>> sweep_videos;
  for (const char* ds : {"nusc-lowmotion", "nusc-night"}) {
    const DatasetSpec& sweep_spec = **DatasetCatalog::Default().Find(ds);
    const double sweep_scale =
        ScaleFor(sweep_spec, std::min(settings.target_frames, 600.0));
    SampleOptions sweep_sample;
    sweep_sample.scene_scale = sweep_scale;
    sweep_sample.seed = 29;
    sweep_videos.emplace_back(
        ds, std::move(SampleVideo(sweep_spec, sweep_sample)).value());
  }
  for (const auto& [ds, svideo] : sweep_videos) {
    StreamSpec base_spec;
    base_spec.strategy = "MES";
    base_spec.name = "sweep-base";
    base_spec.trial_seed = 300;
    base_spec.strategy_seed = 400;
    auto base_source = std::move(LazyFrameEvaluator::Create(
                                     svideo, pool, base_spec.trial_seed, {}))
                           .value();
    auto base_strategy = MakeStrategy(base_spec.strategy);
    Stopwatch base_watch;
    const RunResult base =
        std::move(RunStrategy(*base_source, base_strategy.get(),
                              MakeEngine(base_spec)))
            .value();
    const double base_wall = base_watch.ElapsedMillis();
    const double base_sim = base.breakdown.SimulatedMs();

    for (const char* mode : {"fixed", "gated", "bandit"}) {
      for (const int budget : {0, 2, 4, 8}) {
        StreamSpec spec = base_spec;
        spec.skip = MakeSkip(mode, budget);
        auto source = std::move(LazyFrameEvaluator::Create(
                                    svideo, pool, spec.trial_seed, {}))
                          .value();
        auto strategy = MakeStrategy(spec.strategy);
        Stopwatch watch;
        const RunResult run =
            std::move(RunStrategy(*source, strategy.get(), MakeEngine(spec)))
                .value();
        SkipRow row;
        row.dataset = ds;
        row.mode = mode;
        row.budget = budget;
        row.wall_ms = watch.ElapsedMillis();
        row.frames = run.frames_processed;
        row.skipped = run.skip.skipped_frames;
        row.forced = run.skip.forced_detects;
        row.wall_fps = row.wall_ms > 0.0
                           ? 1e3 * static_cast<double>(row.frames) / row.wall_ms
                           : 0.0;
        row.sim_ms = run.breakdown.SimulatedMs();
        row.sim_speedup = row.sim_ms > 0.0 ? base_sim / row.sim_ms : 0.0;
        row.wall_speedup = row.wall_ms > 0.0 ? base_wall / row.wall_ms : 0.0;
        row.avg_true_ap = run.avg_true_ap;
        row.ap_delta = run.avg_true_ap - base.avg_true_ap;
        if (budget == 0) {
          row.baseline_identical = SameRun(run, base);
          skip_identity &= row.baseline_identical;
        }
        skip_rows.push_back(row);
        std::cout << "  " << ds << " " << mode << " budget=" << budget
                  << ": skipped " << row.skipped << "/" << row.frames
                  << " (forced " << row.forced << "), sim "
                  << Fmt(row.sim_ms) << " ms (x" << Fmt(row.sim_speedup)
                  << "), wall x" << Fmt(row.wall_speedup) << ", AP "
                  << Fmt(row.avg_true_ap, 4) << " (delta "
                  << Fmt(row.ap_delta, 4) << ")"
                  << (budget == 0 ? (row.baseline_identical
                                         ? ", identical=yes"
                                         : ", identical=NO")
                                  : "")
                  << "\n";
      }
    }
  }
  std::cout << "budget-0 bit-identity to the no-skip engine: "
            << (skip_identity ? "PASS" : "FAIL") << "\n";

  // ---- Skip-enabled serving: the gate rides through sessions ----
  //
  // Four mixed-strategy skip-enabled streams on the low-motion video,
  // scheduled together; every stream must still match its solo baseline
  // (serving changes WHEN work happens, never WHAT a stream computes —
  // skip state included).
  const Video& lowmotion = sweep_videos[0].second;
  std::vector<StreamSpec> skip_specs;
  std::vector<RunResult> skip_solo;
  for (size_t i = 0; i < 4; ++i) {
    StreamSpec spec = MakeSpec(i);
    spec.name = "skip-" + spec.name;
    spec.skip = MakeSkip(i % 2 == 0 ? "gated" : "bandit", 4);
    auto source = std::move(LazyFrameEvaluator::Create(lowmotion, pool,
                                                       spec.trial_seed, {}))
                      .value();
    auto strategy = MakeStrategy(spec.strategy);
    skip_solo.push_back(
        std::move(RunStrategy(*source, strategy.get(), MakeEngine(spec)))
            .value());
    skip_specs.push_back(std::move(spec));
  }
  ServeOptions skip_opt;
  skip_opt.max_sessions = 4;
  skip_opt.queue_depth = 0;
  skip_opt.quantum_ms = 150.0;
  skip_opt.max_frames_per_round = 16;
  skip_opt.parallelism = 0;
  StreamScheduler skip_scheduler(skip_opt);
  for (size_t i = 0; i < skip_specs.size(); ++i) {
    auto id = skip_scheduler.Submit(
        std::move(BuildSession(lowmotion, pool, skip_specs[i])).value());
    if (!id.ok()) {
      std::cerr << "skip-serve submit failed: " << id.status().ToString()
                << "\n";
      return 1;
    }
  }
  const ServeReport skip_report =
      std::move(skip_scheduler.RunUntilDrained()).value();
  bool serve_skip_identical = true;
  for (size_t i = 0; i < skip_specs.size(); ++i) {
    if (!skip_report.streams[i].status.ok() ||
        !SameRun(skip_solo[i], skip_report.streams[i].result)) {
      serve_skip_identical = false;
    }
  }
  std::cout << "\nskip-enabled serving: " << skip_report.stats.frames
            << " frames (" << skip_report.stats.skipped_frames
            << " skipped) across 4 streams, identical to solo: "
            << (serve_skip_identical ? "PASS" : "FAIL") << "\n";

  // ---- Sharded fleet sweep: shard count × {clean, chaos} ----
  //
  // 16 equal-length streams (sharing seeds with the 8 solo baselines)
  // served by 1/2/4/8 shard threads; placement deals equal lengths
  // round-robin in submission order, so the first stream lands on shard 0.
  // The chaos variant migrates that stream onto the last shard at round 2
  // and kills that shard at its round 10, so the migrated stream and the
  // shard's other sessions all fail over to survivors. Wall-clock scaling
  // is whatever hardware_threads allows; the exit code gates bit-identity
  // of every completing stream and the chaos rows' migration ledger.
  std::cout << "\nsharded fleet sweep (16 streams):\n";
  std::vector<StreamSpec> fleet_specs;
  for (size_t j = 0; j < 16; ++j) {
    StreamSpec s = MakeSpec(j % 8);
    s.name = "fleet-" + std::to_string(j) + "-" + s.strategy;
    fleet_specs.push_back(std::move(s));
  }
  std::vector<FleetRow> fleet_rows;
  bool fleet_identical = true;
  bool fleet_ledger = true;
  for (const bool chaos : {false, true}) {
    for (const int n : {1, 2, 4, 8}) {
      if (chaos && n < 2) continue;  // kill + migrate need a survivor
      FleetOptions fopt;
      fopt.num_shards = n;
      fopt.max_sessions = 16;
      fopt.max_restarts = 2;
      fopt.shard.max_sessions = 16;  // any survivor can absorb the fleet
      fopt.shard.queue_depth = 0;
      fopt.shard.quantum_ms = 150.0;
      fopt.shard.max_frames_per_round = 8;
      fopt.shard.parallelism = 1;

      std::vector<FleetStreamSpec> specs;
      for (const auto& s : fleet_specs) {
        specs.push_back(
            {s.name, [&video, &pool, s] {
               return BuildSession(video, pool, s);
             }});
      }
      ChaosScript script;
      if (chaos) {
        ChaosEvent mig;
        mig.kind = ChaosEvent::Kind::kMigrate;
        mig.at_round = 2;
        mig.shard = 0;
        mig.target_shard = n - 1;
        mig.stream = fleet_specs.front().name;
        script.events.push_back(mig);
        ChaosEvent kill;
        kill.kind = ChaosEvent::Kind::kKillShard;
        kill.at_round = 10;
        kill.shard = n - 1;
        script.events.push_back(kill);
      }

      ShardedServer server(fopt);
      auto freport_or = server.Run(std::move(specs), script);
      if (!freport_or.ok()) {
        std::cerr << "fleet run failed: "
                  << freport_or.status().ToString() << "\n";
        return 1;
      }
      const FleetReport freport = std::move(freport_or).value();

      FleetRow row;
      row.shards = n;
      row.chaos = chaos;
      row.wall_ms = freport.stats.wall_ms;
      for (size_t j = 0; j < freport.streams.size(); ++j) {
        const FleetStreamReport& fsr = freport.streams[j];
        // Restart budget and survivor capacity are sized so every stream
        // completes even under the chaos script; anything else is a
        // correctness failure, not noise.
        if (!fsr.report.status.ok() ||
            !SameRun(solo[j % 8], fsr.report.result)) {
          row.bit_identical = false;
        }
        if (fsr.report.status.ok()) {
          row.frames += fsr.report.result.frames_processed;
        }
      }
      row.frames_per_sec =
          row.wall_ms > 0.0
              ? 1e3 * static_cast<double>(row.frames) / row.wall_ms
              : 0.0;
      row.completed = freport.stats.completed_streams;
      row.failed = freport.stats.failed_streams;
      row.shards_killed = freport.stats.shards_killed;
      row.failover_streams = freport.stats.failover_streams;
      row.migrations_attempted = freport.stats.migration.attempted;
      row.migrations_completed = freport.stats.migration.completed;
      row.migration_p50_ms = freport.stats.migration.latency_p50_ms;
      row.migration_p99_ms = freport.stats.migration.latency_p99_ms;
      fleet_identical &= row.bit_identical;
      // Shard 0's round-2 migrate is handled before shard n-1's round-10
      // kill, so every chaos row completes exactly one handoff.
      if (chaos) {
        fleet_ledger &= row.migrations_attempted == 1 &&
                        row.migrations_completed == 1;
      }
      fleet_rows.push_back(row);

      std::cout << "  shards=" << n << (chaos ? " chaos" : " clean ")
                << ": wall " << Fmt(row.wall_ms) << " ms, "
                << Fmt(row.frames_per_sec, 0) << " frames/s, completed "
                << row.completed << "/" << fleet_specs.size();
      if (chaos) {
        std::cout << ", killed " << row.shards_killed << ", failover "
                  << row.failover_streams << ", migrations "
                  << row.migrations_completed << "/"
                  << row.migrations_attempted << " (p50 "
                  << Fmt(row.migration_p50_ms, 3) << " ms, p99 "
                  << Fmt(row.migration_p99_ms, 3) << " ms)";
      }
      std::cout << ", identical=" << (row.bit_identical ? "yes" : "NO")
                << "\n";
    }
  }
  std::cout << "fleet bit-identity across all shard configurations: "
            << (fleet_identical ? "PASS" : "FAIL") << "\n";
  std::cout << "fleet chaos rows complete their one migration: "
            << (fleet_ledger ? "PASS" : "FAIL") << "\n";

  FILE* json = std::fopen("BENCH_serve.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"serve\",\n  \"frames_per_video\": %zu,\n"
               "  \"pool_m\": %zu,\n  \"hardware_threads\": %u,\n"
               "  \"solo_8_runs_ms\": %.3f,\n"
               "  \"bit_identical\": %s,\n  \"configs\": [\n",
               video.size(), pool.size(),
               std::thread::hardware_concurrency(), solo_ms,
               all_identical ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ConfigRow& r = rows[i];
    std::fprintf(
        json,
        "    {\"sessions\": %d, \"wall_ms\": %.3f, \"frames\": %llu,\n"
        "     \"frames_per_sec\": %.1f, \"streams_per_sec\": %.3f,\n"
        "     \"frame_p50_ms\": %.4f, \"frame_p99_ms\": %.4f,\n"
        "     \"rounds\": %llu, \"bit_identical\": %s}%s\n",
        r.sessions, r.wall_ms, static_cast<unsigned long long>(r.frames),
        r.frames_per_sec, r.streams_per_sec, r.p50_ms, r.p99_ms,
        static_cast<unsigned long long>(r.rounds),
        r.bit_identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"skip_sweep\": [\n");
  for (size_t i = 0; i < skip_rows.size(); ++i) {
    const SkipRow& r = skip_rows[i];
    std::fprintf(
        json,
        "    {\"dataset\": \"%s\", \"mode\": \"%s\", \"budget\": %d,\n"
        "     \"frames\": %llu, \"skipped\": %llu, \"forced_detects\": %llu,\n"
        "     \"wall_ms\": %.3f, \"wall_fps\": %.1f, \"sim_ms\": %.3f,\n"
        "     \"sim_speedup\": %.3f, \"wall_speedup\": %.3f,\n"
        "     \"avg_true_ap\": %.6f, \"ap_delta\": %.6f,\n"
        "     \"baseline_identical\": %s}%s\n",
        r.dataset.c_str(), r.mode.c_str(), r.budget,
        static_cast<unsigned long long>(r.frames),
        static_cast<unsigned long long>(r.skipped),
        static_cast<unsigned long long>(r.forced), r.wall_ms, r.wall_fps,
        r.sim_ms, r.sim_speedup, r.wall_speedup, r.avg_true_ap, r.ap_delta,
        r.baseline_identical ? "true" : "false",
        i + 1 < skip_rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"skip_serve\": {\"streams\": 4, \"frames\": %llu,\n"
               "    \"skipped_frames\": %llu, \"identical\": %s},\n"
               "  \"shards\": [\n",
               static_cast<unsigned long long>(skip_report.stats.frames),
               static_cast<unsigned long long>(
                   skip_report.stats.skipped_frames),
               serve_skip_identical ? "true" : "false");
  for (size_t i = 0; i < fleet_rows.size(); ++i) {
    const FleetRow& r = fleet_rows[i];
    std::fprintf(
        json,
        "    {\"shards\": %d, \"chaos\": %s, \"wall_ms\": %.3f,\n"
        "     \"frames\": %llu, \"frames_per_sec\": %.1f,\n"
        "     \"completed_streams\": %llu, \"failed_streams\": %llu,\n"
        "     \"shards_killed\": %d, \"failover_streams\": %llu,\n"
        "     \"migrations_attempted\": %llu,"
        " \"migrations_completed\": %llu,\n"
        "     \"migration_p50_ms\": %.4f, \"migration_p99_ms\": %.4f,\n"
        "     \"bit_identical\": %s}%s\n",
        r.shards, r.chaos ? "true" : "false", r.wall_ms,
        static_cast<unsigned long long>(r.frames), r.frames_per_sec,
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed), r.shards_killed,
        static_cast<unsigned long long>(r.failover_streams),
        static_cast<unsigned long long>(r.migrations_attempted),
        static_cast<unsigned long long>(r.migrations_completed),
        r.migration_p50_ms, r.migration_p99_ms,
        r.bit_identical ? "true" : "false",
        i + 1 < fleet_rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"fleet_bit_identical\": %s,\n"
               "  \"skip_budget0_identical\": %s\n}\n",
               fleet_identical ? "true" : "false",
               skip_identity ? "true" : "false");
  std::fclose(json);
  std::cout << "wrote BENCH_serve.json\n";

  bool trace_valid = true;
  if (!trace_out.empty()) {
    Status ws = WriteChromeTraceFile(obs.trace(), trace_out);
    if (!ws.ok()) {
      std::cerr << "trace write failed: " << ws.ToString() << "\n";
      trace_valid = false;
    } else {
      std::ifstream in(trace_out);
      std::ostringstream buf;
      buf << in.rdbuf();
      Status vs = ValidateChromeTrace(buf.str());
      trace_valid = vs.ok();
      std::cout << "wrote " << trace_out << " ("
                << obs.trace().event_count() << " events, "
                << obs.trace().dropped_events() << " dropped), validator: "
                << (trace_valid ? "PASS" : vs.ToString()) << "\n";
    }
  }
  return (all_identical && skip_identity && serve_skip_identical &&
          fleet_identical && fleet_ledger && trace_valid)
             ? 0
             : 1;
}
