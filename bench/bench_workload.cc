// SLO-aware overload control under a trace-driven traffic and fault
// storm: the degradation ladder's end-to-end exercise.
//
// A small text workload trace (parsed by the real parser — this bench is
// also the parser's round-trip check) scripts bursty heavy-tailed session
// arrivals, a diurnal load curve, gradual concept drift, and an error-
// fault storm over a model subset. The bench then runs the plan three
// ways:
//
//   1. Overload control ON, serial stepping (parallelism 1).
//   2. Overload control ON, all cores.
//      -> the degradation ledgers and per-class deterministic stats of
//         the two runs must be IDENTICAL (the ladder senses only the
//         simulated clock, so worker count cannot move it), the ladder
//         must actually step (peak level >= 1) and fully recover (final
//         level 0), the interactive class must meet its p99 SLO and shed
//         budget while level-3 shedding lands on batch.
//   3. Overload control OFF.
//      -> every completing stream must be bit-identical to its solo
//         RunStrategy baseline: the controller's OFF state is free.
//
// A fourth section replays a multi-day diurnal trace (four day/night
// cycles, gradual drift ramp, no storms — see
// bench/traces/diurnal_multiday.vqework) to check arrival shaping, the
// drift ramp, and long-horizon scheduler determinism.
//
// Emits BENCH_workload.json (per-class percentiles, shed rates, the
// transition ledger, the diurnal summary, and the verdicts); the
// verdicts gate the exit code. `--trace-out <path>` instruments the
// serial overload run and writes validated Chrome trace JSON.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "models/model_zoo.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "serve/overload.h"
#include "serve/scheduler.h"
#include "workload/trace.h"
#include "workload/workload.h"

using namespace vqe;
using namespace vqe::bench;

namespace {

// The scripted workload. Interactive carries a real p99 SLO and a zero
// shed budget; batch tolerates unbounded shedding. The storm turns two
// of the five models into hard-error emitters for a third of the run,
// while the arrival burst (bounded pareto, diurnal peak at round 10)
// piles up the queue — queue pressure is what walks the ladder down, and
// the post-peak taper is what lets it climb back while sessions are
// still live (recovery only ticks on active rounds).
const char kTrace[] =
    "VQEWORK 1\n"
    "seed 1234\n"
    "rounds 40\n"
    "dataset nusc-night\n"
    "scale 0.05\n"
    "models 5\n"
    "arrivals rate 1.0 alpha 1.3 cap 5\n"
    "diurnal period 40 amplitude 0.6\n"
    "drift lambda0 0.05 lambda1 0.3\n"
    "class interactive share 0.45 frames 24 skip bandit 3\n"
    "class standard share 0.3 frames 32 skip gated 2\n"
    "class batch share 0.25 frames 48 skip off 0\n"
    "slo interactive p99 120 shed 0.0\n"
    "slo batch p99 0 shed 1.0\n"
    "storm rounds 8 20 models 3 kind error rate 1.0\n"
    "storm rounds 10 16 models 16 kind spike rate 0.3\n"
    "end\n";

// Multi-day diurnal workload: four day/night cycles with a gradual drift
// ramp and no storms. Mirrors bench/traces/diurnal_multiday.vqework
// (which `--trace <path>` loads instead, round-tripping the file through
// the real parser).
const char kDiurnalTrace[] =
    "VQEWORK 1\n"
    "seed 4242\n"
    "rounds 96\n"
    "dataset nusc-night\n"
    "scale 0.05\n"
    "models 5\n"
    "arrivals rate 0.5 alpha 1.3 cap 4\n"
    "diurnal period 24 amplitude 0.7\n"
    "drift lambda0 0.02 lambda1 0.35\n"
    "class interactive share 0.4 frames 24 skip bandit 3\n"
    "class standard share 0.35 frames 32 skip gated 2\n"
    "class batch share 0.25 frames 48 skip off 0\n"
    "slo interactive p99 120 shed 0.0\n"
    "slo batch p99 0 shed 1.0\n"
    "end\n";

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

bool SamePlan(const WorkloadPlan& a, const WorkloadPlan& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    const SessionPlan& x = a.sessions[i];
    const SessionPlan& y = b.sessions[i];
    if (x.arrival_round != y.arrival_round || x.name != y.name ||
        x.priority != y.priority || x.frames != y.frames ||
        x.trial_seed != y.trial_seed || x.strategy_seed != y.strategy_seed ||
        x.video_seed != y.video_seed || x.lambda0 != y.lambda0 ||
        x.lambda1 != y.lambda1 || x.scripts.size() != y.scripts.size()) {
      return false;
    }
  }
  return true;
}

bool SameLedger(const std::vector<DegradationTransition>& a,
                const std::vector<DegradationTransition>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Per-class deterministic stats agree between two runs.
bool SameClassStats(const ServeStats& a, const ServeStats& b) {
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const auto& x = a.classes[c];
    const auto& y = b.classes[c];
    if (x.submitted != y.submitted || x.admitted != y.admitted ||
        x.shed_submissions != y.shed_submissions || x.frames != y.frames ||
        x.sim_p50_ms != y.sim_p50_ms || x.sim_p99_ms != y.sim_p99_ms ||
        x.sim_p999_ms != y.sim_p999_ms) {
      return false;
    }
  }
  return true;
}

ServeOptions BaseServe() {
  ServeOptions o;
  o.max_sessions = 10;
  o.queue_depth = 128;  // deep enough that interactive is never queue-shed
  o.quantum_ms = 60.0;
  o.max_frames_per_round = 8;
  o.overload.window = 128;
  o.overload.min_samples = 16;
  o.overload.queue_trigger = 5;
  o.overload.dwell_rounds = 2;
  o.overload.recover_rounds = 3;
  o.overload.skip_boost = 4;
  o.overload.shrink_mask = 0x3;  // keep the two cheapest heads
  return o;
}

void PrintClassTable(const ServeStats& stats) {
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const auto& cs = stats.classes[c];
    if (cs.submitted == 0 && cs.frames == 0) continue;
    std::cout << "  " << PriorityClassToString(static_cast<PriorityClass>(c))
              << ": submitted " << cs.submitted << ", admitted "
              << cs.admitted << ", shed " << cs.shed_submissions
              << " (rate " << Fmt(cs.shed_rate, 3) << "), frames "
              << cs.frames << ", sim p50/p99/p999 " << Fmt(cs.sim_p50_ms, 3)
              << "/" << Fmt(cs.sim_p99_ms, 3) << "/"
              << Fmt(cs.sim_p999_ms, 3) << " ms\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --trace <path>     load the multi-day diurnal trace from a file
  //                    instead of the inline copy (round-trips
  //                    bench/traces/diurnal_multiday.vqework through the
  //                    real parser).
  // --trace-out <path> enable observability on the serial overload run
  //                    and write its Chrome trace JSON there (validated
  //                    before the bench exits). The parallel run stays
  //                    uninstrumented, so the ladder-determinism verdict
  //                    doubles as an obs-enabled-vs-disabled identity
  //                    check.
  std::string diurnal_text = kDiurnalTrace;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      std::ifstream in(argv[++i]);
      if (!in) {
        std::cerr << "cannot read trace file " << argv[i] << "\n";
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      diurnal_text = buf.str();
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::cerr << "usage: bench_workload [--trace <path>] "
                   "[--trace-out <path>]\n";
      return 1;
    }
  }

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("SLO-aware overload control (trace-driven)",
              "workload engine + degradation ladder", settings);

  Observability obs;

  // ---- Parse, round-trip, and expand the trace -------------------------
  auto trace_or = ParseWorkloadTrace(kTrace);
  if (!trace_or.ok()) {
    std::cerr << "trace parse failed: " << trace_or.status().ToString()
              << "\n";
    return 1;
  }
  const WorkloadTrace trace = std::move(trace_or).value();
  auto reparsed = ParseWorkloadTrace(FormatWorkloadTrace(trace));
  if (!reparsed.ok()) {
    std::cerr << "trace round-trip failed: " << reparsed.status().ToString()
              << "\n";
    return 1;
  }
  const WorkloadPlan plan = BuildWorkloadPlan(trace);
  const bool plan_deterministic =
      SamePlan(plan, BuildWorkloadPlan(trace)) &&
      SamePlan(plan, BuildWorkloadPlan(std::move(reparsed).value()));
  uint64_t stormy = 0;
  for (const auto& s : plan.sessions) stormy += s.stormy() ? 1 : 0;
  std::cout << "plan: " << plan.sessions.size() << " sessions over "
            << trace.rounds << " rounds (" << stormy << " storm-afflicted, "
            << plan.capped_arrivals << " capped), deterministic="
            << (plan_deterministic ? "yes" : "NO") << "\n\n";

  auto pool_or = BuildPoolForDataset(trace.dataset, trace.models);
  if (!pool_or.ok()) {
    std::cerr << "pool build failed: " << pool_or.status().ToString() << "\n";
    return 1;
  }
  const DetectorPool pool = std::move(pool_or).value();

  // ---- Overload control ON, two worker counts --------------------------
  WorkloadRunReport on[2];
  for (int i = 0; i < 2; ++i) {
    ServeOptions serve = MakeServeOptions(trace, BaseServe(), true);
    serve.parallelism = i == 0 ? 1 : 0;  // serial, then all cores
    if (i == 0 && !trace_out.empty()) serve.obs = obs.handle();
    auto report = RunWorkloadOnScheduler(plan, pool, serve);
    if (!report.ok()) {
      std::cerr << "overload run failed: " << report.status().ToString()
                << "\n";
      return 1;
    }
    on[i] = std::move(report).value();
  }
  const ServeStats& stats = on[0].serve.stats;

  std::cout << "overload-controlled run (serial): rounds " << stats.rounds
            << ", frames " << stats.frames << " (" << stats.skipped_frames
            << " skipped), submitted " << on[0].submitted << ", shed "
            << on[0].shed << "\n";
  PrintClassTable(stats);
  std::cout << "  ladder: peak level " << stats.peak_degradation_level
            << ", degraded rounds " << stats.degraded_rounds << ", final "
            << stats.degradation_level << ", transitions "
            << stats.degradations.size() << "\n";
  for (const DegradationTransition& t : stats.degradations) {
    std::cout << "    round " << t.round << ": " << t.from << " -> " << t.to
              << (t.queue_triggered
                      ? " (queue depth " + std::to_string(t.queue_depth) + ")"
                  : t.trigger_class >= 0
                      ? std::string(" (") +
                            PriorityClassToString(
                                static_cast<PriorityClass>(t.trigger_class)) +
                            " p99 " + Fmt(t.observed_p99_ms, 3) + " ms)"
                      : " (recovery)")
              << "\n";
  }

  const bool ladder_deterministic =
      SameLedger(stats.degradations, on[1].serve.stats.degradations) &&
      SameClassStats(stats, on[1].serve.stats);
  const bool ladder_stepped = stats.peak_degradation_level >= 1;
  const bool ladder_recovered = stats.degradation_level == 0;
  const auto& islo = trace.slo[PriorityClassIndex(PriorityClass::kInteractive)];
  const auto& icls = stats.classes[PriorityClassIndex(
      PriorityClass::kInteractive)];
  const auto& bcls = stats.classes[PriorityClassIndex(PriorityClass::kBatch)];
  const bool interactive_slo_met =
      (islo.p99_ms <= 0.0 || icls.sim_p99_ms <= islo.p99_ms) &&
      icls.shed_rate <= islo.shed_budget;
  // Level-3 shedding must land on batch, never on interactive.
  const bool batch_absorbed =
      icls.shed_submissions == 0 &&
      (stats.peak_degradation_level < 3 || bcls.shed_submissions > 0);

  std::cout << "\nladder deterministic across worker counts: "
            << (ladder_deterministic ? "PASS" : "FAIL") << "\n"
            << "ladder stepped and recovered: "
            << (ladder_stepped && ladder_recovered ? "PASS" : "FAIL") << "\n"
            << "interactive SLO met (p99 + shed budget): "
            << (interactive_slo_met ? "PASS" : "FAIL") << "\n"
            << "batch absorbed the shedding: "
            << (batch_absorbed ? "PASS" : "FAIL") << "\n";

  // ---- Overload control OFF: bit-identity to solo baselines ------------
  ServeOptions off_serve = MakeServeOptions(trace, BaseServe(), false);
  off_serve.parallelism = 0;
  auto off_or = RunWorkloadOnScheduler(plan, pool, off_serve);
  if (!off_or.ok()) {
    std::cerr << "baseline run failed: " << off_or.status().ToString()
              << "\n";
    return 1;
  }
  const WorkloadRunReport off = std::move(off_or).value();
  bool bit_identical = true;
  size_t compared = 0;
  for (const StreamReport& sr : off.serve.streams) {
    if (!sr.status.ok()) continue;  // shed or retired-on-error: no baseline
    const SessionPlan* sp = nullptr;
    for (const SessionPlan& s : plan.sessions) {
      if (s.name == sr.name) {
        sp = &s;
        break;
      }
    }
    if (sp == nullptr) {
      bit_identical = false;
      continue;
    }
    auto solo = RunWorkloadSessionSolo(plan, *sp, pool);
    if (!solo.ok() || !SameRun(std::move(solo).value(), sr.result)) {
      bit_identical = false;
      std::cout << "  MISMATCH: " << sr.name << "\n";
    }
    ++compared;
  }
  std::cout << "controller-off bit-identity to solo baselines ("
            << compared << " streams): " << (bit_identical ? "PASS" : "FAIL")
            << "\n";

  // ---- Multi-day diurnal sweep -----------------------------------------
  //
  // Four day/night cycles with a gradual drift ramp: checks that the
  // planner actually shapes arrivals (day half of each cycle outdraws the
  // night half), that the drift ramp lands in the plan monotonically, and
  // that the scheduler stays deterministic across worker counts on a
  // horizon four times longer than the storm trace.
  auto diurnal_or = ParseWorkloadTrace(diurnal_text);
  if (!diurnal_or.ok()) {
    std::cerr << "diurnal trace parse failed: "
              << diurnal_or.status().ToString() << "\n";
    return 1;
  }
  const WorkloadTrace diurnal = std::move(diurnal_or).value();
  const double cycles =
      static_cast<double>(diurnal.rounds) / diurnal.diurnal_period;
  const WorkloadPlan dplan = BuildWorkloadPlan(diurnal);
  const bool dplan_deterministic = SamePlan(dplan, BuildWorkloadPlan(diurnal));

  uint64_t day_arrivals = 0, night_arrivals = 0;
  for (const SessionPlan& s : dplan.sessions) {
    const double phase = std::fmod(static_cast<double>(s.arrival_round),
                                   diurnal.diurnal_period) /
                         diurnal.diurnal_period;
    (phase < 0.5 ? day_arrivals : night_arrivals) += 1;  // sin > 0 = day
  }
  const bool diurnal_shaped =
      cycles >= 3.0 && day_arrivals > night_arrivals;
  const bool drift_ramped =
      !dplan.sessions.empty() &&
      dplan.sessions.front().lambda0 < dplan.sessions.back().lambda1;

  WorkloadRunReport don[2];
  for (int i = 0; i < 2; ++i) {
    ServeOptions serve = MakeServeOptions(diurnal, BaseServe(), true);
    serve.parallelism = i == 0 ? 1 : 0;
    auto report = RunWorkloadOnScheduler(dplan, pool, serve);
    if (!report.ok()) {
      std::cerr << "diurnal run failed: " << report.status().ToString()
                << "\n";
      return 1;
    }
    don[i] = std::move(report).value();
  }
  const ServeStats& dstats = don[0].serve.stats;
  const bool diurnal_deterministic =
      dplan_deterministic &&
      SameLedger(dstats.degradations, don[1].serve.stats.degradations) &&
      SameClassStats(dstats, don[1].serve.stats);

  std::cout << "\nmulti-day diurnal sweep: " << dplan.sessions.size()
            << " sessions over " << diurnal.rounds << " rounds ("
            << Fmt(cycles, 1) << " cycles), day/night arrivals "
            << day_arrivals << "/" << night_arrivals << ", drift "
            << Fmt(diurnal.drift_lambda0, 2) << " -> "
            << Fmt(diurnal.drift_lambda1, 2) << "\n";
  PrintClassTable(dstats);
  std::cout << "  ladder: peak level " << dstats.peak_degradation_level
            << ", degraded rounds " << dstats.degraded_rounds << ", final "
            << dstats.degradation_level << "\n"
            << "diurnal shaping (>= 3 cycles, day > night): "
            << (diurnal_shaped ? "PASS" : "FAIL") << "\n"
            << "drift ramp present in plan: "
            << (drift_ramped ? "PASS" : "FAIL") << "\n"
            << "diurnal run deterministic across worker counts: "
            << (diurnal_deterministic ? "PASS" : "FAIL") << "\n";

  // ---- JSON ------------------------------------------------------------
  FILE* json = std::fopen("BENCH_workload.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_workload.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"workload\",\n  \"sessions\": %zu,\n"
               "  \"storm_sessions\": %llu,\n  \"rounds\": %llu,\n"
               "  \"frames\": %llu,\n  \"skipped_frames\": %llu,\n"
               "  \"submitted\": %llu,\n  \"shed\": %llu,\n"
               "  \"classes\": [\n",
               plan.sessions.size(), static_cast<unsigned long long>(stormy),
               static_cast<unsigned long long>(stats.rounds),
               static_cast<unsigned long long>(stats.frames),
               static_cast<unsigned long long>(stats.skipped_frames),
               static_cast<unsigned long long>(on[0].submitted),
               static_cast<unsigned long long>(on[0].shed));
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const auto& cs = stats.classes[c];
    std::fprintf(
        json,
        "    {\"class\": \"%s\", \"submitted\": %llu, \"admitted\": %llu,\n"
        "     \"shed\": %llu, \"shed_rate\": %.4f, \"frames\": %llu,\n"
        "     \"sim_p50_ms\": %.4f, \"sim_p99_ms\": %.4f,"
        " \"sim_p999_ms\": %.4f}%s\n",
        PriorityClassToString(static_cast<PriorityClass>(c)),
        static_cast<unsigned long long>(cs.submitted),
        static_cast<unsigned long long>(cs.admitted),
        static_cast<unsigned long long>(cs.shed_submissions), cs.shed_rate,
        static_cast<unsigned long long>(cs.frames), cs.sim_p50_ms,
        cs.sim_p99_ms, cs.sim_p999_ms,
        c + 1 < kNumPriorityClasses ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"ladder\": {\"peak_level\": %d,"
               " \"final_level\": %d,\n"
               "    \"degraded_rounds\": %llu, \"transitions\": [\n",
               stats.peak_degradation_level, stats.degradation_level,
               static_cast<unsigned long long>(stats.degraded_rounds));
  for (size_t i = 0; i < stats.degradations.size(); ++i) {
    const DegradationTransition& t = stats.degradations[i];
    std::fprintf(json,
                 "      {\"round\": %llu, \"from\": %d, \"to\": %d,"
                 " \"trigger_class\": %d,\n"
                 "       \"queue_triggered\": %s, \"observed_p99_ms\": %.4f,"
                 " \"queue_depth\": %d}%s\n",
                 static_cast<unsigned long long>(t.round), t.from, t.to,
                 t.trigger_class, t.queue_triggered ? "true" : "false",
                 t.observed_p99_ms, t.queue_depth,
                 i + 1 < stats.degradations.size() ? "," : "");
  }
  std::fprintf(
      json,
      "    ]},\n  \"diurnal\": {\n"
      "    \"sessions\": %zu, \"rounds\": %llu, \"cycles\": %.2f,\n"
      "    \"day_arrivals\": %llu, \"night_arrivals\": %llu,\n"
      "    \"drift_lambda0\": %.3f, \"drift_lambda1\": %.3f,\n"
      "    \"frames\": %llu, \"peak_level\": %d\n  },\n",
      dplan.sessions.size(), static_cast<unsigned long long>(diurnal.rounds),
      cycles, static_cast<unsigned long long>(day_arrivals),
      static_cast<unsigned long long>(night_arrivals),
      diurnal.drift_lambda0, diurnal.drift_lambda1,
      static_cast<unsigned long long>(dstats.frames),
      dstats.peak_degradation_level);
  std::fprintf(
      json,
      "  \"verdicts\": {\n"
      "    \"plan_deterministic\": %s,\n"
      "    \"ladder_deterministic\": %s,\n"
      "    \"ladder_stepped\": %s,\n    \"ladder_recovered\": %s,\n"
      "    \"interactive_slo_met\": %s,\n    \"batch_absorbed\": %s,\n"
      "    \"bit_identical_when_disabled\": %s,\n"
      "    \"diurnal_shaped\": %s,\n    \"diurnal_drift_ramped\": %s,\n"
      "    \"diurnal_deterministic\": %s\n  }\n}\n",
      plan_deterministic ? "true" : "false",
      ladder_deterministic ? "true" : "false",
      ladder_stepped ? "true" : "false", ladder_recovered ? "true" : "false",
      interactive_slo_met ? "true" : "false",
      batch_absorbed ? "true" : "false", bit_identical ? "true" : "false",
      diurnal_shaped ? "true" : "false", drift_ramped ? "true" : "false",
      diurnal_deterministic ? "true" : "false");
  std::fclose(json);
  std::cout << "wrote BENCH_workload.json\n";

  // ---- Chrome trace export (--trace-out) -------------------------------
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

  const bool pass = plan_deterministic && ladder_deterministic &&
                    ladder_stepped && ladder_recovered &&
                    interactive_slo_met && batch_absorbed && bit_identical &&
                    diurnal_shaped && drift_ramped && diurnal_deterministic &&
                    trace_valid;
  return pass ? 0 : 1;
}
