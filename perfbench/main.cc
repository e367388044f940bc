// vqe_perfbench: the repository's benchmark program.
//
//   vqe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   vqe_perfbench --setup-only --workload <name> --seed <n>
//
// Untraced (--trace 0): set up the workload once, run its closed loop for
// --seconds, check every completed request's output against the
// workload's reference, and print the end-to-end metrics. setup_s is the
// time from process start to the first timed request; run.py repeats the
// set-up in --setup-only processes and reports the median.
// Traced (--trace 1): after the set-up, repeat pairs of fixed-size passes
// — one bare, one over the timing wrappers — until --seconds have passed;
// print per-layer metrics averaged per pass, the tracing overhead, and
// fail when the wrapped pass's outputs differ from the bare pass's or when
// an exact work counter differs between passes or from an earlier run of
// the same binary and seed.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// (with --setup-only: "setup_s <seconds>"). The exit code is 0 only when
// every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"frames_per_s", "frames/s"}, {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},     {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.sample_ms", "ms"},
    {"sim.frames", "count"},
    {"models.detect_calls", "count"},
    {"models.detect_ms", "ms"},
    {"models.boxes", "count"},
    {"core.matrix_build_ms", "ms"},
    {"core.matrix_cells", "count"},
    {"core.eval_self_ms", "ms"},
    {"core.lazy_frames", "count"},
    {"core.lazy_cells", "count"},
    {"core.lazy_memo_hits", "count"},
    {"core.lazy_frame_ms", "ms"},
    {"core.lazy_cell_ms", "ms"},
    {"core.select_ms", "ms"},
    {"core.observe_ms", "ms"},
    {"core.select_calls", "count"},
    {"core.engine_self_ms", "ms"},
    {"temporal.skipped_frames", "count"},
    {"temporal.forced_detects", "count"},
    {"temporal.propagated_ms", "ms"},
    {"serve.rounds", "count"},
    {"serve.round_ms_p50", "ms"},
    {"serve.round_ms_p90", "ms"},
    {"serve.frames_per_round", "frames"},
    {"serve.queue_wait_rounds", "rounds"},
    {"serve.session_create_ms", "ms"},
    {"serve.busy_share", "ratio"},
    {"fleet.run_ms", "ms"},
    {"fleet.shard_frames_spread", "ratio"},
    {"fleet.shard_busy_share", "ratio"},
    {"fleet.session_create_ms", "ms"},
    {"query.parse_ms", "ms"},
    {"query.execute_ms", "ms"},
    {"query.sample_ms", "ms"},
    {"query.frames", "count"},
    {"query.ensemble_size_mean", "models"},
    {"trace.overhead_share", "ratio"},
};

/// Deterministic per-pass work counters: equal in every pass of one seed.
constexpr const char* kExactCounters[] = {
    "sim.frames",          "models.detect_calls",
    "models.boxes",        "core.matrix_cells",
    "core.lazy_frames",    "core.lazy_cells",
    "core.lazy_memo_hits", "core.select_calls",
    "temporal.skipped_frames", "temporal.forced_detects",
    "serve.rounds",        "query.frames",
};

struct Args {
  std::string self;  // argv[0]
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".bench_build";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string write_digests;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  a->self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--commit") a->commit = v;
    else if (k == "--source-digest") a->source_digest = v;
    else if (k == "--write-query-digests") a->write_digests = v;
    else return false;
  }
  return !a->write_digests.empty() ||
         (!a->workload.empty() && a->seconds > 0);
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "offline_eager") return MakeOfflineEager(a.seed);
  if (a.workload == "serve_closed") return MakeServeClosed(a.seed);
  if (a.workload == "fleet_batch") return MakeFleetBatch(a.seed);
  if (a.workload == "query_mix") {
    return MakeQueryMix(a.seed, "perfbench/query_digests.tsv");
  }
  return nullptr;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a of the executable at `path`, so cached counters belong to one
/// build.
uint64_t BinaryDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Digest d;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, buf + i, std::min<std::streamsize>(8, in.gcount() - i));
      d.U64(w);
    }
  }
  return d.value();
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricDef* defs, size_t n,
                 const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    os << (i ? ", " : "") << '"' << defs[i].name << "\": {\"value\": "
       << Num(v) << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void PrintMetric(const MetricDef& def, double value, const std::string& note) {
  std::printf("  %-28s %16.4f %-9s%s\n", def.name, value, def.unit,
              note.c_str());
}

/// Per-layer metrics of one traced pass.
std::map<std::string, double> PassMetrics(const Workload& w,
                                          const LoopResult& pass,
                                          const Totals& t) {
  std::map<std::string, double> m = pass.layer;
  m["models.detect_calls"] = t.count(Counter::kDetectCalls);
  m["models.detect_ms"] = t.ms(Layer::kDetect);
  m["models.boxes"] = t.count(Counter::kBoxes);
  m["core.matrix_build_ms"] = t.ms(Layer::kMatrixBuild);
  m["core.lazy_frames"] = t.count(Counter::kLazyFrames);
  m["core.lazy_cells"] = t.count(Counter::kLazyCells);
  m["core.lazy_memo_hits"] = t.count(Counter::kLazyMemoHits);
  m["core.lazy_frame_ms"] = t.ms(Layer::kLazyFrame);
  m["core.lazy_cell_ms"] = t.ms(Layer::kLazyCell);
  m["core.select_ms"] = t.ms(Layer::kSelect);
  m["core.observe_ms"] = t.ms(Layer::kObserve);
  m["core.select_calls"] = t.count(Counter::kSelectCalls);
  m["core.engine_self_ms"] = t.self_ms(Layer::kRunStrategy);
  m["temporal.propagated_ms"] = t.ms(Layer::kPropagate);
  m["query.parse_ms"] = t.ms(Layer::kQueryParse);
  m["query.execute_ms"] = t.ms(Layer::kQueryExecute);
  m["query.sample_ms"] = t.ms(Layer::kQuerySample);
  w.LayerMetrics(pass, t, &m);
  return m;
}

/// Compares this run's exact counters with an earlier run of the same
/// binary, workload and seed (recorded under out_dir); records them when
/// no earlier run exists. Returns the names that differ.
std::vector<std::string> CheckCounterCache(
    const Args& a, const std::map<std::string, double>& counters) {
  char name[160];
  std::snprintf(name, sizeof(name), "/perfbench-counters-%s-%" PRIu64
                "-%016" PRIx64 ".txt", a.workload.c_str(), a.seed,
                BinaryDigest(a.self));
  const std::string path = a.out_dir + name;
  std::vector<std::string> differ;
  std::ifstream in(path);
  if (in) {
    std::string key;
    double value;
    std::map<std::string, double> earlier;
    while (in >> key >> value) earlier[key] = value;
    for (const auto& [k, v] : counters) {
      const auto it = earlier.find(k);
      if (it == earlier.end() || it->second != v) differ.push_back(k);
    }
    return differ;
  }
  std::ofstream out(path);
  for (const auto& [k, v] : counters) out << k << ' ' << Num(v) << '\n';
  return differ;
}

int Main(int argc, char** argv) {
  const int64_t process_start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: vqe_perfbench --workload <offline_eager|serve_closed|"
                 "fleet_batch|query_mix> --seed <n> --seconds <s> --trace "
                 "<0|1>\n       vqe_perfbench --setup-only --workload <name> "
                 "--seed <n>\n       vqe_perfbench --write-query-digests "
                 "<path>\n";
    return 2;
  }
  if (!args.write_digests.empty()) {
    const vqe::Status st = WriteQueryDigests(args.write_digests);
    if (!st.ok()) std::cerr << st.ToString() << "\n";
    return st.ok() ? 0 : 1;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  if (!args.setup_only) {
    std::printf(
        "manifest {\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"seconds\": %g, \"trace\": %d, \"hardware_threads\": %d, "
        "\"compiler\": \"g++ %s\", \"build_type\": \"%s\", "
        "\"commit\": \"%s\", \"source_digest\": \"%s\"}\n",
        args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
        HardwareThreads(), __VERSION__, PERFBENCH_BUILD_TYPE,
        args.commit.c_str(), args.source_digest.c_str());
  }

  // Set-up: pools, every input video, warm-up requests. setup_s runs from
  // process start to the first timed request.
  Enable(args.trace);
  const vqe::Status setup = workload->Setup();
  if (!setup.ok()) {
    std::cerr << "set-up failed: " << setup.ToString() << "\n";
    return 1;
  }
  const Totals setup_totals = Collect();
  Enable(false);
  Reset();
  const double setup_s =
      static_cast<double>(NowNs() - process_start_ns) / 1e9;
  if (args.setup_only) {
    std::printf("setup_s %s\n", Num(setup_s).c_str());
    return 0;
  }

  if (!args.trace) {
    auto loop = workload->Run({args.seconds, 0}, false);
    if (!loop.ok()) {
      std::cerr << "run failed: " << loop.status().ToString() << "\n";
      return 1;
    }
    const std::vector<int64_t> bad = workload->Verify(loop->requests);
    const uint64_t attempted = loop->requests.size();
    const uint64_t failed = bad.size();
    std::map<std::string, double> m;
    m["frames_per_s"] = static_cast<double>(loop->frames) / loop->wall_s;
    m["latency_p50_ms"] = Percentile(loop->latencies_ms, 0.5);
    m["latency_p90_ms"] = Percentile(loop->latencies_ms, 0.9);
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = PeakRssMb();
    const std::string n = " (n=" + std::to_string(loop->latencies_ms.size()) +
                          (args.workload == "fleet_batch" ? " batches)"
                                                          : " requests)");
    std::printf("%s seed %" PRIu64 ": %" PRIu64 " requests, %" PRIu64
                " frames in %.3f s\n",
                args.workload.c_str(), args.seed, attempted, loop->frames,
                loop->wall_s);
    for (const MetricDef& d : kEndToEnd) {
      PrintMetric(d, m[d.name],
                  std::string(d.name).rfind("latency", 0) == 0 ? n : "");
    }
    PrintMetric({"failed_share", "ratio"},
                attempted ? static_cast<double>(failed) / attempted : 0.0, "");
    for (int64_t id : bad) {
      std::printf("  output mismatch: request %" PRId64 "\n", id);
    }
    const bool correct = failed == 0 && attempted > 0;
    PrintResult(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd), m);
    return correct ? 0 : 1;
  }

  // Traced run: alternate bare and wrapped passes of the same requests.
  const int64_t n = workload->pass_requests();
  std::vector<std::string> problems;
  std::map<std::string, double> sum;
  std::map<std::string, double> exact;
  uint64_t attempted = 0;
  int reps = 0;
  double bare_frames = 0, bare_s = 0, traced_frames = 0, traced_s = 0;
  std::vector<RequestRecord> first_bare;
  const int64_t loop_start = NowNs();
  while (reps == 0 ||
         static_cast<double>(NowNs() - loop_start) / 1e9 < args.seconds) {
    auto bare = workload->Run({0, n}, false);
    Enable(true);
    KeepSpans(reps == 0);
    Reset();
    auto traced = workload->Run({0, n}, true);
    const Totals totals = Collect();
    Enable(false);
    KeepSpans(false);
    if (!bare.ok() || !traced.ok()) {
      std::cerr << "pass failed: "
                << (bare.ok() ? traced.status() : bare.status()).ToString()
                << "\n";
      return 1;
    }
    attempted += bare->requests.size() + traced->requests.size();
    bare_frames += bare->frames;
    bare_s += bare->wall_s;
    traced_frames += traced->frames;
    traced_s += traced->wall_s;
    // Wrapper transparency: request for request, the same outputs.
    std::map<int64_t, uint64_t> digests;
    for (const RequestRecord& r : bare->requests) digests[r.id] = r.digest;
    for (const RequestRecord& r : traced->requests) {
      const auto it = digests.find(r.id);
      if (!r.ok || it == digests.end() || it->second != r.digest) {
        problems.push_back("traced output differs: request " +
                           std::to_string(r.id));
      }
    }
    if (traced->requests.size() != bare->requests.size()) {
      problems.push_back("traced pass completed a different request count");
    }
    std::map<std::string, double> m = PassMetrics(*workload, *traced, totals);
    m["sim.frames"] = static_cast<double>(workload->setup_frames());
    for (const char* key : kExactCounters) {
      const double v = m.count(key) ? m[key] : 0.0;
      if (reps == 0) {
        exact[key] = v;
      } else if (exact[key] != v) {
        problems.push_back(std::string("exact counter moved between passes: ") +
                           key);
      }
    }
    for (const auto& [k, v] : m) sum[k] += v;
    if (reps == 0) first_bare = std::move(bare->requests);
    ++reps;
  }
  for (int64_t id : workload->Verify(first_bare)) {
    problems.push_back("output mismatch: request " + std::to_string(id));
  }
  for (const std::string& k : CheckCounterCache(args, exact)) {
    problems.push_back("exact counter differs from an earlier run: " + k);
  }

  std::map<std::string, double> m;
  for (const auto& [k, v] : sum) m[k] = v / reps;
  m["sim.sample_ms"] = setup_totals.ms(Layer::kSample);
  const double bare_fps = bare_frames / bare_s;
  const double traced_fps = traced_frames / traced_s;
  m["trace.overhead_share"] = 1.0 - traced_fps / bare_fps;

  const std::string span_path =
      args.out_dir + "/perfbench-spans-" + args.workload + ".tsv";
  const size_t spans = WriteSpans(span_path);
  std::printf("%s seed %" PRIu64 ": %d pass pairs of %" PRId64
              " requests; %zu spans of the first traced pass in %s (%" PRIu64
              " past the in-memory cap)\n",
              args.workload.c_str(), args.seed, reps, n, spans,
              span_path.c_str(), DroppedSpans());
  std::printf("  frames/s bare %.1f, traced %.1f\n", bare_fps, traced_fps);
  std::set<std::string> exact_keys(std::begin(kExactCounters),
                                   std::end(kExactCounters));
  for (const MetricDef& d : kPerLayer) {
    PrintMetric(d, m[d.name], exact_keys.count(d.name) ? "  (exact)" : "");
  }
  std::printf(
      "  not exercised: runtime (faults off), snapshot (no checkpoints or "
      "migrations), workload and obs (off by default)\n");
  for (const std::string& p : problems) std::printf("  FAIL %s\n", p.c_str());
  const bool correct = problems.empty();
  PrintResult(correct, attempted, problems.size(), kPerLayer,
              std::size(kPerLayer), m);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
