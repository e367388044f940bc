// query_mix: one analyst, closed loop of ExecuteQuery over five rotating
// templates, each request with its own seeded SCALE and SEED:
//   MES + COUNT on nusc, SW-MES + WINDOW on c&n&r, MES + TRACKS() on nusc,
//   MES-B + BUDGET on nusc-night, MES + gated skip on nusc-lowmotion.
//
// Sizes: SCALE is drawn so a query samples 850 to 2125 frames, the sizes of
// the repository's example queries (vqe_query_cli's nusc SCALE 0.02, the
// README quick start's nusc SCALE 0.05); WINDOW is SW-MES's default λ
// (400), BUDGET the middle Figure 6 budget point (15 ms per frame), and the
// gated skip budget bench_serve's (4).
//
// Output check: every query's QueryOutput digest against the committed
// table (query_digests.tsv). The table holds 256 (SCALE, SEED) entries per
// template, SCALE spread evenly over the continuous range; a workload seed
// picks a stratified sequence of entries, so every request of every seed
// has a committed reference. `vqe_perfbench --write-query-digests <path>`
// regenerates the table.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/parser.h"
#include "sim/dataset.h"
#include "workload.h"

namespace perfbench {

namespace {

using vqe::Result;
using vqe::Status;

struct Template {
  const char* dataset;
  /// printf format taking (dataset, scale, seed, budget).
  const char* format;
  bool gated_skip;
};

constexpr Template kTemplates[] = {
    {"nusc",
     "SELECT frameID FROM (PROCESS %s SCALE %.6f SEED %" PRIu64
     " PRODUCE frameID, Detections USING MES(*; REF)) WHERE COUNT(car) >= 2",
     false},
    {"c&n&r",
     "SELECT frameID FROM (PROCESS %s SCALE %.6f SEED %" PRIu64
     " PRODUCE frameID, Detections USING SW-MES(*; REF)) "
     "WHERE COUNT(*) >= 3 WINDOW 400",
     false},
    {"nusc",
     "SELECT frameID FROM (PROCESS %s SCALE %.6f SEED %" PRIu64
     " PRODUCE frameID, Detections USING MES(*; REF)) WHERE TRACKS(car) >= 2",
     false},
    {"nusc-night",
     "SELECT frameID FROM (PROCESS %s SCALE %.6f SEED %" PRIu64
     " PRODUCE frameID, Detections USING MES-B(*; REF)) "
     "WHERE COUNT(car) >= 1 BUDGET %.0f",
     false},
    {"nusc-lowmotion",
     "SELECT frameID FROM (PROCESS %s SCALE %.6f SEED %" PRIu64
     " PRODUCE frameID, Detections USING MES(*; REF)) WHERE EXISTS(car)",
     true},
};
constexpr int kNumTemplates = 5;
/// Frames a query samples (SCALE × the dataset's frames).
constexpr double kMinFrames = 850.0;
constexpr double kMaxFrames = 2125.0;
/// MES-B's BUDGET per expected sampled frame, ms.
constexpr double kBudgetMsPerFrame = 15.0;
/// Gated skip budget (bench_serve's skip-enabled streams).
constexpr int kSkipBudget = 4;
constexpr int kEntriesPerTemplate = 256;
/// Seed of the committed table's (SCALE, SEED) draws.
constexpr uint64_t kTableSeed = 20250101;

struct Entry {
  double scale = 0.0;
  uint64_t seed = 0;
  uint64_t digest = 0;
};

vqe::QueryEngineOptions OptionsFor(int q) {
  vqe::QueryEngineOptions o;
  if (kTemplates[q].gated_skip) {
    o.skip.mode = vqe::SkipMode::kDifficultyGated;
    o.skip.skip_budget = kSkipBudget;
  }
  return o;
}

/// Frames of template q's dataset (SCALE 1).
double DatasetFrames(int q) {
  auto spec = vqe::DatasetCatalog::Default().Find(kTemplates[q].dataset);
  return spec.ok() ? static_cast<double>((*spec)->TotalFrames()) : 1.0;
}

Result<std::string> QueryText(int q, double scale, uint64_t seed) {
  const Template& t = kTemplates[q];
  // The budget scales with the expected sampled frames.
  const double budget = kBudgetMsPerFrame * scale * DatasetFrames(q);
  char buf[512];
  std::snprintf(buf, sizeof(buf), t.format, t.dataset, scale, seed, budget);
  return std::string(buf);
}

uint64_t DigestQuery(const vqe::QueryOutput& o) {
  Digest d;
  d.U64(o.frame_ids.size());
  for (int64_t id : o.frame_ids) d.U64(static_cast<uint64_t>(id));
  d.U64(o.frames_processed).U64(o.frames_matched);
  d.F64(o.charged_cost_ms).F64(o.reference_cost_ms);
  d.U64(o.selection_counts.size());
  for (uint64_t c : o.selection_counts) d.U64(c);
  d.U64(o.fallback_frames).U64(o.failed_frames).F64(o.fault_ms);
  for (uint64_t f : o.model_failures) d.U64(f);
  d.U64(o.skipped_frames).F64(o.tracker_ms);
  return d.value();
}

/// The committed table's entries of template q, ascending by scale.
std::vector<Entry> TableDraws(int q) {
  std::vector<Entry> out(kEntriesPerTemplate);
  for (int k = 0; k < kEntriesPerTemplate; ++k) {
    const double lo = kMinFrames / DatasetFrames(q);
    const double hi = kMaxFrames / DatasetFrames(q);
    out[k].scale = lo + (hi - lo) * (k + vqe::MakeStreamRng(kTableSeed, q, k)
                                             .NextDouble()) /
                            kEntriesPerTemplate;
    out[k].seed = 1 + vqe::MakeStreamRng(kTableSeed, q, k, 1).UniformInt(
                          (1ULL << 31) - 1);
  }
  return out;
}

class QueryMix final : public Workload {
 public:
  QueryMix(uint64_t seed, std::string digest_path)
      : seed_(seed), digest_path_(std::move(digest_path)) {}

  Status Setup() override {
    VQE_RETURN_NOT_OK(LoadTable());
    // Warm the catalog: sample each template's dataset once.
    frames_ = 0;
    for (int q = 0; q < kNumTemplates; ++q) {
      VQE_ASSIGN_OR_RETURN(const vqe::DatasetSpec* spec,
                           vqe::DatasetCatalog::Default().Find(
                               kTemplates[q].dataset));
      vqe::SampleOptions so;
      so.scene_scale = kMaxFrames / DatasetFrames(q);
      so.seed = vqe::HashCombine(seed_, static_cast<uint64_t>(q));
      ScopedSpan span(Layer::kSample);
      VQE_ASSIGN_OR_RETURN(vqe::Video video, vqe::SampleVideo(*spec, so));
      frames_ += video.size();
    }
    // Warm the executor: one query per template.
    for (int q = 0; q < kNumTemplates; ++q) {
      const Entry& e = table_[q][0];
      VQE_ASSIGN_OR_RETURN(const std::string sql,
                           QueryText(q, e.scale, e.seed));
      VQE_RETURN_NOT_OK(vqe::ExecuteQuery(sql, OptionsFor(q)).status());
    }
    return Status::OK();
  }

  uint64_t setup_frames() const override { return frames_; }
  int64_t pass_requests() const override { return kNumTemplates * kStrata; }

  Result<LoopResult> Run(const StopRule& stop, bool traced) override {
    LoopResult out;
    int64_t excluded_ns = 0;  // traced-only SampleVideo timing
    uint64_t members = 0, selections = 0;
    const int64_t start_ns = NowNs();
    for (int64_t i = 0;; ++i) {
      if (stop.max_requests > 0 && i >= stop.max_requests) break;
      if (stop.seconds > 0 &&
          static_cast<double>(NowNs() - start_ns - excluded_ns) / 1e9 >=
              stop.seconds) {
        break;
      }
      const int q = static_cast<int>(i % kNumTemplates);
      const Entry& e = table_[q][EntryIndex(i)];
      VQE_ASSIGN_OR_RETURN(const std::string sql,
                           QueryText(q, e.scale, e.seed));
      const vqe::QueryEngineOptions options = OptionsFor(q);
      RequestRecord rec;
      rec.id = i;
      const int64_t t0 = NowNs();
      Result<vqe::QueryOutput> output = Status::Internal("not run");
      if (!traced) {
        output = vqe::ExecuteQuery(sql, options);
      } else {
        ScopedSpan request(Layer::kRequest, i);
        Result<vqe::Query> parsed = Status::Internal("not parsed");
        {
          ScopedSpan span(Layer::kQueryParse);
          parsed = vqe::ParseQuery(sql);
        }
        if (parsed.ok()) {
          ScopedSpan span(Layer::kQueryExecute);
          output = vqe::ExecuteQuery(*parsed, options);
        } else {
          output = parsed.status();
        }
      }
      out.latencies_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (traced) {
        const int64_t s0 = NowNs();
        VQE_RETURN_NOT_OK(TimeSample(q, e));
        excluded_ns += NowNs() - s0;
      }
      rec.ok = output.ok();
      if (output.ok()) {
        rec.frames = output->frames_processed;
        rec.digest = DigestQuery(*output);
        for (size_t mask = 1; mask < output->selection_counts.size(); ++mask) {
          members += output->selection_counts[mask] *
                     static_cast<uint64_t>(__builtin_popcountll(mask));
          selections += output->selection_counts[mask];
        }
        out.layer["temporal.skipped_frames"] +=
            static_cast<double>(output->skipped_frames);
      }
      out.frames += rec.frames;
      out.requests.push_back(std::move(rec));
    }
    out.wall_s = static_cast<double>(NowNs() - start_ns - excluded_ns) / 1e9;
    out.layer["query.frames"] = static_cast<double>(out.frames);
    out.layer["query.ensemble_size_mean"] =
        static_cast<double>(members) / std::max<uint64_t>(selections, 1);
    return out;
  }

  std::vector<int64_t> Verify(
      const std::vector<RequestRecord>& records) override {
    std::vector<int64_t> bad;
    for (const RequestRecord& rec : records) {
      const int q = static_cast<int>(rec.id % kNumTemplates);
      if (!rec.ok || rec.digest != table_[q][EntryIndex(rec.id)].digest) {
        bad.push_back(rec.id);
      }
    }
    return bad;
  }

 private:
  size_t EntryIndex(int64_t i) const {
    const int q = static_cast<int>(i % kNumTemplates);
    const uint64_t j = static_cast<uint64_t>(i / kNumTemplates);
    return static_cast<size_t>(
        StratifiedDraw(seed_, 0x9E + q, j, 0, kEntriesPerTemplate));
  }

  /// The query's SampleVideo call on its own (query.sample_ms).
  Status TimeSample(int q, const Entry& e) const {
    VQE_ASSIGN_OR_RETURN(const vqe::DatasetSpec* spec,
                         vqe::DatasetCatalog::Default().Find(
                             kTemplates[q].dataset));
    vqe::SampleOptions so;
    so.scene_scale = e.scale;
    so.seed = e.seed;
    ScopedSpan span(Layer::kQuerySample);
    return vqe::SampleVideo(*spec, so).status();
  }

  Status LoadTable() {
    std::ifstream in(digest_path_);
    if (!in) return Status::NotFound("cannot read " + digest_path_);
    for (auto& t : table_) t = TableDraws(&t - table_);
    std::string line;
    size_t loaded = 0;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      int q = -1, k = -1;
      std::string digest;
      fields >> q >> k >> digest;
      if (!fields || q < 0 || q >= kNumTemplates || k < 0 ||
          k >= kEntriesPerTemplate) {
        return Status::InvalidArgument("bad line in " + digest_path_ + ": " +
                                       line);
      }
      table_[q][k].digest = std::stoull(digest, nullptr, 16);
      ++loaded;
    }
    if (loaded != static_cast<size_t>(kNumTemplates * kEntriesPerTemplate)) {
      return Status::InvalidArgument(digest_path_ + " is incomplete");
    }
    return Status::OK();
  }

  uint64_t seed_;
  std::string digest_path_;
  std::vector<Entry> table_[kNumTemplates];
  uint64_t frames_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryMix(uint64_t seed,
                                       const std::string& digest_path) {
  return std::make_unique<QueryMix>(seed, digest_path);
}

Status WriteQueryDigests(const std::string& path) {
  struct Job {
    int q;
    int k;
    Entry e;
    Status status = Status::OK();
  };
  std::vector<Job> jobs;
  for (int q = 0; q < kNumTemplates; ++q) {
    const std::vector<Entry> draws = TableDraws(q);
    for (int k = 0; k < kEntriesPerTemplate; ++k) {
      jobs.push_back({q, k, draws[k]});
    }
  }
  vqe::ParallelFor(jobs.size(), 0, [&](size_t j) {
    Job& job = jobs[j];
    auto sql = QueryText(job.q, job.e.scale, job.e.seed);
    if (!sql.ok()) {
      job.status = sql.status();
      return;
    }
    auto out = vqe::ExecuteQuery(*sql, OptionsFor(job.q));
    if (!out.ok()) {
      job.status = out.status();
      return;
    }
    job.e.digest = DigestQuery(*out);
  });
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "# query_mix reference digests: template entry digest "
         "(regenerate with vqe_perfbench --write-query-digests <path>)\n";
  for (const Job& job : jobs) {
    VQE_RETURN_NOT_OK(job.status);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, job.e.digest);
    out << job.q << '\t' << job.k << '\t' << hex << '\n';
  }
  return Status::OK();
}

}  // namespace perfbench
