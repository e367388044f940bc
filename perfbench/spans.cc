#include "spans.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the same thread's records
  int64_t request = -1;
  Layer layer = Layer::kRequest;
};

struct Frame {
  Layer layer;
  int64_t start_ns;
  int64_t child_ns;
  int64_t record;  // -1 when the span is not kept
};

struct ThreadState {
  uint32_t index = 0;
  std::array<LayerTotals, kNumLayers> layers{};
  std::array<uint64_t, kNumCounters> counters{};
  int64_t session_work_ns = 0;
  std::vector<Frame> stack;
  std::vector<SpanRecord> spans;
};

/// In-memory span cap: 1M records of 40 bytes. Totals keep accumulating
/// past it; only the records are dropped (and counted).
constexpr uint64_t kMaxKeptSpans = 1'000'000;

std::mutex g_mu;
std::deque<ThreadState> g_threads;  // deque: stable element addresses
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_keep{false};
std::atomic<int64_t> g_global_request{-1};
std::atomic<uint64_t> g_kept{0};
std::atomic<uint64_t> g_dropped{0};
const int64_t g_epoch_ns = NowNs();
thread_local ThreadState* t_state = nullptr;

ThreadState& State() {
  if (t_state == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.emplace_back();
    t_state = &g_threads.back();
    t_state->index = static_cast<uint32_t>(g_threads.size() - 1);
    t_state->stack.reserve(16);
  }
  return *t_state;
}

bool IsSessionWork(Layer l) {
  switch (l) {
    case Layer::kDetect:
    case Layer::kLazyFrame:
    case Layer::kLazyStats:
    case Layer::kLazyCell:
    case Layer::kSelect:
    case Layer::kObserve:
    case Layer::kPropagate:
      return true;
    default:
      return false;
  }
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "request",         "sim.sample",        "models.detect",
      "core.matrix_build", "core.run_strategy", "core.lazy_frame",
      "core.lazy_stats", "core.lazy_cell",    "core.select",
      "core.observe",    "temporal.propagate", "serve.round",
      "session.create",  "fleet.run",         "query.parse",
      "query.execute",   "query.sample"};
  return kNames[static_cast<int>(layer)];
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void KeepSpans(bool on) { g_keep.store(on, std::memory_order_relaxed); }

void Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (ThreadState& s : g_threads) {
    s.layers = {};
    s.counters = {};
    s.session_work_ns = 0;
  }
}

Totals Collect() {
  Totals t;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const ThreadState& s : g_threads) {
    for (int i = 0; i < kNumLayers; ++i) {
      t.layers[i].total_ns += s.layers[i].total_ns;
      t.layers[i].self_ns += s.layers[i].self_ns;
      t.layers[i].calls += s.layers[i].calls;
    }
    for (int i = 0; i < kNumCounters; ++i) t.counters[i] += s.counters[i];
    t.session_work_ns += s.session_work_ns;
  }
  return t;
}

void Bump(Counter c, uint64_t n) {
  if (Enabled()) State().counters[static_cast<int>(c)] += n;
}

void SetGlobalRequest(int64_t id) {
  g_global_request.store(id, std::memory_order_relaxed);
}

void ScopedSpan::Open(Layer layer, int64_t request) {
  ThreadState& s = State();
  int64_t record = -1;
  if (g_keep.load(std::memory_order_relaxed)) {
    if (g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
      SpanRecord r;
      r.layer = layer;
      r.parent = s.stack.empty() ? -1 : s.stack.back().record;
      r.request = request >= 0    ? request
                  : r.parent >= 0 ? s.spans[r.parent].request
                                  : g_global_request.load(
                                        std::memory_order_relaxed);
      record = static_cast<int64_t>(s.spans.size());
      s.spans.push_back(r);
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  s.stack.push_back(Frame{layer, NowNs(), 0, record});
  open_ = true;
}

void ScopedSpan::Relabel(Layer layer) {
  if (!open_) return;
  Frame& f = t_state->stack.back();
  f.layer = layer;
  if (f.record >= 0) t_state->spans[f.record].layer = layer;
}

void ScopedSpan::Close() {
  const int64_t end = NowNs();
  ThreadState& s = *t_state;
  const Frame f = s.stack.back();
  s.stack.pop_back();
  const int64_t dur = end - f.start_ns;
  LayerTotals& lt = s.layers[static_cast<int>(f.layer)];
  lt.total_ns += dur;
  lt.self_ns += dur - f.child_ns;
  ++lt.calls;
  if (!s.stack.empty()) s.stack.back().child_ns += dur;
  if (IsSessionWork(f.layer) &&
      (s.stack.empty() || !IsSessionWork(s.stack.back().layer))) {
    s.session_work_ns += dur;
  }
  if (f.record >= 0) {
    s.spans[f.record].start_ns = f.start_ns;
    s.spans[f.record].end_ns = end;
  }
}

size_t WriteSpans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return 0;
  out << "thread\tid\tname\tstart_ns\tend_ns\tparent\trequest\n";
  size_t written = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const ThreadState& s : g_threads) {
    for (size_t i = 0; i < s.spans.size(); ++i) {
      const SpanRecord& r = s.spans[i];
      out << s.index << '\t' << i << '\t' << LayerName(r.layer) << '\t'
          << (r.start_ns - g_epoch_ns) << '\t' << (r.end_ns - g_epoch_ns)
          << '\t' << r.parent << '\t' << r.request << '\n';
      ++written;
    }
  }
  return written;
}

uint64_t DroppedSpans() { return g_dropped.load(); }

}  // namespace perfbench
