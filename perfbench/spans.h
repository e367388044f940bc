// Outside-in span recording for the traced benchmark run.
//
// A span is one timed call into a module's public function (a detector's
// Detect, an evaluation source's Eval, a strategy's Select, a scheduler
// round, ...). Spans nest through a per-thread stack, so every span knows
// its parent and its self time (duration minus the part its children on
// the same thread cover). Totals per layer are accumulated when a span
// closes; the spans themselves are kept in memory up to a cap and written
// out at the end as TSV (name, start, end, parent, request, thread).
//
// Recording is off unless Enable(true) was called: a disabled ScopedSpan
// reads one relaxed atomic and does nothing else, which is what the
// untraced runs pay.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

/// What a span times. Names are the per-layer metric prefixes.
enum class Layer : uint8_t {
  kRequest,         // one request of the workload
  kSample,          // sim: SampleVideo
  kDetect,          // models: ObjectDetector::Detect (pool and reference)
  kMatrixBuild,     // core: BuildFrameMatrix
  kRunStrategy,     // core: RunStrategy
  kLazyFrame,       // core: lazy source call that first touched a frame
  kLazyStats,       // core: lazy source Stats on a touched frame
  kLazyCell,        // core: lazy source Eval
  kSelect,          // core: SelectionStrategy::BeginVideo/Select
  kObserve,         // core: SelectionStrategy::Observe
  kPropagate,       // temporal: ScorePropagated/FusedOutput
  kRound,           // serve: StreamScheduler::RunRound
  kSessionCreate,   // serve/fleet: building one StreamSession
  kFleetRun,        // fleet: ShardedServer::Run
  kQueryParse,      // query: ParseQuery
  kQueryExecute,    // query: ExecuteQuery
  kQuerySample,     // query: the query's SampleVideo call on its own
  kCount
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kCount);

/// Exact work counters bumped by the wrappers.
enum class Counter : uint8_t {
  kDetectCalls,
  kBoxes,
  kSelectCalls,
  kLazyFrames,
  kLazyCells,
  kLazyMemoHits,
  kCount
};
inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

struct LayerTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t calls = 0;
};

/// Sum over every thread that recorded anything since the last Reset.
struct Totals {
  std::array<LayerTotals, kNumLayers> layers{};
  std::array<uint64_t, kNumCounters> counters{};
  /// Time inside session-work wrappers (source, strategy, detector) that
  /// no other session-work wrapper encloses — the busy time of the thread
  /// that stepped the session.
  int64_t session_work_ns = 0;

  double ms(Layer l) const {
    return static_cast<double>(layers[static_cast<int>(l)].total_ns) / 1e6;
  }
  double self_ms(Layer l) const {
    return static_cast<double>(layers[static_cast<int>(l)].self_ns) / 1e6;
  }
  uint64_t count(Counter c) const {
    return counters[static_cast<int>(c)];
  }
};

int64_t NowNs();

/// Turns recording on or off (call only while no span is open).
void Enable(bool on);
bool Enabled();
/// Whether closed spans are also kept as records (the first traced pass
/// keeps them; later passes only accumulate totals).
void KeepSpans(bool on);

/// Zeroes every thread's totals and counters (quiescent only).
void Reset();
/// Sums every thread's totals (quiescent only).
Totals Collect();

void Bump(Counter c, uint64_t n = 1);

/// Request id for spans that neither name one nor inherit one from a
/// parent — e.g. pool workers running a request's parallel region.
void SetGlobalRequest(int64_t id);

/// Writes the kept spans as TSV; returns the number written. Spans past
/// the in-memory cap are counted in DroppedSpans().
size_t WriteSpans(const std::string& path);
uint64_t DroppedSpans();

class ScopedSpan {
 public:
  /// `request` < 0 inherits the parent span's request id, else the
  /// thread's (SetThreadRequest), else the process-wide one.
  explicit ScopedSpan(Layer layer, int64_t request = -1) {
    if (Enabled()) Open(layer, request);
  }
  ~ScopedSpan() {
    if (open_) Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Re-attributes the open span to another layer (for calls whose layer
  /// is known only once they return).
  void Relabel(Layer layer);

 private:
  void Open(Layer layer, int64_t request);
  void Close();
  bool open_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
