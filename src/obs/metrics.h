// Deterministic metrics registry: named counters and fixed-bucket
// histograms shared by every layer of the serving stack.
//
// Two observation domains, kept strictly apart:
//
//   kSimulated — values derived only from the simulated frame clock
//     (charged costs, frame counts, breaker trips). Observations are
//     converted to fixed-point integer ticks before accumulation, and
//     integer atomic addition is associative, so a simulated-domain
//     counter's final value is a pure function of the SET of observations
//     — identical across worker counts, shard counts and scheduler
//     interleavings for the same seed. SimulatedFingerprint() renders
//     exactly these metrics for determinism gates.
//
//   kWall — real wall-clock measurements and process bookkeeping
//     (checkpoint write latency, scheduler rounds, migrations). Reported
//     alongside but never mixed into the deterministic fingerprint.
//
// Concurrency. Registration (Counter/Histogram/Publish) takes a mutex
// and may allocate — do it at setup or at a completion point, never in a
// frame loop (the per-frame histograms' ids are cached by the
// instrumented layers). Re-registering a name returns the existing id, so
// many sessions instrumenting the same registry share one set of series.
// Observation (Add/AddMs/Observe) is lock-free, allocation-free and
// wait-free: one relaxed atomic RMW per call. Cells live in deques, so
// registration never relocates a cell another thread is updating.

#ifndef VQE_OBS_METRICS_H_
#define VQE_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vqe {

/// Which clock an observation lives on (see header comment).
enum class MetricDomain : uint8_t { kSimulated = 0, kWall = 1 };

/// How a metric's fixed-point value renders: a plain count or
/// milliseconds (tick-scaled).
enum class MetricUnit : uint8_t { kCount = 0, kMs = 1 };

enum class MetricKind : uint8_t { kCounter = 0, kHistogram = 1 };

const char* MetricDomainToString(MetricDomain domain);

/// Fixed-point scale for millisecond observations: 1 tick = 1 ns of
/// simulated time. Nanosecond resolution keeps rounding far below
/// simulator noise while leaving ~213 days of headroom in a uint64.
inline constexpr double kTicksPerMs = 1e6;

inline uint64_t MsToTicks(double ms) {
  return ms > 0.0 ? static_cast<uint64_t>(std::llround(ms * kTicksPerMs))
                  : 0u;
}
inline double TicksToMs(uint64_t ticks) {
  return static_cast<double>(ticks) / kTicksPerMs;
}

class MetricsRegistry {
 public:
  using Id = uint32_t;
  static constexpr Id kInvalidId = 0xFFFFFFFFu;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (setup path: locking, may allocate) -----------------

  /// Registers (or looks up) a monotone counter. `unit` controls both the
  /// observation call (kCount -> Add, kMs -> AddMs) and text rendering.
  Id Counter(std::string_view name, MetricDomain domain,
             MetricUnit unit = MetricUnit::kCount,
             std::string_view help = "");

  /// Registers (or looks up) a histogram with fixed upper bucket bounds
  /// (ascending, exclusive of the implicit +Inf bucket). Bounds of an
  /// already-registered name must match exactly (kInvalidId otherwise).
  Id Histogram(std::string_view name, MetricDomain domain,
               std::vector<double> bounds, MetricUnit unit = MetricUnit::kMs,
               std::string_view help = "");

  /// Registers (or looks up) a kCount / kMs counter and adds `n` / the
  /// ticks of `ms` to it: how a component publishes its finished ledger
  /// at a completion point. Locks, so never call it in a frame loop.
  void Publish(std::string_view name, MetricDomain domain, uint64_t n,
               std::string_view help);
  void PublishMs(std::string_view name, MetricDomain domain, double ms,
                 std::string_view help);

  // --- observation (hot path: lock-free, allocation-free) ---------------

  /// counter += n (kCount counters).
  void Add(Id id, uint64_t n = 1);
  /// counter += ticks(ms) (kMs counters). Negative deltas clamp to zero.
  void AddMs(Id id, double ms);
  /// Histogram observation (value in the metric's unit).
  void Observe(Id id, double v);

  // --- introspection / export (quiescent reads) -------------------------

  struct HistogramValue {
    std::vector<double> bounds;         ///< upper bounds, ascending
    std::vector<uint64_t> bucket_counts;///< size bounds.size() + 1 (+Inf)
    uint64_t count = 0;
    double sum = 0.0;  ///< in the metric's unit
  };

  struct MetricView {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    MetricDomain domain = MetricDomain::kSimulated;
    MetricUnit unit = MetricUnit::kCount;
    /// Counter: value in its unit (ticks decoded for kMs). Histogram: the
    /// sum of its observations.
    double value = 0.0;
    /// Counter: the raw fixed-point accumulator (exact, for fingerprints).
    uint64_t raw = 0;
    /// Histogram payload (kind == kHistogram only).
    HistogramValue histogram;
  };

  /// Every registered metric, name-sorted. Values are consistent only
  /// when no concurrent observation is in flight (export after a run).
  std::vector<MetricView> Snapshot() const;

  /// Canonical text of every simulated-domain counter and histogram (raw
  /// fixed-point values, name-sorted). Two runs of the same seeded work
  /// produce byte-identical fingerprints at any worker or shard count.
  std::string SimulatedFingerprint() const;

  size_t size() const;

 private:
  struct CounterCell {
    std::atomic<uint64_t> v{0};
  };
  struct HistogramCell {
    std::vector<double> bounds;
    /// bounds.size() + 1 buckets; deque so registration never relocates.
    std::deque<CounterCell> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_ticks{0};
  };
  struct Meta {
    std::string name;
    std::string help;
    MetricKind kind;
    MetricDomain domain;
    MetricUnit unit;
    uint32_t cell;  ///< index into the kind's cell deque
  };

  Id RegisterLocked(std::string_view name, MetricKind kind,
                    MetricDomain domain, MetricUnit unit,
                    std::string_view help, std::vector<double> bounds);

  mutable std::mutex mu_;  ///< guards registration state only
  /// Deque (stable references) + release-published count so observers can
  /// index metrics_ while a late registration appends.
  std::deque<Meta> metrics_;
  std::atomic<size_t> published_{0};
  std::unordered_map<std::string, Id> by_name_;
  /// Deques: push_back never moves existing cells, so observers holding
  /// an Id need no lock.
  std::deque<CounterCell> counters_;
  std::deque<HistogramCell> histograms_;
};

}  // namespace vqe

#endif  // VQE_OBS_METRICS_H_
