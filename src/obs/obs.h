// The observability facade threaded through the stack.
//
// `ObsHandle` is a cheap value (two pointers + a track id) passed down
// through options structs. Default-constructed it is disabled: every
// instrumentation site guards on `enabled()` (or the finer-grained
// `metrics`/`trace` pointers), so the disabled path costs one branch and
// performs zero allocations — outputs stay bit-identical to a build that
// never heard of observability. `Observability` owns the registry and
// recorder and hands out handles.
//
// Attribution: `WithStream(id)` rebinds the handle's trace track to a
// stream so engine-level spans land on that stream's timeline;
// `WithNodeTrack(n)` binds process-scoped tracks (scheduler, shards) at
// kNodeTrackBase + n. Metrics are registry-global. A counter that mirrors
// a stats struct (RunResult, QueryOutput, ServeStats, FleetStats) is
// published once from that struct when its component completes, so
// simulated-domain counters aggregate identically across worker and
// shard counts, which is what the determinism gate fingerprints; spans
// and histograms record every stepped frame.

#ifndef VQE_OBS_OBS_H_
#define VQE_OBS_OBS_H_

#include <cstdint>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqe {

struct ObsHandle {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  int64_t track = 0;

  bool enabled() const { return metrics != nullptr || trace != nullptr; }

  ObsHandle WithStream(int64_t stream_id) const {
    ObsHandle h = *this;
    h.track = stream_id;
    return h;
  }
  ObsHandle WithNodeTrack(int64_t node) const {
    ObsHandle h = *this;
    h.track = kNodeTrackBase + node;
    return h;
  }

  // Convenience wrappers so call sites stay one-liners. All are no-ops
  // on a disabled handle / invalid id.
  void Count(MetricsRegistry::Id id, uint64_t n = 1) const {
    if (metrics) metrics->Add(id, n);
  }
  void CountMs(MetricsRegistry::Id id, double ms) const {
    if (metrics) metrics->AddMs(id, ms);
  }
  void Observe(MetricsRegistry::Id id, double v) const {
    if (metrics) metrics->Observe(id, v);
  }
  void Span(MetricDomain domain, int64_t frame, const char* name,
            double ts_ms, double dur_ms, const char* arg_name = nullptr,
            double arg_value = 0.0) const {
    if (trace) {
      trace->Span(domain, track, frame, name, ts_ms, dur_ms, arg_name,
                  arg_value);
    }
  }
  void Instant(MetricDomain domain, int64_t frame, const char* name,
               double ts_ms, const char* arg_name = nullptr,
               double arg_value = 0.0) const {
    if (trace) {
      trace->Instant(domain, track, frame, name, ts_ms, arg_name, arg_value);
    }
  }
};

/// Owns one registry + one recorder for a process (or a test).
class Observability {
 public:
  explicit Observability(size_t trace_capacity_per_thread = 1u << 16)
      : trace_(trace_capacity_per_thread) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  ObsHandle handle() {
    ObsHandle h;
    h.metrics = &metrics_;
    h.trace = &trace_;
    return h;
  }
  /// Metrics only — for callers that want counters without trace volume.
  ObsHandle metrics_handle() {
    ObsHandle h;
    h.metrics = &metrics_;
    return h;
  }

 private:
  MetricsRegistry metrics_;
  TraceRecorder trace_;
};

}  // namespace vqe

#endif  // VQE_OBS_OBS_H_
