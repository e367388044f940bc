#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

namespace vqe {

const char* MetricDomainToString(MetricDomain domain) {
  return domain == MetricDomain::kSimulated ? "sim" : "wall";
}

MetricsRegistry::Id MetricsRegistry::RegisterLocked(
    std::string_view name, MetricKind kind, MetricDomain domain,
    MetricUnit unit, std::string_view help, std::vector<double> bounds) {
  auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    const Meta& meta = metrics_[it->second];
    if (meta.kind != kind || meta.domain != domain || meta.unit != unit) {
      return kInvalidId;
    }
    if (kind == MetricKind::kHistogram &&
        histograms_[meta.cell].bounds != bounds) {
      return kInvalidId;
    }
    return it->second;
  }
  Meta meta;
  meta.name = std::string(name);
  meta.help = std::string(help);
  meta.kind = kind;
  meta.domain = domain;
  meta.unit = unit;
  switch (kind) {
    case MetricKind::kCounter:
      meta.cell = static_cast<uint32_t>(counters_.size());
      counters_.emplace_back();
      break;
    case MetricKind::kHistogram: {
      if (!std::is_sorted(bounds.begin(), bounds.end())) return kInvalidId;
      meta.cell = static_cast<uint32_t>(histograms_.size());
      histograms_.emplace_back();
      HistogramCell& cell = histograms_.back();
      cell.bounds = std::move(bounds);
      for (size_t i = 0; i <= cell.bounds.size(); ++i) {
        cell.buckets.emplace_back();
      }
      break;
    }
  }
  Id id = static_cast<Id>(metrics_.size());
  metrics_.push_back(std::move(meta));
  by_name_.emplace(metrics_.back().name, id);
  published_.store(metrics_.size(), std::memory_order_release);
  return id;
}

MetricsRegistry::Id MetricsRegistry::Counter(std::string_view name,
                                             MetricDomain domain,
                                             MetricUnit unit,
                                             std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(name, MetricKind::kCounter, domain, unit, help, {});
}

MetricsRegistry::Id MetricsRegistry::Histogram(std::string_view name,
                                               MetricDomain domain,
                                               std::vector<double> bounds,
                                               MetricUnit unit,
                                               std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterLocked(name, MetricKind::kHistogram, domain, unit, help,
                        std::move(bounds));
}

void MetricsRegistry::Publish(std::string_view name, MetricDomain domain,
                              uint64_t n, std::string_view help) {
  Add(Counter(name, domain, MetricUnit::kCount, help), n);
}

void MetricsRegistry::PublishMs(std::string_view name, MetricDomain domain,
                                double ms, std::string_view help) {
  AddMs(Counter(name, domain, MetricUnit::kMs, help), ms);
}

void MetricsRegistry::Add(Id id, uint64_t n) {
  if (id >= published_.load(std::memory_order_acquire)) return;
  counters_[metrics_[id].cell].v.fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::AddMs(Id id, double ms) {
  if (id >= published_.load(std::memory_order_acquire)) return;
  counters_[metrics_[id].cell].v.fetch_add(MsToTicks(ms),
                                           std::memory_order_relaxed);
}

void MetricsRegistry::Observe(Id id, double v) {
  if (id >= published_.load(std::memory_order_acquire)) return;
  HistogramCell& cell = histograms_[metrics_[id].cell];
  // First bucket whose upper bound admits v; the final (+Inf) bucket
  // catches everything else.
  size_t bucket =
      std::upper_bound(cell.bounds.begin(), cell.bounds.end(), v) -
      cell.bounds.begin();
  if (bucket > 0 && bucket <= cell.bounds.size() &&
      v == cell.bounds[bucket - 1]) {
    // Prometheus buckets are inclusive of their upper bound.
    --bucket;
  }
  cell.buckets[bucket].v.fetch_add(1, std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.sum_ticks.fetch_add(MsToTicks(v), std::memory_order_relaxed);
}

std::vector<MetricsRegistry::MetricView> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricView> out;
  out.reserve(metrics_.size());
  for (const Meta& meta : metrics_) {
    MetricView view;
    view.name = meta.name;
    view.help = meta.help;
    view.kind = meta.kind;
    view.domain = meta.domain;
    view.unit = meta.unit;
    switch (meta.kind) {
      case MetricKind::kCounter: {
        view.raw = counters_[meta.cell].v.load(std::memory_order_relaxed);
        view.value = meta.unit == MetricUnit::kMs
                         ? TicksToMs(view.raw)
                         : static_cast<double>(view.raw);
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramCell& cell = histograms_[meta.cell];
        view.histogram.bounds = cell.bounds;
        view.histogram.bucket_counts.reserve(cell.buckets.size());
        for (const CounterCell& b : cell.buckets) {
          view.histogram.bucket_counts.push_back(
              b.v.load(std::memory_order_relaxed));
        }
        view.histogram.count = cell.count.load(std::memory_order_relaxed);
        view.raw = cell.sum_ticks.load(std::memory_order_relaxed);
        view.histogram.sum = TicksToMs(view.raw);
        view.value = view.histogram.sum;
        break;
      }
    }
    out.push_back(std::move(view));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricView& a, const MetricView& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::SimulatedFingerprint() const {
  std::ostringstream os;
  for (const MetricView& view : Snapshot()) {
    if (view.domain != MetricDomain::kSimulated) continue;
    switch (view.kind) {
      case MetricKind::kCounter:
        os << view.name << " " << view.raw << "\n";
        break;
      case MetricKind::kHistogram: {
        os << view.name << " sum_ticks=" << view.raw
           << " count=" << view.histogram.count << " buckets=";
        for (size_t i = 0; i < view.histogram.bucket_counts.size(); ++i) {
          if (i) os << ",";
          os << view.histogram.bucket_counts[i];
        }
        os << "\n";
        break;
      }
    }
  }
  return os.str();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

}  // namespace vqe
