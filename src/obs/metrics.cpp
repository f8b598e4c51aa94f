#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "util/error.h"

namespace neutral::obs {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string format_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

Histogram::Histogram(Options options) {
  NEUTRAL_REQUIRE(options.first_bound > 0.0,
                  "histogram first_bound must be positive");
  NEUTRAL_REQUIRE(options.buckets >= 1 && options.buckets <= 64,
                  "histogram bucket count out of range [1, 64]");
  bounds_.reserve(static_cast<std::size_t>(options.buckets));
  double bound = options.first_bound;
  for (int b = 0; b < options.buckets; ++b) {
    bounds_.push_back(bound);
    bound *= 2.0;
  }
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

std::size_t Histogram::bucket_of(double v) const noexcept {
  for (std::size_t b = 0; b < bounds_.size(); ++b) {
    if (v <= bounds_[b]) return b;
  }
  return bounds_.size();  // +Inf overflow
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& cell : buckets_) {
    counts.push_back(cell.load(std::memory_order_relaxed));
  }
  return counts;
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               const std::string& help,
                                               MetricType type) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& existing = *entries_[it->second];
    NEUTRAL_REQUIRE(existing.type == type,
                    "metric '" + name + "' already registered as " +
                        type_name(existing.type) + ", requested as " +
                        type_name(type));
    return existing;
  }
  auto created = std::make_unique<Entry>();
  created->name = name;
  created->help = help;
  created->type = type;
  entries_.push_back(std::move(created));
  index_.emplace(name, entries_.size() - 1);
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  MutexLock lock(mutex_);
  Entry& e = entry(name, help, MetricType::kCounter);
  if (e.counter == nullptr) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  MutexLock lock(mutex_);
  Entry& e = entry(name, help, MetricType::kGauge);
  if (e.gauge == nullptr) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      Histogram::Options options) {
  MutexLock lock(mutex_);
  Entry& e = entry(name, help, MetricType::kHistogram);
  if (e.histogram == nullptr) e.histogram = std::make_unique<Histogram>(options);
  return *e.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.metrics.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricValue v;
    v.name = e->name;
    v.help = e->help;
    v.type = e->type;
    switch (e->type) {
      case MetricType::kCounter:
        v.counter = e->counter->value();
        break;
      case MetricType::kGauge:
        v.gauge = e->gauge->value();
        break;
      case MetricType::kHistogram:
        v.histogram.bounds = e->histogram->bounds();
        v.histogram.buckets = e->histogram->bucket_counts();
        v.histogram.count = e->histogram->count();
        v.histogram.sum = e->histogram->sum();
        break;
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

std::string MetricsSnapshot::prometheus_text() const {
  std::string out;
  for (const MetricValue& m : metrics) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " " + m.help + "\n";
    }
    out += "# TYPE " + m.name + " ";
    out += type_name(m.type);
    out += "\n";
    switch (m.type) {
      case MetricType::kCounter:
        out += m.name + " " + format_u64(m.counter) + "\n";
        break;
      case MetricType::kGauge:
        out += m.name + " " + format_i64(m.gauge) + "\n";
        break;
      case MetricType::kHistogram: {
        // Prometheus buckets are cumulative.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.histogram.buckets.size(); ++b) {
          cumulative += m.histogram.buckets[b];
          const std::string le = b < m.histogram.bounds.size()
                                     ? format_double(m.histogram.bounds[b])
                                     : std::string("+Inf");
          out += m.name + "_bucket{le=\"" + le + "\"} " +
                 format_u64(cumulative) + "\n";
        }
        out += m.name + "_sum " + format_double(m.histogram.sum) + "\n";
        out += m.name + "_count " + format_u64(m.histogram.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> MetricsSnapshot::flat()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(metrics.size());
  for (const MetricValue& m : metrics) {
    switch (m.type) {
      case MetricType::kCounter:
        out.emplace_back(m.name, format_u64(m.counter));
        break;
      case MetricType::kGauge:
        out.emplace_back(m.name, format_i64(m.gauge));
        break;
      case MetricType::kHistogram:
        out.emplace_back(m.name + "_count", format_u64(m.histogram.count));
        out.emplace_back(m.name + "_sum", format_double(m.histogram.sum));
        break;
    }
  }
  return out;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace neutral::obs
