// Low-overhead process metrics: counters, gauges, log-bucket histograms.
//
// The serving stack (engine, world cache, neutrald) needs liveness
// numbers — cache hit rate, per-outcome job counts, queue waits — without
// perturbing the transport loops it observes.  Every write happens once per
// job, world acquisition or connection, never per transport event, and
// each writer already holds its owner's lock (the engine's recorder mutex,
// the world cache's mutex) or runs on neutrald's event-loop thread.  So a
// metric cell is one relaxed atomic: writers never contend on it, and reads
// (snapshots) load it directly.
//
// Everything is registered by name in a MetricsRegistry, and a snapshot can
// render either Prometheus text exposition (for neutrald's --metrics-port
// HTTP listener) or a flat name->value map (for the `metrics` frame op).
//
// Instrumented code holds plain pointers that may be null — "no registry"
// is the fast path and costs one predictable branch, mirroring the
// PhaseProfiler contract in src/perf/profiler.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace neutral::obs {

/// Monotonic counter: one atomic cell.  add() is wait-free; value() is one
/// load (exact once writers quiesce, monotone under load).
///
/// Memory-ordering contract (the only place in the tree where
/// memory_order_relaxed is permitted — the determinism lint enforces
/// that scope).  Both sides are relaxed on purpose:
///
///  - Atomicity and per-object modification-order coherence are unaffected
///    by the ordering argument: each fetch_add is indivisible and each
///    load returns some fully committed value of the cell — never a torn
///    word, never a value that later "decreases".  A single scraper thread
///    therefore sees every counter monotone across successive snapshots.
///  - EXACTNESS after quiescence comes from a happens-before edge that is
///    established OUTSIDE the counter: writers quiesce via std::thread
///    join (engine teardown), or via an acquire/release mutex pair (e.g.
///    the engine's report mutex, the server's submission mutex) that the
///    reader also passes through.  Any such edge sequences the writer's
///    relaxed add before the reader's relaxed load, so the value is exact.
///    test_tsan_stress asserts this end-to-end under TSan.
///  - UNDER LOAD (scraper racing live writers) no cross-metric ordering is
///    promised: a snapshot may include one counter's newest add but not
///    another's older one.  That is acceptable for liveness metrics and is
///    why no seq_cst/acquire fence is bought here — observation must not
///    order the threads it observes.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (resident bytes, open connections).  Same
/// relaxed contract as Counter.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log-2-bucket histogram: bucket b spans up to first_bound * 2^b,
/// plus a +Inf overflow bucket.  One atomic count, one atomic per bucket
/// and one atomic sum, each under Counter's relaxed contract (a snapshot
/// racing observe() may see the count without the bucket).
class Histogram {
 public:
  struct Options {
    double first_bound = 1e-4;  ///< inclusive upper bound of bucket 0
    int buckets = 22;           ///< finite buckets (bounds double each step)
  };

  Histogram() : Histogram(Options()) {}
  explicit Histogram(Options options);

  void observe(double v) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Per-bucket counts, bounds().size() + 1 entries (last is +Inf).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::size_t bucket_of(double v) const noexcept;

 private:
  std::vector<double> bounds_;
  std::atomic<std::uint64_t> count_{0};
  /// bounds_.size() + 1 cells, the last the +Inf overflow.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One metric's value at snapshot time.
struct MetricValue {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  struct Hist {
    std::vector<double> bounds;          ///< finite upper bounds
    std::vector<std::uint64_t> buckets;  ///< bounds.size()+1, last = +Inf
    std::uint64_t count = 0;
    double sum = 0.0;
  } histogram;
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  ///< registration order

  /// Prometheus text exposition (version 0.0.4): HELP/TYPE comments,
  /// cumulative `le` buckets for histograms.
  [[nodiscard]] std::string prometheus_text() const;

  /// Flat name -> value rendering for the neutrald `metrics` frame op:
  /// counters and gauges verbatim, histograms as name_count / name_sum.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> flat() const;

  [[nodiscard]] const MetricValue* find(const std::string& name) const;
};

/// Named metric registry.  Lookup is idempotent — the first caller creates,
/// later callers get the same instance — and returned references stay valid
/// for the registry's lifetime (instruments cache them once, then write
/// lock-free).  Asking for an existing name as a different type throws.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help = "")
      NEUTRAL_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name, const std::string& help = "")
      NEUTRAL_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name, const std::string& help = "",
                       Histogram::Options options = Histogram::Options())
      NEUTRAL_EXCLUDES(mutex_);

  /// Consistent-enough point-in-time read: each metric is internally
  /// coherent (counters monotone, histogram count == sum of buckets is not
  /// guaranteed under load, but every cell is a valid committed value —
  /// never a torn word).
  [[nodiscard]] MetricsSnapshot snapshot() const NEUTRAL_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(const std::string& name, const std::string& help,
               MetricType type) NEUTRAL_REQUIRES(mutex_);

  /// Guards the registry structure (entries_/index_) only — never the
  /// metric cells themselves, which are lock-free atomics (see Counter).
  mutable Mutex mutex_;
  /// Registration order.
  std::vector<std::unique_ptr<Entry>> entries_ NEUTRAL_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::size_t> index_
      NEUTRAL_GUARDED_BY(mutex_);
};

}  // namespace neutral::obs
