#include "batch/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/host_info.h"
#include "runtime/timer.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace neutral::batch {

namespace {

/// The engine-level series, resolved once per run() (registry lookups are
/// name-keyed; the hot paths only ever touch the cached pointers).
struct EngineMetrics {
  obs::Counter* jobs_ok = nullptr;
  obs::Counter* jobs_failed = nullptr;
  obs::Counter* jobs_timed_out = nullptr;
  obs::Counter* jobs_cancelled = nullptr;
  obs::Histogram* job_wall = nullptr;
  obs::Histogram* job_events_per_second = nullptr;
  obs::Histogram* queue_wait = nullptr;
  obs::Counter* ev_facets = nullptr;
  obs::Counter* ev_collisions = nullptr;
  obs::Counter* ev_censuses = nullptr;
  obs::Counter* ev_rng_draws = nullptr;
  obs::Counter* ev_xs_lookups = nullptr;
  obs::Counter* ev_tally_flushes = nullptr;

  explicit EngineMetrics(obs::MetricsRegistry* m) {
    if (m == nullptr) return;
    jobs_ok = &m->counter("neutral_jobs_ok_total", "jobs that completed");
    jobs_failed =
        &m->counter("neutral_jobs_failed_total",
                    "jobs that failed (excluding timed-out and cancelled)");
    jobs_timed_out = &m->counter("neutral_jobs_timed_out_total",
                                 "jobs that hit a QueuePolicy deadline");
    jobs_cancelled = &m->counter("neutral_jobs_cancelled_total",
                                 "jobs a client cancel stopped");
    job_wall = &m->histogram("neutral_job_wall_seconds",
                             "per-job wall clock incl. world acquisition",
                             {1e-3, 20});
    job_events_per_second =
        &m->histogram("neutral_job_events_per_second",
                      "per-job transport throughput", {1e3, 24});
    queue_wait = &m->histogram("neutral_queue_pop_wait_seconds",
                               "seconds each job waited for a worker");
    ev_facets = &m->counter("neutral_events_facets_total",
                            "facet crossings across all jobs");
    ev_collisions = &m->counter("neutral_events_collisions_total",
                                "collisions across all jobs");
    ev_censuses = &m->counter("neutral_events_censuses_total",
                              "census events across all jobs");
    ev_rng_draws =
        &m->counter("neutral_events_rng_draws_total", "RNG draws");
    ev_xs_lookups = &m->counter("neutral_events_xs_lookups_total",
                                "cross-section lookups");
    ev_tally_flushes = &m->counter("neutral_events_tally_flushes_total",
                                   "tally deposit flushes");
  }

  void note(const JobOutcome& outcome) const {
    if (jobs_ok == nullptr) return;
    if (outcome.ok) {
      jobs_ok->add();
      job_wall->observe(outcome.seconds);
      job_events_per_second->observe(outcome.events_per_second());
      const EventCounters& c = outcome.result.counters;
      ev_facets->add(c.facets);
      ev_collisions->add(c.collisions);
      ev_censuses->add(c.censuses);
      ev_rng_draws->add(c.rng_draws);
      ev_xs_lookups->add(c.xs_lookups);
      ev_tally_flushes->add(c.tally_flushes);
    } else if (outcome.timed_out) {
      jobs_timed_out->add();
    } else if (outcome.cancelled) {
      jobs_cancelled->add();
    } else {
      jobs_failed->add();
    }
  }
};

const char* terminal_event(const JobOutcome& outcome) {
  if (outcome.ok) return "completed";
  if (outcome.timed_out) return "timed_out";
  if (outcome.cancelled) return "cancelled";
  return "failed";
}

/// run()'s shared mutable state: the outcome table, written by every
/// worker.  A class (not a lambda closing over locals) so the lock
/// relationship is expressed in annotations the thread-safety analysis
/// checks.
class RunRecorder {
 public:
  RunRecorder(BatchReport& report, const EngineMetrics& metrics,
              obs::TraceLog* trace,
              const BatchEngine::CompletionCallback& on_complete)
      : report_(report),
        metrics_(metrics),
        trace_(trace),
        on_complete_(on_complete) {}

  /// Record the outcome of the job in submission slot `slot` (and its
  /// metrics/trace/callback side effects) under the lock.
  void record(std::size_t slot, JobOutcome&& outcome)
      NEUTRAL_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    report_.jobs[slot] = std::move(outcome);
    const JobOutcome& done = report_.jobs[slot];
    if (done.worker >= 0 && metrics_.queue_wait != nullptr) {
      metrics_.queue_wait->observe(done.queue_wait_seconds);
    }
    metrics_.note(done);
    if (trace_ != nullptr) {
      obs::TraceEvent event;
      event.event = terminal_event(done);
      event.job_id = done.job_id;
      event.label = done.label;
      event.worker = done.worker;
      if (done.worker >= 0) {
        event.queue_wait_s = done.queue_wait_seconds;
        event.run_wall_s = done.seconds;
      }
      event.detail = done.error;
      trace_->record(event);
    }
    if (on_complete_) on_complete_(done);
  }

 private:
  Mutex mutex_;
  /// Only the jobs table is worker-shared; run() touches the report's
  /// scalar fields strictly before the pool spawns and after it joins.
  BatchReport& report_ NEUTRAL_GUARDED_BY(mutex_);
  const EngineMetrics& metrics_;
  obs::TraceLog* const trace_;
  const BatchEngine::CompletionCallback& on_complete_;
};

}  // namespace

std::size_t BatchReport::completed() const {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) n += j.ok ? 1 : 0;
  return n;
}

std::size_t BatchReport::failed() const { return jobs.size() - completed(); }

std::size_t BatchReport::cancelled() const {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) n += j.cancelled ? 1 : 0;
  return n;
}

std::size_t BatchReport::timed_out() const {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) n += j.timed_out ? 1 : 0;
  return n;
}

std::uint64_t BatchReport::total_events() const {
  std::uint64_t n = 0;
  for (const JobOutcome& j : jobs) {
    if (j.ok) n += j.result.counters.total_events();
  }
  return n;
}

double BatchReport::events_per_second() const {
  return wall_seconds > 0.0
             ? static_cast<double>(total_events()) / wall_seconds
             : 0.0;
}

PhaseProfiler::Report BatchReport::phase_totals() const {
  PhaseProfiler::Report total;
  for (const JobOutcome& j : jobs) {
    if (j.ok) total += j.result.phases;
  }
  return total;
}

namespace {

/// An engine-level registry also observes the world cache unless the
/// caller pointed the cache somewhere else explicitly.
EngineOptions with_cache_metrics(EngineOptions options) {
  if (options.metrics != nullptr && options.cache.metrics == nullptr) {
    options.cache.metrics = options.metrics;
  }
  return options;
}

}  // namespace

BatchEngine::BatchEngine(EngineOptions options)
    : options_(with_cache_metrics(options)),
      hw_concurrency_(probe_host().logical_cpus),
      cache_(options_.cache) {
  NEUTRAL_REQUIRE(options_.policy.max_queue_wait.count() >= 0 &&
                      options_.policy.max_run_wall.count() >= 0,
                  "queue policy durations must be non-negative");
}

std::pair<std::int32_t, std::int32_t> BatchEngine::thread_budget(
    std::size_t n_jobs) const {
  std::int32_t workers = options_.workers;
  if (workers <= 0) {
    workers = std::min<std::int32_t>(
        hw_concurrency_, static_cast<std::int32_t>(std::max<std::size_t>(
                             n_jobs, 1)));
  }
  workers = std::max<std::int32_t>(workers, 1);

  // workers x threads_per_job <= hw_concurrency: fill the node, never
  // oversubscribe it.
  const std::int32_t budget = std::max<std::int32_t>(
      1, hw_concurrency_ / workers);
  std::int32_t threads = options_.threads_per_job;
  threads = threads <= 0 ? budget : std::min(threads, budget);
  return {workers, threads};
}

BatchReport BatchEngine::run(std::vector<Job> jobs,
                             const CompletionCallback& on_complete) {
  BatchReport report;
  const auto [workers, threads_per_job] = thread_budget(jobs.size());
  report.workers = workers;
  report.threads_per_job = threads_per_job;
  report.jobs.resize(jobs.size());
  if (jobs.empty()) return report;

  const WorldCache::Stats cache_before = cache_.stats();
  const EngineMetrics metrics(options_.metrics);
  obs::TraceLog* const trace = options_.trace;
  WallTimer wall;

  // Every job is submitted and queued at once: stamp the queue-wait
  // deadline and trace both events before any worker starts.
  const auto submitted_at = std::chrono::steady_clock::now();
  std::unordered_set<std::uint64_t> ids;
  ids.reserve(jobs.size());
  for (Job& job : jobs) {
    NEUTRAL_REQUIRE(ids.insert(job.id).second,
                    "duplicate job id in batch submission");
    if (options_.policy.max_queue_wait.count() > 0) {
      job.deadline = std::min(job.deadline,
                              submitted_at + options_.policy.max_queue_wait);
    }
    if (trace != nullptr) {
      obs::TraceEvent event;
      event.job_id = job.id;
      event.label = job.label;
      event.event = "submitted";
      trace->record(event);
      event.event = "queued";
      trace->record(event);
    }
  }

  // Workers claim slots in submission order through one shared cursor.
  RunRecorder recorder(report, metrics, trace, on_complete);
  std::atomic<std::size_t> next{0};
  auto worker_loop = [&](std::int32_t worker_id) {
    for (std::size_t slot = next.fetch_add(1); slot < jobs.size();
         slot = next.fetch_add(1)) {
      const Job& job = jobs[slot];
      JobOutcome outcome;
      outcome.job_id = job.id;
      outcome.label = job.label;
      outcome.config = job.config;
      outcome.worker = worker_id;
      outcome.queue_wait_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        submitted_at)
              .count();
      if (trace != nullptr) {
        obs::TraceEvent event;
        event.event = "started";
        event.job_id = job.id;
        event.label = job.label;
        event.worker = worker_id;
        event.queue_wait_s = outcome.queue_wait_seconds;
        trace->record(event);
      }
      WallTimer timer;
      if (std::chrono::steady_clock::now() > job.deadline) {
        // Expired before it started (max_queue_wait): completes as
        // timed_out without wasting the pool on a result nobody is waiting
        // for.
        outcome.timed_out = true;
        outcome.error = "timed out waiting in queue (max_queue_wait)";
      } else {
        try {
          SimulationConfig config = job.config;
          if (config.threads <= 0) config.threads = threads_per_job;
          if (options_.profile) config.profile = true;
          if (options_.policy.max_run_wall.count() > 0) {
            config.deadline = std::min(
                config.deadline, std::chrono::steady_clock::now() +
                                     options_.policy.max_run_wall);
          }
          std::shared_ptr<const World> world = cache_.acquire(
              config.deck, job.fingerprint, &outcome.world_cache_hit);
          Simulation sim(std::move(config), std::move(world));
          outcome.result = sim.run();
          outcome.config = sim.config();
          outcome.ok = outcome.result.budget.conserved(1e-9);
          if (!outcome.ok) outcome.error = "energy not conserved";
        } catch (const TimeoutError& e) {
          outcome.timed_out = true;
          outcome.error = e.what();
        } catch (const CancelledError& e) {
          outcome.cancelled = true;
          outcome.error = e.what();
        } catch (const std::exception& e) {
          outcome.error = e.what();
        }
      }
      outcome.seconds = timer.seconds();
      recorder.record(slot, std::move(outcome));
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (std::int32_t w = 0; w < workers; ++w) {
    pool.emplace_back(worker_loop, w);
  }
  for (std::thread& t : pool) t.join();

  report.wall_seconds = wall.seconds();
  const WorldCache::Stats cache_after = cache_.stats();
  report.cache.hits = cache_after.hits - cache_before.hits;
  report.cache.misses = cache_after.misses - cache_before.misses;
  report.cache.evictions = cache_after.evictions - cache_before.evictions;
  report.cache.resident_worlds = cache_after.resident_worlds;
  report.cache.resident_bytes = cache_after.resident_bytes;
  return report;
}

}  // namespace neutral::batch
