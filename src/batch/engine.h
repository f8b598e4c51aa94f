// Batch execution engine: run many jobs concurrently on a worker pool.
//
// The engine wires the batch pieces together: run() receives its whole
// job list up front, and N std::thread workers take jobs from it in
// submission order by advancing one shared cursor (the same fixed index
// range a timestep's particles are split over an OpenMP team by).  Each
// worker resolves its job's World through the shared WorldCache,
// constructs a Simulation against it, and runs with a nested OpenMP team
// of `threads_per_job` threads.  Because OpenMP's nthreads setting is per
// host thread, worker teams do not interfere: the node runs workers x
// threads_per_job hot threads.
//
// Oversubscription policy: workers x threads_per_job <= hw_concurrency
// (probe_host().logical_cpus).  Defaults derive one from the other —
// workers = min(cpus, jobs), threads_per_job = cpus / workers — so a lone
// job (one deck) runs as one OpenMP team over the whole node, and a sweep
// trades team width for concurrency across jobs.  An explicit
// threads_per_job is clamped to the per-worker budget.  An explicit
// worker count is honoured as given, even beyond the cpu count (useful
// for tests and I/O-bound jobs); threads_per_job then pins to 1.
//
// Determinism: a job's physics depends only on its SimulationConfig (the
// RNG is counter-based, keyed by deck.seed — rng/stream.h), so per-job
// results are invariant to worker count and completion order.  The report
// lists outcomes in submission order regardless of completion order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "batch/job.h"
#include "batch/world_cache.h"
#include "core/simulation.h"

namespace neutral::obs {
class MetricsRegistry;
class TraceLog;
}  // namespace neutral::obs

namespace neutral::batch {

/// Deadline policy for long-lived deployments (neutrald).  Zero means
/// unbounded — the fork-join CLI default, where waits are known finite.
struct QueuePolicy {
  /// Bounds how long a job may wait before a worker starts it: run()
  /// caps each Job::deadline at its start + this, and an expired job
  /// completes as timed_out without running.
  std::chrono::milliseconds max_queue_wait{0};
  /// Bounds one job's running wall clock.  Enforced through the
  /// cooperative SimulationConfig::deadline (checked at timestep
  /// boundaries); an expired run completes as timed_out.
  std::chrono::milliseconds max_run_wall{0};
};

struct EngineOptions {
  /// Worker threads; 0 = min(logical cpus, job count).
  std::int32_t workers = 0;
  /// OpenMP threads per job; 0 = logical cpus / workers (>= 1).
  std::int32_t threads_per_job = 0;
  /// Share Worlds between jobs with identical geometry.
  bool reuse_worlds = true;
  /// World cache byte budget / eviction policy.
  WorldCacheOptions cache;
  /// Deadline policy (see QueuePolicy).  max_run_wall reaches each job
  /// through SimulationConfig::deadline.
  QueuePolicy policy;
  /// Optional registry: queue-wait, cache, per-outcome and per-event series
  /// land there (src/obs/metrics.h).  Also forwarded to cache.metrics when
  /// that is unset.  Null = unobserved, no overhead beyond nullptr tests.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional JSONL lifecycle trace (submitted/queued/started/terminal
  /// spans per job — src/obs/trace.h).  Null = no trace.
  obs::TraceLog* trace = nullptr;
  /// Enable the §VI-A PhaseProfiler in every job (stamped onto
  /// SimulationConfig::profile), so BatchReport::phase_totals() can print
  /// the grind-time table aggregated across the sweep.
  bool profile = false;
};

/// One finished (or failed) job.
struct JobOutcome {
  std::uint64_t job_id = 0;
  std::string label;
  SimulationConfig config;     ///< as executed (threads budget filled in)
  RunResult result;            ///< default-constructed when !ok
  double seconds = 0.0;        ///< wall clock including world acquisition
  /// Seconds between run() start and a worker taking the job (0 when the
  /// job never reached a worker).
  double queue_wait_seconds = 0.0;
  bool world_cache_hit = false;
  std::int32_t worker = -1;    ///< which worker ran it (-1: never ran)
  bool ok = false;
  /// Subset of !ok: a client cancel (SimulationConfig::cancel) stopped it
  /// (the run threw CancelledError).  Counted and traced as cancelled, not
  /// as failed.
  bool cancelled = false;
  /// Subset of !ok: the job hit a QueuePolicy deadline — expired before
  /// it started (max_queue_wait) or aborted mid-run (max_run_wall).  Kept
  /// distinct from plain failure so a serving layer can report
  /// `timed_out` and a client can retry with a longer budget.
  bool timed_out = false;
  std::string error;           ///< exception message when !ok

  /// Events over `seconds` — the row's wall rate including world
  /// acquisition, the one events/s every front-end prints.
  /// (result.events_per_second() divides by the transport seconds only.)
  [[nodiscard]] double events_per_second() const {
    return seconds > 0.0
               ? static_cast<double>(result.counters.total_events()) / seconds
               : 0.0;
  }
};

/// Aggregate result of one BatchEngine::run().
struct BatchReport {
  std::vector<JobOutcome> jobs;  ///< submission order
  double wall_seconds = 0.0;
  std::int32_t workers = 0;
  std::int32_t threads_per_job = 0;
  /// This run's hit/miss/eviction deltas plus the cache's current resident
  /// set (worlds and estimated bytes) at the end of the run.
  WorldCache::Stats cache;

  [[nodiscard]] std::size_t completed() const;
  [[nodiscard]] std::size_t failed() const;
  /// Subset of failed(): jobs a client cancel stopped.
  [[nodiscard]] std::size_t cancelled() const;
  /// Subset of failed(): jobs that hit a QueuePolicy deadline.
  [[nodiscard]] std::size_t timed_out() const;
  /// Sum of per-job transport events over the batch wall clock — the
  /// node-throughput figure batching exists to maximise.
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] double events_per_second() const;
  /// Sum of successful jobs' phase profiles — all-zero unless the engine
  /// (or the jobs' own configs) enabled profiling.  Feed through
  /// format_grind_table for the paper's §VI-A table over a whole sweep.
  [[nodiscard]] PhaseProfiler::Report phase_totals() const;
};

class BatchEngine {
 public:
  explicit BatchEngine(EngineOptions options = {});

  /// Serialised per-completion hook (called from worker threads under the
  /// engine lock, so implementations need no locking of their own).
  using CompletionCallback = std::function<void(const JobOutcome&)>;

  /// Run every job to completion and return the aggregated report.
  /// Workers start jobs in submission order.  Job ids must be unique
  /// within the submission.  Safe to call repeatedly; the world cache
  /// persists across runs.
  BatchReport run(std::vector<Job> jobs,
                  const CompletionCallback& on_complete = {});

  /// The shared world cache (persists across run() calls).
  [[nodiscard]] WorldCache& cache() { return cache_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The (workers, threads_per_job) pair run() would use for `n_jobs`,
  /// after applying the oversubscription policy.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> thread_budget(
      std::size_t n_jobs) const;

 private:
  EngineOptions options_;
  std::int32_t hw_concurrency_;
  WorldCache cache_;
};

}  // namespace neutral::batch
