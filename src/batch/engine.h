// Batch execution engine: run many jobs concurrently on a worker pool.
//
// The engine wires the batch pieces together: jobs flow through a bounded
// priority JobQueue to N std::thread workers; each worker resolves its
// job's World through the shared WorldCache, constructs a Simulation
// against it, and runs with a nested OpenMP team of `threads_per_job`
// threads.  Because OpenMP's nthreads setting is per host thread, worker
// teams do not interfere: the node runs workers x threads_per_job hot
// threads.
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

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "batch/job.h"
#include "batch/queue.h"
#include "batch/world_cache.h"
#include "core/simulation.h"

namespace neutral::obs {
class MetricsRegistry;
class TraceLog;
}  // namespace neutral::obs

namespace neutral::batch {

struct EngineOptions {
  /// Worker threads; 0 = min(logical cpus, job count).
  std::int32_t workers = 0;
  /// OpenMP threads per job; 0 = logical cpus / workers (>= 1).
  std::int32_t threads_per_job = 0;
  /// Bounded queue depth; 0 = max(2 x workers, 16).
  std::size_t queue_capacity = 0;
  /// Share Worlds between jobs with identical geometry.
  bool reuse_worlds = true;
  /// World cache byte budget / eviction policy.
  WorldCacheOptions cache;
  /// When a grouped job (Job::group != 0) fails, cancel its still-pending
  /// siblings instead of running them to completion — a failed domain
  /// round's fork-join result is already lost, so its siblings are pure
  /// waste.
  bool cancel_failed_groups = true;
  /// Deadline policy for long-lived deployments (neutrald).  max_queue_wait
  /// bounds both a blocked push and a job's time in queue (stamped onto
  /// Job::deadline; an expired job completes as timed_out unrun).
  /// max_run_wall bounds each config-driven job's running wall clock via
  /// the cooperative SimulationConfig::deadline; custom-work jobs
  /// (Job::work) enforce their own — run_domains stamps it (and `profile`)
  /// into every subdomain's config.  Zero = unbounded, the
  /// fork-join CLI default.
  QueuePolicy policy;
  /// Optional registry: queue, cache, per-outcome and per-event series
  /// land there (src/obs/metrics.h).  Also forwarded to cache.metrics when
  /// that is unset.  Null = unobserved, no overhead beyond nullptr tests.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional JSONL lifecycle trace (submitted/queued/started/terminal
  /// spans per job — src/obs/trace.h).  Null = no trace.
  obs::TraceLog* trace = nullptr;
  /// Enable the §VI-A PhaseProfiler in every config-driven job (stamped
  /// onto SimulationConfig::profile), so BatchReport::phase_totals() can
  /// print the grind-time table aggregated across the sweep.  Custom-work
  /// jobs honour whatever their own configs say (run_domains stamps it).
  bool profile = false;
};

/// Decomposition figures of a domain-decomposed batch::run_sweep row
/// (executor.h); all zero for a plain job.
struct SplitStats {
  std::int32_t grid_rows = 0;   ///< domain grid as planned (mesh-clamped)
  std::int32_t grid_cols = 0;
  std::int64_t migrations = 0;  ///< checkpoints exchanged
  std::int32_t rounds = 0;      ///< transport rounds
};

/// One finished (or failed) job.
struct JobOutcome {
  std::uint64_t job_id = 0;
  std::string label;
  SimulationConfig config;     ///< as executed (threads budget filled in)
  RunResult result;            ///< default-constructed when !ok
  double seconds = 0.0;        ///< wall clock including world acquisition
  /// Seconds between submission and a worker popping the job (0 when the
  /// job never reached a worker).
  double queue_wait_seconds = 0.0;
  bool world_cache_hit = false;
  std::int32_t worker = -1;    ///< which worker ran it (-1: never ran)
  bool ok = false;
  bool cancelled = false;      ///< removed unrun after a sibling failed
  /// Subset of !ok: the job hit a QueuePolicy deadline — expired in the
  /// queue (max_queue_wait) or aborted mid-run (max_run_wall).  Kept
  /// distinct from plain failure so a serving layer can report
  /// `timed_out` and a client can retry with a longer budget.
  bool timed_out = false;
  std::string error;           ///< exception message when !ok
  SplitStats split;            ///< set by run_sweep on decomposed rows

  /// Events over `seconds` — the row's wall rate, the one events/s every
  /// front-end prints.  (result.events_per_second() divides by the
  /// transport seconds, which a decomposed row sums over its parts.)
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
  /// Subset of failed(): jobs cancelled unrun after a sibling failed.
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
  /// Job ids must be unique within the submission.  Safe to call
  /// repeatedly; the world cache persists across runs.
  BatchReport run(std::vector<Job> jobs,
                  const CompletionCallback& on_complete = {});

  /// The shared world cache (persists across run() calls).
  [[nodiscard]] WorldCache& cache() { return cache_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The (workers, threads_per_job) pair run() would use for `n_jobs`,
  /// after applying the oversubscription policy.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> thread_budget(
      std::size_t n_jobs) const;

  /// Count one finished row in the metrics series (EngineOptions::
  /// metrics).  run() counts every job it runs from a config; a row built
  /// from custom-work parts (a domain-decomposed solve) is counted here,
  /// once, by whoever assembles it.
  void note(const JobOutcome& row) const;

  /// The bounded queue depth run() would use with `workers` workers.
  [[nodiscard]] std::size_t queue_depth(std::int32_t workers) const;

 private:
  EngineOptions options_;
  std::int32_t hw_concurrency_;
  WorldCache cache_;
};

}  // namespace neutral::batch
