// Batch job: one fully-specified solve awaiting execution.
//
// A Job is a value — deck plus every §V/§VI configuration knob, carried in
// a SimulationConfig — tagged with the scheduling metadata the engine
// needs: a stable id (unique within a batch; report rows and callbacks are
// keyed by it), a priority (higher pops first), and the fingerprint of the
// deck's world so the engine can route jobs with identical geometry to one
// cached World (batch/world_cache.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "core/simulation.h"
#include "core/world.h"

namespace neutral::batch {

struct Job {
  /// Stable identifier, unique within one batch submission.
  std::uint64_t id = 0;
  /// Fork-join group; 0 = ungrouped.  When a grouped job fails, the engine
  /// cancels its still-pending siblings (JobQueue::cancel_pending) instead
  /// of letting them waste the pool.
  std::uint64_t group = 0;
  /// Higher-priority jobs pop from the queue first; ties are FIFO.
  std::int32_t priority = 0;
  /// Short human label for report rows ("csp/over-events/SoA/n=4000").
  std::string label;
  /// The complete run description.  config.threads > 0 pins this job's
  /// OpenMP team size; 0 lets the engine apply its per-job budget.
  SimulationConfig config;
  /// world_fingerprint(config.deck), precomputed at submission.
  std::uint64_t fingerprint = 0;
  /// Absolute deadline by which the job must START running; a worker
  /// popping an expired job completes it as timed_out without running it
  /// (and cancels its group like a failure).  time_point::max() = none.
  /// The engine stamps this from QueuePolicy::max_queue_wait at submission
  /// when the submitter left it unset; an earlier submitter deadline wins.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Custom work: when set, the worker runs this instead of constructing a
  /// Simulation from `config` — the hook that lets stateful fork-join
  /// phases (domain-decomposition transport rounds, which keep per-
  /// subdomain Simulations alive across calls) ride the worker pool.  The
  /// functor runs on a worker thread; exceptions mark the job failed, and
  /// group cancellation applies as usual.  The world cache is bypassed,
  /// and the job is not counted in the job metrics: it is part of a row
  /// its caller counts (BatchEngine::note).
  std::function<RunResult()> work;
};

/// Construct a job, filling in the fingerprint and a default label.
Job make_job(std::uint64_t id, SimulationConfig config,
             std::int32_t priority = 0, std::string label = "");

/// A fork-join part of sweep job `parent` — one subdomain's transport
/// round.  It queues at the parent's priority and joins group
/// parent.id + 1 (non-zero and unique per sweep job), so a failed part
/// cancels only its own siblings.  Config, work and fingerprint are the
/// caller's to fill.
Job make_part_job(const Job& parent, std::uint64_t id, std::string label);

/// "deck/scheme/layout/n=<particles>" — the default row label.
std::string describe(const SimulationConfig& config);

}  // namespace neutral::batch
