// Batch job: one fully-specified solve awaiting execution.
//
// A Job is a value — deck plus every §V/§VI configuration knob, carried in
// a SimulationConfig — tagged with the metadata the engine needs: a stable
// id (unique within a batch; report rows and callbacks are keyed by it), a
// start deadline, and the fingerprint of the deck's world so the engine
// can route jobs with identical geometry to one cached World
// (batch/world_cache.h).  The engine starts jobs in submission order.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "core/simulation.h"
#include "core/world.h"

namespace neutral::batch {

struct Job {
  /// Stable identifier, unique within one batch submission.
  std::uint64_t id = 0;
  /// Short human label for report rows ("csp/over-events/SoA/n=4000").
  std::string label;
  /// The complete run description.  config.threads > 0 pins this job's
  /// OpenMP team size; 0 lets the engine apply its per-job budget.
  SimulationConfig config;
  /// world_fingerprint(config.deck), precomputed at submission.
  std::uint64_t fingerprint = 0;
  /// Absolute deadline by which the job must START running; a worker
  /// reaching an expired job completes it as timed_out without running it.
  /// time_point::max() = none.  The engine honours it as given; neutrald
  /// stamps its accept time + ServerOptions::max_queue_wait.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Construct a job, filling in the fingerprint and a default label.
Job make_job(std::uint64_t id, SimulationConfig config, std::string label = "");

/// "deck/scheme/layout/n=<particles>" — the default row label.
std::string describe(const SimulationConfig& config);

}  // namespace neutral::batch
