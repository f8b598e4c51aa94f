// One executor for every front-end's sweep jobs.
//
// neutral_batch and neutrald hand their sweep jobs to run_sweep and keep
// only their rendering (table/CSV, RemoteRow list), so these decisions
// have one owner:
//
//   - dispatch: every job runs as given, all in one engine run; a job
//     spreads over the node through its OpenMP team (the engine's thread
//     budget).
//   - start deadline: a job's Job::deadline is checked by the engine when a
//     worker reaches it.
//   - checks: a row whose result does not conserve energy fails.
//   - cancellation: a client cancel flag rides on every job, and the
//     aborts it causes report as cancelled.
//
// The tally-mode default is the one other shared rule; it lives in
// batch::resolve_tally_mode (sweep.h), which expand_sweep applies and
// neutral's single run calls directly.
#pragma once

#include <atomic>
#include <vector>

#include "batch/engine.h"
#include "batch/job.h"

namespace neutral::batch {

/// Run `jobs` (one sweep, unique ids) and return ONE row per sweep job, in
/// sweep order.  A row is a JobOutcome: status, error, the RunResult, its
/// config with the tally mode and threads as executed, and its wall clock.
/// A row whose result does not conserve energy fails ("energy not
/// conserved").  `cancel` (may be null) is stamped on every job, and a
/// failure it caused reports cancelled.  A job whose Job::deadline passed
/// before it started reports timed_out unrun.  `on_complete` sees each row
/// as it finishes.
BatchReport run_sweep(BatchEngine& engine, std::vector<Job> jobs,
                      const std::atomic<bool>* cancel = nullptr,
                      const BatchEngine::CompletionCallback& on_complete = {});

}  // namespace neutral::batch
