// One executor for every way a sweep job runs: plain or domain-decomposed.
//
// neutral, neutral_batch and neutrald hand their sweep jobs to run_sweep
// and keep only their rendering (run report, table/CSV, RemoteRow list),
// so these decisions have one owner:
//
//   - dispatch: plain jobs run as given, all in one engine run; a plain
//     job spreads over the node through its OpenMP team (the engine's
//     thread budget).  A domain grid decomposes the decks one after
//     another (batch/domain.h) — each solve is itself a fork-join of
//     subdomain rounds over the pool.
//   - threads: a partial domain solve runs its job's pinned `threads`, or
//     else the engine's thread_budget over the subdomains.
//   - groups: every round job is a make_part_job of its sweep job.
//   - start deadline: a plain job's Job::deadline is checked by the engine
//     when a worker reaches it; a decomposed row whose deadline passed
//     before its solve starts reports timed_out unrun.
//   - reduction and checks: each decomposed job's subdomains stitch back
//     to ONE row through the compensated reduction, and a row whose result
//     does not conserve energy fails.
//   - cancellation: a client cancel flag rides on every job, and the
//     aborts it causes report as cancelled.
//
// The tally-mode default is the one other shared rule; it lives in
// batch::resolve_tally_mode (sweep.h), which expand_sweep applies.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/engine.h"
#include "batch/job.h"

namespace neutral::batch {

/// How each sweep job is spread over the node: plain (threads only) or
/// over a domain grid.
struct Decomposition {
  /// Domain grid; 0 x 0 = no mesh decomposition.
  std::int32_t rows = 0;
  std::int32_t cols = 0;

  /// The front-ends' spelling: `--domains RxC` ("" = plain).
  static Decomposition parse(const std::string& domains);

  [[nodiscard]] bool domains() const { return rows > 0; }
  /// "plain", "2x2 domains".
  [[nodiscard]] std::string describe() const;
};

/// Run `jobs` (one sweep, unique ids) under `how` and return ONE row per
/// sweep job, in sweep order.  A row is a JobOutcome: status, error, the
/// RunResult (stitched for decomposed rows), its config with the tally
/// mode and threads as executed, seconds (a plain job's wall clock, a
/// domain row's whole solve) and, for decomposed rows, JobOutcome::split.
/// A row whose result does not conserve energy fails ("energy not
/// conserved"); a job that cannot be decomposed fails only its own row.
/// `cancel` (may be null) is stamped on every job, and a failure it caused
/// reports cancelled.  A job whose Job::deadline passed before it started
/// reports timed_out unrun.  `on_complete` sees each row as it finishes (a
/// domain sweep's round jobs are internal).  The report's pool and cache
/// figures cover the whole sweep.
BatchReport run_sweep(BatchEngine& engine, std::vector<Job> jobs,
                      const Decomposition& how,
                      const std::atomic<bool>* cancel = nullptr,
                      const BatchEngine::CompletionCallback& on_complete = {});

}  // namespace neutral::batch
