#include "batch/executor.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "batch/domain.h"
#include "runtime/timer.h"

namespace neutral::batch {

namespace {

bool cancel_requested(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load();
}

/// Did this error come from the cooperative cancel check
/// (Simulation::check_interrupt)?  Tells a job the CLIENT stopped apart
/// from one that failed on its own before the cancel arrived.
bool cancelled_by(const JobOutcome& outcome,
                  const std::atomic<bool>* cancel) {
  return !outcome.ok && !outcome.cancelled && cancel_requested(cancel) &&
         outcome.error.find("run cancelled") != std::string::npos;
}

/// The checks every row shares: a client cancel explains the aborts it
/// caused, and a result that does not conserve energy fails its row.
void settle(JobOutcome& row, const std::atomic<bool>* cancel) {
  if (row.ok && !row.result.budget.conserved(1e-9)) {
    row.ok = false;
    row.error = "energy not conserved";
  }
  if (cancelled_by(row, cancel)) row.cancelled = true;
}

/// Decks decompose one after another — each solve is itself a fork-join
/// over the pool.  Rows settle and report as each solve finishes.
BatchReport domain_sweep(BatchEngine& engine, const std::vector<Job>& sweep,
                         const Decomposition& how,
                         const std::atomic<bool>* cancel,
                         const BatchEngine::CompletionCallback& on_complete) {
  BatchReport report;
  const WorldCache::Stats cache_before = engine.cache().stats();
  WallTimer wall;
  DomainOptions opt;
  opt.rows = how.rows;
  opt.cols = how.cols;
  report.jobs.reserve(sweep.size());
  for (const Job& job : sweep) {
    JobOutcome row;
    row.job_id = job.id;
    row.label = job.label;
    row.config = job.config;
    if (cancel_requested(cancel)) {
      row.cancelled = true;
      row.error = "cancelled";
    } else if (std::chrono::steady_clock::now() > job.deadline) {
      row.timed_out = true;
      row.error = "timed out waiting in queue (max_queue_wait)";
    } else {
      try {
        DomainRunReport solve = run_domains(engine, job, opt);
        row.config = solve.config;
        row.ok = solve.ok;
        row.timed_out = solve.timed_out;
        row.error = std::move(solve.error);
        row.result = std::move(solve.merged);
        row.seconds = solve.wall_seconds;
        row.split.grid_rows = solve.grid.rows;
        row.split.grid_cols = solve.grid.cols;
        row.split.migrations = solve.migrations;
        row.split.rounds = solve.rounds;
        report.workers = std::max(
            report.workers, engine.thread_budget(solve.sourced.size()).first);
        report.threads_per_job = solve.config.threads;
      } catch (const std::exception& e) {
        row.error = e.what();
      }
    }
    settle(row, cancel);
    engine.note(row);
    if (on_complete) on_complete(row);
    report.jobs.push_back(std::move(row));
  }
  report.wall_seconds = wall.seconds();
  const WorldCache::Stats cache_after = engine.cache().stats();
  report.cache = cache_after;
  report.cache.hits = cache_after.hits - cache_before.hits;
  report.cache.misses = cache_after.misses - cache_before.misses;
  report.cache.evictions = cache_after.evictions - cache_before.evictions;
  return report;
}

}  // namespace

Decomposition Decomposition::parse(const std::string& domains) {
  Decomposition how;
  if (!domains.empty()) {
    std::tie(how.rows, how.cols) = parse_domain_grid(domains);
  }
  return how;
}

std::string Decomposition::describe() const {
  if (!domains()) return "plain";
  return std::to_string(rows) + "x" + std::to_string(cols) + " domains";
}

BatchReport run_sweep(BatchEngine& engine, std::vector<Job> jobs,
                      const Decomposition& how,
                      const std::atomic<bool>* cancel,
                      const BatchEngine::CompletionCallback& on_complete) {
  if (cancel != nullptr) {
    for (Job& job : jobs) job.config.cancel = cancel;
  }
  if (how.domains()) {
    return domain_sweep(engine, jobs, how, cancel, on_complete);
  }
  // Engine jobs reach the callback already labelled as the rows will be.
  BatchEngine::CompletionCallback notify;
  if (on_complete) {
    notify = [&on_complete, cancel](const JobOutcome& outcome) {
      if (!cancelled_by(outcome, cancel)) return on_complete(outcome);
      JobOutcome relabelled = outcome;
      relabelled.cancelled = true;
      on_complete(relabelled);
    };
  }
  BatchReport report = engine.run(std::move(jobs), notify);
  for (JobOutcome& row : report.jobs) settle(row, cancel);
  return report;
}

}  // namespace neutral::batch
