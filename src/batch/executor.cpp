#include "batch/executor.h"

#include <algorithm>
#include <tuple>

#include "batch/domain.h"
#include "batch/shard.h"
#include "runtime/timer.h"
#include "util/error.h"

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

JobOutcome row_of(const Job& job) {
  JobOutcome row;
  row.job_id = job.id;
  row.label = job.label;
  row.config = job.config;
  return row;
}

/// Fold one job's shard outcomes (in shard order) into its row.  On any
/// failure the row reports the root cause — a failed shard, not a
/// cancelled sibling that happens to sit earlier.
void reduce_group(JobOutcome& row, const JobOutcome* parts,
                  std::size_t count) {
  row.split.shards = static_cast<std::int32_t>(count);
  const JobOutcome* failure = nullptr;
  for (std::size_t s = 0; s < count; ++s) {
    if (parts[s].ok) continue;
    if (failure == nullptr || (failure->cancelled && !parts[s].cancelled)) {
      failure = &parts[s];
    }
  }
  if (failure != nullptr) {
    row.timed_out = failure->timed_out;
    row.cancelled = failure->cancelled;
    row.error = failure->label +
                (failure->cancelled   ? " cancelled: "
                 : failure->timed_out ? " timed out: "
                                      : " failed: ") +
                failure->error;
    return;
  }
  std::vector<const RunResult*> results;
  results.reserve(count);
  double sum_seconds = 0.0;
  for (std::size_t s = 0; s < count; ++s) {
    results.push_back(&parts[s].result);
    row.seconds = std::max(row.seconds, parts[s].seconds);
    sum_seconds += parts[s].seconds;
  }
  row.split.imbalance =
      sum_seconds > 0.0
          ? row.seconds / (sum_seconds / static_cast<double>(count))
          : 0.0;
  row.result = reduce_shards(results);
  row.ok = true;
}

/// Every job's shard jobs go into ONE engine run; each contiguous group
/// then reduces back to its job's row.
BatchReport shard_sweep(BatchEngine& engine, const std::vector<Job>& sweep,
                        std::int32_t shards,
                        const BatchEngine::CompletionCallback& on_complete) {
  // Plan every job first: the total part count sets the thread budget.
  std::vector<JobOutcome> rows;
  std::vector<std::vector<ParticleSpan>> spans(sweep.size());
  rows.reserve(sweep.size());
  std::size_t n_parts = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    rows.push_back(row_of(sweep[i]));
    try {
      NEUTRAL_REQUIRE(sweep[i].config.span.whole_bank(),
                      "cannot shard a config that already has a particle "
                      "span");
      spans[i] = plan_shards(sweep[i].config.deck.n_particles, shards);
      n_parts += spans[i].size();
    } catch (const std::exception& e) {
      rows[i].error = e.what();
    }
  }
  const std::int32_t budget = engine.thread_budget(n_parts).second;

  std::vector<Job> parts;
  parts.reserve(n_parts);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const Job& job = sweep[i];
    rows[i].config = part_config(
        job.config, job.config.threads > 0 ? job.config.threads : budget);
    for (std::size_t s = 0; s < spans[i].size(); ++s) {
      const ParticleSpan& span = spans[i][s];
      Job part = make_part_job(
          job, parts.size(),
          job.label + "/shard " + std::to_string(s) + "/" +
              std::to_string(spans[i].size()) + " [" +
              std::to_string(span.first_id) + "," +
              std::to_string(span.first_id + span.count) + ")");
      part.fingerprint = job.fingerprint;
      part.config = rows[i].config;
      part.config.span = span;
      parts.push_back(std::move(part));
    }
  }

  BatchReport report = engine.run(std::move(parts), on_complete);
  std::size_t next = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (spans[i].empty()) continue;  // planning failed; error already set
    reduce_group(rows[i], &report.jobs.at(next), spans[i].size());
    next += spans[i].size();
  }
  report.jobs = std::move(rows);
  return report;
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
  opt.shards = std::max(how.shards, 1);
  report.jobs.reserve(sweep.size());
  for (const Job& job : sweep) {
    JobOutcome row = row_of(job);
    if (cancel_requested(cancel)) {
      row.cancelled = true;
      row.error = "cancelled";
    } else {
      try {
        DomainRunReport solve = run_domains(engine, job, opt);
        row.config = part_config(job.config, solve.threads);
        row.ok = solve.ok;
        row.timed_out = solve.timed_out;
        row.error = std::move(solve.error);
        row.result = std::move(solve.merged);
        row.seconds = solve.wall_seconds;
        row.split.shards = solve.shards;
        row.split.grid_rows = solve.grid.rows;
        row.split.grid_cols = solve.grid.cols;
        row.split.migrations = solve.migrations;
        row.split.rounds = solve.rounds;
        report.workers = std::max(
            report.workers, engine.thread_budget(solve.sourced.size()).first);
        report.threads_per_job = solve.threads;
      } catch (const std::exception& e) {
        row.error = e.what();
      }
    }
    settle(row, cancel);
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

Decomposition Decomposition::parse(std::int32_t shards,
                                   const std::string& domains) {
  NEUTRAL_REQUIRE(shards >= 0, "shards must be >= 0");
  Decomposition how;
  how.shards = shards;
  if (!domains.empty()) {
    std::tie(how.rows, how.cols) = parse_domain_grid(domains);
  }
  return how;
}

std::string Decomposition::describe() const {
  const std::string bank =
      std::to_string(shards) + (shards == 1 ? " shard" : " shards");
  if (!domains()) return shards > 0 ? bank : "plain";
  return std::to_string(rows) + "x" + std::to_string(cols) + " domains" +
         (shards > 0 ? " x " + bank : "");
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
  BatchReport report = how.shards > 0
                           ? shard_sweep(engine, jobs, how.shards, notify)
                           : engine.run(std::move(jobs), notify);
  for (JobOutcome& row : report.jobs) settle(row, cancel);
  return report;
}

}  // namespace neutral::batch
