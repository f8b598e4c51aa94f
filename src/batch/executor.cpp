#include "batch/executor.h"

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
  return !outcome.ok && cancel_requested(cancel) &&
         outcome.error.find("run cancelled") != std::string::npos;
}

/// The checks every row gets: a client cancel explains the aborts it
/// caused, and a result that does not conserve energy fails its row.
void settle(JobOutcome& row, const std::atomic<bool>* cancel) {
  if (row.ok && !row.result.budget.conserved(1e-9)) {
    row.ok = false;
    row.error = "energy not conserved";
  }
  if (cancelled_by(row, cancel)) row.cancelled = true;
}

}  // namespace

BatchReport run_sweep(BatchEngine& engine, std::vector<Job> jobs,
                      const std::atomic<bool>* cancel,
                      const BatchEngine::CompletionCallback& on_complete) {
  if (cancel != nullptr) {
    for (Job& job : jobs) job.config.cancel = cancel;
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
