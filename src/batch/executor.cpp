#include "batch/executor.h"

namespace neutral::batch {

BatchReport run_sweep(BatchEngine& engine, std::vector<Job> jobs,
                      const std::atomic<bool>* cancel,
                      const BatchEngine::CompletionCallback& on_complete) {
  if (cancel != nullptr) {
    for (Job& job : jobs) job.config.cancel = cancel;
  }
  BatchReport report = engine.run(std::move(jobs), on_complete);
  for (JobOutcome& row : report.jobs) {
    if (row.ok && !row.result.budget.conserved(1e-9)) {
      row.ok = false;
      row.error = "energy not conserved";
    }
  }
  return report;
}

}  // namespace neutral::batch
