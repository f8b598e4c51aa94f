// Tests for the one sweep executor (batch::run_sweep) and the rules every
// front-end shares through it: the tally-mode default, one row per sweep
// job in sweep order, per-row failure isolation, and client cancels.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "batch/sweep.h"
#include "core/simulation.h"

namespace neutral {
namespace {

using batch::BatchEngine;
using batch::BatchReport;
using batch::EngineOptions;
using batch::Job;
using batch::JobOutcome;

/// A 2-job sweep (Over Particles, Over Events) on one small csp deck.
batch::SweepSpec two_job_spec() {
  return batch::parse_sweep(
      "deck csp\n"
      "mesh_scale 0.02\n"
      "particle_scale 1\n"
      "particles 300\n"
      "timesteps 2\n"
      "threads 1\n"
      "axis scheme particles events\n");
}

RunResult run_plain(SimulationConfig cfg) {
  Simulation sim(std::move(cfg));
  return sim.run();
}

TEST(TallyDefault, OneRuleForEveryFrontEnd) {
  const auto named = [](TallyMode m) { return std::optional<TallyMode>(m); };
  // A named mode is never rewritten — atomic on Over Events included.
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents,
                                      named(TallyMode::kAtomic)),
            TallyMode::kAtomic);
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents,
                                      named(TallyMode::kDeferredAtomic)),
            TallyMode::kDeferredAtomic);
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverParticles,
                                      named(TallyMode::kPrivatized)),
            TallyMode::kPrivatized);
  // Unnamed: atomic for Over Particles, §VI-G deferred for Over Events.
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverParticles, std::nullopt),
            TallyMode::kAtomic);
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents, std::nullopt),
            TallyMode::kDeferredAtomic);
}

TEST(RunSweep, EveryRowMatchesTheReferenceRun) {
  const std::vector<Job> jobs = batch::expand_sweep(two_job_spec());
  ASSERT_EQ(jobs.size(), 2u);

  EngineOptions options;
  options.workers = 2;
  BatchEngine engine(options);
  const BatchReport report = batch::run_sweep(engine, jobs);
  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& row = report.jobs[i];
    ASSERT_TRUE(row.ok) << row.error;
    // Rows come back in sweep order, one per sweep job.
    EXPECT_EQ(row.job_id, jobs[i].id);
    EXPECT_EQ(row.label, jobs[i].label);
    // The tally mode as executed: §VI-G deferred for Over Events.
    const bool events = jobs[i].config.scheme == Scheme::kOverEvents;
    EXPECT_EQ(row.config.tally_mode,
              events ? TallyMode::kDeferredAtomic : TallyMode::kAtomic);
    const RunResult reference = run_plain(jobs[i].config);
    EXPECT_EQ(row.result.tally_checksum, reference.tally_checksum);
    EXPECT_EQ(row.result.population, reference.population);
    EXPECT_EQ(row.result.counters.total_events(),
              reference.counters.total_events());
  }
}

TEST(RunSweep, AFailingJobFailsOnlyItsOwnRow) {
  batch::SweepSpec spec = two_job_spec();
  spec.axes.schemes.clear();
  spec.axes.particles = {300, 0};  // an empty bank cannot run
  BatchEngine engine;
  const BatchReport report =
      batch::run_sweep(engine, batch::expand_sweep(spec));
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[0].ok) << report.jobs[0].error;
  EXPECT_FALSE(report.jobs[1].ok);
  EXPECT_FALSE(report.jobs[1].error.empty());
  EXPECT_EQ(report.failed(), 1u);
}

TEST(RunSweep, AClientCancelReportsCancelledRows) {
  const std::atomic<bool> cancel{true};
  BatchEngine engine;
  std::size_t notified_cancelled = 0;  // serialised callback: no lock
  const BatchReport report = batch::run_sweep(
      engine, batch::expand_sweep(two_job_spec()), &cancel,
      [&](const JobOutcome& outcome) {
        notified_cancelled += outcome.cancelled ? 1 : 0;
      });
  ASSERT_EQ(report.jobs.size(), 2u);
  for (const JobOutcome& row : report.jobs) {
    EXPECT_FALSE(row.ok);
    EXPECT_TRUE(row.cancelled) << row.error;
  }
  EXPECT_EQ(notified_cancelled, 2u);
  EXPECT_EQ(report.cancelled(), 2u);
}

}  // namespace
}  // namespace neutral
