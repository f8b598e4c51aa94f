// Tests for the one sweep executor (batch::run_sweep) and the rules every
// front-end shares through it: the decomposition spelling, the tally-mode
// default, one reduced row per sweep job in sweep order, and per-row
// failure isolation — across plain and domain-decomposed runs.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "batch/sweep.h"
#include "core/simulation.h"
#include "util/error.h"

namespace neutral {
namespace {

using batch::BatchEngine;
using batch::BatchReport;
using batch::Decomposition;
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

// The decompositions the executor must agree across.
const char* const kModes[] = {"", "1x1", "2x1"};

Decomposition mode(std::size_t m) { return Decomposition::parse(kModes[m]); }

TEST(TallyDefault, OneRuleForEveryFrontEnd) {
  const auto named = [](TallyMode m) { return std::optional<TallyMode>(m); };
  for (const bool domains : {false, true}) {
    // A named mode is never rewritten — atomic on Over Events included.
    EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents,
                                        named(TallyMode::kAtomic), domains),
              TallyMode::kAtomic);
    EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents,
                                        named(TallyMode::kDeferredAtomic),
                                        domains),
              TallyMode::kDeferredAtomic);
    EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverParticles,
                                        named(TallyMode::kPrivatized),
                                        domains),
              TallyMode::kPrivatized);
    EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverParticles, std::nullopt,
                                        domains),
              TallyMode::kAtomic);
  }
  // Unnamed Over Events: deferred for plain runs, atomic for domain runs.
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents, std::nullopt,
                                      /*domain_run=*/false),
            TallyMode::kDeferredAtomic);
  EXPECT_EQ(batch::resolve_tally_mode(Scheme::kOverEvents, std::nullopt,
                                      /*domain_run=*/true),
            TallyMode::kAtomic);
}

TEST(DecompositionSpelling, EmptyIsPlainAndGridsDecompose) {
  const Decomposition plain = Decomposition::parse("");
  EXPECT_FALSE(plain.domains());
  EXPECT_EQ(plain.describe(), "plain");

  // 1x1 decomposes: one subdomain through the slab stitch.
  EXPECT_TRUE(Decomposition::parse("1x1").domains());

  const Decomposition grid = Decomposition::parse("2x3");
  EXPECT_TRUE(grid.domains());
  EXPECT_EQ(grid.rows, 2);
  EXPECT_EQ(grid.cols, 3);
  EXPECT_EQ(grid.describe(), "2x3 domains");

  EXPECT_THROW(Decomposition::parse("2by2"), Error);
  EXPECT_THROW(Decomposition::parse("0x2"), Error);
}

TEST(RunSweep, EveryDecompositionMatchesTheReferenceRowByRow) {
  const batch::SweepSpec spec = two_job_spec();
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const Decomposition how = mode(m);
    SCOPED_TRACE(how.describe());
    const std::vector<Job> jobs = batch::expand_sweep(spec, how.domains());
    ASSERT_EQ(jobs.size(), 2u);

    EngineOptions options;
    options.workers = 2;
    BatchEngine engine(options);
    const BatchReport report = batch::run_sweep(engine, jobs, how);
    ASSERT_EQ(report.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const JobOutcome& row = report.jobs[i];
      ASSERT_TRUE(row.ok) << row.error;
      // Rows come back in sweep order, one per sweep job.
      EXPECT_EQ(row.job_id, jobs[i].id);
      EXPECT_EQ(row.label, jobs[i].label);
      // The tally mode as executed: §VI-G deferred for Over Events unless
      // the run is domain-decomposed (one pinned thread: no promotion).
      const bool events = jobs[i].config.scheme == Scheme::kOverEvents;
      EXPECT_EQ(row.config.tally_mode, events && !how.domains()
                                           ? TallyMode::kDeferredAtomic
                                           : TallyMode::kAtomic);
      const RunResult reference = run_plain(jobs[i].config);
      EXPECT_EQ(row.result.tally_checksum, reference.tally_checksum);
      EXPECT_EQ(row.result.population, reference.population);
      EXPECT_EQ(row.result.counters.total_events(),
                reference.counters.total_events());
      EXPECT_EQ(row.split.grid_rows, how.rows);
    }
  }
}

TEST(RunSweep, AFailingJobFailsOnlyItsOwnRow) {
  batch::SweepSpec spec = two_job_spec();
  spec.axes.schemes.clear();
  spec.axes.particles = {300, 0};  // an empty bank cannot run or split
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const Decomposition how = mode(m);
    SCOPED_TRACE(how.describe());
    BatchEngine engine;
    const BatchReport report = batch::run_sweep(
        engine, batch::expand_sweep(spec, how.domains()), how);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_TRUE(report.jobs[0].ok) << report.jobs[0].error;
    EXPECT_FALSE(report.jobs[1].ok);
    EXPECT_FALSE(report.jobs[1].error.empty());
    EXPECT_EQ(report.failed(), 1u);
  }
}

TEST(RunSweep, AClientCancelReportsCancelledRows) {
  const batch::SweepSpec spec = two_job_spec();
  const std::atomic<bool> cancel{true};
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    const Decomposition how = mode(m);
    SCOPED_TRACE(how.describe());
    BatchEngine engine;
    std::size_t notified_cancelled = 0;
    const BatchReport report = batch::run_sweep(
        engine, batch::expand_sweep(spec, how.domains()), how, &cancel,
        [&](const JobOutcome& outcome) {
          notified_cancelled += outcome.cancelled ? 1 : 0;
        });
    ASSERT_EQ(report.jobs.size(), 2u);
    for (const JobOutcome& row : report.jobs) {
      EXPECT_FALSE(row.ok);
      EXPECT_TRUE(row.cancelled) << row.error;
    }
    EXPECT_GE(notified_cancelled, 1u);
  }
}

}  // namespace
}  // namespace neutral
