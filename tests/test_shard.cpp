// Tests for single-deck sharding: the shard planner, span-restricted
// Simulations, the deterministic tally reduction, sharded sweeps through
// the executor (batch::run_sweep), and sibling-job cancellation.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "batch/queue.h"
#include "batch/shard.h"
#include "core/simulation.h"
#include "core/validation.h"
#include "util/error.h"

namespace neutral {
namespace {

using batch::BatchEngine;
using batch::BatchReport;
using batch::Decomposition;
using batch::EngineOptions;
using batch::Job;
using batch::JobOutcome;
using batch::JobQueue;

ProblemDeck tiny_deck(std::int64_t particles = 400) {
  ProblemDeck deck = csp_deck(/*mesh_scale=*/0.02, /*particle_scale=*/1.0);
  deck.n_particles = particles;
  deck.n_timesteps = 2;
  return deck;
}

SimulationConfig tiny_config(std::int64_t particles = 400) {
  SimulationConfig cfg;
  cfg.deck = tiny_deck(particles);
  cfg.threads = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Shard planner
// ---------------------------------------------------------------------------

TEST(PlanShards, CoversTheBankContiguously) {
  const auto spans = batch::plan_shards(1003, 4);
  ASSERT_EQ(spans.size(), 4u);
  std::int64_t next = 0;
  std::int64_t total = 0;
  for (const ParticleSpan& s : spans) {
    EXPECT_EQ(s.first_id, next);
    EXPECT_GT(s.count, 0);
    next = s.first_id + s.count;
    total += s.count;
  }
  EXPECT_EQ(total, 1003);
  // Remainder spreads over the leading shards: sizes differ by at most 1.
  EXPECT_EQ(spans[0].count, 251);
  EXPECT_EQ(spans[1].count, 251);
  EXPECT_EQ(spans[2].count, 251);
  EXPECT_EQ(spans[3].count, 250);
}

TEST(PlanShards, ClampsToTheParticleCount) {
  const auto spans = batch::plan_shards(3, 8);
  ASSERT_EQ(spans.size(), 3u);
  for (const ParticleSpan& s : spans) EXPECT_EQ(s.count, 1);
}

TEST(PlanShards, RejectsDegenerateInputs) {
  EXPECT_THROW(batch::plan_shards(0, 2), Error);
  EXPECT_THROW(batch::plan_shards(100, 0), Error);
}

// ---------------------------------------------------------------------------
// Span-restricted Simulation
// ---------------------------------------------------------------------------

TEST(ParticleSpanRuns, PartitionTheFullRunExactly) {
  const SimulationConfig full_cfg = tiny_config();
  Simulation full(full_cfg);
  const RunResult whole = full.run();

  EventCounters counters;
  std::int64_t population = 0;
  for (const ParticleSpan& span : batch::plan_shards(400, 3)) {
    SimulationConfig cfg = full_cfg;
    cfg.span = span;
    Simulation shard(cfg);
    const RunResult part = shard.run();
    counters += part.counters;
    population += part.population;
    EXPECT_TRUE(part.budget.conserved(1e-9));
  }
  // Histories are keyed by particle id, so every integer observable
  // partitions exactly.
  EXPECT_EQ(counters.total_events(), whole.counters.total_events());
  EXPECT_EQ(counters.facets, whole.counters.facets);
  EXPECT_EQ(counters.collisions, whole.counters.collisions);
  EXPECT_EQ(counters.absorptions, whole.counters.absorptions);
  EXPECT_EQ(counters.rng_draws, whole.counters.rng_draws);
  EXPECT_EQ(population, whole.population);
}

TEST(ParticleSpanRuns, RejectsSpansOutsideTheBank) {
  SimulationConfig cfg = tiny_config(100);
  cfg.span = ParticleSpan{90, 20};
  EXPECT_THROW(Simulation{cfg}, Error);
  cfg.span = ParticleSpan{-1, 10};
  EXPECT_THROW(Simulation{cfg}, Error);
  cfg.span = ParticleSpan{10, -5};  // negative count is not "the rest"
  EXPECT_THROW(Simulation{cfg}, Error);
}

// ---------------------------------------------------------------------------
// Deterministic tally reduction (the property test): accumulate() in any
// shard order reproduces the serial compensated tally bit-for-bit, across
// schemes x layouts x tally modes.
// ---------------------------------------------------------------------------

RunResult run_compensated(SimulationConfig cfg, ParticleSpan span) {
  cfg.span = span;
  cfg.compensated_tally = true;
  Simulation sim(std::move(cfg));
  return sim.run();
}

TEST(TallyReduction, AnyShardOrderMatchesSerialBitForBit) {
  const Scheme schemes[] = {Scheme::kOverParticles, Scheme::kOverEvents};
  const Layout layouts[] = {Layout::kAoS, Layout::kSoA};
  const TallyMode modes[] = {
      TallyMode::kAtomic, TallyMode::kPrivatized,
      TallyMode::kPrivatizedMergeEveryStep, TallyMode::kDeferredAtomic};

  for (Scheme scheme : schemes) {
    for (Layout layout : layouts) {
      for (TallyMode mode : modes) {
        SimulationConfig cfg = tiny_config(300);
        cfg.scheme = scheme;
        cfg.layout = layout;
        cfg.tally_mode = mode;
        SCOPED_TRACE(std::string(to_string(scheme)) + "/" +
                     to_string(layout) + "/" + to_string(mode));

        const RunResult serial = run_compensated(cfg, ParticleSpan{});
        ASSERT_NE(serial.tally, nullptr);
        const std::int64_t cells = serial.tally->cells();

        std::vector<RunResult> shards;
        for (const ParticleSpan& span : batch::plan_shards(300, 4)) {
          shards.push_back(run_compensated(cfg, span));
        }

        const std::vector<std::vector<std::size_t>> orders = {
            {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
        for (const auto& order : orders) {
          EnergyTally reduced(cells, TallyMode::kAtomic, 1,
                              /*compensated=*/true);
          for (std::size_t s : order) reduced.accumulate(*shards[s].tally);
          reduced.merge();
          for (std::int64_t c = 0; c < cells; ++c) {
            ASSERT_EQ(reduced.at(c), serial.tally->hi[
                static_cast<std::size_t>(c)])
                << "cell " << c;
          }
          EXPECT_EQ(positional_checksum(reduced.data(), cells),
                    serial.tally_checksum);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded sweeps through the executor
// ---------------------------------------------------------------------------

BatchReport run_shards(BatchEngine& engine, const SimulationConfig& base,
                       std::int32_t shards) {
  Decomposition how;
  how.shards = shards;
  return batch::run_sweep(engine, {batch::make_job(0, base)}, how);
}

TEST(ShardSweep, BitIdenticalAcrossShardAndWorkerCounts) {
  const SimulationConfig base = tiny_config(400);
  // The reference: the same deck, unsharded, through the same compensated
  // pipeline (one shard is exactly that).
  const RunResult reference = run_compensated(base, ParticleSpan{});

  for (std::int32_t shards : {1, 2, 4, 8}) {
    for (std::int32_t workers : {1, 4}) {
      EngineOptions options;
      options.workers = workers;
      BatchEngine engine(options);
      const BatchReport report = run_shards(engine, base, shards);
      ASSERT_EQ(report.jobs.size(), 1u);
      const JobOutcome& row = report.jobs.front();
      ASSERT_TRUE(row.ok) << row.error;
      EXPECT_EQ(row.split.shards, shards);
      EXPECT_EQ(row.result.tally_checksum, reference.tally_checksum)
          << shards << " shards on " << workers << " workers";
      EXPECT_EQ(row.result.population, reference.population);
      EXPECT_EQ(row.result.counters.total_events(),
                reference.counters.total_events());
      EXPECT_TRUE(row.result.budget.conserved(1e-9));
      ASSERT_NE(row.result.tally, nullptr);
      // One geometry: the world is built once and shared by all shards.
      EXPECT_EQ(report.cache.misses, 1u);
      EXPECT_EQ(report.cache.hits, static_cast<std::uint64_t>(shards - 1));
    }
  }
}

TEST(ShardSweep, MultiThreadedShardsStayBitIdentical) {
  SimulationConfig base = tiny_config(400);
  const RunResult reference = run_compensated(base, ParticleSpan{});

  EngineOptions options;
  options.workers = 2;
  BatchEngine engine(options);
  base.threads = 2;  // atomic mode must be promoted to privatized
  const BatchReport report = run_shards(engine, base, 2);
  const JobOutcome& row = report.jobs.front();
  ASSERT_TRUE(row.ok) << row.error;
  // The row reports the tally mode as executed.
  EXPECT_EQ(row.config.tally_mode, TallyMode::kPrivatized);
  EXPECT_EQ(row.config.threads, 2);
  EXPECT_EQ(row.result.tally_checksum, reference.tally_checksum);
  EXPECT_EQ(row.result.population, reference.population);
}

TEST(ShardSweep, ShardJobsSplitTheBankIntoCompensatedSpans) {
  SimulationConfig base = tiny_config(100);
  Job job = batch::make_job(8, base, /*priority=*/2);
  std::vector<JobOutcome> parts;
  EngineOptions options;
  options.workers = 1;
  BatchEngine engine(options);
  Decomposition how;
  how.shards = 4;
  const BatchReport report = batch::run_sweep(
      engine, {job}, how, nullptr,
      [&parts](const JobOutcome& part) { parts.push_back(part); });
  ASSERT_TRUE(report.jobs.front().ok) << report.jobs.front().error;
  ASSERT_EQ(parts.size(), 4u);
  for (const JobOutcome& part : parts) {
    EXPECT_TRUE(part.config.compensated_tally);
    EXPECT_EQ(part.config.span.count, 25);
    EXPECT_NE(part.label.find("/shard "), std::string::npos);
  }
  // Sharding an already-sharded config fails its row, not the call.
  job.config.span = ParticleSpan{0, 50};
  const BatchReport refused = batch::run_sweep(engine, {job}, how);
  EXPECT_FALSE(refused.jobs.front().ok);
  EXPECT_NE(refused.jobs.front().error.find("particle span"),
            std::string::npos);
}

TEST(PartJobs, InheritPriorityAndJoinTheSweepJobsGroup) {
  const Job parent = batch::make_job(8, tiny_config(100), /*priority=*/3);
  const Job part = batch::make_part_job(parent, 20, "part");
  EXPECT_EQ(part.id, 20u);
  EXPECT_EQ(part.group, 9u);  // non-zero even for sweep job 0
  EXPECT_EQ(part.priority, 3);
  EXPECT_EQ(part.label, "part");
  EXPECT_EQ(batch::make_part_job(batch::make_job(0, tiny_config(100)), 1,
                                 "first")
                .group,
            1u);
}

TEST(ReduceShards, RequiresTallyImages) {
  RunResult bare;  // no image attached
  EXPECT_THROW(batch::reduce_shards({&bare}), Error);
  EXPECT_THROW(batch::reduce_shards({}), Error);
}

// ---------------------------------------------------------------------------
// Cancellation: queue primitive and engine wiring
// ---------------------------------------------------------------------------

Job grouped_job(std::uint64_t id, std::uint64_t group,
                std::int64_t particles = 100) {
  Job job = batch::make_job(id, tiny_config(particles));
  job.group = group;
  return job;
}

TEST(JobQueueCancel, RemovesOnlyTheGroupAndPoisonsIt) {
  JobQueue queue(16);
  ASSERT_TRUE(queue.try_push(grouped_job(1, 7)));
  ASSERT_TRUE(queue.try_push(grouped_job(2, 8)));
  ASSERT_TRUE(queue.try_push(grouped_job(3, 7)));

  const std::vector<Job> removed = queue.cancel_pending(7);
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_TRUE(queue.group_cancelled(7));
  EXPECT_FALSE(queue.group_cancelled(8));

  // Later pushes of the cancelled group are refused; other groups flow.
  EXPECT_FALSE(queue.try_push(grouped_job(4, 7)));
  EXPECT_TRUE(queue.try_push(grouped_job(5, 8)));

  queue.close();
  EXPECT_EQ(queue.pop()->id, 2u);
  EXPECT_EQ(queue.pop()->id, 5u);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueueCancel, GroupZeroIsNeverCancelled) {
  JobQueue queue(4);
  ASSERT_TRUE(queue.try_push(grouped_job(1, 0)));
  EXPECT_TRUE(queue.cancel_pending(0).empty());
  EXPECT_FALSE(queue.group_cancelled(0));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(Engine, FailedShardCancelsItsSiblings) {
  // One worker, so the bad job's siblings are still queued (or not yet
  // submitted) when it fails; all of them must end cancelled, not run.
  std::vector<Job> jobs;
  SimulationConfig bad = tiny_config();
  bad.deck.n_particles = 0;  // Simulation rejects an empty bank
  Job bad_job = batch::make_job(0, bad);
  bad_job.group = 5;
  jobs.push_back(std::move(bad_job));
  for (std::uint64_t id = 1; id <= 4; ++id) {
    jobs.push_back(grouped_job(id, 5, 4000));
  }
  // An ungrouped bystander must survive the purge.
  jobs.push_back(grouped_job(5, 0));

  EngineOptions options;
  options.workers = 1;
  BatchEngine engine(options);
  const batch::BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 6u);
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_FALSE(report.jobs[0].cancelled);
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(report.jobs[i].ok) << i;
    EXPECT_TRUE(report.jobs[i].cancelled) << i;
    EXPECT_FALSE(report.jobs[i].error.empty());
  }
  EXPECT_TRUE(report.jobs[5].ok);
  EXPECT_EQ(report.failed(), 5u);
  EXPECT_EQ(report.cancelled(), 4u);
}

TEST(Engine, CancellationCanBeDisabled) {
  std::vector<Job> jobs;
  SimulationConfig bad = tiny_config();
  bad.deck.n_particles = 0;
  Job bad_job = batch::make_job(0, bad);
  bad_job.group = 5;
  jobs.push_back(std::move(bad_job));
  jobs.push_back(grouped_job(1, 5));

  EngineOptions options;
  options.workers = 1;
  options.cancel_failed_groups = false;
  BatchEngine engine(options);
  const batch::BatchReport report = engine.run(std::move(jobs));
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_TRUE(report.jobs[1].ok);  // sibling still ran
  EXPECT_EQ(report.cancelled(), 0u);
}

}  // namespace
}  // namespace neutral
