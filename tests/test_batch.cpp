// Tests for the batch execution engine: sweep expansion, submission-order
// dispatch, deadline policy, failure isolation, the shared world cache,
// end-to-end determinism of batched runs against serial Simulation::run(),
// and the CLI's exit-status, record and table contracts.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "batch/sweep.h"
#include "batch/world_cache.h"
#include "core/simulation.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "rng/stream.h"
#include "runtime/host_info.h"
#include "util/error.h"

namespace neutral {
namespace {

using batch::BatchEngine;
using batch::BatchReport;
using batch::EngineOptions;
using batch::Job;
using batch::JobOutcome;
using batch::SweepSpec;
using batch::WorldCache;

ProblemDeck tiny_deck(std::int64_t particles = 400) {
  ProblemDeck deck = csp_deck(/*mesh_scale=*/0.02, /*particle_scale=*/1.0);
  deck.n_particles = particles;
  return deck;
}

SimulationConfig tiny_config(std::int64_t particles = 400) {
  SimulationConfig cfg;
  cfg.deck = tiny_deck(particles);
  cfg.threads = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// RNG substream derivation
// ---------------------------------------------------------------------------

TEST(StreamSeed, DerivationIsDeterministicAndSpreads) {
  const std::uint64_t a = rng::derive_stream_seed(42, 0);
  EXPECT_EQ(a, rng::derive_stream_seed(42, 0));
  // Neighbouring job ids and neighbouring base seeds must not collide or
  // correlate trivially (full-block Threefry, not arithmetic).
  EXPECT_NE(a, rng::derive_stream_seed(42, 1));
  EXPECT_NE(a, rng::derive_stream_seed(43, 0));
  EXPECT_NE(rng::derive_stream_seed(42, 1) - a,
            rng::derive_stream_seed(42, 2) - rng::derive_stream_seed(42, 1));
}

// ---------------------------------------------------------------------------
// World fingerprint + cache
// ---------------------------------------------------------------------------

TEST(WorldFingerprint, IgnoresRunControlFields) {
  ProblemDeck a = tiny_deck();
  ProblemDeck b = a;
  b.n_particles = 9999;
  b.seed = 7;
  b.n_timesteps = 3;
  b.min_energy_ev = 2.0;
  EXPECT_EQ(world_fingerprint(a), world_fingerprint(b));
}

TEST(WorldFingerprint, SensitiveToGeometryDensityAndXs) {
  const ProblemDeck base = tiny_deck();
  ProblemDeck mesh = base;
  mesh.nx += 1;
  ProblemDeck density = base;
  density.base_density_kg_m3 *= 2.0;
  ProblemDeck region = base;
  region.regions[0].density_kg_m3 *= 2.0;
  ProblemDeck xs = base;
  xs.xs.points += 1;
  EXPECT_NE(world_fingerprint(base), world_fingerprint(mesh));
  EXPECT_NE(world_fingerprint(base), world_fingerprint(density));
  EXPECT_NE(world_fingerprint(base), world_fingerprint(region));
  EXPECT_NE(world_fingerprint(base), world_fingerprint(xs));
}

TEST(WorldCacheTest, HitAccountingAndSharing) {
  WorldCache cache;
  bool hit = true;
  const auto first = cache.acquire(tiny_deck(100), &hit);
  EXPECT_FALSE(hit);
  // Same geometry, different run-control knobs: same world object.
  const auto second = cache.acquire(tiny_deck(999), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());

  ProblemDeck other = tiny_deck(100);
  other.nx += 4;
  other.ny += 4;
  const auto third = cache.acquire(other, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(first.get(), third.get());

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(WorldCacheTest, FailedBuildEvictsAndRethrows) {
  WorldCache cache;
  ProblemDeck bad = tiny_deck();
  bad.nx = 0;  // mesh construction rejects empty meshes
  bad.ny = 0;
  EXPECT_THROW(cache.acquire(bad), Error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The poisoned entry is gone: a retry attempts a fresh build.
  EXPECT_THROW(cache.acquire(bad), Error);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(WorldCacheTest, ConcurrentAcquireBuildsOnce) {
  WorldCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const World>> worlds(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { worlds[static_cast<std::size_t>(t)] = cache.acquire(tiny_deck()); });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(worlds[0].get(), worlds[static_cast<std::size_t>(t)].get());
  }
  const WorldCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(WorldCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  batch::WorldCacheOptions options;
  options.max_bytes = 1;  // any world overflows: at most one stays resident
  WorldCache cache(options);

  ProblemDeck deck_a = tiny_deck();
  ProblemDeck deck_b = tiny_deck();
  deck_b.nx += 4;
  deck_b.ny += 4;

  const auto a = cache.acquire(deck_a);
  EXPECT_EQ(cache.stats().resident_worlds, 1u);
  EXPECT_GT(cache.stats().resident_bytes, 0u);

  // Building B overflows the budget; A is the LRU victim.  The just-built
  // entry is never its own victim, so B stays cached even though it alone
  // exceeds max_bytes.
  const auto b = cache.acquire(deck_b);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_worlds, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // The evicted world's shared_ptr is still valid for its holders.
  EXPECT_EQ(a->mesh.nx(), deck_a.nx);

  // A is gone: re-acquiring rebuilds (a miss), evicting B in turn.
  bool hit = true;
  const auto a2 = cache.acquire(deck_a, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a2.get(), a.get());
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(WorldCacheTest, RecentUseProtectsAgainstEviction) {
  // Budget fits two tiny worlds but not three: the LRU of the three goes.
  batch::WorldCacheOptions options;
  ProblemDeck decks[3] = {tiny_deck(), tiny_deck(), tiny_deck()};
  decks[1].nx += 4;
  decks[2].nx += 8;

  // The three share one material, which the cache charges once.
  const std::shared_ptr<const World> probe = build_world(decks[0]);
  const std::uint64_t one = probe->footprint_bytes();
  options.max_bytes =
      probe->xs->footprint_bytes() + 5 * one / 2;  // room for ~2 worlds

  WorldCache cache(options);
  (void)cache.acquire(decks[0]);
  (void)cache.acquire(decks[1]);
  (void)cache.acquire(decks[0]);  // touch 0: 1 becomes the LRU
  (void)cache.acquire(decks[2]);  // overflow: 1 must be the victim

  bool hit = false;
  (void)cache.acquire(decks[0], &hit);
  EXPECT_TRUE(hit);
  (void)cache.acquire(decks[2], &hit);
  EXPECT_TRUE(hit);
  (void)cache.acquire(decks[1], &hit);  // rebuilt: it was evicted
  EXPECT_FALSE(hit);
}

TEST(WorldCacheTest, UnboundedByDefault) {
  WorldCache cache;
  ProblemDeck deck = tiny_deck();
  for (int i = 0; i < 4; ++i) {
    deck.nx += 4;
    (void)cache.acquire(deck);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 4u);
}

// ---------------------------------------------------------------------------
// Shared cross-section material
// ---------------------------------------------------------------------------

TEST(SharedMaterial, DecksDifferingOnlyInGeometryShareOneMaterial) {
  ProblemDeck other = tiny_deck();
  other.nx += 4;
  other.regions[0].density_kg_m3 *= 2.0;
  EXPECT_EQ(build_world(tiny_deck())->xs.get(), build_world(other)->xs.get());
}

TEST(SharedMaterial, ADifferentXsSeedOrSizeIsADifferentMaterial) {
  const std::shared_ptr<const World> base = build_world(tiny_deck());
  ProblemDeck seed = tiny_deck();
  seed.xs.seed += 1;
  ProblemDeck points = tiny_deck();
  points.xs.points += 1;
  EXPECT_NE(base->xs.get(), build_world(seed)->xs.get());
  EXPECT_NE(base->xs.get(), build_world(points)->xs.get());
}

TEST(SharedMaterial, RegistryEntryExpiresWithTheLastWorld) {
  ProblemDeck deck = tiny_deck();
  deck.xs.seed = 0x5eed;  // a material no other test holds
  std::shared_ptr<const World> world = build_world(deck);
  const std::weak_ptr<const MaterialXs> material = world->xs;
  world.reset();
  EXPECT_TRUE(material.expired());
}

TEST(SharedMaterial, CacheChargesEachMaterialOnce) {
  WorldCache cache;
  ProblemDeck decks[3] = {tiny_deck(), tiny_deck(), tiny_deck()};
  decks[1].nx += 4;
  decks[2].nx += 8;
  std::uint64_t world_bytes = 0;
  const MaterialXs* material = nullptr;
  for (const ProblemDeck& deck : decks) {
    const std::shared_ptr<const World> world = cache.acquire(deck);
    world_bytes += world->footprint_bytes();
    material = world->xs.get();
  }
  EXPECT_EQ(cache.stats().resident_bytes,
            world_bytes + material->footprint_bytes());
}

TEST(SharedMaterial, CacheCreditsTheMaterialWhenTheLastWorldLeaves) {
  batch::WorldCacheOptions options;
  options.max_bytes = 1;  // every new world evicts the one before it
  WorldCache cache(options);
  ProblemDeck deck = tiny_deck();
  (void)cache.acquire(deck);
  deck.xs.seed += 1;  // a second material: the first one's last world goes
  const std::shared_ptr<const World> world = cache.acquire(deck);
  EXPECT_EQ(cache.stats().resident_bytes,
            world->footprint_bytes() + world->xs->footprint_bytes());
  cache.clear();
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(SharedMaterial, ConcurrentDistinctGeometriesBuildOneMaterial) {
  WorldCache cache;
  constexpr int kThreads = 8;
  ProblemDeck base = tiny_deck();
  base.xs.seed = 0xc0ffee;  // not yet built by any other test
  std::vector<std::shared_ptr<const World>> worlds(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ProblemDeck deck = base;
      deck.nx += t;
      worlds[static_cast<std::size_t>(t)] = cache.acquire(deck);
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<const MaterialXs*> materials;
  for (const auto& world : worlds) materials.insert(world->xs.get());
  EXPECT_EQ(materials.size(), 1u);
}

// ---------------------------------------------------------------------------
// Simulation world reuse
// ---------------------------------------------------------------------------

TEST(SharedWorld, ReusedWorldReproducesFreshWorldExactly) {
  const SimulationConfig cfg = tiny_config();
  Simulation fresh(cfg);
  const RunResult a = fresh.run();

  Simulation reused(cfg, fresh.world());
  const RunResult b = reused.run();
  EXPECT_EQ(a.tally_checksum, b.tally_checksum);
  EXPECT_EQ(a.counters.total_events(), b.counters.total_events());
  EXPECT_EQ(a.population, b.population);
}

TEST(SharedWorld, MismatchedWorldIsRejected) {
  const SimulationConfig cfg = tiny_config();
  Simulation fresh(cfg);
  SimulationConfig other = cfg;
  other.deck.nx += 4;
  other.deck.ny += 4;
  EXPECT_THROW(Simulation(other, fresh.world()), Error);
}

// ---------------------------------------------------------------------------
// Dispatch order, deadlines and failure isolation
// ---------------------------------------------------------------------------

TEST(Engine, JobsStartInSubmissionOrder) {
  // One worker takes the job list front to back and finishes each job
  // before it takes the next: completion order is submission order,
  // whatever the ids.
  const std::vector<std::uint64_t> ids = {4, 9, 1, 7, 0, 3};
  std::vector<std::uint64_t> finished;  // serialised callback: no lock
  std::vector<Job> jobs;
  for (std::uint64_t id : ids) {
    jobs.push_back(batch::make_job(id, tiny_config(50)));
  }
  EngineOptions options;
  options.workers = 1;
  BatchEngine engine(options);
  const BatchReport report =
      engine.run(std::move(jobs), [&finished](const JobOutcome& outcome) {
        finished.push_back(outcome.job_id);
      });
  EXPECT_EQ(report.completed(), ids.size());
  EXPECT_EQ(finished, ids);
}

TEST(Engine, QueueWaitDeadlineExpiresQueuedJobs) {
  // One worker held by a slow job: the jobs behind it overstay
  // max_queue_wait and must complete as timed_out without running.
  EngineOptions options;
  options.workers = 1;
  options.threads_per_job = 1;
  options.policy.max_queue_wait = std::chrono::milliseconds(40);
  BatchEngine engine(options);

  SimulationConfig slow = tiny_config(2000);
  slow.deck.n_timesteps = 60;
  std::vector<Job> jobs;
  jobs.push_back(batch::make_job(0, slow));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    jobs.push_back(batch::make_job(id, tiny_config(50)));
  }

  const BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 4u);
  ASSERT_TRUE(report.jobs[0].ok) << report.jobs[0].error;
  ASSERT_GT(report.jobs[0].seconds, 0.04) << "slow job too fast to block";
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(report.jobs[i].ok);
    EXPECT_TRUE(report.jobs[i].timed_out);
    EXPECT_NE(report.jobs[i].error.find("max_queue_wait"),
              std::string::npos);
    // Expired jobs never ran: no transport events.
    EXPECT_EQ(report.jobs[i].result.counters.total_events(), 0u);
  }
  EXPECT_EQ(report.timed_out(), 3u);
}

TEST(Engine, RunWallDeadlineTimesOutOnlyTheOverrunningJob) {
  // A job that overruns max_run_wall aborts at a timestep boundary
  // (cooperative SimulationConfig::deadline) and completes as timed_out;
  // the quick job after it still runs.
  EngineOptions options;
  options.workers = 1;
  options.threads_per_job = 1;
  options.policy.max_run_wall = std::chrono::milliseconds(50);
  BatchEngine engine(options);

  SimulationConfig slow = tiny_config(2000);
  slow.deck.n_timesteps = 500;
  std::vector<Job> jobs;
  jobs.push_back(batch::make_job(0, slow));
  jobs.push_back(batch::make_job(1, tiny_config(50)));

  const BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_TRUE(report.jobs[0].timed_out);
  EXPECT_TRUE(report.jobs[1].ok) << report.jobs[1].error;
  EXPECT_EQ(report.timed_out(), 1u);
}

TEST(SimulationInterrupt, DeadlineAndCancelAbortBetweenTimesteps) {
  SimulationConfig config = tiny_config(100);
  config.deck.n_timesteps = 3;
  config.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);  // already expired
  Simulation late(config);
  EXPECT_THROW(late.run(), TimeoutError);

  std::atomic<bool> cancel{true};
  SimulationConfig cancelled = tiny_config(100);
  cancelled.cancel = &cancel;
  Simulation stopped(cancelled);
  EXPECT_THROW(stopped.run(), Error);

  cancel.store(false);
  SimulationConfig fine = tiny_config(100);
  fine.cancel = &cancel;
  fine.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  Simulation ok(fine);
  EXPECT_NO_THROW(ok.run());
}

// ---------------------------------------------------------------------------
// Sweep expansion
// ---------------------------------------------------------------------------

TEST(Sweep, ExpandsCrossProductWithStableIds) {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.axes.particles = {100, 200, 300};
  spec.axes.schemes = {Scheme::kOverParticles, Scheme::kOverEvents};
  spec.axes.layouts = {Layout::kAoS, Layout::kSoA};
  ASSERT_EQ(batch::sweep_size(spec), 12u);

  const std::vector<Job> jobs = batch::expand_sweep(spec);
  ASSERT_EQ(jobs.size(), 12u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
  }
  // Row-major order: seeds/schedules innermost ... particles outermost.
  EXPECT_EQ(jobs[0].config.deck.n_particles, 100);
  EXPECT_EQ(jobs[0].config.scheme, Scheme::kOverParticles);
  EXPECT_EQ(jobs[0].config.layout, Layout::kAoS);
  EXPECT_EQ(jobs[1].config.layout, Layout::kSoA);
  EXPECT_EQ(jobs[2].config.scheme, Scheme::kOverEvents);
  EXPECT_EQ(jobs[4].config.deck.n_particles, 200);
  // Identical geometry across the whole sweep: one world fingerprint.
  for (const Job& job : jobs) {
    EXPECT_EQ(job.fingerprint, jobs[0].fingerprint);
  }
  // Expansion is deterministic: same spec, same jobs.
  const std::vector<Job> again = batch::expand_sweep(spec);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].config.deck.seed, again[i].config.deck.seed);
    EXPECT_EQ(jobs[i].label, again[i].label);
  }
}

TEST(Sweep, BatchSeedDerivesIndependentSubstreams) {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.batch_seed = 99;
  spec.axes.particles = {100, 200};
  const std::vector<Job> jobs = batch::expand_sweep(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].config.deck.seed, rng::derive_stream_seed(99, 0));
  EXPECT_EQ(jobs[1].config.deck.seed, rng::derive_stream_seed(99, 1));
  EXPECT_NE(jobs[0].config.deck.seed, jobs[1].config.deck.seed);
}

TEST(Sweep, ExplicitSeedAxisBeatsBatchSeed) {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.batch_seed = 99;
  spec.axes.seeds = {5, 6};
  const std::vector<Job> jobs = batch::expand_sweep(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].config.deck.seed, 5u);
  EXPECT_EQ(jobs[1].config.deck.seed, 6u);
}

TEST(Sweep, OverEventsDefaultsToDeferredTally) {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.axes.schemes = {Scheme::kOverParticles, Scheme::kOverEvents};
  const std::vector<Job> jobs = batch::expand_sweep(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].config.tally_mode, TallyMode::kAtomic);
  EXPECT_EQ(jobs[1].config.tally_mode, TallyMode::kDeferredAtomic);
}

TEST(Sweep, NamedTallyModeIsNeverRewritten) {
  // The §VI-G deferral is a default, not an override: a spec that names a
  // tally mode keeps it for every scheme the sweep crosses.
  const SweepSpec spec = batch::parse_sweep(
      "deck csp\n"
      "mesh_scale 0.02\n"
      "tally atomic\n"
      "axis scheme particles events\n");
  EXPECT_TRUE(spec.tally_mode_named);
  const std::vector<Job> jobs = batch::expand_sweep(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].config.tally_mode, TallyMode::kAtomic);
  EXPECT_EQ(jobs[1].config.tally_mode, TallyMode::kAtomic);

  // An unnamed mode still gets the scheme-appropriate default.
  const SweepSpec unnamed = batch::parse_sweep(
      "deck csp\n"
      "mesh_scale 0.02\n"
      "axis scheme particles events\n");
  EXPECT_FALSE(unnamed.tally_mode_named);
  const std::vector<Job> defaulted = batch::expand_sweep(unnamed);
  ASSERT_EQ(defaulted.size(), 2u);
  EXPECT_EQ(defaulted[1].config.tally_mode, TallyMode::kDeferredAtomic);
}

TEST(Sweep, MeshScaleAndNxAxesAreExclusive) {
  SweepSpec spec;
  spec.base = tiny_config();
  spec.deck_name = "csp";
  spec.axes.mesh_scales = {0.02, 0.04};
  spec.axes.nx = {64};
  EXPECT_THROW(batch::sweep_size(spec), Error);
  EXPECT_THROW(batch::expand_sweep(spec), Error);
}

TEST(Sweep, ParsesSpecText) {
  const SweepSpec spec = batch::parse_sweep(
      "# demo\n"
      "deck csp\n"
      "mesh_scale 0.02\n"
      "timesteps 2\n"
      "particles 500\n"
      "seed 7\n"
      "layout soa\n"
      "schedule dynamic,4\n"
      "axis particles 100 200\n"
      "axis scheme particles events\n");
  EXPECT_EQ(spec.deck_name, "csp");
  EXPECT_EQ(spec.base.deck.nx, 80);  // 4000 * 0.02
  EXPECT_EQ(spec.base.deck.n_timesteps, 2);
  EXPECT_EQ(spec.base.deck.seed, 7u);
  EXPECT_EQ(spec.base.layout, Layout::kSoA);
  EXPECT_EQ(spec.base.schedule.kind, ScheduleKind::kDynamic);
  EXPECT_EQ(spec.base.schedule.chunk, 4);
  ASSERT_EQ(spec.axes.particles.size(), 2u);
  ASSERT_EQ(spec.axes.schemes.size(), 2u);
  EXPECT_EQ(batch::sweep_size(spec), 4u);

  const std::vector<Job> jobs = batch::expand_sweep(spec);
  for (const Job& job : jobs) {
    EXPECT_EQ(job.config.deck.n_timesteps, 2);
  }
}

TEST(Sweep, RejectsMalformedSpecs) {
  EXPECT_THROW(batch::parse_sweep("bogus_key 1\n"), Error);
  EXPECT_THROW(batch::parse_sweep("axis bogus 1 2\n"), Error);
  EXPECT_THROW(batch::parse_sweep("nxq\n"), Error);
  EXPECT_THROW(batch::parse_sweep("axis particles twelve\n"), Error);
  EXPECT_THROW(batch::parse_sweep("deck csp\ndeck_file x.params\n"), Error);
  EXPECT_THROW(batch::parse_sweep("priority 3\n"), Error);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(Engine, ThreadBudgetNeverOversubscribes) {
  EngineOptions options;
  options.workers = 3;
  options.threads_per_job = 64;  // absurd request: must be clamped
  BatchEngine engine(options);
  const auto [workers, threads] = engine.thread_budget(10);
  const std::int32_t hw = probe_host().logical_cpus;
  EXPECT_EQ(workers, 3);
  EXPECT_LE(workers * threads, std::max(hw, workers));
  EXPECT_GE(threads, 1);
}

TEST(Engine, ChecksumsInvariantAcrossWorkerCounts) {
  SweepSpec spec;
  spec.base = tiny_config(300);
  spec.axes.particles = {100, 200, 300};
  spec.axes.schemes = {Scheme::kOverParticles, Scheme::kOverEvents};

  auto run_with_workers = [&](std::int32_t workers) {
    EngineOptions options;
    options.workers = workers;
    options.threads_per_job = 1;
    BatchEngine engine(options);
    return engine.run(batch::expand_sweep(spec));
  };

  const BatchReport serial = run_with_workers(1);
  const BatchReport wide = run_with_workers(4);
  ASSERT_EQ(serial.jobs.size(), 6u);
  ASSERT_EQ(wide.jobs.size(), 6u);
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    ASSERT_TRUE(serial.jobs[i].ok) << serial.jobs[i].error;
    ASSERT_TRUE(wide.jobs[i].ok) << wide.jobs[i].error;
    EXPECT_EQ(serial.jobs[i].job_id, wide.jobs[i].job_id);
    EXPECT_EQ(serial.jobs[i].result.tally_checksum,
              wide.jobs[i].result.tally_checksum);
    EXPECT_EQ(serial.jobs[i].result.counters.total_events(),
              wide.jobs[i].result.counters.total_events());
  }

  // ... and each matches the same config run directly through Simulation.
  for (const JobOutcome& outcome : wide.jobs) {
    Simulation sim(outcome.config);
    EXPECT_EQ(sim.run().tally_checksum, outcome.result.tally_checksum);
  }
}

TEST(Engine, ReportsWorldCacheHitsAndThroughput) {
  SweepSpec spec;
  spec.base = tiny_config(200);
  spec.axes.layouts = {Layout::kAoS, Layout::kSoA};
  spec.axes.particles = {100, 200};

  EngineOptions options;
  options.workers = 2;
  options.threads_per_job = 1;
  BatchEngine engine(options);
  const BatchReport report = engine.run(batch::expand_sweep(spec));
  EXPECT_EQ(report.completed(), 4u);
  EXPECT_EQ(report.cache.hits + report.cache.misses, 4u);
  EXPECT_EQ(report.cache.misses, 1u);  // one geometry, built once
  EXPECT_GE(report.cache.hit_rate(), 0.74);
  EXPECT_GT(report.total_events(), 0u);
  EXPECT_GT(report.events_per_second(), 0.0);
  EXPECT_EQ(report.workers, 2);

  // A second run on the same engine reuses the cached world entirely.
  const BatchReport again = engine.run(batch::expand_sweep(spec));
  EXPECT_EQ(again.cache.misses, 0u);
  EXPECT_EQ(again.cache.hits, 4u);
}

TEST(Engine, EverySweepRowIsCountedOnceWithItsEvents) {
  // The job metrics count one observation per sweep row, carrying that
  // row's events.
  SweepSpec spec;
  spec.base = tiny_config(300);
  spec.axes.schemes = {Scheme::kOverParticles, Scheme::kOverEvents};
  spec.axes.particles = {200, 300};
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads_per_job = 1;
  options.metrics = &registry;
  BatchEngine engine(options);
  const BatchReport report =
      batch::run_sweep(engine, batch::expand_sweep(spec));
  ASSERT_EQ(report.completed(), 4u);

  EventCounters rows;
  for (const JobOutcome& row : report.jobs) rows += row.result.counters;
  const obs::MetricsSnapshot snap = registry.snapshot();
  auto counter = [&snap](const char* name) {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? ~std::uint64_t{0} : m->counter;
  };
  EXPECT_EQ(counter("neutral_jobs_ok_total"), report.jobs.size());
  EXPECT_EQ(snap.find("neutral_job_wall_seconds")->histogram.count,
            report.jobs.size());
  EXPECT_GT(rows.collisions, 0u);
  EXPECT_EQ(counter("neutral_events_facets_total"), rows.facets);
  EXPECT_EQ(counter("neutral_events_collisions_total"), rows.collisions);
  EXPECT_EQ(counter("neutral_events_censuses_total"), rows.censuses);
  EXPECT_EQ(counter("neutral_events_rng_draws_total"), rows.rng_draws);
  EXPECT_EQ(counter("neutral_events_xs_lookups_total"), rows.xs_lookups);
  EXPECT_EQ(counter("neutral_events_tally_flushes_total"),
            rows.tally_flushes);
}

TEST(Engine, CompletionCallbackSeesEveryJob) {
  SweepSpec spec;
  spec.base = tiny_config(100);
  spec.axes.particles = {100, 200, 300};
  EngineOptions options;
  options.workers = 2;
  BatchEngine engine(options);
  std::vector<std::uint64_t> seen;  // serialised callback: no lock needed
  const BatchReport report =
      engine.run(batch::expand_sweep(spec),
                 [&](const JobOutcome& j) { seen.push_back(j.job_id); });
  EXPECT_EQ(report.completed(), 3u);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Engine, FailedJobIsIsolated) {
  std::vector<Job> jobs;
  jobs.push_back(batch::make_job(0, tiny_config(100)));
  SimulationConfig bad = tiny_config();
  bad.deck.n_particles = 0;  // Simulation rejects an empty bank
  jobs.push_back(batch::make_job(1, bad));
  jobs.push_back(batch::make_job(2, tiny_config(200)));

  EngineOptions options;
  options.workers = 2;
  BatchEngine engine(options);
  const BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_TRUE(report.jobs[0].ok);
  EXPECT_FALSE(report.jobs[1].ok);
  EXPECT_FALSE(report.jobs[1].error.empty());
  EXPECT_TRUE(report.jobs[2].ok);
  EXPECT_EQ(report.failed(), 1u);
}

TEST(Engine, DuplicateJobIdsAreRejected) {
  std::vector<Job> jobs;
  jobs.push_back(batch::make_job(7, tiny_config(100)));
  jobs.push_back(batch::make_job(7, tiny_config(200)));
  BatchEngine engine;
  EXPECT_THROW(engine.run(std::move(jobs)), Error);
}

// ---------------------------------------------------------------------------
// CLI exit-status audit: failures must never be buried in the CSV
// ---------------------------------------------------------------------------

#ifdef NEUTRAL_BATCH_BIN

/// Spawn the real binary `bin` and return its exit status.
int run_binary(const std::string& bin, const std::string& args) {
  const std::string cmd = bin + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

/// Spawn the real neutral_batch binary and return its exit status.
int run_cli(const std::string& args) {
  return run_binary(NEUTRAL_BATCH_BIN, args);
}

/// Unique scratch path in the ctest working directory.
std::string scratch(const std::string& stem) {
  return stem + "." + std::to_string(::getpid());
}

TEST(CliExitStatus, FailingSweepJobYieldsNonZeroExit) {
  // A sweep whose second job carries a deliberately unrunnable deck
  // (particles 0): the CSV records the FAIL row, and the process exit
  // status must say so too.
  const std::string spec = scratch("exitstatus_failing.spec");
  const std::string csv = scratch("exitstatus_failing.csv");
  {
    std::ofstream out(spec);
    out << "deck csp\nmesh_scale 0.02\ntimesteps 1\n"
           "axis particles 100 0\n";
  }
  EXPECT_NE(run_cli("--spec " + spec + " --quiet --csv " + csv), 0);
  std::remove(spec.c_str());
  std::remove(csv.c_str());
}

TEST(CliExitStatus, MalformedDeckInASweepFailsLoudly) {
  const std::string deck = scratch("exitstatus_malformed.params");
  const std::string spec = scratch("exitstatus_malformed.spec");
  const std::string csv = scratch("exitstatus_malformed.csv");
  {
    std::ofstream out(deck);
    out << "nx definitely-not-a-number\n";
  }
  {
    std::ofstream out(spec);
    out << "deck_file " + deck + "\naxis particles 100 200\n";
  }
  EXPECT_NE(run_cli("--spec " + spec + " --quiet --csv " + csv), 0);
  std::remove(deck.c_str());
  std::remove(spec.c_str());
  std::remove(csv.c_str());
}

TEST(CliExitStatus, RemovedEngineFlagsAreRefused) {
  EXPECT_EQ(run_cli("--priority-aging-ms 5 --write-spec /dev/null"), 2);
  EXPECT_EQ(run_cli("--queue-capacity 4 --write-spec /dev/null"), 2);
  // Mesh decomposition is gone: --domains is an unknown flag, not a
  // silent plain run.
  EXPECT_EQ(run_cli("--domains 2x2 --write-spec /dev/null"), 2);
#ifdef NEUTRAL_BIN
  EXPECT_EQ(run_binary(NEUTRAL_BIN, "--domains 2x2 --particles 10"), 2);
#endif
}

TEST(CliExitStatus, HealthySweepStillExitsZero) {
  const std::string spec = scratch("exitstatus_ok.spec");
  const std::string csv = scratch("exitstatus_ok.csv");
  {
    std::ofstream out(spec);
    out << "deck csp\nmesh_scale 0.02\ntimesteps 1\nthreads 1\n"
           "axis particles 100 200\n";
  }
  EXPECT_EQ(run_cli("--spec " + spec + " --quiet --csv " + csv), 0);
  std::remove(spec.c_str());
  std::remove(csv.c_str());
}

TEST(CliRecords, SweepWritesOneRecordPerJob) {
  // --record-dir writes one file per sweep job, holding that job's deck.
  namespace fs = std::filesystem;
  const std::string spec = scratch("records.spec");
  const fs::path dir = scratch("records_dir");
  const std::string csv = scratch("records.csv");
  fs::create_directories(dir);
  {
    std::ofstream out(spec);
    out << "deck csp\nmesh_scale 0.02\ntimesteps 1\nthreads 1\n"
           "axis particles 100 200\n";
  }
  ASSERT_EQ(run_cli("--spec " + spec + " --quiet --csv " + csv +
                    " --record-dir " + dir.string()),
            0);

  const auto files =
      std::distance(fs::directory_iterator(dir), fs::directory_iterator());
  EXPECT_EQ(files, 2);
  EXPECT_EQ(load_results((dir / "job_0.results").string()).particles, 100);
  EXPECT_EQ(load_results((dir / "job_1.results").string()).particles, 200);
  fs::remove_all(dir);
  std::remove(spec.c_str());
  std::remove(csv.c_str());
}

/// Split one CSV line on commas (the rows under test quote nothing).
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; std::getline(in, field, ',');) {
    fields.push_back(field);
  }
  return fields;
}

TEST(CliTable, EventsPerSecondIsEventsOverSolveSecondsOnEveryRow) {
  // One definition of events/s for every row: events / solve [s], the
  // row's wall rate.  Every local row also carries its peak bank bytes.
  const std::string spec = scratch("rate.spec");
  const std::string csv = scratch("rate.csv");
  {
    std::ofstream out(spec);
    out << "deck csp\nmesh_scale 0.02\ntimesteps 1\nthreads 1\n"
           "particles 20000\n";
  }
  ASSERT_EQ(run_cli("--spec " + spec + " --quiet --csv " + csv), 0);
  std::ifstream in(csv);
  std::string header;
  std::string line;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, line));
  const std::vector<std::string> head = csv_fields(header);
  const std::vector<std::string> row = csv_fields(line);
  ASSERT_EQ(row.size(), head.size()) << line;
  ASSERT_EQ(head[4], "events");
  ASSERT_EQ(head[5], "events/s");
  ASSERT_EQ(head[6], "solve [s]");
  const double events = std::strtod(row[4].c_str(), nullptr);
  const double rate = std::strtod(row[5].c_str(), nullptr);
  const double solve = std::strtod(row[6].c_str(), nullptr);
  ASSERT_GT(events, 0.0);
  ASSERT_GT(solve, 0.005) << "solve too short to resolve the rate";
  // solve [s] prints to the millisecond and events/s to 6 significant
  // digits: the rate must fall inside the interval that rounding allows.
  EXPECT_GE(rate * (1.0 + 1e-5), events / (solve + 0.0005)) << line;
  EXPECT_LE(rate * (1.0 - 1e-5), events / (solve - 0.0005)) << line;

  // The peak-bank cell is a number on a plain row, not "-".
  ASSERT_EQ(head[12], "peak bank [MiB]");
  char* end = nullptr;
  const double bank_mib = std::strtod(row[12].c_str(), &end);
  EXPECT_EQ(*end, '\0') << "peak bank cell '" << row[12] << "'";
  EXPECT_GT(bank_mib, 0.0) << line;
  std::remove(spec.c_str());
  std::remove(csv.c_str());
}

#endif  // NEUTRAL_BATCH_BIN

}  // namespace
}  // namespace neutral
