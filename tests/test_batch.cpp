// Tests for the batch execution engine: sweep expansion, the bounded
// priority queue (including its deadline policy and cancelled-group
// tombstone lifetime), group cancellation, the shared world cache,
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
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "batch/queue.h"
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
using batch::JobQueue;
using batch::PushOutcome;
using batch::QueuePolicy;
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

Job job_with_priority(std::uint64_t id, std::int32_t priority) {
  return batch::make_job(id, tiny_config(), priority);
}

/// A two-timestep job in fork-join group `group` (0 = ungrouped).
Job grouped_job(std::uint64_t id, std::uint64_t group,
                std::int64_t particles = 100) {
  SimulationConfig cfg = tiny_config(particles);
  cfg.deck.n_timesteps = 2;
  Job job = batch::make_job(id, cfg);
  job.group = group;
  return job;
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

  WorldCache probe;
  const std::uint64_t one = probe.acquire(decks[0])->footprint_bytes();
  options.max_bytes = 5 * one / 2;  // room for ~2 worlds

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
// Job queue
// ---------------------------------------------------------------------------

TEST(JobQueueTest, PopsByPriorityThenFifo) {
  JobQueue queue(16);
  ASSERT_TRUE(queue.try_push(job_with_priority(1, 0)));
  ASSERT_TRUE(queue.try_push(job_with_priority(2, 5)));
  ASSERT_TRUE(queue.try_push(job_with_priority(3, 5)));
  ASSERT_TRUE(queue.try_push(job_with_priority(4, 1)));
  queue.close();
  EXPECT_EQ(queue.pop()->id, 2u);  // highest priority, submitted first
  EXPECT_EQ(queue.pop()->id, 3u);  // same priority, FIFO
  EXPECT_EQ(queue.pop()->id, 4u);
  EXPECT_EQ(queue.pop()->id, 1u);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueueTest, BoundedCapacityRefusesWhenFull) {
  JobQueue queue(2);
  EXPECT_TRUE(queue.try_push(job_with_priority(1, 0)));
  EXPECT_TRUE(queue.try_push(job_with_priority(2, 0)));
  EXPECT_FALSE(queue.try_push(job_with_priority(3, 0)));
  (void)queue.pop();
  EXPECT_TRUE(queue.try_push(job_with_priority(3, 0)));
}

TEST(JobQueueTest, CloseRefusesPushesButDrainsInFlightJobs) {
  JobQueue queue(8);
  ASSERT_EQ(queue.push(job_with_priority(1, 0)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.push(job_with_priority(2, 0)), PushOutcome::kAccepted);
  queue.close();
  EXPECT_EQ(queue.push(job_with_priority(3, 0)), PushOutcome::kRefused);
  EXPECT_TRUE(queue.closed());
  // Jobs queued before close() still pop.
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(JobQueueTest, ShutdownWakesBlockedConsumers) {
  JobQueue queue(4);
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kJobs = 32;
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int t = 0; t < kConsumers; ++t) {
    consumers.emplace_back([&] {
      while (queue.pop().has_value()) {
        popped.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    // Blocking push: the capacity-4 queue back-pressures this producer
    // while consumers are mid-"job".
    ASSERT_EQ(queue.push(job_with_priority(i, 0)), PushOutcome::kAccepted);
  }
  queue.close();
  for (std::thread& t : consumers) t.join();
  // Every job pushed before close() was processed; nobody deadlocked.
  EXPECT_EQ(popped.load(), kJobs);
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

// ---------------------------------------------------------------------------
// Queue deadlines (QueuePolicy) and cancelled-group tombstone lifetime
// ---------------------------------------------------------------------------

TEST(JobQueueDeadline, PushDistinguishesTimedOutFromRefused) {
  QueuePolicy policy;
  policy.max_queue_wait = std::chrono::milliseconds(30);
  JobQueue queue(1, policy);
  ASSERT_EQ(queue.push(job_with_priority(1, 0)), PushOutcome::kAccepted);
  // Full queue, no consumer: the timed wait expires instead of hanging the
  // producer forever — and reports kTimedOut (alive but saturated) ...
  EXPECT_EQ(queue.push(job_with_priority(2, 0)), PushOutcome::kTimedOut);
  // ... which is NOT the same answer as a closed queue.
  queue.close();
  EXPECT_EQ(queue.push(job_with_priority(3, 0)), PushOutcome::kRefused);
}

TEST(JobQueueDeadline, PushUntilHonoursAnExplicitDeadline) {
  JobQueue queue(1);  // no policy: plain push() would wait forever
  ASSERT_EQ(queue.push(job_with_priority(1, 0)), PushOutcome::kAccepted);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.push_until(job_with_priority(2, 0),
                             start + std::chrono::milliseconds(30)),
            PushOutcome::kTimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(JobQueueDeadline, PopUntilReturnsEmptyOnDeadline) {
  JobQueue queue(4);
  // Empty queue, nobody pushing: the timed pop returns instead of blocking.
  EXPECT_FALSE(queue
                   .pop_until(std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(30))
                   .has_value());
  EXPECT_FALSE(queue.closed());  // a timeout is not a shutdown
  ASSERT_TRUE(queue.try_push(job_with_priority(1, 0)));
  EXPECT_EQ(queue
                .pop_until(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(30))
                ->id,
            1u);
}

TEST(JobQueueTombstones, ForgetGroupKeepsTheCancelledSetBounded) {
  // Regression for the unbounded-lifetime bug: cancel_pending() inserted a
  // tombstone per group and nothing ever erased it, so a daemon cancelling
  // N distinct groups leaked N entries.  forget_group() is the eviction.
  JobQueue queue(8);
  for (std::uint64_t group = 1; group <= 512; ++group) {
    Job job = job_with_priority(group, 0);
    job.group = group;
    ASSERT_TRUE(queue.try_push(std::move(job)));
    EXPECT_EQ(queue.cancel_pending(group).size(), 1u);
    EXPECT_TRUE(queue.group_cancelled(group));
    queue.forget_group(group);  // last job of the group accounted for
    EXPECT_FALSE(queue.group_cancelled(group));
  }
  EXPECT_EQ(queue.cancelled_group_count(), 0u);
  // A forgotten group id is usable again (ids recycle in a long-lived
  // daemon once their submission is fully retired).
  Job again = job_with_priority(9999, 0);
  again.group = 7;
  EXPECT_TRUE(queue.try_push(std::move(again)));
}

TEST(JobQueueTombstones, CancelPendingLeavesLazyTombstonesWithoutRebuild) {
  // Regression for the O(n) heap rebuild: cancel_pending() used to copy
  // every surviving entry into a fresh heap.  It now marks matching
  // entries dead in place, so right after a cancel the dead entries are
  // still *inside* the heap (lazily purged as they surface at the top).
  // Sequential and timing-insensitive by construction.
  JobQueue queue(64);
  // Groups 1 and 3 at priority 5 (heap top), group 2 at priority 0
  // (heap bottom) — so cancelling group 2 cannot be cleaned up by the
  // drop-dead-top pass and MUST leave lazy tombstones behind.
  for (std::uint64_t id = 1; id <= 10; ++id) {
    Job job = job_with_priority(id, 5);
    job.group = 1;
    ASSERT_TRUE(queue.try_push(std::move(job)));
  }
  for (std::uint64_t id = 11; id <= 20; ++id) {
    Job job = job_with_priority(id, 0);
    job.group = 2;
    ASSERT_TRUE(queue.try_push(std::move(job)));
  }
  for (std::uint64_t id = 21; id <= 30; ++id) {
    Job job = job_with_priority(id, 5);
    job.group = 3;
    ASSERT_TRUE(queue.try_push(std::move(job)));
  }
  const std::vector<Job> removed = queue.cancel_pending(2);
  // Removed jobs come back in submission order (the engine records them
  // as cancelled outcomes in this order).
  ASSERT_EQ(removed.size(), 10u);
  for (std::size_t i = 0; i < removed.size(); ++i) {
    EXPECT_EQ(removed[i].id, 11u + i);
  }
  EXPECT_EQ(queue.size(), 20u);
  // The lazy-cancellation proof: tombstones are still physically in the
  // heap (a rebuild would have dropped them all immediately).
  EXPECT_EQ(queue.dead_entries(), 10u);
  // Survivors drain in the exact order strict priority demands, skipping
  // the dead entries as they surface.
  queue.close();
  for (std::uint64_t expect : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u}) {
    EXPECT_EQ(queue.pop()->id, expect);
  }
  for (std::uint64_t expect = 21; expect <= 30; ++expect) {
    EXPECT_EQ(queue.pop()->id, expect);
  }
  EXPECT_FALSE(queue.pop().has_value());
  // Draining the live entries purged every tombstone on the way out.
  EXPECT_EQ(queue.dead_entries(), 0u);
  EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------------------
// Priority aging (QueuePolicy::priority_aging)
// ---------------------------------------------------------------------------

TEST(JobQueueAging, StrictPriorityProvablyStarvesUnderSaturation) {
  // The failure mode aging exists to fix, demonstrated sequentially so it
  // is a proof, not a race: with aging off, a priority-0 job queued FIRST
  // still pops LAST behind every priority-9 job, no matter how long it
  // has waited.
  JobQueue queue(32);
  ASSERT_TRUE(queue.try_push(job_with_priority(777, 0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::uint64_t id = 1; id <= 31; ++id) {
    ASSERT_TRUE(queue.try_push(job_with_priority(id, 9)));
  }
  queue.close();
  for (std::uint64_t expect = 1; expect <= 31; ++expect) {
    EXPECT_EQ(queue.pop()->id, expect);
  }
  EXPECT_EQ(queue.pop()->id, 777u);  // starved to the very end
}

TEST(JobQueueAging, AgedLowPriorityJobOvertakesYoungerHighPriority) {
  // With --priority-aging-ms T, a queued job gains one effective priority
  // level per T ms waited.  A priority-0 job that has waited > 9T beats a
  // freshly queued priority 9.  The bound is oversleep-robust: sleeping
  // LONGER only ages the low-priority job further.
  QueuePolicy policy;
  policy.priority_aging = std::chrono::milliseconds(10);
  JobQueue queue(32, policy);
  ASSERT_TRUE(queue.try_push(job_with_priority(777, 0)));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // > 9 x 10ms
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(queue.try_push(job_with_priority(id, 9)));
  }
  queue.close();
  EXPECT_EQ(queue.pop()->id, 777u);  // aged past every fresh nine
  for (std::uint64_t expect = 1; expect <= 8; ++expect) {
    EXPECT_EQ(queue.pop()->id, expect);  // nines stay FIFO among themselves
  }
}

TEST(JobQueueAging, AgingBoundsPriorityZeroWaitUnderSaturatedNines) {
  // Concurrent saturation: a producer floods priority-9 jobs through a
  // small queue while a consumer drains it slowly.  A priority-9 job
  // enqueued at time t has rank 9 - t/T; the priority-0 job enqueued at
  // t~0 has rank ~0 — so only nines enqueued within the first 9T = 45ms
  // can beat it.  With capacity 8 and a consumer that spends >= 2ms per
  // pop, at most 8 + 45/2 ~ 31 jobs are enqueued in that window; assert
  // the generous bound 50.  A slower machine only shrinks the window's
  // throughput, so the test cannot flake slow.
  QueuePolicy policy;
  policy.priority_aging = std::chrono::milliseconds(5);
  JobQueue queue(8, policy);
  constexpr std::uint64_t kNines = 200;
  ASSERT_TRUE(queue.try_push(job_with_priority(777, 0)));
  std::thread producer([&] {
    for (std::uint64_t id = 1; id <= kNines; ++id) {
      ASSERT_EQ(queue.push(job_with_priority(id, 9)),
                PushOutcome::kAccepted);
    }
    queue.close();
  });
  std::size_t position = 0;
  std::size_t zero_at = 0;
  while (auto job = queue.pop()) {
    ++position;
    if (job->id == 777u) zero_at = position;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  producer.join();
  EXPECT_EQ(position, kNines + 1);  // everything drained
  ASSERT_GT(zero_at, 0u);
  EXPECT_LE(zero_at, 50u)
      << "priority-0 job starved past the aging bound under p9 saturation";
}

TEST(Engine, EvictsGroupTombstonesOnceGroupsComplete) {
  // Engine wiring for the eviction: many failing groups in one run; every
  // job gets exactly one outcome (fail or cancelled), nothing hangs, and
  // the per-group bookkeeping drains.  (The queue is per-run; what this
  // pins is that record-keeping reaches zero for every group, the
  // precondition forget_group relies on.)
  std::vector<Job> jobs;
  for (std::uint64_t group = 1; group <= 16; ++group) {
    SimulationConfig bad = tiny_config();
    bad.deck.n_particles = 0;  // every group's first job fails
    Job leader = batch::make_job(group * 10, bad);
    leader.group = group;
    jobs.push_back(std::move(leader));
    Job sibling = batch::make_job(group * 10 + 1, tiny_config(50));
    sibling.group = group;
    jobs.push_back(std::move(sibling));
  }
  EngineOptions options;
  options.workers = 1;
  BatchEngine engine(options);
  const BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 32u);
  for (const JobOutcome& outcome : report.jobs) {
    EXPECT_FALSE(outcome.ok);  // leader failed or sibling cancelled
  }
  EXPECT_GT(report.cancelled(), 0u);
}

TEST(Engine, QueueWaitDeadlineExpiresQueuedJobs) {
  // One worker pinned by a slow custom job: the jobs behind it overstay
  // max_queue_wait and must complete as timed_out without running.
  EngineOptions options;
  options.workers = 1;
  options.policy.max_queue_wait = std::chrono::milliseconds(40);
  BatchEngine engine(options);

  std::atomic<int> ran{0};
  std::vector<Job> jobs;
  Job slow = batch::make_job(0, tiny_config(50));
  slow.work = [&ran] {
    ran.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    return RunResult{};
  };
  jobs.push_back(std::move(slow));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Job blocked = batch::make_job(id, tiny_config(50));
    blocked.work = [&ran] {
      ran.fetch_add(1);
      return RunResult{};
    };
    jobs.push_back(std::move(blocked));
  }

  const BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 4u);
  EXPECT_TRUE(report.jobs[0].ok);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(report.jobs[i].ok);
    EXPECT_TRUE(report.jobs[i].timed_out);
    EXPECT_NE(report.jobs[i].error.find("max_queue_wait"),
              std::string::npos);
  }
  EXPECT_EQ(report.timed_out(), 3u);
  EXPECT_EQ(ran.load(), 1);  // expired jobs never ran
}

TEST(Engine, RunWallDeadlineTimesOutAndCancelsTheGroup) {
  // A grouped job that overruns max_run_wall aborts at a timestep boundary
  // (cooperative SimulationConfig::deadline), completes as timed_out, and
  // cancels its still-queued sibling like any failure would.
  EngineOptions options;
  options.workers = 1;
  options.threads_per_job = 1;
  options.policy.max_run_wall = std::chrono::milliseconds(50);
  BatchEngine engine(options);

  SimulationConfig slow = tiny_config(2000);
  slow.deck.n_timesteps = 500;
  std::vector<Job> jobs;
  Job leader = batch::make_job(0, slow);
  leader.group = 3;
  jobs.push_back(std::move(leader));
  Job sibling = batch::make_job(1, slow);
  sibling.group = 3;
  jobs.push_back(std::move(sibling));

  const BatchReport report = engine.run(std::move(jobs));
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_TRUE(report.jobs[0].timed_out);
  EXPECT_TRUE(report.jobs[1].cancelled);
  EXPECT_EQ(report.timed_out(), 1u);
}

TEST(Engine, FailedGroupMemberCancelsItsSiblings) {
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
  const BatchReport report = engine.run(std::move(jobs));
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

TEST(Engine, GroupCancellationCanBeDisabled) {
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
  const BatchReport report = engine.run(std::move(jobs));
  EXPECT_FALSE(report.jobs[0].ok);
  EXPECT_TRUE(report.jobs[1].ok);  // sibling still ran
  EXPECT_EQ(report.cancelled(), 0u);
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
      "priority 3\n"
      "axis particles 100 200\n"
      "axis scheme particles events\n");
  EXPECT_EQ(spec.deck_name, "csp");
  EXPECT_EQ(spec.base.deck.nx, 80);  // 4000 * 0.02
  EXPECT_EQ(spec.base.deck.n_timesteps, 2);
  EXPECT_EQ(spec.base.deck.seed, 7u);
  EXPECT_EQ(spec.base.layout, Layout::kSoA);
  EXPECT_EQ(spec.base.schedule.kind, ScheduleKind::kDynamic);
  EXPECT_EQ(spec.base.schedule.chunk, 4);
  EXPECT_EQ(spec.priority, 3);
  ASSERT_EQ(spec.axes.particles.size(), 2u);
  ASSERT_EQ(spec.axes.schemes.size(), 2u);
  EXPECT_EQ(batch::sweep_size(spec), 4u);

  const std::vector<Job> jobs = batch::expand_sweep(spec);
  for (const Job& job : jobs) {
    EXPECT_EQ(job.priority, 3);
    EXPECT_EQ(job.config.deck.n_timesteps, 2);
  }
}

TEST(Sweep, RejectsMalformedSpecs) {
  EXPECT_THROW(batch::parse_sweep("bogus_key 1\n"), Error);
  EXPECT_THROW(batch::parse_sweep("axis bogus 1 2\n"), Error);
  EXPECT_THROW(batch::parse_sweep("nxq\n"), Error);
  EXPECT_THROW(batch::parse_sweep("axis particles twelve\n"), Error);
  EXPECT_THROW(batch::parse_sweep("deck csp\ndeck_file x.params\n"), Error);
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

TEST(Engine, DecomposedRowIsCountedOnceWithItsMergedResult) {
  // A 2x2 sweep runs many subdomain round jobs per row; the job metrics
  // must count rows, with the stitched result's events, not the rounds.
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
      batch::run_sweep(engine, batch::expand_sweep(spec, true),
                       batch::Decomposition::parse("2x2"));
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

/// Spawn the real neutral_batch binary and return its exit status.
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(NEUTRAL_BATCH_BIN) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
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

TEST(CliRecords, DecomposedSweepWritesOneWholeDeckRecordPerJob) {
  // --record-dir records the stitched row, not the subdomain rounds: one
  // file per sweep job, holding the whole deck's particles and censuses.
  namespace fs = std::filesystem;
  const std::string spec = scratch("records.spec");
  const fs::path plain_dir = scratch("records_plain");
  const fs::path domain_dir = scratch("records_domains");
  const std::string csv = scratch("records.csv");
  fs::create_directories(plain_dir);
  fs::create_directories(domain_dir);
  {
    std::ofstream out(spec);
    out << "deck csp\nmesh_scale 0.02\ntimesteps 1\nthreads 1\n"
           "axis particles 100 200\n";
  }
  const std::string common = "--spec " + spec + " --quiet --csv " + csv;
  ASSERT_EQ(run_cli(common + " --record-dir " + plain_dir.string()), 0);
  ASSERT_EQ(run_cli(common + " --domains 2x2 --record-dir " +
                    domain_dir.string()),
            0);

  const auto files = std::distance(fs::directory_iterator(domain_dir),
                                   fs::directory_iterator());
  EXPECT_EQ(files, 2);
  for (const char* name : {"job_0.results", "job_1.results"}) {
    const ExpectedResults plain = load_results((plain_dir / name).string());
    const ExpectedResults decomposed =
        load_results((domain_dir / name).string());
    EXPECT_EQ(decomposed.particles, plain.particles) << name;
    EXPECT_EQ(decomposed.censuses, plain.censuses) << name;
    EXPECT_EQ(decomposed.facets, plain.facets) << name;
    EXPECT_EQ(decomposed.collisions, plain.collisions) << name;
  }
  fs::remove_all(plain_dir);
  fs::remove_all(domain_dir);
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
  // One definition of events/s for every row: events / solve [s].  A
  // domain row's result.total_seconds sums its subdomains' transport time,
  // which is not the row's wall time, so the rate must not come from it.
  const std::string spec = scratch("rate.spec");
  const std::string csv = scratch("rate.csv");
  {
    std::ofstream out(spec);
    out << "deck csp\nmesh_scale 0.02\ntimesteps 1\nthreads 1\n"
           "particles 20000\n";
  }
  for (const char* mode : {"", " --domains 2x2"}) {
    SCOPED_TRACE(mode[0] != '\0' ? mode : "plain");
    ASSERT_EQ(run_cli("--spec " + spec + " --quiet --csv " + csv + mode), 0);
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
  }
  std::remove(spec.c_str());
  std::remove(csv.c_str());
}

#endif  // NEUTRAL_BATCH_BIN

#ifdef NEUTRAL_BIN

TEST(CliReport, DecomposedWallclockIsTheWallNotTheSummedPartTime) {
  // Four subdomains overlap in time, so their summed seconds need not be
  // the wall clock; the `wallclock` line must report the wall, agreeing
  // with the `decomposition` line's.
  const std::string cmd = std::string(NEUTRAL_BIN) +
                          " --problem scatter --mesh-scale 0.02 "
                          "--particles 4000 --domains 2x2 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  double wallclock = -1.0;
  double decomposition = -1.0;
  char line[512];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    // "wallclock      : 0.1092 s ..." and
    // "decomposition  : 2x2 domains on 4 workers, 0.1103 s wall ...".
    const std::string text(line);
    if (text.rfind("wallclock", 0) == 0) {
      wallclock = std::strtod(text.c_str() + text.find(':') + 1, nullptr);
    } else if (text.rfind("decomposition", 0) == 0) {
      const std::size_t comma = text.find(", ");
      ASSERT_NE(comma, std::string::npos) << text;
      decomposition = std::strtod(text.c_str() + comma + 1, nullptr);
    }
  }
  ASSERT_EQ(::pclose(pipe), 0);
  ASSERT_GT(wallclock, 0.0);
  ASSERT_GT(decomposition, 0.0);
  EXPECT_LE(wallclock, decomposition * 1.05);
}

#endif  // NEUTRAL_BIN

}  // namespace
}  // namespace neutral
