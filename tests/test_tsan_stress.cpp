// Concurrency stress tier for the sanitizer builds (TSan above all).
//
// One shared MetricsRegistry + TraceLog observed by everything at once:
// N client threads run mixed submit/watch/cancel traffic through batch
// engines (each run() spins its own worker pool over one shared job
// cursor; the registry, trace log and world cache are the shared
// surfaces), a job whose world cannot build exercises the failure path
// between healthy neighbours, a canceller thread flips a cooperative
// cancel flag mid-run, and a scraper thread loops
// MetricsRegistry::snapshot() the whole time.  Under ThreadSanitizer this
// covers the relaxed-ordering counter shards racing a live scraper,
// concurrent TraceLog writes, and the failed-job bookkeeping.
//
// The final assertion is counter EXACTNESS, not approximation: after every
// client joins (the join is the happens-before edge — see the ordering
// contract on obs::Counter), each registry total must equal the sum of the
// corresponding outcomes accumulated from the returned BatchReports.  A
// lost update anywhere in the sharded counters, or a snapshot tearing a
// word, fails the test in every tier (plain, ASan, TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "batch/engine.h"
#include "core/counters.h"
#include "core/deck.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neutral {
namespace {

using batch::BatchEngine;
using batch::BatchReport;
using batch::EngineOptions;
using batch::Job;
using batch::JobOutcome;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceLog;

ProblemDeck stress_deck(std::int64_t particles) {
  ProblemDeck deck = csp_deck(/*mesh_scale=*/0.02, /*particle_scale=*/1.0);
  deck.n_particles = particles;
  return deck;
}

Job stress_job(std::uint64_t id, std::int64_t particles) {
  Job job = batch::make_job(id, SimulationConfig{});
  job.config.deck = stress_deck(particles);
  job.config.threads = 1;
  job.fingerprint = world_fingerprint(job.config.deck);
  job.label = "stress-" + std::to_string(id);
  return job;
}

/// Outcome totals accumulated from BatchReports — the ground truth the
/// registry counters must match exactly once the clients have joined.
struct OutcomeTotals {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> events{0};

  void note(const BatchReport& report) {
    for (const JobOutcome& job : report.jobs) {
      if (job.ok) {
        ok.fetch_add(1);
        const EventCounters& c = job.result.counters;
        events.fetch_add(c.facets + c.collisions + c.censuses + c.rng_draws +
                         c.xs_lookups + c.tally_flushes);
      } else if (job.timed_out) {
        timed_out.fetch_add(1);
      } else if (job.cancelled) {
        cancelled.fetch_add(1);
      } else {
        failed.fetch_add(1);
      }
    }
  }
};

std::uint64_t counter_value(const MetricsSnapshot& snap, const char* name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->counter;
}

TEST(TsanStress, ConcurrentSubmitWatchCancelWithLiveScraper) {
  constexpr int kClients = 4;
  constexpr int kRounds = 4;
  constexpr std::int64_t kParticles = 60;

  MetricsRegistry registry;
  const std::string trace_path =
      testing::TempDir() + "tsan_stress_trace.jsonl";
  TraceLog trace(trace_path);

  EngineOptions options;
  options.workers = 3;
  options.threads_per_job = 1;
  options.metrics = &registry;
  options.trace = &trace;

  OutcomeTotals totals;
  std::atomic<std::uint64_t> watched{0};  // on_complete callback count
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<bool> stop_scraper{false};

  // The scraper races every writer for the whole test: snapshots must stay
  // monotone per counter (per-shard coherence) and never tear.
  std::thread scraper([&] {
    std::uint64_t last_ok = 0;
    while (!stop_scraper.load()) {
      const MetricsSnapshot snap = registry.snapshot();
      const std::uint64_t ok = counter_value(snap, "neutral_jobs_ok_total");
      EXPECT_GE(ok, last_ok) << "counter went backwards under load";
      last_ok = ok;
      (void)snap.prometheus_text();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // One engine per client, all publishing into the shared registry and
      // trace log (the neutrald topology is one engine, many connections;
      // many engines sharing one registry is the same write pattern with
      // more submit-side concurrency).
      BatchEngine engine(options);
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<bool> cancel{false};
        std::vector<Job> jobs;
        std::uint64_t next_id = 1;
        for (int j = 0; j < 3; ++j) {
          jobs.push_back(stress_job(next_id++, kParticles));
        }
        if (round % 2 == 1) {
          // Three more jobs, the middle one unable to build its world: it
          // fails alone while its neighbours run, and the scraper watches
          // the failure counters move.
          for (int j = 0; j < 3; ++j) {
            Job job = stress_job(next_id++, kParticles);
            if (j == 1) job.config.deck.nx = 0;  // world build throws
            jobs.push_back(std::move(job));
          }
        }
        if (round % 4 == 3 && c % 2 == 0) {
          // Cooperative cancel flipped mid-run by a separate thread; the
          // affected jobs end ok or cancelled depending on timing — either
          // way they get exactly one outcome, which is all exactness
          // needs.
          Job job = stress_job(next_id++, 4 * kParticles);
          job.config.cancel = &cancel;
          jobs.push_back(std::move(job));
        }
        submitted.fetch_add(jobs.size());
        std::thread canceller([&cancel] {
          std::this_thread::yield();
          cancel.store(true);
        });
        const BatchReport report = engine.run(
            std::move(jobs), [&](const JobOutcome&) { watched.fetch_add(1); });
        canceller.join();
        totals.note(report);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  stop_scraper.store(true);
  scraper.join();

  // Every submitted job got exactly one outcome and one watch callback.
  EXPECT_EQ(totals.ok.load() + totals.failed.load() + totals.timed_out.load() +
                totals.cancelled.load(),
            submitted.load());
  EXPECT_EQ(watched.load(), submitted.load());

  // Joining the clients established the happens-before edge the Counter
  // contract requires, so the relaxed shards must now sum EXACTLY to the
  // report-derived ground truth.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "neutral_jobs_ok_total"), totals.ok.load());
  EXPECT_EQ(counter_value(snap, "neutral_jobs_failed_total"),
            totals.failed.load());
  EXPECT_EQ(counter_value(snap, "neutral_jobs_timed_out_total"),
            totals.timed_out.load());
  EXPECT_EQ(counter_value(snap, "neutral_jobs_cancelled_total"),
            totals.cancelled.load());
  const std::uint64_t events_total =
      counter_value(snap, "neutral_events_facets_total") +
      counter_value(snap, "neutral_events_collisions_total") +
      counter_value(snap, "neutral_events_censuses_total") +
      counter_value(snap, "neutral_events_rng_draws_total") +
      counter_value(snap, "neutral_events_xs_lookups_total") +
      counter_value(snap, "neutral_events_tally_flushes_total");
  EXPECT_EQ(events_total, totals.events.load());

  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace neutral
