// Strong scaling of single-deck sharding: one large deck, split into 1..N
// fork-join shard jobs on the batch engine (1 OpenMP thread per shard, so
// concurrency comes purely from the shard decomposition).
//
// This attacks the paper's load-imbalance ceiling from the other side:
// instead of threads pulling uneven histories from one shared loop, each
// shard is an independent job and the worker pool load-balances whole
// shards.  The table reports wall-clock speedup over the 1-shard run and
// the per-shard imbalance (max/mean shard time); the checksum column is
// printed at full precision because it must be IDENTICAL on every row —
// the deterministic reduction is what makes this decomposition safe.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "bench_common.h"
#include "runtime/host_info.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  BenchScale scale;
  scale.particle_scale = 0.05;  // one "large" deck is the whole point
  const long max_shards_opt = cli.option_int(
      "max-shards", 0, "largest shard count (0 = logical cpus)");
  if (!BenchScale::parse(cli, &scale)) return 0;

  const std::int32_t hw = probe_host().logical_cpus;
  const std::int32_t max_shards =
      max_shards_opt > 0 ? static_cast<std::int32_t>(max_shards_opt) : hw;

  SimulationConfig base;
  base.deck = scale.deck("csp");
  base.threads = 1;

  const std::string csv = banner("shard_scaling",
                                 "single-deck fork-join strong scaling",
                                 scale);
  std::printf("# deck csp, %lld particles, shards x 1 thread each\n",
              static_cast<long long>(base.deck.n_particles));

  ResultTable table("shard_scaling — one deck, N shards",
                    {"shards", "workers", "wall [s]", "speedup", "efficiency",
                     "events/s", "imbalance", "tally checksum"});

  std::vector<std::int32_t> shard_counts;
  for (std::int32_t n = 1; n <= max_shards; n *= 2) shard_counts.push_back(n);
  if (shard_counts.back() != max_shards) shard_counts.push_back(max_shards);

  double base_wall = 0.0;
  double reference_checksum = 0.0;
  std::int64_t reference_population = 0;
  bool identical = true;
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    const std::int32_t shards = shard_counts[i];
    batch::EngineOptions options;
    options.workers = shards;
    options.threads_per_job = 1;
    batch::BatchEngine engine(options);
    batch::Decomposition how;
    how.shards = shards;

    double wall = 1.0e300;
    batch::BatchReport best;
    for (int rep = 0; rep < scale.reps; ++rep) {
      batch::BatchReport report =
          batch::run_sweep(engine, {batch::make_job(0, base)}, how);
      if (!report.jobs.front().ok) {
        std::fprintf(stderr, "shard_scaling: %s\n",
                     report.jobs.front().error.c_str());
        return 2;
      }
      if (report.wall_seconds < wall) {
        wall = report.wall_seconds;
        best = std::move(report);
      }
    }
    const batch::JobOutcome& row = best.jobs.front();
    if (i == 0) {
      base_wall = wall;
      reference_checksum = row.result.tally_checksum;
      reference_population = row.result.population;
    } else if (row.result.tally_checksum != reference_checksum ||
               row.result.population != reference_population) {
      identical = false;
    }

    const double speedup = wall > 0.0 ? base_wall / wall : 0.0;
    table.add_row({std::to_string(shards),
                   std::to_string(best.workers),
                   ResultTable::cell(wall, 4),
                   ResultTable::cell(speedup, 2),
                   ResultTable::cell(speedup / shards, 2),
                   ResultTable::cell(best.events_per_second(), 3),
                   ResultTable::cell(row.split.imbalance, 2),
                   ResultTable::cell_full(row.result.tally_checksum)});
  }

  table.print();
  table.write_csv(csv);
  std::printf("\nreduction determinism: every row's checksum/population "
              "identical -> %s\n",
              identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}
