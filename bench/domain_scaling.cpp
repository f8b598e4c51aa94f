// Domain-decomposition scaling: one deck, tiled over growing subdomain
// grids, with a hard determinism gate.
//
// Threading one deck shares (or, privatized, copies) the whole
// tally/density footprint; domain decomposition splits the footprint
// itself.  The table reports, per grid, the wall clock, the
// migration traffic that pays for the split, and the per-subdomain peak
// slab bytes — the column that must SHRINK as the grid refines, because
// slab size is what decides whether a deck fits a node at all.  The
// checksum column is printed at full precision: every row must be
// bit-identical to the 1x1 run or the binary exits non-zero.
#include <cstdio>
#include <string>
#include <utility>
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
  scale.particle_scale = 0.05;  // one "large" deck
  const long workers_opt = cli.option_int(
      "workers", 0, "engine workers per transport round (0 = logical cpus)");
  const std::string scheme_opt = cli.option(
      "scheme", "particles", "particles|events — domains compose with both");
  const std::string layout_opt =
      cli.option("layout", "aos", "aos|soa bank layout");
  if (!BenchScale::parse(cli, &scale)) return 0;

  const std::int32_t hw = probe_host().logical_cpus;
  const std::int32_t workers =
      workers_opt > 0 ? static_cast<std::int32_t>(workers_opt) : hw;

  SimulationConfig base;
  base.deck = scale.deck("csp");
  base.scheme = scheme_from_string(scheme_opt);
  base.layout = layout_from_string(layout_opt);
  base.threads = 1;

  const std::string csv = banner(
      "domain_scaling", "mesh decomposition scaling + determinism gate",
      scale);
  std::printf("# deck csp, %d x %d cells, %lld particles, %d workers, "
              "%s/%s\n",
              base.deck.nx, base.deck.ny,
              static_cast<long long>(base.deck.n_particles), workers,
              to_string(base.scheme), to_string(base.layout));

  ResultTable table("domain_scaling — one deck, R x C subdomains",
                    {"grid", "subdomains", "wall [s]", "events/s",
                     "migrations", "rounds", "peak slab [MiB]",
                     "slab vs full", "peak bank [MiB]", "tally checksum"});

  const std::pair<std::int32_t, std::int32_t> grids[] = {
      {1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}};

  double reference_checksum = 0.0;
  std::int64_t reference_population = 0;
  std::uint64_t full_slab = 0;
  bool identical = true;
  for (const auto& [rows, cols] : grids) {
    batch::EngineOptions options;
    options.workers = workers;
    batch::BatchEngine engine(options);
    batch::Decomposition how;
    how.rows = rows;
    how.cols = cols;

    double wall = 1.0e300;
    batch::BatchReport best;
    for (int rep = 0; rep < scale.reps; ++rep) {
      batch::BatchReport report =
          batch::run_sweep(engine, {batch::make_job(0, base)}, how);
      if (!report.jobs.front().ok) {
        std::fprintf(stderr, "domain_scaling: %s\n",
                     report.jobs.front().error.c_str());
        return 2;
      }
      if (report.wall_seconds < wall) {
        wall = report.wall_seconds;
        best = std::move(report);
      }
    }
    const batch::JobOutcome& row = best.jobs.front();
    const batch::SplitStats& split = row.split;
    const std::uint64_t slab = row.result.peak_mesh_bytes;
    if (rows == 1 && cols == 1) {
      reference_checksum = row.result.tally_checksum;
      reference_population = row.result.population;
      full_slab = slab;
    } else if (row.result.tally_checksum != reference_checksum ||
               row.result.population != reference_population) {
      identical = false;
    }

    table.add_row(
        {std::to_string(split.grid_rows) + "x" +
             std::to_string(split.grid_cols),
         std::to_string(split.grid_rows * split.grid_cols),
         ResultTable::cell(wall, 4),
         ResultTable::cell(best.events_per_second(), 3),
         ResultTable::cell(
             static_cast<unsigned long long>(split.migrations)),
         std::to_string(split.rounds),
         ResultTable::cell(static_cast<double>(slab) / (1 << 20), 3),
         ResultTable::cell(full_slab > 0
                               ? static_cast<double>(slab) /
                                     static_cast<double>(full_slab)
                               : 1.0,
                           3),
         ResultTable::cell(
             static_cast<double>(row.result.peak_bank_bytes) / (1 << 20),
             3),
         ResultTable::cell_full(row.result.tally_checksum)});
  }

  table.print();
  table.write_csv(csv);
  std::printf("\ndeterminism gate: every grid's checksum/population "
              "identical to 1x1 -> %s\n",
              identical ? "PASS" : "FAIL");
  return identical ? 0 : 1;
}
