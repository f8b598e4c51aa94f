// Tests for domain (spatial) decomposition: the grid planner, windowed
// worlds and Simulations, particle migration, and the stitched reduction's
// bit-identity against the undecomposed run — over the FULL scheme x
// layout matrix (the ParticleBank refactor makes domains compose with
// Over Events and SoA) and at any OpenMP thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "batch/domain.h"
#include "batch/engine.h"
#include "core/simulation.h"
#include "core/validation.h"
#include "mesh/window.h"
#include "obs/trace.h"
#include "util/error.h"

namespace neutral {
namespace {

using batch::BatchEngine;
using batch::DomainGrid;
using batch::DomainOptions;
using batch::DomainRunReport;
using batch::EngineOptions;

DomainRunReport run_domains(BatchEngine& engine, const SimulationConfig& base,
                            const DomainOptions& opt = {}) {
  return batch::run_domains(engine, batch::make_job(0, base), opt);
}

// A deck small enough for exhaustive grids but busy enough to migrate:
// csp's centre square scatters particles streaming in from the source
// corner, so trajectories cross subdomain facets in both axes.
SimulationConfig tiny_config(std::int64_t particles = 400,
                             std::int32_t timesteps = 2) {
  SimulationConfig cfg;
  cfg.deck = csp_deck(/*mesh_scale=*/0.02, /*particle_scale=*/1.0);
  cfg.deck.n_particles = particles;
  cfg.deck.n_timesteps = timesteps;
  cfg.threads = 1;
  return cfg;
}

RunResult run_compensated(SimulationConfig cfg) {
  cfg.compensated_tally = true;
  Simulation sim(std::move(cfg));
  return sim.run();
}

// ---------------------------------------------------------------------------
// Grid planner
// ---------------------------------------------------------------------------

TEST(PlanDomains, TilesTheMeshExactly) {
  const DomainGrid grid = batch::plan_domains(10, 7, 3, 4);
  EXPECT_EQ(grid.rows, 3);
  EXPECT_EQ(grid.cols, 4);
  ASSERT_EQ(grid.row_start.size(), 4u);
  ASSERT_EQ(grid.col_start.size(), 5u);
  EXPECT_EQ(grid.row_start.front(), 0);
  EXPECT_EQ(grid.row_start.back(), 7);
  EXPECT_EQ(grid.col_start.back(), 10);

  // Windows are disjoint, cover every cell, and each cell's owner agrees
  // with its window.
  std::vector<int> covered(10 * 7, 0);
  for (std::int32_t r = 0; r < grid.rows; ++r) {
    for (std::int32_t c = 0; c < grid.cols; ++c) {
      const DomainWindow w = grid.window(r, c);
      EXPECT_GE(w.nx, 10 / 4);
      EXPECT_GE(w.ny, 7 / 3);
      for (std::int32_t j = w.y0; j < w.y0 + w.ny; ++j) {
        for (std::int32_t i = w.x0; i < w.x0 + w.nx; ++i) {
          ++covered[static_cast<std::size_t>(j) * 10 + i];
          EXPECT_EQ(grid.owner({i, j}),
                    static_cast<std::size_t>(r) * 4 + c);
        }
      }
    }
  }
  for (int hits : covered) EXPECT_EQ(hits, 1);
}

TEST(PlanDomains, ClampsToTheMesh) {
  const DomainGrid grid = batch::plan_domains(2, 3, 8, 8);
  EXPECT_EQ(grid.rows, 3);
  EXPECT_EQ(grid.cols, 2);
  EXPECT_THROW(batch::plan_domains(0, 4, 1, 1), Error);
  EXPECT_THROW(batch::plan_domains(4, 4, 0, 1), Error);
}

TEST(ParseDomainGrid, AcceptsRxCOnly) {
  EXPECT_EQ(batch::parse_domain_grid("2x3"),
            (std::pair<std::int32_t, std::int32_t>{2, 3}));
  EXPECT_EQ(batch::parse_domain_grid("1x1"),
            (std::pair<std::int32_t, std::int32_t>{1, 1}));
  EXPECT_THROW(batch::parse_domain_grid(""), Error);
  EXPECT_THROW(batch::parse_domain_grid("4"), Error);
  EXPECT_THROW(batch::parse_domain_grid("x4"), Error);
  EXPECT_THROW(batch::parse_domain_grid("2x"), Error);
  EXPECT_THROW(batch::parse_domain_grid("2x3x4"), Error);
  EXPECT_THROW(batch::parse_domain_grid("0x2"), Error);
  EXPECT_THROW(batch::parse_domain_grid("-1x2"), Error);
}

// ---------------------------------------------------------------------------
// Windowed worlds and Simulations
// ---------------------------------------------------------------------------

TEST(WindowedWorld, SlabDensityMatchesFullField) {
  const ProblemDeck deck = tiny_config().deck;
  const auto full = build_world(deck);
  const DomainWindow w{deck.nx / 2, 0, deck.nx - deck.nx / 2, deck.ny / 2};
  const auto slab = build_world(deck, w);

  EXPECT_EQ(slab->density.size(), w.num_cells());
  EXPECT_NE(slab->fingerprint, full->fingerprint);
  for (std::int32_t j = 0; j < w.ny; ++j) {
    for (std::int32_t i = 0; i < w.nx; ++i) {
      const CellIndex c{w.x0 + i, w.y0 + j};
      ASSERT_EQ(slab->density.g_cm3(w.local_flat(c)),
                full->density.g_cm3(full->mesh.flat_index(c)))
          << "cell (" << c.x << "," << c.y << ")";
    }
  }
}

TEST(WindowedWorld, FullWindowSharesTheFullFingerprint) {
  const ProblemDeck deck = tiny_config().deck;
  const auto a = build_world(deck);
  const auto b = build_world(deck, DomainWindow{0, 0, deck.nx, deck.ny});
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(b->density.size(), a->density.size());
}

TEST(WindowedSimulation, SourcesOnlyParticlesBornInside) {
  const SimulationConfig base = tiny_config(500);
  const DomainGrid grid =
      batch::plan_domains(base.deck.nx, base.deck.ny, 2, 2);
  std::int64_t total = 0;
  for (std::int32_t r = 0; r < 2; ++r) {
    for (std::int32_t c = 0; c < 2; ++c) {
      SimulationConfig cfg = base;
      cfg.window = grid.window(r, c);
      Simulation sim(cfg);
      total += sim.sourced_count();
      EXPECT_EQ(sim.bank_size(), sim.sourced_count());
    }
  }
  EXPECT_EQ(total, 500);
}

TEST(WindowedSimulation, ComposesWithEverySchemeAndLayout) {
  // Windows construct with any scheme and any layout (the bank converts
  // at the boundary).
  for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      SimulationConfig cfg = tiny_config(200);
      cfg.scheme = scheme;
      cfg.layout = layout;
      cfg.window = DomainWindow{0, 0, cfg.deck.nx, cfg.deck.ny};
      Simulation sim(cfg);
      EXPECT_EQ(sim.bank().layout(), layout);
      // A full-mesh window sources the whole bank.
      EXPECT_EQ(sim.sourced_count(), 200);
    }
  }
}

TEST(WindowedSimulation, RejectsGenuinelyInvalidConfigs) {
  SimulationConfig cfg = tiny_config();
  // A window that does not fit the mesh is invalid in any composition.
  cfg.window = DomainWindow{0, 0, cfg.deck.nx + 1, cfg.deck.ny};
  EXPECT_THROW(Simulation{cfg}, Error);
  // step() is the whole-mesh driver; windowed runs use transport_round.
  cfg.window = DomainWindow{0, 0, cfg.deck.nx, cfg.deck.ny};
  Simulation windowed(cfg);
  EXPECT_THROW(windowed.step(), Error);
  Simulation plain(tiny_config());
  EXPECT_THROW(plain.transport_round(true), Error);
}

// ---------------------------------------------------------------------------
// The acceptance gate: bit-identical checksum and population versus the
// undecomposed run for the FULL scheme x layout matrix, over grids
// {1x1, 2x2, 3x3} at worker counts {1, 4}, with the per-subdomain slab
// footprint shrinking as the grid grows.
// ---------------------------------------------------------------------------

class DomainMatrix
    : public ::testing::TestWithParam<std::tuple<Scheme, Layout>> {};

TEST_P(DomainMatrix, BitIdenticalAcrossGridsAndWorkers) {
  const auto [scheme, layout] = GetParam();
  SimulationConfig base = tiny_config(400);
  base.scheme = scheme;
  base.layout = layout;
  const RunResult reference = run_compensated(base);

  std::uint64_t previous_peak = 0;
  const std::pair<std::int32_t, std::int32_t> grids[] = {
      {1, 1}, {2, 2}, {3, 3}};
  for (const auto& [rows, cols] : grids) {
    std::int64_t migrations_at_w1 = -1;
    for (std::int32_t workers : {1, 4}) {
      EngineOptions options;
      options.workers = workers;
      BatchEngine engine(options);
      DomainOptions opt;
      opt.rows = rows;
      opt.cols = cols;
      const DomainRunReport report = run_domains(engine, base, opt);
      ASSERT_TRUE(report.ok) << report.error;
      SCOPED_TRACE(std::string(to_string(scheme)) + "/" +
                   to_string(layout) + " " + std::to_string(rows) + "x" +
                   std::to_string(cols) + " on " +
                   std::to_string(workers) + " workers");

      EXPECT_EQ(report.merged.tally_checksum, reference.tally_checksum);
      EXPECT_EQ(report.merged.population, reference.population);
      EXPECT_EQ(report.merged.counters.total_events(),
                reference.counters.total_events());
      EXPECT_EQ(report.merged.counters.facets, reference.counters.facets);
      EXPECT_EQ(report.merged.counters.collisions,
                reference.counters.collisions);
      EXPECT_EQ(report.merged.counters.rng_draws,
                reference.counters.rng_draws);
      EXPECT_TRUE(report.merged.budget.conserved(1e-9));

      // The whole bank is sourced, split by birth slab.
      EXPECT_EQ(std::accumulate(report.sourced.begin(),
                                report.sourced.end(), std::int64_t{0}),
                base.deck.n_particles);
      // Migration bookkeeping is deterministic across worker counts.
      if (migrations_at_w1 < 0) {
        migrations_at_w1 = report.migrations;
      } else {
        EXPECT_EQ(report.migrations, migrations_at_w1);
      }
      EXPECT_EQ(report.migrations, static_cast<std::int64_t>(
                                       report.merged.counters.migrations));
      if (rows * cols > 1) {
        EXPECT_GT(report.migrations, 0);
      }

      // The stitched image matches the undecomposed compensated tally cell
      // by cell, not just through the checksum.
      ASSERT_NE(report.merged.tally, nullptr);
      ASSERT_EQ(report.merged.tally->cells(), reference.tally->cells());
      for (std::int64_t cell = 0; cell < reference.tally->cells(); ++cell) {
        ASSERT_EQ(report.merged.tally->hi[static_cast<std::size_t>(cell)],
                  reference.tally->hi[static_cast<std::size_t>(cell)])
            << "cell " << cell;
      }

      // Bank-proportional memory is accounted for every scheme (the Over
      // Events runs include their flight-state workspace).
      EXPECT_GT(report.merged.peak_bank_bytes, 0u);

      if (workers == 1) {
        // Slab memory shrinks (weakly) as the grid refines; strictly
        // below the full-mesh footprint once the mesh is actually split.
        const std::uint64_t peak = report.merged.peak_mesh_bytes;
        if (previous_peak > 0) {
          EXPECT_LT(peak, previous_peak);
        } else {
          EXPECT_EQ(peak, reference.peak_mesh_bytes);
        }
        previous_peak = peak;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndLayouts, DomainMatrix,
    ::testing::Combine(::testing::Values(Scheme::kOverParticles,
                                         Scheme::kOverEvents),
                       ::testing::Values(Layout::kAoS, Layout::kSoA)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, Layout>>& info) {
      return std::string(std::get<0>(info.param) == Scheme::kOverParticles
                             ? "particles"
                             : "events") +
             (std::get<1>(info.param) == Layout::kAoS ? "AoS" : "SoA");
    });

// Thread-count invariance at bench size: a subdomain's team may be any
// width (a wider team privatizes its compensated tally), and the stitched
// result must still equal the 1-thread compensated reference bit for bit.
// DomainMatrix cannot show this on a small host: its "4 workers" case
// leaves each subdomain one thread.
TEST(RunDomains, ThreadCountInvariantAtBenchSize) {
  for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
    SimulationConfig base = tiny_config(20000, /*timesteps=*/1);
    base.scheme = scheme;
    const RunResult reference = run_compensated(base);
    for (const std::int32_t grid : {1, 2}) {
      for (const std::int32_t threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(to_string(scheme)) + " " +
                     std::to_string(grid) + "x" + std::to_string(grid) +
                     " at " + std::to_string(threads) + " threads");
        SimulationConfig cfg = base;
        cfg.threads = threads;
        BatchEngine engine;
        DomainOptions opt;
        opt.rows = grid;
        opt.cols = grid;
        const DomainRunReport report = run_domains(engine, cfg, opt);
        ASSERT_TRUE(report.ok) << report.error;
        EXPECT_EQ(report.config.threads, threads);
        EXPECT_EQ(report.merged.tally_checksum, reference.tally_checksum);
        EXPECT_EQ(report.merged.population, reference.population);
        EXPECT_EQ(report.merged.counters.total_events(),
                  reference.counters.total_events());
      }
    }
  }
}

// An explicitly chosen deferred-atomic tally (the over-events §VI-G mode)
// survives decomposition: compensated deferred drains are sequential and
// exact, so the stitched result still matches the undecomposed run.
TEST(RunDomains, DeferredTallyUnderDomainsStaysBitIdentical) {
  SimulationConfig base = tiny_config(300);
  base.scheme = Scheme::kOverEvents;
  base.tally_mode = TallyMode::kDeferredAtomic;
  const RunResult reference = run_compensated(base);

  BatchEngine engine;
  DomainOptions opt;
  opt.rows = 2;
  opt.cols = 2;
  const DomainRunReport report = run_domains(engine, base, opt);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.merged.tally_checksum, reference.tally_checksum);
  EXPECT_EQ(report.merged.population, reference.population);
  EXPECT_TRUE(report.merged.budget.conserved(1e-9));
}

TEST(RunDomains, MultiThreadedRoundsStayBitIdentical) {
  SimulationConfig base = tiny_config(400);
  const RunResult reference = run_compensated(base);

  EngineOptions options;
  options.workers = 2;
  BatchEngine engine(options);
  DomainOptions opt;
  opt.rows = 2;
  opt.cols = 2;
  base.threads = 2;  // atomic tally must be promoted
  const DomainRunReport report = run_domains(engine, base, opt);
  ASSERT_TRUE(report.ok) << report.error;
  // The report carries the config as executed.
  EXPECT_EQ(report.config.threads, 2);
  EXPECT_EQ(report.config.tally_mode, TallyMode::kPrivatized);
  EXPECT_TRUE(report.config.compensated_tally);
  EXPECT_EQ(report.merged.tally_checksum, reference.tally_checksum);
  EXPECT_EQ(report.merged.population, reference.population);
}

TEST(RunDomains, MultipleTimestepsDrainEveryBuffer) {
  const SimulationConfig base = tiny_config(300, /*timesteps=*/3);
  const RunResult reference = run_compensated(base);

  BatchEngine engine;
  DomainOptions opt;
  opt.rows = 2;
  opt.cols = 2;
  const DomainRunReport report = run_domains(engine, base, opt);
  ASSERT_TRUE(report.ok) << report.error;
  // At least one wake round per timestep, and steps fold back to the
  // deck's timestep count with exactly the undecomposed per-step events.
  EXPECT_GE(report.rounds, base.deck.n_timesteps);
  ASSERT_EQ(report.merged.steps.size(),
            static_cast<std::size_t>(base.deck.n_timesteps));
  for (std::size_t s = 0; s < report.merged.steps.size(); ++s) {
    EXPECT_EQ(report.merged.steps[s].counters.censuses,
              reference.steps[s].counters.censuses)
        << "timestep " << s;
  }
  EXPECT_EQ(report.merged.tally_checksum, reference.tally_checksum);
  EXPECT_EQ(report.merged.population, reference.population);
}

TEST(PartJobs, JoinTheSweepJobsGroup) {
  const batch::Job parent = batch::make_job(8, tiny_config(100));
  const batch::Job part = batch::make_part_job(parent, 20, "part");
  EXPECT_EQ(part.id, 20u);
  EXPECT_EQ(part.group, 9u);  // non-zero even for sweep job 0
  EXPECT_EQ(part.label, "part");
  EXPECT_EQ(batch::make_part_job(batch::make_job(0, tiny_config(100)), 1,
                                 "first")
                .group,
            1u);
}

// Round jobs are make_part_job parts of the sweep job (see PartJobs
// above): they join group job.id + 1, not a fixed default, so two decks'
// rounds never share one.
TEST(RunDomains, RoundJobsJoinTheSweepJobsGroup) {
  const std::string path = "test_domain_rounds.jsonl";
  std::remove(path.c_str());
  {
    obs::TraceLog trace(path);
    EngineOptions options;
    options.trace = &trace;
    BatchEngine engine(options);
    DomainOptions opt;
    opt.rows = 2;
    opt.cols = 1;
    const DomainRunReport report = batch::run_domains(
        engine, batch::make_job(5, tiny_config(200)), opt);
    ASSERT_TRUE(report.ok) << report.error;
  }
  std::ifstream in(path);
  std::string line;
  std::size_t rounds_submitted = 0;
  while (std::getline(in, line)) {
    if (line.find("\"submitted\"") == std::string::npos) continue;
    ++rounds_submitted;
    EXPECT_NE(line.find("\"group\":6"), std::string::npos) << line;
  }
  EXPECT_GE(rounds_submitted, 2u);
  std::remove(path.c_str());
}

TEST(RunDomains, RejectsInvalidBases) {
  BatchEngine engine;
  // The decomposition owns the window: a base that already carries one
  // cannot be decomposed again.
  SimulationConfig windowed = tiny_config();
  windowed.window = DomainWindow{0, 0, 4, 4};
  EXPECT_THROW(run_domains(engine, windowed), Error);

  DomainOptions empty;
  empty.rows = 0;
  EXPECT_THROW(run_domains(engine, tiny_config(), empty), Error);
}

}  // namespace
}  // namespace neutral
