// Bench-size tier of the golden tests: runs of golden decks at 20k
// particles — the bench_transport size, where a reassociating tally would
// move the last digits — through both schemes x both layouts x all four
// tally modes on 1 and 4 threads.  Tally cells are exact integer
// sums (core/tally.h), so every run of a deck must print one checksum.
//
// golden_stream is the near-vacuum deck (~1e-30 eV deposits: the finest
// quantum); golden_csp mixes vacuum with a dense, colliding region, and
// its vacuum cells read 0 (CspVacuumCellsReadZero).  They are the cheaper
// two of the three decks, and one timestep each keeps the tier inside the
// per-test timeout under the sanitizer builds; test_golden covers the
// merge-step mode across timesteps at 400 particles.
#include <gtest/gtest.h>

#include <string>

#include "core/simulation.h"
#include "io/deck_io.h"

#ifndef NEUTRAL_GOLDEN_DIR
#error "NEUTRAL_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace neutral {
namespace {

class GoldenBenchSize : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenBenchSize, EverySchemeLayoutModeAndTeamGivesOneAnswer) {
  ProblemDeck deck = load_deck(std::string(NEUTRAL_GOLDEN_DIR) + "/" +
                               GetParam() + ".params");
  deck.n_particles = 20000;
  deck.n_timesteps = 1;
  RunResult reference;
  bool first = true;
  for (const std::int32_t threads : {1, 4}) {
    for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
      for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
        for (const TallyMode mode :
             {TallyMode::kAtomic, TallyMode::kPrivatized,
              TallyMode::kPrivatizedMergeEveryStep,
              TallyMode::kDeferredAtomic}) {
          SimulationConfig cfg;
          cfg.deck = deck;
          cfg.scheme = scheme;
          cfg.layout = layout;
          cfg.tally_mode = mode;
          cfg.threads = threads;
          Simulation sim(cfg);
          const RunResult result = sim.run();
          if (first) {
            reference = result;
            first = false;
            continue;
          }
          SCOPED_TRACE(std::string(to_string(scheme)) + "/" +
                       to_string(layout) + "/" + to_string(mode) + " at " +
                       std::to_string(threads) + " threads");
          EXPECT_EQ(result.tally_checksum, reference.tally_checksum);
          EXPECT_EQ(result.budget.tally_total, reference.budget.tally_total);
          EXPECT_EQ(result.population, reference.population);
          EXPECT_EQ(result.counters.total_events(),
                    reference.counters.total_events());
          EXPECT_TRUE(result.budget.conserved(1e-9));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Decks, GoldenBenchSize,
                         ::testing::Values("golden_stream", "golden_csp"));

// The quantum follows the deck's densest material.  golden_csp's dense
// region sets it to 2^-45 eV (the heating one timestep's flight can score
// there, 2^17..2^18 eV), and a deposit in its 1e-30 kg/m^3 cells is
// ~1e-30 eV: far below one quantum, so it truncates to zero.  Those cells
// read exactly 0, and the checksum sees only the dense region.
TEST(GoldenBenchSize, CspVacuumCellsReadZero) {
  ProblemDeck deck =
      load_deck(std::string(NEUTRAL_GOLDEN_DIR) + "/golden_csp.params");
  deck.n_particles = 20000;
  deck.n_timesteps = 1;
  SimulationConfig cfg;
  cfg.deck = deck;
  cfg.threads = 4;
  Simulation sim(cfg);
  (void)sim.run();
  const TallyImage& cells = sim.tally().merged();
  EXPECT_EQ(cells.quantum, 0x1p-45);
  std::int64_t vacuum = 0;
  std::int64_t scored = 0;
  for (std::int64_t c = 0; c < cells.size(); ++c) {
    if (sim.density().kg_m3(c) < 1.0) {  // 1e-30 vs the region's 20
      ++vacuum;
      EXPECT_EQ(cells.value(c), 0.0) << "vacuum cell " << c;
    } else if (cells.value(c) > 0.0) {
      ++scored;
    }
  }
  EXPECT_EQ(vacuum, 80 * 80 - 16 * 16);  // region: cells 32..47 a side
  EXPECT_GT(scored, 0);
  EXPECT_GT(cells.total(), 0.0);
}

}  // namespace
}  // namespace neutral
