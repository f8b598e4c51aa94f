// Property-based tests: randomized sweeps over the geometric and transport
// invariants that must hold for *any* direction, position, or seed — the
// complement to the example-based tests elsewhere in the suite.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"
#include "mesh/facet.h"
#include "rng/stream.h"
#include "util/numeric.h"

namespace neutral {
namespace {

// ---------------------------------------------------------------------------
// Facet-walk properties under random directions
// ---------------------------------------------------------------------------

class RandomWalkGeometry : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWalkGeometry, WalkStaysConsistentWithCellIndex) {
  // Property: after any number of facet events, the particle's position
  // lies within (or on the boundary of) the cell its index claims, and the
  // direction stays unit-length.
  StructuredMesh2D mesh(17, 23, 17.0, 23.0);
  rng::ParticleStream rng(GetParam(), 0);
  double x = rng.next_range(0.1, 16.9);
  double y = rng.next_range(0.1, 22.9);
  const double theta = rng.next_range(0.0, kTwoPi);
  double ox = std::cos(theta);
  double oy = std::sin(theta);
  CellIndex c = mesh.locate(x, y);

  for (int step = 0; step < 500; ++step) {
    const FacetIntersection f = nearest_facet(mesh, x, y, ox, oy, c);
    ASSERT_GE(f.distance, 0.0) << "step " << step;
    ASSERT_LT(f.distance, 30.0) << "step " << step;  // bounded by the domain
    x += ox * f.distance;
    y += oy * f.distance;
    apply_facet_crossing(f, c, ox, oy);
    // Index validity.
    ASSERT_GE(c.x, 0);
    ASSERT_LT(c.x, mesh.nx());
    ASSERT_GE(c.y, 0);
    ASSERT_LT(c.y, mesh.ny());
    // Position consistency (allow a couple of ULP-scale slops).
    ASSERT_GE(x, mesh.edge_x(c.x) - 1e-9);
    ASSERT_LE(x, mesh.edge_x(c.x + 1) + 1e-9);
    ASSERT_GE(y, mesh.edge_y(c.y) - 1e-9);
    ASSERT_LE(y, mesh.edge_y(c.y + 1) + 1e-9);
    // Direction stays normalised (reflections only flip signs).
    ASSERT_NEAR(ox * ox + oy * oy, 1.0, 1e-12);
    // The particle never leaves the domain.
    ASSERT_GE(x, -1e-9);
    ASSERT_LE(x, mesh.width() + 1e-9);
    ASSERT_GE(y, -1e-9);
    ASSERT_LE(y, mesh.height() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWalkGeometry,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull, 55ull, 89ull));

TEST(WalkGeometry, AxisAlignedWalkPingPongsForever) {
  // A particle moving exactly along +x on a 1-cell-tall mesh must bounce
  // between the two walls indefinitely without index corruption.
  StructuredMesh2D mesh(4, 1, 4.0, 1.0);
  double x = 0.5, y = 0.5, ox = 1.0, oy = 0.0;
  CellIndex c{0, 0};
  double total_path = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const FacetIntersection f = nearest_facet(mesh, x, y, ox, oy, c);
    x += ox * f.distance;
    total_path += f.distance;
    apply_facet_crossing(f, c, ox, oy);
  }
  // 1000 facet events over a 4-wide mesh: path is bounded and positive.
  EXPECT_GT(total_path, 900.0);
  EXPECT_LT(total_path, 1100.0);
  EXPECT_DOUBLE_EQ(y, 0.5);
}

// ---------------------------------------------------------------------------
// Whole-run properties under random seeds
// ---------------------------------------------------------------------------

class RandomSeedRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSeedRuns, InvariantsHoldForAnySeed) {
  SimulationConfig cfg;
  cfg.deck = csp_deck(0.016, 1.0);
  cfg.deck.n_particles = 250;
  cfg.deck.seed = GetParam();
  Simulation sim(cfg);
  const RunResult r = sim.run();

  // Energy conservation (exact bookkeeping).
  EXPECT_TRUE(r.budget.conserved(1e-9));
  // Population accounting.
  const auto deaths = static_cast<std::int64_t>(r.counters.deaths_energy +
                                                r.counters.deaths_weight);
  EXPECT_EQ(r.population + deaths, cfg.deck.n_particles);
  // Collision taxonomy is complete.
  EXPECT_EQ(r.counters.absorptions + r.counters.scatters,
            r.counters.collisions);
  // Tally is non-negative everywhere.
  for (std::int64_t i = 0; i < sim.tally().cells(); i += 101) {
    EXPECT_GE(sim.tally().merged().value(i), 0.0);
  }
  // Every history ends in exactly one terminal event.
  EXPECT_EQ(r.counters.censuses + static_cast<std::uint64_t>(deaths),
            static_cast<std::uint64_t>(cfg.deck.n_particles));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeedRuns,
                         ::testing::Values(11ull, 222ull, 3333ull, 44444ull,
                                           555555ull, 6666666ull));

// ---------------------------------------------------------------------------
// Scheme equivalence across all three decks (extends test_schemes.cpp's
// csp-only sweep)
// ---------------------------------------------------------------------------

class DeckEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(DeckEquivalence, SchemesAgreeOnEveryDeck) {
  SimulationConfig op;
  op.deck = deck_by_name(GetParam(), 0.016, 1.0);
  op.deck.n_particles = 300;
  SimulationConfig oe = op;
  oe.scheme = Scheme::kOverEvents;
  oe.layout = Layout::kSoA;
  oe.tally_mode = TallyMode::kDeferredAtomic;
  Simulation a(op), b(oe);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.counters.facets, rb.counters.facets);
  EXPECT_EQ(ra.counters.collisions, rb.counters.collisions);
  EXPECT_EQ(ra.budget.tally_total, rb.budget.tally_total);
  EXPECT_EQ(ra.tally_checksum, rb.tally_checksum);
}

INSTANTIATE_TEST_SUITE_P(Decks, DeckEquivalence,
                         ::testing::Values("stream", "scatter", "csp"));

// ---------------------------------------------------------------------------
// Timestep-splitting property: one run of 2dt == two runs of dt
// ---------------------------------------------------------------------------

TEST(TimestepSplitting, EventCountsInsensitiveToStepSplit) {
  // Total physics depends on total time, not on how it is sliced into
  // census steps (census events themselves differ, and collision counts
  // can shift by the handful of histories that die right at a boundary).
  SimulationConfig one_big;
  one_big.deck = stream_deck(0.016, 1.0);
  one_big.deck.n_particles = 200;
  one_big.deck.dt_s = 2.0e-7;
  one_big.deck.n_timesteps = 1;

  SimulationConfig two_small = one_big;
  two_small.deck.dt_s = 1.0e-7;
  two_small.deck.n_timesteps = 2;

  Simulation a(one_big), b(two_small);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  // Stream problem: no collisions, so facet counts must match exactly up
  // to the census interruptions (a census can land mid-cell).
  const auto fa = static_cast<double>(ra.counters.facets);
  const auto fb = static_cast<double>(rb.counters.facets);
  EXPECT_NEAR(fa, fb, 0.01 * fa);
  // Path heating integrates the same trajectories: near-equal.
  EXPECT_NEAR(ra.budget.path_heating, rb.budget.path_heating,
              1e-6 * std::fabs(ra.budget.path_heating));
}

// ---------------------------------------------------------------------------
// RNG stream-partition property
// ---------------------------------------------------------------------------

TEST(StreamPartition, ConcatenatedHalvesEqualFullSequence) {
  // Draw 100; resume from the midpoint counter; the tail must continue the
  // original sequence for any split point.
  for (std::uint64_t split : {1ull, 17ull, 50ull, 99ull}) {
    rng::ParticleStream full(123, 456);
    std::vector<double> expected(100);
    for (auto& v : expected) v = full.next();

    rng::ParticleStream head(123, 456);
    for (std::uint64_t i = 0; i < split; ++i) head.next();
    rng::ParticleStream tail(123, 456, head.counter());
    for (std::uint64_t i = split; i < 100; ++i) {
      ASSERT_DOUBLE_EQ(tail.next(), expected[i]) << "split " << split;
    }
  }
}

}  // namespace
}  // namespace neutral
