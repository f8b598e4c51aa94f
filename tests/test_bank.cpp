// Unit tests for ParticleBank: layout-polymorphic storage, the canonical
// record conversion at the bank boundary, sourcing, and the population /
// in-flight energy walks in both layouts.
#include <gtest/gtest.h>


#include "core/bank.h"
#include "core/deck.h"
#include "core/init.h"
#include "mesh/mesh2d.h"

namespace neutral {
namespace {

Particle make_particle(std::uint64_t id, ParticleState state) {
  Particle p;
  p.x = 1.0 + static_cast<double>(id);
  p.y = 2.0 + static_cast<double>(id);
  p.omega_x = 0.6;
  p.omega_y = 0.8;
  p.energy = 1.0e6;
  p.weight = 0.5;
  p.dt_to_census = 1.0e-9;
  p.mfp_to_collision = 3.0;
  p.cellx = static_cast<std::int32_t>(id % 7);
  p.celly = static_cast<std::int32_t>(id % 5);
  p.xs_index = 11;
  p.state = state;
  p.rng_counter = 4 + id;
  p.id = id;
  return p;
}

class BankLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(BankLayouts, RecordRoundTripsThroughEitherLayout) {
  ParticleBank bank(GetParam());
  EXPECT_TRUE(bank.empty());
  for (std::uint64_t id = 0; id < 5; ++id) {
    bank.append(make_particle(id, ParticleState::kAlive));
  }
  ASSERT_EQ(bank.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const Particle expect = make_particle(i, ParticleState::kAlive);
    const Particle got = bank.get(i);
    // Every field of the canonical record survives either layout.
    EXPECT_EQ(got.x, expect.x);
    EXPECT_EQ(got.y, expect.y);
    EXPECT_EQ(got.omega_x, expect.omega_x);
    EXPECT_EQ(got.omega_y, expect.omega_y);
    EXPECT_EQ(got.energy, expect.energy);
    EXPECT_EQ(got.weight, expect.weight);
    EXPECT_EQ(got.dt_to_census, expect.dt_to_census);
    EXPECT_EQ(got.mfp_to_collision, expect.mfp_to_collision);
    EXPECT_EQ(got.cellx, expect.cellx);
    EXPECT_EQ(got.celly, expect.celly);
    EXPECT_EQ(got.xs_index, expect.xs_index);
    EXPECT_EQ(got.state, expect.state);
    EXPECT_EQ(got.rng_counter, expect.rng_counter);
    EXPECT_EQ(got.id, expect.id);
    EXPECT_EQ(bank.id(i), expect.id);
    EXPECT_EQ(bank.state(i), expect.state);
  }
  // set() overwrites in place.
  bank.set(2, make_particle(42, ParticleState::kCensus));
  EXPECT_EQ(bank.get(2).id, 42u);
  EXPECT_EQ(bank.state(2), ParticleState::kCensus);
}

TEST_P(BankLayouts, PopulationCountsEveryNonDeadParticle) {
  ParticleBank bank(GetParam());
  bank.append(make_particle(0, ParticleState::kCensus));
  bank.append(make_particle(1, ParticleState::kAlive));
  bank.append(make_particle(2, ParticleState::kDead));
  bank.append(make_particle(3, ParticleState::kAlive));
  EXPECT_EQ(bank.surviving_population(), 3);
  // Three live particles of weight 0.5 at 1 MeV; the dead one carries none.
  EXPECT_DOUBLE_EQ(bank.in_flight_energy(), 3 * 0.5 * 1.0e6);
}

TEST_P(BankLayouts, SourceMatchesSampleBirth) {
  ProblemDeck deck = csp_deck(/*mesh_scale=*/0.01, /*particle_scale=*/1.0);
  deck.n_particles = 20;
  const StructuredMesh2D mesh(deck.nx, deck.ny, deck.width_cm,
                              deck.height_cm);
  ParticleBank bank(GetParam());
  bank.source(deck, mesh);
  ASSERT_EQ(bank.size(), 20u);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const Particle expect = sample_birth(deck, mesh, i);
    const Particle got = bank.get(i);
    EXPECT_EQ(got.id, expect.id);
    EXPECT_EQ(got.x, expect.x);
    EXPECT_EQ(got.y, expect.y);
    EXPECT_EQ(got.mfp_to_collision, expect.mfp_to_collision);
    EXPECT_EQ(got.rng_counter, expect.rng_counter);
  }
  EXPECT_GT(bank.footprint_bytes(), 0u);
  EXPECT_GT(bank.in_flight_energy(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Layouts, BankLayouts,
                         ::testing::Values(Layout::kAoS, Layout::kSoA),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return info.param == Layout::kAoS ? "AoS" : "SoA";
                         });

}  // namespace
}  // namespace neutral
