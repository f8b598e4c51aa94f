// Unit tests for ParticleBank: layout-polymorphic storage, the canonical
// wire-format conversion at bank boundaries, sourcing, and the migration
// mutation ops (extract/inject/compaction) in both layouts.
#include <gtest/gtest.h>

#include <vector>

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
    EXPECT_EQ(got.id, expect.id);
    EXPECT_EQ(got.x, expect.x);
    EXPECT_EQ(got.energy, expect.energy);
    EXPECT_EQ(got.cellx, expect.cellx);
    EXPECT_EQ(got.rng_counter, expect.rng_counter);
    EXPECT_EQ(got.state, expect.state);
    EXPECT_EQ(bank.id(i), expect.id);
    EXPECT_EQ(bank.state(i), expect.state);
  }
  // set() overwrites in place.
  bank.set(2, make_particle(42, ParticleState::kCensus));
  EXPECT_EQ(bank.get(2).id, 42u);
  EXPECT_EQ(bank.state(2), ParticleState::kCensus);
}

TEST_P(BankLayouts, ExtractCompactsAndInjectConverts) {
  ParticleBank bank(GetParam());
  bank.append(make_particle(0, ParticleState::kCensus));
  bank.append(make_particle(1, ParticleState::kMigrating));
  bank.append(make_particle(2, ParticleState::kDead));
  bank.append(make_particle(3, ParticleState::kMigrating));
  bank.append(make_particle(4, ParticleState::kAlive));

  std::vector<Particle> out;
  EXPECT_EQ(bank.extract_migrants(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  // Extracted in bank order, flipped to kAlive (the checkpoint resumes
  // mid-flight on the owner).
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[1].id, 3u);
  EXPECT_EQ(out[0].state, ParticleState::kAlive);
  // Survivors compacted over the holes, order preserved, dead retained.
  ASSERT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank.id(0), 0u);
  EXPECT_EQ(bank.id(1), 2u);
  EXPECT_EQ(bank.id(2), 4u);
  EXPECT_EQ(bank.surviving_population(), 2);

  // Inject re-banks the wire-format records whatever this bank's layout.
  bank.inject(out.data(), out.size());
  ASSERT_EQ(bank.size(), 5u);
  EXPECT_EQ(bank.id(3), 1u);
  EXPECT_EQ(bank.id(4), 3u);
  EXPECT_EQ(bank.get(4).rng_counter, make_particle(3, {}).rng_counter);
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

TEST_P(BankLayouts, AssignAdoptsWireRecords) {
  std::vector<Particle> records;
  for (std::uint64_t id = 10; id < 14; ++id) {
    records.push_back(make_particle(id, ParticleState::kCensus));
  }
  ParticleBank bank(GetParam());
  bank.assign(records);
  ASSERT_EQ(bank.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(bank.id(i), 10 + i);
}

INSTANTIATE_TEST_SUITE_P(Layouts, BankLayouts,
                         ::testing::Values(Layout::kAoS, Layout::kSoA),
                         [](const ::testing::TestParamInfo<Layout>& info) {
                           return info.param == Layout::kAoS ? "AoS" : "SoA";
                         });

// Cross-layout hand-off: migrants extracted from an AoS bank inject into an
// SoA bank (and back) without loss — the boundary conversion domains rely
// on when schemes/layouts differ per subdomain configuration.
TEST(ParticleBank, WireFormatCrossesLayoutBoundaries) {
  ParticleBank aos(Layout::kAoS);
  aos.append(make_particle(1, ParticleState::kMigrating));
  aos.append(make_particle(2, ParticleState::kAlive));

  std::vector<Particle> wire;
  ASSERT_EQ(aos.extract_migrants(wire), 1u);

  ParticleBank soa(Layout::kSoA);
  soa.inject(wire.data(), wire.size());
  ASSERT_EQ(soa.size(), 1u);
  const Particle p = soa.get(0);
  EXPECT_EQ(p.id, 1u);
  EXPECT_EQ(p.state, ParticleState::kAlive);
  EXPECT_EQ(p.xs_index, make_particle(1, {}).xs_index);

  // And back: SoA -> wire -> AoS.
  soa.set(0, make_particle(1, ParticleState::kMigrating));
  wire.clear();
  ASSERT_EQ(soa.extract_migrants(wire), 1u);
  EXPECT_TRUE(soa.empty());
  ParticleBank back(Layout::kAoS);
  back.inject(wire.data(), wire.size());
  EXPECT_EQ(back.get(0).id, 1u);
}

}  // namespace
}  // namespace neutral
