// Tests for the Simulation facade, the deck factories and the profiler.
#include <gtest/gtest.h>

#include <cmath>

#include "core/init.h"
#include "core/simulation.h"
#include "util/error.h"

namespace neutral {
namespace {

// ---------------------------------------------------------------------------
// Deck factories (§IV-B)
// ---------------------------------------------------------------------------

TEST(Decks, PaperScaleDefaults) {
  const ProblemDeck stream = stream_deck();
  EXPECT_EQ(stream.nx, 4000);
  EXPECT_EQ(stream.ny, 4000);
  EXPECT_EQ(stream.n_particles, 1000000);
  EXPECT_DOUBLE_EQ(stream.dt_s, 1.0e-7);
  EXPECT_DOUBLE_EQ(stream.base_density_kg_m3, 1.0e-30);

  const ProblemDeck scatter = scatter_deck();
  EXPECT_EQ(scatter.n_particles, 10000000);  // 1e7 (§IV-B)
  EXPECT_DOUBLE_EQ(scatter.base_density_kg_m3, 1.0e3);

  const ProblemDeck csp = csp_deck();
  EXPECT_EQ(csp.n_particles, 1000000);
  ASSERT_EQ(csp.regions.size(), 1u);
  EXPECT_DOUBLE_EQ(csp.regions[0].density_kg_m3, 1.0e3);
}

TEST(Decks, MeshScaleShrinksMeshAndDensityTogether) {
  const ProblemDeck full = scatter_deck(1.0, 1.0);
  const ProblemDeck half = scatter_deck(0.5, 1.0);
  EXPECT_EQ(half.nx, 2000);
  // Density scales with resolution to preserve cells-per-mfp (DESIGN.md §5).
  EXPECT_NEAR(half.base_density_kg_m3 / full.base_density_kg_m3, 0.5, 1e-12);
}

TEST(Decks, ParticleScaleOnlyAffectsBankSize) {
  const ProblemDeck a = csp_deck(0.1, 1.0);
  const ProblemDeck b = csp_deck(0.1, 0.01);
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(b.n_particles, 10000);
}

TEST(Decks, SourceRegionsMatchPaperDescriptions) {
  const ProblemDeck stream = stream_deck(0.1, 0.01);
  // Stream: centre of the space.
  EXPECT_NEAR(0.5 * (stream.src_x0 + stream.src_x1), 50.0, 1e-9);
  // csp: bottom-left corner.
  const ProblemDeck csp = csp_deck(0.1, 0.01);
  EXPECT_DOUBLE_EQ(csp.src_x0, 0.0);
  EXPECT_DOUBLE_EQ(csp.src_y0, 0.0);
  EXPECT_LT(csp.src_x1, 0.2 * csp.width_cm);
}

TEST(Decks, LookupByNameAndUnknownRejected) {
  EXPECT_EQ(deck_by_name("stream", 0.1, 0.01).name, "stream");
  EXPECT_EQ(deck_by_name("scatter", 0.1, 0.01).name, "scatter");
  EXPECT_EQ(deck_by_name("csp", 0.1, 0.01).name, "csp");
  EXPECT_THROW(deck_by_name("bogus"), Error);
}

TEST(Decks, ScaleBoundsEnforced) {
  EXPECT_THROW(stream_deck(0.0, 1.0), Error);
  EXPECT_THROW(stream_deck(1.5, 1.0), Error);
  EXPECT_THROW(stream_deck(1.0, 0.0), Error);
}

// ---------------------------------------------------------------------------
// Simulation facade
// ---------------------------------------------------------------------------

SimulationConfig small_config(const std::string& deck_name = "csp") {
  SimulationConfig cfg;
  cfg.deck = deck_by_name(deck_name, 0.016, 1.0);
  cfg.deck.n_particles = 300;
  cfg.deck.n_timesteps = 1;
  cfg.deck.xs.points = 2000;
  return cfg;
}

TEST(Simulation, RunProducesEventsAndTallies) {
  Simulation sim(small_config());
  const RunResult r = sim.run();
  EXPECT_GT(r.counters.total_events(), 0u);
  EXPECT_GT(r.budget.tally_total, 0.0);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.events_per_second(), 0.0);
  EXPECT_EQ(r.steps.size(), 1u);
}

TEST(Simulation, EveryParticleReachesCensusOrDies) {
  Simulation sim(small_config("stream"));
  const RunResult r = sim.run();
  const std::uint64_t deaths =
      r.counters.deaths_energy + r.counters.deaths_weight;
  EXPECT_EQ(r.counters.censuses + deaths,
            static_cast<std::uint64_t>(sim.config().deck.n_particles));
}

TEST(Simulation, StreamDeckIsFacetDominated) {
  Simulation sim(small_config("stream"));
  const RunResult r = sim.run();
  EXPECT_EQ(r.counters.collisions, 0u);  // vacuum
  EXPECT_GT(r.counters.facets, 50u * 300u);  // many facets per particle
  EXPECT_GT(r.counters.reflections, 0u);     // reflective boundaries used
}

TEST(Simulation, ScatterDeckIsCollisionDominated) {
  Simulation sim(small_config("scatter"));
  const RunResult r = sim.run();
  EXPECT_GT(r.counters.collisions, r.counters.facets);
}

TEST(Simulation, CspDeckIsMixed) {
  SimulationConfig cfg = small_config("csp");
  cfg.deck.n_particles = 2000;
  Simulation sim(cfg);
  const RunResult r = sim.run();
  EXPECT_GT(r.counters.collisions, 0u);
  EXPECT_GT(r.counters.facets, r.counters.collisions / 100);
}

TEST(Simulation, RejectsEmptyDeck) {
  SimulationConfig cfg;
  cfg.deck = csp_deck(0.01, 0.0001);
  cfg.deck.n_particles = 0;
  EXPECT_THROW(Simulation{cfg}, Error);
}

TEST(Simulation, ProfilerReportsEventGrind) {
  SimulationConfig cfg = small_config("csp");
  cfg.profile = true;
  Simulation sim(cfg);
  sim.run();
  ASSERT_NE(sim.profiler(), nullptr);
  const auto report = sim.profiler()->report();
  EXPECT_GT(report.total_cycles(), 0u);
  EXPECT_GT(report.visits[static_cast<int>(Phase::kEventSearch)], 0u);
  EXPECT_GT(report.fraction(Phase::kTally), 0.0);
  EXPECT_GT(report.cycles_per_visit(Phase::kFacet), 0.0);
}

TEST(Simulation, TallyFootprintReported) {
  SimulationConfig cfg = small_config();
  cfg.tally_mode = TallyMode::kPrivatized;
  cfg.threads = 2;
  Simulation sim(cfg);
  const RunResult r = sim.run();
  // Base mesh + 2 private copies (§VI-F).
  const std::uint64_t cells =
      static_cast<std::uint64_t>(cfg.deck.nx) * cfg.deck.ny;
  EXPECT_EQ(r.tally_footprint_bytes, cells * sizeof(TallyCell) * 3);
}

TEST(Simulation, StepByStepMatchesRun) {
  SimulationConfig cfg = small_config();
  cfg.deck.n_timesteps = 2;
  Simulation manual(cfg);
  manual.step();
  manual.step();
  manual.tally().merge();
  const RunResult a = manual.summary();
  Simulation oneshot(cfg);
  const RunResult b = oneshot.run();
  EXPECT_DOUBLE_EQ(a.budget.tally_total, b.budget.tally_total);
  EXPECT_EQ(a.counters.total_events(), b.counters.total_events());
}

TEST(Simulation, EnumNamesStable) {
  EXPECT_STREQ(to_string(Scheme::kOverParticles), "over-particles");
  EXPECT_STREQ(to_string(Scheme::kOverEvents), "over-events");
  EXPECT_STREQ(to_string(Layout::kAoS), "AoS");
  EXPECT_STREQ(to_string(Layout::kSoA), "SoA");
}

// ---------------------------------------------------------------------------
// Initial bank properties
// ---------------------------------------------------------------------------

TEST(Simulation, SourcePositionsInsideSourceRegion) {
  const SimulationConfig cfg = small_config("stream");
  const ProblemDeck& d = cfg.deck;
  StructuredMesh2D mesh(d.nx, d.ny, d.width_cm, d.height_cm);
  std::vector<Particle> bank(static_cast<std::size_t>(d.n_particles));
  initialise_particles(AosView(bank.data(), bank.size()), d, mesh);
  for (const Particle& p : bank) {
    EXPECT_GE(p.x, d.src_x0);
    EXPECT_LE(p.x, d.src_x1);
    EXPECT_GE(p.y, d.src_y0);
    EXPECT_LE(p.y, d.src_y1);
    EXPECT_NEAR(p.omega_x * p.omega_x + p.omega_y * p.omega_y, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(p.energy, d.initial_energy_ev);
    EXPECT_DOUBLE_EQ(p.weight, 1.0);
    EXPECT_GT(p.mfp_to_collision, 0.0);
    EXPECT_EQ(p.state, ParticleState::kCensus);
  }
}

TEST(Simulation, InitialBankEnergyMatchesFormula) {
  const ProblemDeck d = csp_deck(0.016, 0.001);
  EXPECT_DOUBLE_EQ(initial_bank_energy(d),
                   static_cast<double>(d.n_particles) * d.initial_energy_ev);
}

}  // namespace
}  // namespace neutral
