// Unit tests for the transport step (core/step.h): event selection, the
// collision/facet/census handlers, variance reduction, and single-history
// conservation — the physics contract both schemes share.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/constants.h"
#include "core/init.h"
#include "core/step.h"
#include "core/tally.h"
#include "mesh/density_field.h"
#include "mesh/mesh2d.h"
#include "util/numeric.h"
#include "xs/material.h"

namespace neutral {
namespace {

/// Self-contained world for single-particle experiments.
struct World {
  explicit World(double density_kg_m3, std::int32_t n = 8, double width = 8.0)
      : mesh(n, n, width, width), density(mesh, density_kg_m3) {
    SyntheticXsConfig cfg;
    cfg.points = 2000;
    xs = shared_material_xs(cfg);
    tally = std::make_unique<EnergyTally>(mesh.num_cells(),
                                          TallyMode::kAtomic, 1, 1.0e6);
    ctx.mesh = &mesh;
    ctx.density = &density;
    ctx.xs_capture = &xs->capture;
    ctx.xs_scatter = &xs->scatter;
    ctx.tally = tally.get();
    ctx.lookup = XsLookup::kCachedLinear;
    ctx.molar_mass_g_mol = 1.0;
    ctx.mass_number = 100.0;
    ctx.min_energy_ev = 1.0;
    ctx.min_weight = 1.0e-10;
    ctx.seed = 42;
  }

  Particle make_particle(double x, double y, double ox, double oy,
                         double energy = 1.0e6) const {
    Particle p;
    p.x = x;
    p.y = y;
    p.omega_x = ox;
    p.omega_y = oy;
    p.energy = energy;
    p.weight = 1.0;
    p.dt_to_census = 1.0e-7;
    p.mfp_to_collision = 1.0;
    const CellIndex c = mesh.locate(x, y);
    p.cellx = c.x;
    p.celly = c.y;
    p.state = ParticleState::kAlive;
    p.id = 0;
    p.rng_counter = 4;
    return p;
  }

  StructuredMesh2D mesh;
  DensityField density;
  std::shared_ptr<const MaterialXs> xs;
  std::unique_ptr<EnergyTally> tally;
  TransportContext ctx;
};

constexpr double kVacuum = 1.0e-30;
constexpr double kDense = 1.0e3;

// ---------------------------------------------------------------------------
// Speed / flight-state plumbing
// ---------------------------------------------------------------------------

TEST(FlightState, SpeedMatchesKinematics) {
  // 1 MeV neutron: ~1.383e9 cm/s, ~4.6% c.
  World w(kVacuum);
  Particle p = w.make_particle(4.0, 4.0, 1.0, 0.0, 1.0e6);
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_NEAR(fs.speed, 1.383e9, 2e6);
}

TEST(FlightState, VacuumHasVanishingSigma) {
  World w(kVacuum);
  Particle p = w.make_particle(4.0, 4.0, 1.0, 0.0);
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_LT(fs.sigma_t, 1e-25);
  EXPECT_GE(fs.sigma_t, 0.0);
}

TEST(FlightState, DenseMediumHasFiniteMfp) {
  World w(kDense);
  Particle p = w.make_particle(4.0, 4.0, 1.0, 0.0);
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_GT(fs.sigma_t, 0.1);   // mean free path well under 10 cm
  EXPECT_LT(fs.sigma_t, 1000.0);
  EXPECT_GT(fs.sigma_a, 0.0);
  EXPECT_LT(fs.sigma_a, fs.sigma_t);
}

// ---------------------------------------------------------------------------
// Event selection and motion
// ---------------------------------------------------------------------------

TEST(EventSearch, VacuumParticleHitsFacetFirst) {
  World w(kVacuum);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const EventSelection sel = select_and_move(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_EQ(sel.event, EventType::kFacet);
  EXPECT_DOUBLE_EQ(p.x, 5.0);  // moved to the facet
}

TEST(EventSearch, TinyTimestepReachesCensusImmediately) {
  World w(kVacuum);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.dt_to_census = 1.0e-12;  // ~1.4 mm of flight at 1 MeV: census first
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const EventSelection sel = select_and_move(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_EQ(sel.event, EventType::kCensus);
  EXPECT_GT(p.x, 4.5);
  EXPECT_LT(p.x, 5.0);
}

TEST(EventSearch, DenseMediumCollidesBeforeFacet) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.mfp_to_collision = 1.0e-3;  // essentially immediate collision
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const EventSelection sel = select_and_move(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_EQ(sel.event, EventType::kCollision);
}

TEST(EventSearch, ClocksDecayWithDistance) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  const double mfp0 = p.mfp_to_collision;
  const double dt0 = p.dt_to_census;
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  select_and_move(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_LT(p.dt_to_census, dt0);
  EXPECT_LE(p.mfp_to_collision, mfp0);
}

TEST(EventSearch, HeatingEstimatorAccumulatesInDenseMedium) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  select_and_move(v, 0, w.ctx, fs, ec, hooks);
  EXPECT_GT(fs.pending_deposit, 0.0);
  EXPECT_DOUBLE_EQ(ec.path_heating, fs.pending_deposit);
}

// ---------------------------------------------------------------------------
// Facet handler
// ---------------------------------------------------------------------------

TEST(FacetHandler, CrossingFlushesTallyToOldCell) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.mfp_to_collision = 1.0e9;  // suppress collisions
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const std::int64_t old_cell = fs.flat_cell;
  const EventType e = advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  ASSERT_EQ(e, EventType::kFacet);
  // Flushed on crossing (§V-C).
  EXPECT_GT(w.tally->merged().value(old_cell), 0.0);
  EXPECT_EQ(p.cellx, 5);
  EXPECT_EQ(ec.facets, 1u);
  EXPECT_DOUBLE_EQ(fs.pending_deposit, 0.0);
}

TEST(FacetHandler, ReflectionFlipsDirectionAndKeepsCell) {
  World w(kVacuum);
  Particle p = w.make_particle(7.5, 4.5, 1.0, 0.0);  // heading to x wall
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const EventType e = advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  ASSERT_EQ(e, EventType::kFacet);
  EXPECT_DOUBLE_EQ(p.omega_x, -1.0);
  EXPECT_EQ(p.cellx, 7);
  EXPECT_EQ(ec.reflections, 1u);
  EXPECT_DOUBLE_EQ(p.x, 8.0);
}

TEST(FacetHandler, CrossingReloadsDensity) {
  // Two-region world: step from vacuum into a dense half.
  World w(kVacuum);
  w.density.fill_rect(4.0, 0.0, 8.0, 8.0, kDense);
  Particle p = w.make_particle(3.5, 4.5, 1.0, 0.0);
  p.mfp_to_collision = 1.0e9;
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const double sigma_before = fs.sigma_t;
  advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  EXPECT_EQ(p.cellx, 4);
  EXPECT_GT(fs.sigma_t, sigma_before * 1e20);  // vacuum -> dense
}

// ---------------------------------------------------------------------------
// Collision handler
// ---------------------------------------------------------------------------

TEST(Collision, ScatterEnergyWithinKinematicBounds) {
  // E'/E in [((A-1)/(A+1))^2, 1] for elastic scatter off mass A.
  World w(kDense);
  const double a = w.ctx.mass_number;
  const double alpha = sqr((a - 1.0) / (a + 1.0));
  for (std::uint64_t id = 0; id < 200; ++id) {
    Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
    p.id = id;
    p.mfp_to_collision = 1.0e-6;
    AosView v(&p, 1);
    FlightState fs;
    EventCounters ec;
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs, ec, hooks);
    const EventType e = advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
    ASSERT_EQ(e, EventType::kCollision);
    if (ec.scatters == 1) {
      EXPECT_LE(p.energy, 1.0e6);
      EXPECT_GE(p.energy, alpha * 1.0e6 * (1.0 - 1e-12));
    }
  }
}

TEST(Collision, DirectionStaysNormalisedAfterScatter) {
  World w(kDense);
  for (std::uint64_t id = 0; id < 100; ++id) {
    Particle p = w.make_particle(4.5, 4.5, 0.6, 0.8);
    p.id = id;
    p.mfp_to_collision = 1.0e-6;
    AosView v(&p, 1);
    FlightState fs;
    EventCounters ec;
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs, ec, hooks);
    advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
    EXPECT_NEAR(p.omega_x * p.omega_x + p.omega_y * p.omega_y, 1.0, 1e-12);
  }
}

TEST(Collision, EnergyWeightProductConserved) {
  // Each collision's deposit equals the loss of w*E, exactly.
  World w(kDense);
  for (std::uint64_t id = 0; id < 100; ++id) {
    Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
    p.id = id;
    p.mfp_to_collision = 1.0e-6;
    AosView v(&p, 1);
    FlightState fs;
    EventCounters ec;
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs, ec, hooks);
    const double we_before = p.weight * p.energy;
    const double released_before = ec.released_energy;
    advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
    const double we_after = p.weight * p.energy;
    const double released = ec.released_energy - released_before;
    EXPECT_NEAR(we_before - we_after, released, 1e-9 * we_before);
  }
}

TEST(Collision, MfpRedrawnAfterCollision) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.mfp_to_collision = 1.0e-6;
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  if (p.state == ParticleState::kAlive) {
    EXPECT_GT(p.mfp_to_collision, 1.0e-6);  // fresh exponential draw
  }
}

TEST(Collision, RngCounterAdvances) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.mfp_to_collision = 1.0e-6;
  const std::uint64_t counter0 = p.rng_counter;
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  EXPECT_GT(p.rng_counter, counter0);
  EXPECT_EQ(ec.rng_draws, p.rng_counter - counter0);
}

TEST(Collision, EnergyCutoffKillsParticle) {
  World w(kDense);
  // E = 1.01 eV: elastic scatter lands in [alpha*E, E] with alpha ~ 0.961,
  // so ~3/4 of scatters drop below the 1 eV cutoff.
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0, /*energy=*/1.01);
  // Any scatter drops below min_energy_ev = 1.0 with high probability;
  // loop particles until one dies by the energy cutoff.
  bool saw_death = false;
  for (std::uint64_t id = 0; id < 50 && !saw_death; ++id) {
    Particle q = p;
    q.id = id;
    q.mfp_to_collision = 1.0e-6;
    AosView v(&q, 1);
    FlightState fs;
    EventCounters ec;
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs, ec, hooks);
    advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
    if (q.state == ParticleState::kDead) {
      saw_death = true;
      EXPECT_GE(ec.deaths_energy + ec.deaths_weight, 1u);
      // Terminated histories deposit everything (§IV-E).
      EXPECT_GT(ec.released_energy, 0.0);
    }
  }
  EXPECT_TRUE(saw_death);
}

TEST(Collision, AbsorptionStatisticsMatchProbability) {
  // Over many one-collision particles, the absorbed fraction approaches
  // p_abs = Sigma_a / Sigma_t.
  World w(kDense);
  EventCounters ec;
  FlightState fs_probe;
  {
    // Probe at 10 eV where 1/v capture gives a measurable p_abs (~5e-3).
    Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0, /*energy=*/10.0);
    AosView v(&p, 1);
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs_probe, ec, hooks);
  }
  const double p_abs = fs_probe.sigma_a / fs_probe.sigma_t;
  ec = EventCounters{};
  const int n = 20000;
  for (int id = 0; id < n; ++id) {
    Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0, /*energy=*/10.0);
    p.id = static_cast<std::uint64_t>(id);
    p.mfp_to_collision = 1.0e-6;
    AosView v(&p, 1);
    FlightState fs;
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs, ec, hooks);
    advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  }
  ASSERT_EQ(ec.collisions, static_cast<std::uint64_t>(n));
  const double frac =
      static_cast<double>(ec.absorptions) / static_cast<double>(n);
  EXPECT_NEAR(frac, p_abs, 5.0 * std::sqrt(p_abs / n) + 1e-4);
}

TEST(Collision, AbsorptionImplementsImplicitCapture) {
  // Force absorption by hunting for a particle whose first draw selects it,
  // then verify w' = w (1 - p_abs) (§IV-E).
  World w(kDense);
  for (std::uint64_t id = 0; id < 100000; ++id) {
    // 10 eV particles: p_abs ~ 5e-3, so an absorption shows up quickly.
    Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0, /*energy=*/10.0);
    p.id = id;
    p.mfp_to_collision = 1.0e-6;
    AosView v(&p, 1);
    FlightState fs;
    EventCounters ec;
    NoHooks hooks;
    load_flight_state(v, 0, w.ctx, fs, ec, hooks);
    const double p_abs = fs.sigma_a / fs.sigma_t;
    advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
    if (ec.absorptions == 1) {
      EXPECT_NEAR(p.weight, 1.0 - p_abs, 1e-12);
      EXPECT_DOUBLE_EQ(p.energy, 10.0);  // energy unchanged
      EXPECT_DOUBLE_EQ(p.omega_x, 1.0);  // direction unchanged
      return;
    }
  }
  FAIL() << "no absorption sampled in 100k trials";
}

// ---------------------------------------------------------------------------
// Census handler
// ---------------------------------------------------------------------------

TEST(Census, ParksParticleAndZeroesClock) {
  World w(kVacuum);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.dt_to_census = 1.0e-13;
  AosView v(&p, 1);
  FlightState fs;
  EventCounters ec;
  NoHooks hooks;
  load_flight_state(v, 0, w.ctx, fs, ec, hooks);
  const EventType e = advance_one_event(v, 0, w.ctx, fs, ec, 0, hooks);
  EXPECT_EQ(e, EventType::kCensus);
  EXPECT_EQ(p.state, ParticleState::kCensus);
  EXPECT_DOUBLE_EQ(p.dt_to_census, 0.0);
  EXPECT_EQ(ec.censuses, 1u);
}

// ---------------------------------------------------------------------------
// Full histories
// ---------------------------------------------------------------------------

TEST(History, VacuumHistoryIsPureFacetsUntilCensus) {
  World w(kVacuum, 16, 16.0);
  Particle p = w.make_particle(8.0, 8.0, 0.6, 0.8);
  p.dt_to_census = 1.0e-8;
  AosView v(&p, 1);
  EventCounters ec;
  NoHooks hooks;
  run_history(v, 0, w.ctx, ec, 0, hooks);
  EXPECT_EQ(ec.collisions, 0u);
  EXPECT_GT(ec.facets, 5u);
  EXPECT_EQ(ec.censuses, 1u);
  EXPECT_EQ(p.state, ParticleState::kCensus);
}

TEST(History, SingleHistoryEnergyBalanceExact) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  AosView v(&p, 1);
  EventCounters ec;
  NoHooks hooks;
  run_history(v, 0, w.ctx, ec, 0, hooks);
  const double in_flight =
      p.state == ParticleState::kDead ? 0.0 : p.weight * p.energy;
  EXPECT_NEAR(ec.released_energy + in_flight, 1.0e6, 1.0e-3);
  // Tally holds released + path heating, all flushed.
  EXPECT_NEAR(w.tally->merged().total(),
              ec.released_energy + ec.path_heating, 1.0);
}

TEST(History, SkipsDeadAndCensusParticles) {
  World w(kDense);
  Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
  p.state = ParticleState::kDead;
  AosView v(&p, 1);
  EventCounters ec;
  NoHooks hooks;
  run_history(v, 0, w.ctx, ec, 0, hooks);
  EXPECT_EQ(ec.total_events(), 0u);
  p.state = ParticleState::kCensus;
  run_history(v, 0, w.ctx, ec, 0, hooks);
  EXPECT_EQ(ec.total_events(), 0u);
}

TEST(History, ReproducibleGivenSameKey) {
  World w(kDense);
  auto run_one = [&w]() {
    Particle p = w.make_particle(4.5, 4.5, 1.0, 0.0);
    AosView v(&p, 1);
    EventCounters ec;
    NoHooks hooks;
    run_history(v, 0, w.ctx, ec, 0, hooks);
    return std::make_tuple(p.x, p.y, p.energy, p.weight, ec.collisions,
                           ec.facets);
  };
  EXPECT_EQ(run_one(), run_one());
}

}  // namespace
}  // namespace neutral
