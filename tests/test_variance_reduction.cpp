// Tests for the variance-reduction machinery (§IV-E): weighted particles,
// implicit capture, cutoff terminations, and the Russian-roulette
// extension (unbiased weight-cutoff handling).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/init.h"
#include "core/simulation.h"
#include "core/step.h"
#include "xs/material.h"

namespace neutral {
namespace {

/// World tuned so the weight cutoff is reachable: min_weight close to 1
/// means the first sampled absorption crosses it.
struct RouletteWorld {
  RouletteWorld(double roulette_survival, double min_weight = 0.999)
      : mesh(8, 8, 8.0, 8.0), density(mesh, 1.0e3) {
    SyntheticXsConfig cfg;
    cfg.points = 1500;
    xs = shared_material_xs(cfg);
    tally = std::make_unique<EnergyTally>(mesh.num_cells(),
                                          TallyMode::kAtomic, 1, 1.0e6);
    ctx.mesh = &mesh;
    ctx.density = &density;
    ctx.xs_capture = &xs->capture;
    ctx.xs_scatter = &xs->scatter;
    ctx.tally = tally.get();
    ctx.molar_mass_g_mol = 1.0;
    ctx.mass_number = 100.0;
    ctx.min_energy_ev = 1.0e-4;  // keep energy cutoff out of the way
    ctx.min_weight = min_weight;
    ctx.roulette_survival = roulette_survival;
    ctx.seed = 99;
  }

  /// Run one particle at 10 eV to its first collision.  `p_abs_out`
  /// reports the actual absorption probability at that energy (the
  /// synthetic capture resonances make it energy-dependent).
  EventCounters collide_once(std::uint64_t id, double* weight_out = nullptr,
                             double* p_abs_out = nullptr) {
    Particle p;
    p.x = p.y = 4.5;
    p.omega_x = 1.0;
    p.omega_y = 0.0;
    p.energy = 10.0;
    p.weight = 1.0;
    p.dt_to_census = 1.0e-7;
    p.mfp_to_collision = 1.0e-6;
    p.cellx = p.celly = 4;
    p.state = ParticleState::kAlive;
    p.id = id;
    p.rng_counter = 4;
    AosView v(&p, 1);
    FlightState fs;
    EventCounters ec;
    NoHooks hooks;
    load_flight_state(v, 0, ctx, fs, ec, hooks);
    if (p_abs_out != nullptr) *p_abs_out = fs.sigma_a / fs.sigma_t;
    advance_one_event(v, 0, ctx, fs, ec, 0, hooks);
    if (weight_out != nullptr) {
      *weight_out = p.state == ParticleState::kDead ? 0.0 : p.weight;
    }
    return ec;
  }

  StructuredMesh2D mesh;
  DensityField density;
  std::shared_ptr<const MaterialXs> xs;
  std::unique_ptr<EnergyTally> tally;
  TransportContext ctx;
};

// ---------------------------------------------------------------------------
// Roulette off (the paper's behaviour)
// ---------------------------------------------------------------------------

TEST(RouletteOff, WeightCutoffTerminatesAndDeposits) {
  RouletteWorld w(/*roulette_survival=*/0.0);
  for (std::uint64_t id = 0; id < 5000; ++id) {
    const EventCounters ec = w.collide_once(id);
    if (ec.absorptions == 1) {
      EXPECT_EQ(ec.deaths_weight, 1u);
      EXPECT_EQ(ec.roulette_kills, 0u);
      EXPECT_EQ(ec.roulette_survivals, 0u);
      // Everything the particle had was released.
      EXPECT_NEAR(ec.released_energy, 10.0, 1e-9);
      return;
    }
  }
  FAIL() << "no absorption in 5000 trials";
}

// ---------------------------------------------------------------------------
// Roulette on
// ---------------------------------------------------------------------------

TEST(Roulette, SurvivorsCarryBoostedWeight) {
  RouletteWorld w(/*roulette_survival=*/0.8);
  bool saw_survivor = false;
  for (std::uint64_t id = 0; id < 20000 && !saw_survivor; ++id) {
    double weight = 0.0;
    double p_abs = 0.0;
    const EventCounters ec = w.collide_once(id, &weight, &p_abs);
    if (ec.roulette_survivals == 1) {
      saw_survivor = true;
      // Exactly w' = w (1 - p_abs) / survival.
      EXPECT_GT(weight, 1.0);
      EXPECT_NEAR(weight, (1.0 - p_abs) / 0.8, 1e-12);
      EXPECT_GT(ec.roulette_gained_energy, 0.0);
    }
  }
  EXPECT_TRUE(saw_survivor);
}

TEST(Roulette, KillsDoNotDeposit) {
  RouletteWorld w(/*roulette_survival=*/0.2);  // mostly kills
  for (std::uint64_t id = 0; id < 20000; ++id) {
    const EventCounters ec = w.collide_once(id);
    if (ec.roulette_kills == 1) {
      EXPECT_EQ(ec.deaths_weight, 1u);
      // Only the absorption deposit was released; the remainder was
      // removed from the game, tracked in roulette_killed_energy.
      EXPECT_LT(ec.released_energy, 1.0);
      EXPECT_GT(ec.roulette_killed_energy, 5.0);
      return;
    }
  }
  FAIL() << "no roulette kill in 20000 trials";
}

TEST(Roulette, SurvivalStatisticsMatchProbability) {
  const double p = 0.6;
  RouletteWorld w(p);
  std::uint64_t survivals = 0, kills = 0;
  for (std::uint64_t id = 0; id < 60000; ++id) {
    const EventCounters ec = w.collide_once(id);
    survivals += ec.roulette_survivals;
    kills += ec.roulette_kills;
  }
  const auto rounds = static_cast<double>(survivals + kills);
  ASSERT_GT(rounds, 50.0);  // enough absorptions sampled
  const double observed = static_cast<double>(survivals) / rounds;
  EXPECT_NEAR(observed, p, 5.0 * std::sqrt(p * (1 - p) / rounds));
}

/// Deck in which the weight cutoff genuinely fires: a 10 eV source in a
/// fully dense medium, where 1/v capture gives per-collision absorption
/// probabilities of several percent, decaying weight through min_weight
/// within a few timesteps.
ProblemDeck roulette_deck(double survival) {
  ProblemDeck d;
  d.name = "roulette";
  d.nx = d.ny = 64;
  d.width_cm = d.height_cm = 10.0;
  d.base_density_kg_m3 = 1.0e3;
  d.src_x0 = d.src_y0 = 4.5;
  d.src_x1 = d.src_y1 = 5.5;
  d.initial_energy_ev = 10.0;
  d.n_particles = 300;
  d.dt_s = 1.0e-7;
  d.n_timesteps = 3;
  d.min_energy_ev = 1.0e-5;
  d.min_weight = 0.5;
  d.roulette_survival = survival;
  d.xs.points = 1500;
  return d;
}

TEST(Roulette, ExtendedEnergyBudgetExact) {
  // Full runs with roulette active must satisfy the extended invariant
  // initial + gained - killed == released + in_flight exactly.
  SimulationConfig cfg;
  cfg.deck = roulette_deck(0.5);
  Simulation sim(cfg);
  const RunResult r = sim.run();
  EXPECT_TRUE(r.budget.conserved(1e-9))
      << "err " << r.budget.conservation_error();
  // The deck is built so roulette genuinely fires.
  EXPECT_GT(r.counters.roulette_survivals + r.counters.roulette_kills, 0u);
}

TEST(Roulette, UnbiasedAgainstUntruncatedTransport) {
  // Roulette's guarantee: the physical estimator matches the process with
  // NO weight cutoff at all, in expectation.  (A bare cutoff — roulette
  // off — truncates histories and *loses* their tail heating; that bias
  // is exactly what roulette repairs.)
  auto heating_with = [&](double min_weight, double survival,
                          std::uint64_t seed) {
    SimulationConfig cfg;
    cfg.deck = roulette_deck(survival);
    cfg.deck.min_weight = min_weight;  // 0 disables the weight cutoff
    cfg.deck.n_particles = 400;
    cfg.deck.seed = seed;
    Simulation sim(cfg);
    return sim.run().budget.path_heating;
  };
  double untruncated = 0.0, roulette = 0.0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull}) {
    untruncated += heating_with(/*min_weight=*/0.0, /*survival=*/0.0, seed);
    roulette += heating_with(/*min_weight=*/0.5, /*survival=*/0.5, seed);
  }
  EXPECT_NEAR(roulette / untruncated, 1.0, 0.05);
}

TEST(Roulette, SchemesStillAgreeWithRouletteActive) {
  // The roulette draw comes from the particle's stream: Over Particles and
  // Over Events must still sample identical histories.
  SimulationConfig op;
  op.deck = roulette_deck(0.5);
  SimulationConfig oe = op;
  oe.scheme = Scheme::kOverEvents;
  oe.layout = Layout::kSoA;
  oe.tally_mode = TallyMode::kDeferredAtomic;
  Simulation a(op), b(oe);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.counters.roulette_kills, rb.counters.roulette_kills);
  EXPECT_EQ(ra.counters.roulette_survivals, rb.counters.roulette_survivals);
  EXPECT_NEAR(ra.budget.tally_total, rb.budget.tally_total,
              1e-9 * std::fabs(ra.budget.tally_total));
}

// ---------------------------------------------------------------------------
// Deck plumbing
// ---------------------------------------------------------------------------

TEST(RouletteDeck, DefaultsOff) {
  EXPECT_DOUBLE_EQ(csp_deck(0.05, 0.001).roulette_survival, 0.0);
}

}  // namespace
}  // namespace neutral
