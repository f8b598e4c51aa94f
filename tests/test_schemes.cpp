// Integration tests for the two parallelisation schemes (§V).
//
// The keystone property: Over Particles and Over Events consume identical
// per-particle random streams, so for any deck they must produce the same
// physics — the same tallies bit for bit (exact integer cells), same event
// counts, same survivor population — regardless of layout, thread count,
// schedule, or tally mode.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"
#include "runtime/schedule.h"

namespace neutral {
namespace {

/// Small csp-like deck that exercises streaming, collisions and reflections.
ProblemDeck test_deck(std::int64_t particles = 600) {
  ProblemDeck d = csp_deck(/*mesh_scale=*/0.016, /*particle_scale=*/1.0);
  d.n_particles = particles;  // overrides the factory's scaled count
  d.n_timesteps = 2;
  d.seed = 1234;
  d.xs.points = 3000;
  return d;
}

RunResult run_with(SimulationConfig cfg) {
  Simulation sim(std::move(cfg));
  return sim.run();
}

/// Same physics, bit for bit: tallies are exact integer sums, so no
/// scheme, layout, mode or team width may move them.
void expect_same_physics(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.counters.collisions, b.counters.collisions);
  EXPECT_EQ(a.counters.facets, b.counters.facets);
  EXPECT_EQ(a.counters.censuses, b.counters.censuses);
  EXPECT_EQ(a.counters.absorptions, b.counters.absorptions);
  EXPECT_EQ(a.counters.scatters, b.counters.scatters);
  EXPECT_EQ(a.counters.rng_draws, b.counters.rng_draws);
  EXPECT_EQ(a.population, b.population);
  EXPECT_EQ(a.budget.tally_total, b.budget.tally_total);
  EXPECT_EQ(a.tally_checksum, b.tally_checksum);
}

// ---------------------------------------------------------------------------
// The headline equivalence: Over Particles == Over Events
// ---------------------------------------------------------------------------

class SchemeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchemeEquivalence, OverParticlesMatchesOverEvents) {
  SimulationConfig op;
  op.deck = test_deck();
  op.deck.seed = GetParam();
  op.scheme = Scheme::kOverParticles;

  SimulationConfig oe = op;
  oe.scheme = Scheme::kOverEvents;
  oe.layout = Layout::kSoA;
  oe.tally_mode = TallyMode::kDeferredAtomic;

  expect_same_physics(run_with(op), run_with(oe));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeEquivalence,
                         ::testing::Values(1ull, 7ull, 42ull, 2024ull));

// ---------------------------------------------------------------------------
// Layout equivalence (Fig 5 correctness precondition)
// ---------------------------------------------------------------------------

TEST(LayoutEquivalence, AosMatchesSoaForOverParticles) {
  SimulationConfig aos;
  aos.deck = test_deck();
  aos.layout = Layout::kAoS;
  SimulationConfig soa = aos;
  soa.layout = Layout::kSoA;
  expect_same_physics(run_with(aos), run_with(soa));
}

TEST(LayoutEquivalence, AosMatchesSoaForOverEvents) {
  SimulationConfig aos;
  aos.deck = test_deck();
  aos.scheme = Scheme::kOverEvents;
  aos.layout = Layout::kAoS;
  SimulationConfig soa = aos;
  soa.layout = Layout::kSoA;
  expect_same_physics(run_with(aos), run_with(soa));
}

// ---------------------------------------------------------------------------
// Thread-count and schedule invariance (§VI-B/C correctness precondition)
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, OneVsFourThreadsSamePhysics) {
  SimulationConfig one;
  one.deck = test_deck();
  one.threads = 1;
  SimulationConfig four = one;
  four.threads = 4;
  expect_same_physics(run_with(one), run_with(four));
}

TEST(ThreadInvariance, OverEventsThreadCountIrrelevant) {
  SimulationConfig one;
  one.deck = test_deck();
  one.scheme = Scheme::kOverEvents;
  one.threads = 1;
  SimulationConfig four = one;
  four.threads = 4;
  expect_same_physics(run_with(one), run_with(four));
}

class ScheduleInvariance : public ::testing::TestWithParam<SchedulePolicy> {};

TEST_P(ScheduleInvariance, AllSchedulesSamePhysics) {
  SimulationConfig baseline;
  baseline.deck = test_deck(300);
  baseline.threads = 2;
  SimulationConfig variant = baseline;
  variant.schedule = GetParam();
  expect_same_physics(run_with(baseline), run_with(variant));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ScheduleInvariance,
    ::testing::Values(SchedulePolicy::statics(),
                      SchedulePolicy::static_chunk(1),
                      SchedulePolicy::static_chunk(7),
                      SchedulePolicy::dynamic(),
                      SchedulePolicy::dynamic(16),
                      SchedulePolicy::guided()),
    [](const ::testing::TestParamInfo<SchedulePolicy>& param_info) {
      std::string n = param_info.param.name();
      for (char& c : n) {
        if (c == ',') c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// Tally-mode equivalence (Fig 7 correctness precondition)
// ---------------------------------------------------------------------------

class TallyModeEquivalence : public ::testing::TestWithParam<TallyMode> {};

TEST_P(TallyModeEquivalence, SameTallyAsAtomic) {
  SimulationConfig atomic;
  atomic.deck = test_deck();
  atomic.threads = 4;
  atomic.tally_mode = TallyMode::kAtomic;

  SimulationConfig other = atomic;
  other.tally_mode = GetParam();
  expect_same_physics(run_with(atomic), run_with(other));
}

INSTANTIATE_TEST_SUITE_P(Modes, TallyModeEquivalence,
                         ::testing::Values(TallyMode::kPrivatized,
                                           TallyMode::kPrivatizedMergeEveryStep,
                                           TallyMode::kDeferredAtomic));

// ---------------------------------------------------------------------------
// XS lookup-strategy equivalence (§VI-A correctness precondition)
// ---------------------------------------------------------------------------

class LookupEquivalence : public ::testing::TestWithParam<XsLookup> {};

TEST_P(LookupEquivalence, SamePhysicsAsBinarySearch) {
  SimulationConfig binary;
  binary.deck = test_deck();
  binary.lookup = XsLookup::kBinarySearch;
  SimulationConfig other = binary;
  other.lookup = GetParam();
  expect_same_physics(run_with(binary), run_with(other));
}

INSTANTIATE_TEST_SUITE_P(Strategies, LookupEquivalence,
                         ::testing::Values(XsLookup::kCachedLinear));

// ---------------------------------------------------------------------------
// Conservation across decks and schemes
// ---------------------------------------------------------------------------

struct DeckSchemeCase {
  const char* deck;
  Scheme scheme;
};

class Conservation : public ::testing::TestWithParam<DeckSchemeCase> {};

TEST_P(Conservation, EnergyAndPopulationConserved) {
  const auto& param = GetParam();
  SimulationConfig cfg;
  cfg.deck = deck_by_name(param.deck, 0.016, 1.0);
  cfg.deck.n_particles = 400;
  cfg.deck.n_timesteps = 2;
  cfg.scheme = param.scheme;
  if (param.scheme == Scheme::kOverEvents) cfg.layout = Layout::kSoA;
  Simulation sim(cfg);
  const RunResult r = sim.run();

  EXPECT_TRUE(r.budget.conserved(1e-9))
      << "conservation error " << r.budget.conservation_error()
      << ", tally consistency " << r.budget.tally_consistency_error();
  // Reflective boundaries: every particle is accounted for (§IV-C).
  const std::int64_t deaths = static_cast<std::int64_t>(
      r.counters.deaths_energy + r.counters.deaths_weight);
  EXPECT_EQ(r.population + deaths, cfg.deck.n_particles);
}

INSTANTIATE_TEST_SUITE_P(
    DeckScheme, Conservation,
    ::testing::Values(DeckSchemeCase{"stream", Scheme::kOverParticles},
                      DeckSchemeCase{"stream", Scheme::kOverEvents},
                      DeckSchemeCase{"scatter", Scheme::kOverParticles},
                      DeckSchemeCase{"scatter", Scheme::kOverEvents},
                      DeckSchemeCase{"csp", Scheme::kOverParticles},
                      DeckSchemeCase{"csp", Scheme::kOverEvents}),
    [](const ::testing::TestParamInfo<DeckSchemeCase>& param_info) {
      return std::string(param_info.param.deck) + "_" +
             (param_info.param.scheme == Scheme::kOverParticles ? "op" : "oe");
    });

// ---------------------------------------------------------------------------
// Over Events internals
// ---------------------------------------------------------------------------

TEST(OverEvents, KernelTimesCoverIterations) {
  SimulationConfig cfg;
  cfg.deck = test_deck(200);
  cfg.deck.n_timesteps = 1;
  cfg.scheme = Scheme::kOverEvents;
  cfg.layout = Layout::kSoA;
  Simulation sim(cfg);
  const RunResult r = sim.run();
  EXPECT_GT(r.kernel_times.iterations, 0);
  EXPECT_GT(r.kernel_times.total(), 0.0);
  EXPECT_GT(r.kernel_times.event_search, 0.0);
}

TEST(OverEvents, WorkspaceSizeMatchesBank) {
  OverEventsWorkspace ws(123);
  EXPECT_EQ(ws.size(), 123u);
  // Exactly the bytes the flight-state arrays hold: eight doubles, one
  // int64 cell index and four one-byte event/facet fields per particle.
  const auto bytes = [](const auto& a) { return a.size() * sizeof(a[0]); };
  const std::size_t held =
      bytes(ws.micro_a_) + bytes(ws.micro_s_) + bytes(ws.number_density_) +
      bytes(ws.sigma_a_) + bytes(ws.sigma_t_) + bytes(ws.speed_) +
      bytes(ws.pending_) + bytes(ws.flat_cell_) + bytes(ws.next_event_) +
      bytes(ws.facet_distance_) + bytes(ws.facet_axis_) +
      bytes(ws.facet_step_) + bytes(ws.facet_boundary_);
  EXPECT_EQ(held, 123u * 76);
  EXPECT_EQ(ws.footprint_bytes(), held);
}

// ---------------------------------------------------------------------------
// Determinism of full runs
// ---------------------------------------------------------------------------

TEST(Determinism, IdenticalRunsBitwiseEqualSingleThread) {
  SimulationConfig cfg;
  cfg.deck = test_deck();
  cfg.threads = 1;
  const RunResult a = run_with(cfg);
  const RunResult b = run_with(cfg);
  EXPECT_DOUBLE_EQ(a.budget.tally_total, b.budget.tally_total);
  EXPECT_DOUBLE_EQ(a.tally_checksum, b.tally_checksum);
}

TEST(Determinism, SeedChangesResults) {
  SimulationConfig a;
  a.deck = test_deck();
  SimulationConfig b = a;
  b.deck.seed = a.deck.seed + 1;
  const RunResult ra = run_with(a);
  const RunResult rb = run_with(b);
  EXPECT_NE(ra.tally_checksum, rb.tally_checksum);
}

// ---------------------------------------------------------------------------
// Multi-timestep behaviour
// ---------------------------------------------------------------------------

TEST(Timesteps, SurvivorsContinueAcrossSteps) {
  SimulationConfig cfg;
  cfg.deck = test_deck(300);
  cfg.deck.n_timesteps = 3;
  Simulation sim(cfg);
  const StepResult s1 = sim.step();
  const StepResult s2 = sim.step();
  // Census counts of step 2 can only include step-1 survivors.
  EXPECT_LE(s2.counters.censuses, s1.counters.censuses);
  EXPECT_GT(s2.counters.total_events(), 0u);
}

TEST(Timesteps, EventsAccumulateInSummary) {
  SimulationConfig cfg;
  cfg.deck = test_deck(200);
  cfg.deck.n_timesteps = 2;
  Simulation sim(cfg);
  const StepResult s1 = sim.step();
  const StepResult s2 = sim.step();
  const RunResult total = sim.summary();
  EXPECT_EQ(total.counters.total_events(),
            s1.counters.total_events() + s2.counters.total_events());
}

}  // namespace
}  // namespace neutral
