// Golden-reference test tier.
//
// tests/golden/ holds canonical small decks (one per paper problem) plus
// recorded population/checksum baselines (.results files).  This runner
// replays each deck through the canonical configuration — Over Particles,
// AoS, atomic tally, one OpenMP thread — and fails on ANY drift from the
// baseline (verify_results with rel_tol = 0, exact event counts).
//
// Regenerating baselines after an *intentional* physics change:
//
//   NEUTRAL_GOLDEN_UPDATE=1 ./test_golden
//
// which rewrites the .results files in the source tree and still runs the
// comparisons (against the fresh files, so the run passes); commit the
// diff alongside the change that caused it.
//
// The tier also anchors cross-scheme equivalence: tally cells are exact
// integer sums of their deposits (core/tally.h), so every scheme, layout,
// lookup, tally mode and thread count — and the SIMT machine model, which
// replays the same deposits — reproduces the baseline bit for bit.  test_golden_bench repeats the scheme x layout x mode matrix at
// 20k particles on 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "io/deck_io.h"
#include "io/results_io.h"
#include "simt/device.h"
#include "simt/transport_sim.h"

#ifndef NEUTRAL_GOLDEN_DIR
#error "NEUTRAL_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace neutral {
namespace {

const char* const kGoldenDecks[] = {"golden_stream", "golden_scatter",
                                    "golden_csp"};

std::string deck_path(const std::string& name) {
  return std::string(NEUTRAL_GOLDEN_DIR) + "/" + name + ".params";
}

std::string baseline_path(const std::string& name) {
  return std::string(NEUTRAL_GOLDEN_DIR) + "/" + name + ".results";
}

/// The canonical golden configuration: deterministic by construction.
SimulationConfig golden_config(const std::string& name) {
  SimulationConfig cfg;
  cfg.deck = load_deck(deck_path(name));
  cfg.scheme = Scheme::kOverParticles;
  cfg.layout = Layout::kAoS;
  cfg.tally_mode = TallyMode::kAtomic;
  cfg.threads = 1;
  return cfg;
}

RunResult run_scheme(const std::string& name, Scheme scheme, Layout layout) {
  SimulationConfig cfg = golden_config(name);
  cfg.scheme = scheme;
  cfg.layout = layout;
  Simulation sim(std::move(cfg));
  return sim.run();
}

// ---------------------------------------------------------------------------
// Baseline drift gate
// ---------------------------------------------------------------------------

class GoldenBaseline : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenBaseline, MatchesRecordedResultsExactly) {
  const std::string name = GetParam();
  const SimulationConfig cfg = golden_config(name);
  Simulation sim(cfg);
  const RunResult result = sim.run();

  if (std::getenv("NEUTRAL_GOLDEN_UPDATE") != nullptr) {
    save_results(make_expected(cfg, result), baseline_path(name));
  }
  const ExpectedResults expected = load_results(baseline_path(name));
  // rel_tol 0: the tier fails on any drift at all.
  const ResultsCheck check =
      verify_results(expected, cfg, result, /*rel_tol=*/0.0);
  EXPECT_TRUE(check.passed) << check.detail;
  EXPECT_EQ(result.counters.censuses, expected.censuses);
}

INSTANTIATE_TEST_SUITE_P(Decks, GoldenBaseline,
                         ::testing::ValuesIn(kGoldenDecks));

// ---------------------------------------------------------------------------
// Cross-scheme equivalence on the golden decks
// ---------------------------------------------------------------------------

class GoldenSchemes : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenSchemes, NativeSchemesAgreeBitForBit) {
  const std::string name = GetParam();
  const RunResult particles =
      run_scheme(name, Scheme::kOverParticles, Layout::kAoS);
  const RunResult events_aos =
      run_scheme(name, Scheme::kOverEvents, Layout::kAoS);
  const RunResult events_soa =
      run_scheme(name, Scheme::kOverEvents, Layout::kSoA);

  for (const RunResult* other : {&events_aos, &events_soa}) {
    // Histories are keyed by particle id, so every event count partitions
    // identically across schemes...
    EXPECT_EQ(other->counters.facets, particles.counters.facets);
    EXPECT_EQ(other->counters.collisions, particles.counters.collisions);
    EXPECT_EQ(other->counters.censuses, particles.counters.censuses);
    EXPECT_EQ(other->counters.rng_draws, particles.counters.rng_draws);
    EXPECT_EQ(other->population, particles.population);
    // ...and exact integer tallies make the float outputs exact too.
    EXPECT_EQ(other->tally_checksum, particles.tally_checksum);
    EXPECT_EQ(other->budget.tally_total, particles.budget.tally_total);
  }
}

TEST_P(GoldenSchemes, StudyAxesMatchRecordedBaselines) {
  // The paper's study axes — scheme x layout x XS lookup x tally strategy
  // — replayed at one thread against the recorded baselines, which the
  // atomic Over Particles path wrote.  Neither layout nor lookup can move
  // a deposit (same histories, same bins), and no deposit order or fold
  // can move an integer cell sum, so every combination is exact.
  const std::string name = GetParam();
  const ExpectedResults expected = load_results(baseline_path(name));
  for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      for (const XsLookup lookup :
           {XsLookup::kBinarySearch, XsLookup::kCachedLinear}) {
        for (const TallyMode mode :
             {TallyMode::kAtomic, TallyMode::kPrivatized,
              TallyMode::kPrivatizedMergeEveryStep,
              TallyMode::kDeferredAtomic}) {
          SimulationConfig cfg = golden_config(name);
          cfg.scheme = scheme;
          cfg.layout = layout;
          cfg.lookup = lookup;
          cfg.tally_mode = mode;
          Simulation sim(cfg);
          const RunResult result = sim.run();
          SCOPED_TRACE(std::string(to_string(scheme)) + "/" +
                       to_string(layout) + "/" + to_string(lookup) + "/" +
                       to_string(mode));
          const ResultsCheck check =
              verify_results(expected, cfg, result, /*rel_tol=*/0.0);
          EXPECT_TRUE(check.passed) << check.detail;
          EXPECT_EQ(result.counters.censuses, expected.censuses);
        }
      }
    }
  }
}

TEST_P(GoldenSchemes, MachineModelReplaysTheTallyExactly) {
  const std::string name = GetParam();
  const RunResult native =
      run_scheme(name, Scheme::kOverParticles, Layout::kAoS);

  simt::SimtConfig sc;
  sc.device = simt::broadwell_2699v4_dual();
  sc.scheme = Scheme::kOverParticles;
  sc.deck = golden_config(name).deck;
  sc.threads = 1;

  // The modelled lookup changes the machine model's cost charging, never
  // its physics: the replayed kernels must reproduce the native tally bit
  // for bit with either lookup, for both schemes.
  for (const XsLookup lookup :
       {XsLookup::kBinarySearch, XsLookup::kCachedLinear}) {
    sc.lookup = lookup;
    for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
      sc.scheme = scheme;
      SCOPED_TRACE(std::string(to_string(scheme)) + "/" + to_string(lookup));
      const simt::SimtEstimate est = simt::simulate_transport(sc);

      // Identical physics and deposits into its own exact tally of the
      // same quantum: counters and tally both exact.
      EXPECT_EQ(est.counters.facets, native.counters.facets);
      EXPECT_EQ(est.counters.collisions, native.counters.collisions);
      EXPECT_EQ(est.counters.censuses, native.counters.censuses);
      EXPECT_EQ(est.tally_total, native.budget.tally_total);
      EXPECT_EQ(est.tally_checksum, native.tally_checksum);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Decks, GoldenSchemes,
                         ::testing::ValuesIn(kGoldenDecks));

}  // namespace
}  // namespace neutral
