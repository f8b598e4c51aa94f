// Tests for the cross-section substrate: table validation, interpolation,
// the two lookup strategies (§VI-A), macroscopic scaling, and the
// synthetic nuclear-data generators (§IV-D).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "rng/stream.h"
#include "util/error.h"
#include "xs/material.h"
#include "xs/synthetic.h"
#include "xs/table.h"

namespace neutral {
namespace {

CrossSectionTable tiny_table() {
  aligned_vector<double> e{1.0, 2.0, 4.0, 8.0, 16.0};
  aligned_vector<double> v{10.0, 20.0, 10.0, 40.0, 0.0};
  return CrossSectionTable(std::move(e), std::move(v));
}

// ---------------------------------------------------------------------------
// Construction and validation
// ---------------------------------------------------------------------------

TEST(XsTable, RejectsMismatchedArrays) {
  aligned_vector<double> e{1.0, 2.0};
  aligned_vector<double> v{1.0};
  EXPECT_THROW(CrossSectionTable(std::move(e), std::move(v)), Error);
}

TEST(XsTable, RejectsUnsortedEnergies) {
  aligned_vector<double> e{1.0, 3.0, 2.0};
  aligned_vector<double> v{1.0, 1.0, 1.0};
  EXPECT_THROW(CrossSectionTable(std::move(e), std::move(v)), Error);
}

TEST(XsTable, RejectsNegativeValues) {
  aligned_vector<double> e{1.0, 2.0};
  aligned_vector<double> v{1.0, -1.0};
  EXPECT_THROW(CrossSectionTable(std::move(e), std::move(v)), Error);
}

TEST(XsTable, RejectsNonPositiveEnergies) {
  aligned_vector<double> e{0.0, 2.0};
  aligned_vector<double> v{1.0, 1.0};
  EXPECT_THROW(CrossSectionTable(std::move(e), std::move(v)), Error);
}

// ---------------------------------------------------------------------------
// Interpolation
// ---------------------------------------------------------------------------

TEST(XsTable, ExactAtKnots) {
  const auto t = tiny_table();
  for (std::int32_t i = 0; i < t.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.microscopic(t.energy(i)), t.value(i)) << i;
  }
}

TEST(XsTable, LinearBetweenKnots) {
  const auto t = tiny_table();
  EXPECT_DOUBLE_EQ(t.microscopic(1.5), 15.0);
  EXPECT_DOUBLE_EQ(t.microscopic(3.0), 15.0);  // midway 20 -> 10
  EXPECT_DOUBLE_EQ(t.microscopic(12.0), 20.0); // midway 40 -> 0
}

TEST(XsTable, ClampsBelowAndAboveRange) {
  const auto t = tiny_table();
  EXPECT_DOUBLE_EQ(t.microscopic(0.5), 10.0);
  EXPECT_DOUBLE_EQ(t.microscopic(100.0), 0.0);
}

// ---------------------------------------------------------------------------
// Lookup strategies agree (§VI-A)
// ---------------------------------------------------------------------------

class LookupAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LookupAgreement, AllStrategiesReturnIdenticalValues) {
  SyntheticXsConfig cfg;
  cfg.points = 2000;
  const auto t = make_capture_table(cfg);
  rng::BulkStream rng(GetParam(), 1);
  std::int32_t cached = 0;
  for (int i = 0; i < 500; ++i) {
    // Random-walk energies, as collisions produce (§VI-A: mostly small
    // jumps with occasional large ones).
    const double ev = std::exp(std::log(1e-5) +
                               (std::log(2e7) - std::log(1e-5)) * rng.next());
    std::int32_t bin_idx = 0;
    const double binary = t.microscopic(ev, XsLookup::kBinarySearch, bin_idx);
    const double linear = t.microscopic(ev, XsLookup::kCachedLinear, cached);
    EXPECT_DOUBLE_EQ(binary, linear) << "ev=" << ev;
    // Both strategies must report the same bin.
    EXPECT_EQ(bin_idx, cached);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupAgreement,
                         ::testing::Values(1ull, 2ull, 3ull, 42ull, 1000ull));

TEST(XsLookup, CachedLinearWalksFromStaleHints) {
  const auto t = tiny_table();
  // Hint far right of the target.
  std::int32_t hint = 3;
  EXPECT_DOUBLE_EQ(t.microscopic(1.5, XsLookup::kCachedLinear, hint), 15.0);
  EXPECT_EQ(hint, 0);
  // Hint far left of the target.
  hint = 0;
  EXPECT_DOUBLE_EQ(t.microscopic(12.0, XsLookup::kCachedLinear, hint), 20.0);
  EXPECT_EQ(hint, 3);
}

TEST(XsLookup, CachedLinearToleratesOutOfRangeHints) {
  const auto t = tiny_table();
  std::int32_t hint = 999;
  EXPECT_DOUBLE_EQ(t.microscopic(1.5, XsLookup::kCachedLinear, hint), 15.0);
  hint = -7;
  EXPECT_DOUBLE_EQ(t.microscopic(1.5, XsLookup::kCachedLinear, hint), 15.0);
}

TEST(XsLookup, NamesAreStable) {
  EXPECT_STREQ(to_string(XsLookup::kBinarySearch), "binary");
  EXPECT_STREQ(to_string(XsLookup::kCachedLinear), "cached-linear");
}

// ---------------------------------------------------------------------------
// Both strategies bit-identical over a fuzzed sweep (§VI-A)
// ---------------------------------------------------------------------------

/// Fuzzed energy sweep shared by the matrix tests: log-uniform randoms,
/// every exact grid point, bin edges nudged both ways, and out-of-range
/// energies on both sides (the clamp path).
std::vector<double> fuzzed_energies(const CrossSectionTable& t,
                                    std::uint64_t seed) {
  std::vector<double> energies;
  rng::BulkStream rng(seed, 7);
  const double log_lo = std::log(t.min_energy() * 0.01);
  const double log_hi = std::log(t.max_energy() * 100.0);
  for (int i = 0; i < 2000; ++i) {
    energies.push_back(std::exp(log_lo + (log_hi - log_lo) * rng.next()));
  }
  for (std::int32_t i = 0; i < t.size(); ++i) {
    const double e = t.energy(i);
    energies.push_back(e);  // exact knot
    energies.push_back(std::nextafter(e, 0.0));
    energies.push_back(std::nextafter(e, 1.0e300));
  }
  energies.push_back(0.0);
  energies.push_back(t.min_energy() * 1e-8);
  energies.push_back(t.max_energy() * 1e8);
  return energies;
}

TEST(XsLookup, BothStrategiesBitIdenticalOverFuzzedSweep) {
  SyntheticXsConfig cfg;
  cfg.points = 3000;
  const auto capture = make_capture_table(cfg);
  const auto scatter = make_scatter_table(cfg);

  std::int32_t cached_a = 0;
  std::int32_t cached_s = 0;
  for (const double ev : fuzzed_energies(capture, 99)) {
    // The sweep's large jumps miss the cached bin, so the slot table is
    // covered too.
    std::int32_t bin_idx = 0;
    const double binary_a =
        capture.microscopic(ev, XsLookup::kBinarySearch, bin_idx);
    const double linear_a =
        capture.microscopic(ev, XsLookup::kCachedLinear, cached_a);
    // Bit identity, not closeness: both strategies locate the same bin.
    EXPECT_EQ(binary_a, linear_a) << "ev=" << ev;
    EXPECT_EQ(bin_idx, cached_a) << "ev=" << ev;

    const double binary_s =
        scatter.microscopic(ev, XsLookup::kBinarySearch, bin_idx);
    const double linear_s =
        scatter.microscopic(ev, XsLookup::kCachedLinear, cached_s);
    EXPECT_EQ(binary_s, linear_s) << "ev=" << ev;
  }
}

TEST(XsLookup, CountedFindBinMatchesPlainFindBin) {
  SyntheticXsConfig cfg;
  cfg.points = 500;
  const auto capture = make_capture_table(cfg);
  for (const XsLookup mode :
       {XsLookup::kBinarySearch, XsLookup::kCachedLinear}) {
    std::int32_t hint = 0;
    std::int32_t counted_hint = 0;
    std::int64_t steps = 0;
    for (const double ev : fuzzed_energies(capture, 7)) {
      const double e =
          std::clamp(ev, capture.min_energy(), capture.max_energy());
      const std::int32_t plain = capture.find_bin(e, mode, hint);
      EXPECT_EQ(capture.find_bin_counted(ev, mode, counted_hint, steps), plain)
          << "mode=" << to_string(mode) << " ev=" << ev;
    }
    EXPECT_GT(steps, 0) << to_string(mode);
  }
}

// ---------------------------------------------------------------------------
// Slot-table exactness on grids that stress the bit-pattern index
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

CrossSectionTable table_on(aligned_vector<double> energies) {
  aligned_vector<double> values(energies.size());
  rng::BulkStream rng(5, 3);
  for (double& v : values) v = 100.0 * rng.next();
  return CrossSectionTable(std::move(energies), std::move(values));
}

CrossSectionTable grid_named(const std::string& name) {
  aligned_vector<double> e;
  if (name == "synthetic30k") return make_capture_table(SyntheticXsConfig{});
  if (name == "two_points") {
    e = {1.0, 3.0};
  } else if (name == "one_binade") {
    for (int i = 0; i < 1000; ++i) e.push_back(2.0 + 2.0 * i / 1000.0);
  } else if (name == "adjacent_doubles") {
    e.push_back(1.0);
    while (e.size() < 500) e.push_back(std::nextafter(e.back(), 2.0));
  } else if (name == "extreme_range") {
    for (int i = 0; i < 2000; ++i) {
      e.push_back(std::pow(10.0, -300.0 + 600.0 * i / 1999.0));
    }
  }
  return table_on(std::move(e));
}

/// Cached (from `hint`) and binary search must find the same bin, and the
/// bin must hold the clamped energy; their interpolated values must be the
/// same bits.
::testing::AssertionResult strategies_agree(const CrossSectionTable& t,
                                            double ev, std::int32_t hint) {
  std::int32_t binary_bin = 0;
  const double binary = t.microscopic(ev, XsLookup::kBinarySearch, binary_bin);
  std::int32_t cached_bin = hint;
  const double cached = t.microscopic(ev, XsLookup::kCachedLinear, cached_bin);
  const double e = t.clamp_energy(ev);
  const bool holds = t.energy(binary_bin) <= e &&
                     (binary_bin == t.size() - 2 || e < t.energy(binary_bin + 1));
  if (binary_bin != cached_bin || bits_of(binary) != bits_of(cached) ||
      !holds) {
    return ::testing::AssertionFailure()
           << "ev=" << ev << " hint=" << hint << " binary bin " << binary_bin
           << " cached bin " << cached_bin << " holds=" << holds;
  }
  return ::testing::AssertionSuccess();
}

class SlotTableExactness : public ::testing::TestWithParam<const char*> {};

TEST_P(SlotTableExactness, CachedMatchesBinaryEverywhere) {
  const CrossSectionTable t = grid_named(GetParam());
  ASSERT_GE(t.size(), 2);
  EXPECT_LE(t.slot_count(),
            static_cast<std::size_t>(std::max(8, t.size() / 4)) + 1);

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {t.min_energy() * 0.5, t.max_energy() * 2.0,
                                0.0, -1.0, inf};
  for (std::int32_t i = 0; i < t.size(); ++i) {
    probes.push_back(t.energy(i));
    probes.push_back(std::nextafter(t.energy(i), -inf));
    probes.push_back(std::nextafter(t.energy(i), inf));
    if (i + 1 < t.size()) {
      probes.push_back(t.energy(i) + (t.energy(i + 1) - t.energy(i)) / 2.0);
    }
  }
  // Every probe from both a cold hint and its own bin's neighbour.
  for (const double ev : probes) {
    ASSERT_TRUE(strategies_agree(t, ev, 0));
    ASSERT_TRUE(strategies_agree(t, ev, t.size() / 2));
  }

  // Fuzz: half uniform in bit pattern over twice the range (log-like),
  // half uniform in value inside it (dense where knots are adjacent),
  // each with a random stale hint, some far outside [0, size()).
  rng::BulkStream rng(17, 9);
  const double lo_bits = static_cast<double>(bits_of(t.min_energy() * 0.5));
  const double hi_bits = static_cast<double>(bits_of(t.max_energy() * 2.0));
  for (int k = 0; k < 100000; ++k) {
    const double ev =
        k % 2 == 0
            ? std::bit_cast<double>(static_cast<std::uint64_t>(
                  lo_bits + (hi_bits - lo_bits) * rng.next()))
            : t.min_energy() + (t.max_energy() - t.min_energy()) * rng.next();
    const auto hint =
        static_cast<std::int32_t>((t.size() + 20) * rng.next()) - 10;
    ASSERT_TRUE(strategies_agree(t, ev, hint));
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, SlotTableExactness,
                         ::testing::Values("synthetic30k", "two_points",
                                           "one_binade", "adjacent_doubles",
                                           "extreme_range"),
                         [](const auto& info) { return std::string(info.param); });

TEST(SameEnergyGrid, RejectsAKnotMovedByOneUlp) {
  SyntheticXsConfig cfg;
  cfg.points = 300;
  const auto capture = make_capture_table(cfg);
  EXPECT_TRUE(same_energy_grid(capture, make_scatter_table(cfg)));

  aligned_vector<double> e(capture.energies_data(),
                           capture.energies_data() + capture.size());
  e[150] = std::nextafter(e[150], 1.0e300);
  const CrossSectionTable moved = table_on(std::move(e));
  ASSERT_EQ(moved.size(), capture.size());
  EXPECT_FALSE(same_energy_grid(capture, moved));
  EXPECT_FALSE(same_energy_grid(capture, tiny_table()));
}

// ---------------------------------------------------------------------------
// Macroscopic conversion (§IV-D2)
// ---------------------------------------------------------------------------

TEST(Macroscopic, NumberDensityOfWater) {
  // 1 g/cm^3 at 18 g/mol -> ~3.34e22 molecules/cm^3.
  EXPECT_NEAR(number_density(1.0, 18.0), 3.3456e22, 1e19);
}

TEST(Macroscopic, ScalesLinearlyWithDensity) {
  const double n1 = number_density(1.0, 10.0);
  const double n2 = number_density(2.0, 10.0);
  EXPECT_DOUBLE_EQ(n2, 2.0 * n1);
}

TEST(Macroscopic, BarnsConversion) {
  // Sigma = sigma * 1e-24 * n; with sigma=5 barns, n=1e24 -> 5 /cm.
  EXPECT_DOUBLE_EQ(macroscopic(5.0, 1.0e24), 5.0);
}

TEST(Macroscopic, RejectsBadMolarMass) {
  EXPECT_THROW(number_density(1.0, 0.0), Error);
}

TEST(Macroscopic, VacuumDensityGivesVanishingSigma) {
  // The stream problem's 1e-30 kg/m^3 must yield a physically negligible
  // but non-negative macroscopic cross section.
  const double n = number_density(1.0e-30 * 1.0e-3, 1.0);
  const double sigma = macroscopic(5.0, n);
  EXPECT_GE(sigma, 0.0);
  EXPECT_LT(sigma, 1e-25);
}

// ---------------------------------------------------------------------------
// Synthetic tables (§IV-D)
// ---------------------------------------------------------------------------

TEST(Synthetic, TablesAreDeterministic) {
  SyntheticXsConfig cfg;
  cfg.points = 500;
  const auto a = make_capture_table(cfg);
  const auto b = make_capture_table(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::int32_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.value(i), b.value(i));
  }
}

TEST(Synthetic, SeedsChangeResonanceLayout) {
  SyntheticXsConfig a, b;
  a.points = b.points = 500;
  a.seed = 1;
  b.seed = 2;
  const auto ta = make_capture_table(a);
  const auto tb = make_capture_table(b);
  bool any_diff = false;
  for (std::int32_t i = 0; i < ta.size(); ++i) {
    if (ta.value(i) != tb.value(i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthetic, CaptureShowsOneOverVAtThermalEnergies) {
  SyntheticXsConfig cfg;
  cfg.points = 4000;
  cfg.resonances = 0;  // isolate the smooth trend
  const auto t = make_capture_table(cfg);
  // sigma(E) * sqrt(E) constant under pure 1/v.
  const double lo = t.microscopic(1e-4) * std::sqrt(1e-4);
  const double hi = t.microscopic(1e-2) * std::sqrt(1e-2);
  EXPECT_NEAR(lo / hi, 1.0, 0.05);
}

TEST(Synthetic, CaptureResonancesRaiseTheResonanceRegion) {
  SyntheticXsConfig smooth, res;
  smooth.points = res.points = 4000;
  smooth.resonances = 0;
  res.resonances = 200;
  const auto ts = make_capture_table(smooth);
  const auto tr = make_capture_table(res);
  double sum_smooth = 0.0, sum_res = 0.0;
  for (double e = 2.0; e < 1e4; e *= 1.5) {
    sum_smooth += ts.microscopic(e);
    sum_res += tr.microscopic(e);
  }
  EXPECT_GT(sum_res, sum_smooth);
}

TEST(Synthetic, ScatterLevelIsOrderTensOfBarns) {
  const auto t = make_scatter_table();
  const double at_1mev = t.microscopic(1.0e6);
  EXPECT_GT(at_1mev, 1.0);
  EXPECT_LT(at_1mev, 200.0);
}

TEST(Synthetic, GridSpansConfiguredRange) {
  SyntheticXsConfig cfg;
  cfg.points = 100;
  cfg.min_energy_ev = 1e-3;
  cfg.max_energy_ev = 1e6;
  const auto t = make_capture_table(cfg);
  EXPECT_DOUBLE_EQ(t.min_energy(), 1e-3);
  EXPECT_NEAR(t.max_energy(), 1e6, 1e-6);
  EXPECT_EQ(t.size(), 100);
}

TEST(Synthetic, RejectsBadConfig) {
  SyntheticXsConfig cfg;
  cfg.points = 1;
  EXPECT_THROW(make_capture_table(cfg), Error);
  cfg.points = 100;
  cfg.min_energy_ev = -1.0;
  EXPECT_THROW(make_scatter_table(cfg), Error);
}

TEST(Synthetic, CaptureAndScatterShareTheGrid) {
  // One bin and one interpolation weight serve both tables, which requires
  // identical energy grids, knot for knot (see the MaterialXs constructor).
  SyntheticXsConfig cfg;
  cfg.points = 300;
  const auto c = make_capture_table(cfg);
  const auto s = make_scatter_table(cfg);
  ASSERT_EQ(c.size(), s.size());
  for (std::int32_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(bits_of(c.energy(i)), bits_of(s.energy(i))) << i;
  }
}

TEST(Material, TablesAreTheBuildersTablesBitForBit) {
  SyntheticXsConfig cfg;
  cfg.points = 300;
  const MaterialXs m(cfg);
  const auto c = make_capture_table(cfg);
  const auto s = make_scatter_table(cfg);
  ASSERT_EQ(m.capture.size(), c.size());
  ASSERT_EQ(m.scatter.size(), s.size());
  for (std::int32_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(bits_of(m.capture.energy(i)), bits_of(c.energy(i))) << i;
    EXPECT_EQ(bits_of(m.capture.value(i)), bits_of(c.value(i))) << i;
    EXPECT_EQ(bits_of(m.scatter.energy(i)), bits_of(s.energy(i))) << i;
    EXPECT_EQ(bits_of(m.scatter.value(i)), bits_of(s.value(i))) << i;
  }
}

TEST(Material, FootprintIsTheSumOfItsArrays) {
  const MaterialXs m(SyntheticXsConfig{});
  std::uint64_t arrays = 0;
  for (const CrossSectionTable* t : {&m.capture, &m.scatter}) {
    arrays += static_cast<std::uint64_t>(t->size()) * sizeof(double) * 2 +
              t->slot_count() * sizeof(std::int32_t);
  }
  EXPECT_EQ(m.footprint_bytes(), sizeof(MaterialXs) + arrays);
}

}  // namespace
}  // namespace neutral
