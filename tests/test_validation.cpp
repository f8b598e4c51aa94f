// Tests for the conservation/validation module (core/validation.h).
#include <gtest/gtest.h>

#include <vector>

#include "core/particle.h"
#include "core/validation.h"

namespace neutral {
namespace {

// ---------------------------------------------------------------------------
// EnergyBudget
// ---------------------------------------------------------------------------

TEST(Budget, PerfectBalanceHasZeroError) {
  EnergyBudget b;
  b.initial = 100.0;
  b.released = 60.0;
  b.in_flight = 40.0;
  b.path_heating = 5.0;
  b.tally_total = 65.0;
  EXPECT_DOUBLE_EQ(b.conservation_error(), 0.0);
  EXPECT_DOUBLE_EQ(b.tally_consistency_error(), 0.0);
  EXPECT_TRUE(b.conserved());
}

TEST(Budget, LeakDetected) {
  EnergyBudget b;
  b.initial = 100.0;
  b.released = 60.0;
  b.in_flight = 30.0;  // 10 units missing
  EXPECT_NEAR(b.conservation_error(), 0.1, 1e-12);
  EXPECT_FALSE(b.conserved(1e-3));
}

TEST(Budget, TallyInconsistencyDetected) {
  EnergyBudget b;
  b.initial = 100.0;
  b.released = 100.0;
  b.tally_total = 90.0;  // lost deposits
  b.path_heating = 0.0;
  EXPECT_GT(b.tally_consistency_error(), 0.05);
  EXPECT_FALSE(b.conserved());
}

TEST(Budget, EmptyBudgetIsTriviallyConserved) {
  EnergyBudget b;
  EXPECT_TRUE(b.conserved());
}

// ---------------------------------------------------------------------------
// Bank reductions
// ---------------------------------------------------------------------------

TEST(Bank, InFlightEnergySumsAliveAndCensus) {
  std::vector<Particle> bank(3);
  bank[0].weight = 1.0;
  bank[0].energy = 10.0;
  bank[0].state = ParticleState::kAlive;
  bank[1].weight = 0.5;
  bank[1].energy = 20.0;
  bank[1].state = ParticleState::kCensus;
  bank[2].weight = 1.0;
  bank[2].energy = 1000.0;
  bank[2].state = ParticleState::kDead;  // excluded
  const AosView v(bank.data(), bank.size());
  EXPECT_DOUBLE_EQ(in_flight_energy(v), 20.0);
  EXPECT_EQ(population(v), 2);
}

TEST(Bank, EmptyBankIsZero) {
  const AosView v(nullptr, 0);
  EXPECT_DOUBLE_EQ(in_flight_energy(v), 0.0);
  EXPECT_EQ(population(v), 0);
}

// ---------------------------------------------------------------------------
// Positional checksum
// ---------------------------------------------------------------------------

/// The positional checksum of the first `n` cells of a dense field.
double checksum(const double* field, std::int64_t n) {
  return positional_checksum(n, [field](std::int64_t i) { return field[i]; });
}

TEST(Checksum, DetectsValueMovedBetweenCells) {
  std::vector<double> a(100, 0.0);
  std::vector<double> b(100, 0.0);
  a[10] = 5.0;
  b[11] = 5.0;  // same total, different placement
  EXPECT_NE(checksum(a.data(), 100),
            checksum(b.data(), 100));
}

TEST(Checksum, DeterministicAndSizeSensitive) {
  std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(checksum(a.data(), 3),
                   checksum(a.data(), 3));
  EXPECT_NE(checksum(a.data(), 2),
            checksum(a.data(), 3));
}

TEST(Checksum, ZeroFieldGivesZero) {
  std::vector<double> zeros(64, 0.0);
  EXPECT_DOUBLE_EQ(checksum(zeros.data(), 64), 0.0);
}

TEST(Checksum, EveryCellContributes) {
  // Weights live in [0.5, 1.5): no cell is silently dropped.
  std::vector<double> field(256, 0.0);
  const double base = checksum(field.data(), 256);
  for (int i = 0; i < 256; i += 17) {
    field[static_cast<std::size_t>(i)] = 1.0;
    const double with = checksum(field.data(), 256);
    EXPECT_NE(with, base) << "cell " << i;
    field[static_cast<std::size_t>(i)] = 0.0;
  }
}

TEST(Checksum, LinearInField) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> doubled{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(checksum(doubled.data(), 4),
              2.0 * checksum(a.data(), 4), 1e-12);
}

}  // namespace
}  // namespace neutral
