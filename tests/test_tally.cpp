// Tests for the energy-deposition tally (§V-C, §VI-F, §VI-G): all four
// thread-safety modes must produce identical results, under contention.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>

#include "core/tally.h"
#include "util/error.h"

namespace neutral {
namespace {

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST(Tally, ConstructionValidates) {
  EXPECT_THROW(EnergyTally(0, TallyMode::kAtomic, 1), Error);
  EXPECT_THROW(EnergyTally(10, TallyMode::kAtomic, 0), Error);
}

TEST(Tally, SingleDepositLandsInRightCell) {
  EnergyTally t(10, TallyMode::kAtomic, 1);
  t.deposit(3, 2.5, 0);
  EXPECT_DOUBLE_EQ(t.at(3), 2.5);
  EXPECT_DOUBLE_EQ(t.at(2), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 2.5);
}

TEST(Tally, ResetZeroesEverything) {
  EnergyTally t(4, TallyMode::kPrivatized, 2);
  t.deposit(0, 1.0, 0);
  t.deposit(1, 2.0, 1);
  t.reset();
  t.merge();
  EXPECT_DOUBLE_EQ(t.total(), 0.0);
}

TEST(Tally, ModeNamesStable) {
  EXPECT_STREQ(to_string(TallyMode::kAtomic), "atomic");
  EXPECT_STREQ(to_string(TallyMode::kPrivatized), "privatized");
  EXPECT_STREQ(to_string(TallyMode::kPrivatizedMergeEveryStep),
               "privatized-merge-step");
  EXPECT_STREQ(to_string(TallyMode::kDeferredAtomic), "deferred-atomic");
}

// ---------------------------------------------------------------------------
// Mode equivalence under parallel contention
// ---------------------------------------------------------------------------

class TallyModes : public ::testing::TestWithParam<TallyMode> {};

TEST_P(TallyModes, ParallelDepositsSumExactly) {
  const TallyMode mode = GetParam();
  const std::int64_t cells = 64;
  const int threads = omp_get_max_threads();
  EnergyTally t(cells, mode, threads);

  // Divisible by `cells` so every cell receives an identical share.
  const std::int64_t per_thread = 51200;
#pragma omp parallel
  {
    const int me = omp_get_thread_num();
    for (std::int64_t i = 0; i < per_thread; ++i) {
      // All threads hammer a small cell set: worst-case conflicts.
      t.deposit(i % cells, 1.0, me);
    }
  }
  t.merge();
  const double expected =
      static_cast<double>(per_thread) * omp_get_max_threads();
  EXPECT_DOUBLE_EQ(t.total(), expected);
  // Each cell got an equal share.
  EXPECT_DOUBLE_EQ(t.at(0), expected / cells);
  EXPECT_DOUBLE_EQ(t.at(cells - 1), expected / cells);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, TallyModes,
    ::testing::Values(TallyMode::kAtomic, TallyMode::kPrivatized,
                      TallyMode::kPrivatizedMergeEveryStep,
                      TallyMode::kDeferredAtomic));

TEST(Tally, PrivatizedAndAtomicAgreeOnScatteredPattern) {
  const std::int64_t cells = 1000;
  const int threads = omp_get_max_threads();
  EnergyTally atomic(cells, TallyMode::kAtomic, threads);
  EnergyTally priv(cells, TallyMode::kPrivatized, threads);

#pragma omp parallel
  {
    const int me = omp_get_thread_num();
#pragma omp for
    for (std::int64_t i = 0; i < 100000; ++i) {
      const std::int64_t cell = (i * 7919) % cells;
      const double amount = 1.0 + static_cast<double>(i % 13);
      atomic.deposit(cell, amount, me);
      priv.deposit(cell, amount, me);
    }
  }
  priv.merge();
  for (std::int64_t c = 0; c < cells; c += 97) {
    EXPECT_DOUBLE_EQ(atomic.at(c), priv.at(c)) << "cell " << c;
  }
}

// ---------------------------------------------------------------------------
// Deferred mode specifics (§VI-G)
// ---------------------------------------------------------------------------

TEST(Tally, DeferredDepositsInvisibleUntilDrain) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 1);
  t.deposit(2, 5.0, 0);
  EXPECT_DOUBLE_EQ(t.at(2), 0.0);  // buffered, not applied
  t.drain_deferred();
  EXPECT_DOUBLE_EQ(t.at(2), 5.0);
}

TEST(Tally, DrainIsIdempotent) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 1);
  t.deposit(1, 3.0, 0);
  t.drain_deferred();
  t.drain_deferred();
  EXPECT_DOUBLE_EQ(t.at(1), 3.0);
}

TEST(Tally, DrainNoOpInOtherModes) {
  EnergyTally t(8, TallyMode::kAtomic, 1);
  t.deposit(1, 3.0, 0);
  t.drain_deferred();
  EXPECT_DOUBLE_EQ(t.at(1), 3.0);
}

TEST(Tally, MergeDrainsDeferredBuffers) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 2);
  t.deposit(0, 1.0, 0);
  t.deposit(0, 2.0, 1);
  t.merge();
  EXPECT_DOUBLE_EQ(t.at(0), 3.0);
}

// ---------------------------------------------------------------------------
// Merge semantics
// ---------------------------------------------------------------------------

TEST(Tally, MergeEachStepOnlyForMergeStepMode) {
  EnergyTally a(4, TallyMode::kAtomic, 2);
  EnergyTally b(4, TallyMode::kPrivatized, 2);
  EnergyTally c(4, TallyMode::kPrivatizedMergeEveryStep, 2);
  EXPECT_FALSE(a.merge_each_step());
  EXPECT_FALSE(b.merge_each_step());
  EXPECT_TRUE(c.merge_each_step());
}

TEST(Tally, RepeatedMergeDoesNotDoubleCount) {
  EnergyTally t(4, TallyMode::kPrivatized, 2);
  t.deposit(0, 1.0, 0);
  t.deposit(0, 1.0, 1);
  t.merge();
  t.merge();
  EXPECT_DOUBLE_EQ(t.at(0), 2.0);
}

TEST(Tally, TotalIncludesUnmergedPrivateCopies) {
  EnergyTally t(4, TallyMode::kPrivatized, 2);
  t.deposit(0, 1.5, 0);
  t.deposit(1, 2.5, 1);
  EXPECT_DOUBLE_EQ(t.total(), 4.0);  // before merge
  t.merge();
  EXPECT_DOUBLE_EQ(t.total(), 4.0);  // after merge
}

// ---------------------------------------------------------------------------
// Compensated accumulation + cross-partition reduction primitives
// ---------------------------------------------------------------------------

TEST(TallyCompensated, RecoversBitsPlainSummationLoses) {
  // 1e16 + 1 - 1e16 == 0 in plain doubles; the Neumaier term keeps the 1.
  EnergyTally plain(2, TallyMode::kAtomic, 1);
  EnergyTally comp(2, TallyMode::kAtomic, 1, /*compensated=*/true);
  for (EnergyTally* t : {&plain, &comp}) {
    t->deposit(0, 1.0e16, 0);
    t->deposit(0, 1.0, 0);
    t->deposit(0, -1.0e16, 0);
    t->merge();
  }
  EXPECT_DOUBLE_EQ(plain.at(0), 0.0);
  EXPECT_DOUBLE_EQ(comp.at(0), 1.0);
}

TEST(TallyCompensated, CellValueInvariantToDepositOrder) {
  // The once-rounded property: any permutation of the deposit multiset
  // yields the same stored double.
  const double deposits[] = {0.1, 1.0e12, -0.3, 7.77e-9, 3.14, -1.0e12,
                             2.5e-17, 0.2};
  const std::size_t orders[][8] = {{0, 1, 2, 3, 4, 5, 6, 7},
                                   {7, 6, 5, 4, 3, 2, 1, 0},
                                   {1, 5, 0, 7, 3, 2, 6, 4}};
  double reference = 0.0;
  for (std::size_t o = 0; o < 3; ++o) {
    EnergyTally t(1, TallyMode::kAtomic, 1, /*compensated=*/true);
    for (std::size_t i : orders[o]) t.deposit(0, deposits[i], 0);
    t.merge();
    if (o == 0) {
      reference = t.at(0);
    } else {
      EXPECT_EQ(t.at(0), reference) << "order " << o;
    }
  }
}

TEST(TallyCompensated, AccumulateSplitsMatchTheWhole) {
  // Partition a deposit sequence arbitrarily across two partial tallies;
  // folding them through accumulate() reproduces the single-tally result
  // bit-for-bit, in any fold order.
  const std::int64_t cells = 16;
  EnergyTally whole(cells, TallyMode::kAtomic, 1, true);
  EnergyTally part_a(cells, TallyMode::kAtomic, 1, true);
  EnergyTally part_b(cells, TallyMode::kAtomic, 1, true);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t cell = (i * 7919) % cells;
    const double amount = std::pow(1.1, i % 40) * ((i % 3) ? 1.0 : -0.5);
    whole.deposit(cell, amount, 0);
    (i % 2 ? part_a : part_b).deposit(cell, amount, 0);
  }
  whole.merge();
  part_a.merge();
  part_b.merge();

  for (int order = 0; order < 2; ++order) {
    EnergyTally reduced(cells, TallyMode::kAtomic, 1, true);
    reduced.accumulate(order == 0 ? part_a : part_b);
    reduced.accumulate(order == 0 ? part_b : part_a);
    reduced.merge();
    for (std::int64_t c = 0; c < cells; ++c) {
      EXPECT_EQ(reduced.at(c), whole.at(c)) << "cell " << c;
    }
  }
}

TEST(TallyCompensated, AccumulateAcceptsImagesAndValidates) {
  EnergyTally src(8, TallyMode::kAtomic, 1, true);
  src.deposit(3, 2.5, 0);
  src.merge();
  const TallyImage image = src.image();
  ASSERT_EQ(image.cells(), 8);
  ASSERT_FALSE(image.lo.empty());

  EnergyTally dst(8, TallyMode::kAtomic, 1, true);
  dst.accumulate(image);
  dst.merge();
  EXPECT_DOUBLE_EQ(dst.at(3), 2.5);

  EnergyTally plain(8, TallyMode::kAtomic, 1);
  EXPECT_THROW(plain.accumulate(src), Error);  // target must be compensated
  EnergyTally wrong(4, TallyMode::kAtomic, 1, true);
  EXPECT_THROW(wrong.accumulate(src), Error);  // cell counts must match
}

TEST(TallyCompensated, PrivatizedMergeIsThreadCountInvariant) {
  // The same deposit multiset through 1, 2 and 8 private copies must merge
  // to identical doubles — the property that lets a subdomain's team run
  // at any width.
  const std::int64_t cells = 8;
  double reference[8] = {};
  for (const int threads : {1, 2, 8}) {
    EnergyTally t(cells, TallyMode::kPrivatized, threads, true);
    for (int i = 0; i < 4000; ++i) {
      t.deposit(i % cells, std::pow(1.07, i % 50), i % threads);
    }
    t.merge();
    for (std::int64_t c = 0; c < cells; ++c) {
      if (threads == 1) {
        reference[c] = t.at(c);
      } else {
        EXPECT_EQ(t.at(c), reference[c]) << threads << " threads, cell " << c;
      }
    }
  }
}

TEST(TallyCompensated, CompensatedAtomicRequiresOneThread) {
  EXPECT_THROW(EnergyTally(8, TallyMode::kAtomic, 2, true), Error);
  EXPECT_NO_THROW(EnergyTally(8, TallyMode::kAtomic, 1, true));
  EXPECT_NO_THROW(EnergyTally(8, TallyMode::kPrivatized, 2, true));
}

// ---------------------------------------------------------------------------
// Footprint accounting (§VI-F: the 0.3 GB -> 31 GB blow-up)
// ---------------------------------------------------------------------------

TEST(Tally, PrivatizedFootprintScalesWithThreads) {
  const std::int64_t cells = 1 << 12;
  EnergyTally shared(cells, TallyMode::kAtomic, 16);
  EnergyTally priv(cells, TallyMode::kPrivatized, 16);
  EXPECT_EQ(shared.footprint_bytes(), cells * sizeof(double));
  EXPECT_EQ(priv.footprint_bytes(), cells * sizeof(double) * 17ull);
}

TEST(Tally, FootprintRatioMatchesPaperExample) {
  // §VI-F: 256 threads multiply the tally footprint ~100x (0.3 -> 31 GB).
  const std::int64_t cells = 1 << 10;
  EnergyTally shared(cells, TallyMode::kAtomic, 256);
  EnergyTally priv(cells, TallyMode::kPrivatized, 256);
  const double ratio = static_cast<double>(priv.footprint_bytes()) /
                       static_cast<double>(shared.footprint_bytes());
  EXPECT_DOUBLE_EQ(ratio, 257.0);
}

}  // namespace
}  // namespace neutral
