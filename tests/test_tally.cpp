// Tests for the energy-deposition tally (§V-C, §VI-F, §VI-G): all four
// thread-safety modes must produce identical results, under contention,
// down to the last bit of every cell.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "core/tally.h"
#include "util/error.h"

namespace neutral {
namespace {

/// A 1 MeV flush bound (a dense deck's unit-weight source particle): the
/// quantum is 2^-43 eV.
constexpr double kFlushBound = 1.0e6;

constexpr TallyMode kAllModes[] = {
    TallyMode::kAtomic, TallyMode::kPrivatized,
    TallyMode::kPrivatizedMergeEveryStep, TallyMode::kDeferredAtomic};

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST(Tally, ConstructionValidates) {
  EXPECT_THROW(EnergyTally(0, TallyMode::kAtomic, 1, kFlushBound), Error);
  EXPECT_THROW(EnergyTally(10, TallyMode::kAtomic, 0, kFlushBound), Error);
  EXPECT_THROW(EnergyTally(10, TallyMode::kAtomic, 1, 0.0), Error);
  EXPECT_THROW(EnergyTally(10, TallyMode::kAtomic, 1, -1.0), Error);
  EXPECT_THROW(EnergyTally(10, TallyMode::kAtomic, 1,
                           std::numeric_limits<double>::quiet_NaN()),
               Error);
}

TEST(Tally, QuantumIsTheFlushBoundsPowerOfTwoOver2To63) {
  const auto quantum = [](double flush_bound) {
    return EnergyTally(1, TallyMode::kAtomic, 1, flush_bound).merged().quantum;
  };
  EXPECT_EQ(quantum(1.0e6), 0x1p-43);
  EXPECT_EQ(quantum(0x1p20), 0x1p-43);
  EXPECT_EQ(quantum(0x1.0000000000001p20), 0x1p-42);
  EXPECT_EQ(quantum(1.0), 0x1p-63);
}

TEST(Tally, SingleDepositLandsInRightCell) {
  EnergyTally t(10, TallyMode::kAtomic, 1, kFlushBound);
  t.deposit(3, 2.5, 0);
  EXPECT_DOUBLE_EQ(t.merged().value(3), 2.5);
  EXPECT_DOUBLE_EQ(t.merged().value(2), 0.0);
  EXPECT_DOUBLE_EQ(t.merged().total(), 2.5);
}

TEST(Tally, DepositsTruncateToWholeQuanta) {
  EnergyTally t(2, TallyMode::kAtomic, 1, kFlushBound);
  t.deposit(0, 0.75 * 0x1p-43, 0);
  t.deposit(1, 3.5 * 0x1p-43, 0);
  t.deposit(1, 1.0e-24, 0);
  EXPECT_EQ(t.merged().value(0), 0.0);
  EXPECT_EQ(t.merged().value(1), 3.0 * 0x1p-43);
}

TEST(Tally, WideDepositsCarryIntoTheHighWord) {
  // 1e10 eV is 2^43 * 1e10 ~ 8.8e22 quanta, past the low word; two low
  // words of 3 * 2^62 quanta carry one into the high word.
  EnergyTally t(2, TallyMode::kAtomic, 1, kFlushBound);
  t.deposit(0, 1.0e10, 0);
  t.deposit(1, 0x1.8p63 * 0x1p-43, 0);
  t.deposit(1, 0x1.8p63 * 0x1p-43, 0);
  EXPECT_EQ(t.merged().value(0), 1.0e10);
  EXPECT_EQ(t.merged().value(1), 0x1.8p64 * 0x1p-43);
  EXPECT_EQ(t.merged().cells[1], (TallyCell{std::uint64_t{1} << 63, 1}));
}

TEST(Tally, InvalidDepositsFailTheReadOut) {
  // Energy deposits are never negative; a negative, non-finite or
  // out-of-range one is a fault, in every mode.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0,
                           1.0e300}) {
    for (const TallyMode mode : kAllModes) {
      EnergyTally t(2, mode, 1, kFlushBound);
      t.deposit(0, bad, 0);
      t.deposit(1, 1.0, 0);
      t.merge();
      EXPECT_THROW((void)t.merged(), Error) << bad << " " << to_string(mode);
      t.reset();
      EXPECT_EQ(t.merged().total(), 0.0);
    }
  }
}

TEST(Tally, CellOverflowFailsTheReadOut) {
  // Quantum 2^-63: a 2^62 eV deposit is 2^125 quanta, high word 2^61.
  EnergyTally t(1, TallyMode::kAtomic, 1, 1.0);
  t.deposit(0, 0x1p62, 0);
  EXPECT_EQ(t.merged().value(0), 0x1p62);
  t.deposit(0, 0x1p62, 0);
  EXPECT_THROW((void)t.merged().value(0), Error);
  EXPECT_THROW((void)t.merged().total(), Error);
}

TEST(Tally, ResetZeroesEverything) {
  EnergyTally t(4, TallyMode::kPrivatized, 2, kFlushBound);
  t.deposit(0, 1.0, 0);
  t.deposit(1, 2.0, 1);
  t.reset();
  t.merge();
  EXPECT_DOUBLE_EQ(t.merged().total(), 0.0);
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
  EnergyTally t(cells, mode, threads, kFlushBound);

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
  EXPECT_DOUBLE_EQ(t.merged().total(), expected);
  // Each cell got an equal share.
  EXPECT_DOUBLE_EQ(t.merged().value(0), expected / cells);
  EXPECT_DOUBLE_EQ(t.merged().value(cells - 1), expected / cells);
}

INSTANTIATE_TEST_SUITE_P(AllModes, TallyModes, ::testing::ValuesIn(kAllModes));

TEST(Tally, PrivatizedAndAtomicAgreeOnScatteredPattern) {
  const std::int64_t cells = 1000;
  const int threads = omp_get_max_threads();
  EnergyTally atomic(cells, TallyMode::kAtomic, threads, kFlushBound);
  EnergyTally priv(cells, TallyMode::kPrivatized, threads, kFlushBound);

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
  EXPECT_EQ(atomic.merged().cells, priv.merged().cells);
}

/// `count` deposits over `cells` cells whose amounts span 1e-24..1e10 eV,
/// log-uniformly — the dynamic range the decks produce.
std::vector<PendingDeposit> wide_range_deposits(std::size_t count,
                                                std::int64_t cells) {
  std::mt19937_64 gen(20170905);
  std::uniform_int_distribution<std::int64_t> cell(0, cells - 1);
  std::uniform_real_distribution<double> decade(-24.0, 10.0);
  std::vector<PendingDeposit> out(count);
  for (PendingDeposit& d : out) d = {cell(gen), std::pow(10.0, decade(gen))};
  return out;
}

TEST(TallyExactness, ShuffledDepositsGiveIdenticalWordsInEveryModeAndTeam) {
  // The tally's contract: a cell's words depend only on the multiset of
  // its deposits.  Shuffle one multiset, deal it over a team of 1, 2 or 4
  // threads, and run it through every mode: every cell must come out
  // word-for-word equal to the sequential atomic reference.
  const std::int64_t cells = 37;
  const std::vector<PendingDeposit> deposits =
      wide_range_deposits(40000, cells);

  EnergyTally reference(cells, TallyMode::kAtomic, 1, kFlushBound);
  long double sum = 0.0L;
  for (const PendingDeposit& d : deposits) {
    reference.deposit(d.cell, d.amount, 0);
    sum += d.amount;
  }
  const TallyImage want = reference.merged();
  // Truncation drops under one quantum (2^-43 eV) per deposit.
  EXPECT_NEAR(reference.merged().total(), static_cast<double>(sum),
              0x1p-43 * static_cast<double>(deposits.size()));

  std::uint64_t shuffle_seed = 1;
  for (const int threads : {1, 2, 4}) {
    for (const TallyMode mode : kAllModes) {
      std::vector<PendingDeposit> order = deposits;
      std::shuffle(order.begin(), order.end(), std::mt19937_64(shuffle_seed++));
      EnergyTally t(cells, mode, threads, kFlushBound);
      const auto n = static_cast<std::int64_t>(order.size());
#pragma omp parallel num_threads(threads)
      {
        const int me = omp_get_thread_num();
#pragma omp for schedule(dynamic, 64)
        for (std::int64_t i = 0; i < n; ++i) {
          const PendingDeposit& d = order[static_cast<std::size_t>(i)];
          t.deposit(d.cell, d.amount, me);
        }
      }
      t.merge();
      SCOPED_TRACE(std::string(to_string(mode)) + " x " +
                   std::to_string(threads) + " threads");
      EXPECT_TRUE(t.merged().cells == want.cells);
      EXPECT_EQ(t.merged().checksum(), reference.merged().checksum());
      EXPECT_EQ(t.merged().total(), reference.merged().total());
    }
  }
}

TEST(TallyExactness, MergeStepSplitsDoNotMoveAWord) {
  // Merging every "timestep" folds partial sums: still the same words.
  const std::int64_t cells = 11;
  const std::vector<PendingDeposit> deposits =
      wide_range_deposits(5000, cells);
  EnergyTally once(cells, TallyMode::kPrivatized, 3, kFlushBound);
  EnergyTally stepped(cells, TallyMode::kPrivatizedMergeEveryStep, 3,
                      kFlushBound);
  for (std::size_t i = 0; i < deposits.size(); ++i) {
    const auto slot = static_cast<std::int32_t>(i % 3);
    once.deposit(deposits[i].cell, deposits[i].amount, slot);
    stepped.deposit(deposits[i].cell, deposits[i].amount, slot);
    if (i % 500 == 499) stepped.merge();
  }
  once.merge();
  stepped.merge();
  EXPECT_TRUE(once.merged().cells == stepped.merged().cells);
}

// ---------------------------------------------------------------------------
// Deferred mode specifics (§VI-G)
// ---------------------------------------------------------------------------

TEST(Tally, DeferredDepositsWaitInTheBufferUntilDrain) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 1, kFlushBound);
  const std::uint64_t empty = t.footprint_bytes();
  t.deposit(2, 5.0, 0);
  EXPECT_GT(t.footprint_bytes(), empty);  // buffered, not applied
  t.drain_deferred();
  EXPECT_DOUBLE_EQ(t.merged().value(2), 5.0);
}

TEST(Tally, ReadingADeferredTallyDrainsItsBuffers) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 2, kFlushBound);
  t.deposit(2, 5.0, 0);
  t.deposit(2, 1.0, 1);
  EXPECT_DOUBLE_EQ(t.merged().value(2), 6.0);  // no explicit drain
}

TEST(Tally, DrainIsIdempotent) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 1, kFlushBound);
  t.deposit(1, 3.0, 0);
  t.drain_deferred();
  t.drain_deferred();
  EXPECT_DOUBLE_EQ(t.merged().value(1), 3.0);
}

TEST(Tally, DrainNoOpInOtherModes) {
  EnergyTally t(8, TallyMode::kAtomic, 1, kFlushBound);
  t.deposit(1, 3.0, 0);
  t.drain_deferred();
  EXPECT_DOUBLE_EQ(t.merged().value(1), 3.0);
}

TEST(Tally, MergeDrainsDeferredBuffers) {
  EnergyTally t(8, TallyMode::kDeferredAtomic, 2, kFlushBound);
  t.deposit(0, 1.0, 0);
  t.deposit(0, 2.0, 1);
  t.merge();
  EXPECT_DOUBLE_EQ(t.merged().value(0), 3.0);
}

// ---------------------------------------------------------------------------
// Merge semantics
// ---------------------------------------------------------------------------

TEST(Tally, MergeEachStepOnlyForMergeStepMode) {
  EnergyTally a(4, TallyMode::kAtomic, 2, kFlushBound);
  EnergyTally b(4, TallyMode::kPrivatized, 2, kFlushBound);
  EnergyTally c(4, TallyMode::kPrivatizedMergeEveryStep, 2, kFlushBound);
  EXPECT_FALSE(a.merge_each_step());
  EXPECT_FALSE(b.merge_each_step());
  EXPECT_TRUE(c.merge_each_step());
}

TEST(Tally, TotalIncludesUnmergedPrivateCopies) {
  EnergyTally t(4, TallyMode::kPrivatized, 2, kFlushBound);
  t.deposit(0, 1.5, 0);
  t.deposit(1, 2.5, 1);
  EXPECT_DOUBLE_EQ(t.merged().total(), 4.0);  // no explicit merge()
  t.merge();
  EXPECT_DOUBLE_EQ(t.merged().total(), 4.0);
}

TEST(Tally, RepeatedMergeDoesNotDoubleCount) {
  EnergyTally t(4, TallyMode::kPrivatized, 2, kFlushBound);
  t.deposit(0, 1.0, 0);
  t.deposit(0, 1.0, 1);
  t.merge();
  t.merge();
  EXPECT_DOUBLE_EQ(t.merged().value(0), 2.0);
}

// ---------------------------------------------------------------------------
// Footprint accounting (§VI-F: the 0.3 GB -> 31 GB blow-up)
// ---------------------------------------------------------------------------

TEST(Tally, PrivatizedFootprintScalesWithThreads) {
  const std::int64_t cells = 1 << 12;
  EnergyTally shared(cells, TallyMode::kAtomic, 16, kFlushBound);
  EnergyTally priv(cells, TallyMode::kPrivatized, 16, kFlushBound);
  EXPECT_EQ(shared.footprint_bytes(), cells * sizeof(TallyCell));
  EXPECT_EQ(priv.footprint_bytes(), cells * sizeof(TallyCell) * 17ull);
}

TEST(Tally, FootprintRatioMatchesPaperExample) {
  // §VI-F: 256 threads multiply the tally footprint ~100x (0.3 -> 31 GB).
  const std::int64_t cells = 1 << 10;
  EnergyTally shared(cells, TallyMode::kAtomic, 256, kFlushBound);
  EnergyTally priv(cells, TallyMode::kPrivatized, 256, kFlushBound);
  const double ratio = static_cast<double>(priv.footprint_bytes()) /
                       static_cast<double>(shared.footprint_bytes());
  EXPECT_DOUBLE_EQ(ratio, 257.0);
}

}  // namespace
}  // namespace neutral
