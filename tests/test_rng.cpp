// Tests for the counter-based RNG substrate (rng/).
//
// The paper's reproducibility story (§IV-F) rests on this module: streams
// keyed per particle must be deterministic, independent, resumable, and
// statistically sound.  The unrolled production kernels are cross-validated
// against straightforward loop-form references.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "rng/stream.h"
#include "rng/threefry.h"

namespace neutral::rng {
namespace {

// ---------------------------------------------------------------------------
// Threefry
// ---------------------------------------------------------------------------

TEST(Threefry, UnrolledMatchesReferenceOnZeroInput) {
  const u64x2 zero{0, 0};
  EXPECT_EQ(threefry2x64(zero, zero), threefry2x64_reference(zero, zero));
}

TEST(Threefry, UnrolledMatchesReferenceOnAllOnes) {
  const u64x2 ones{~0ull, ~0ull};
  EXPECT_EQ(threefry2x64(ones, ones), threefry2x64_reference(ones, ones));
}

// Property sweep: the unrolled kernel must agree with the loop-form
// reference on a structured grid of counters and keys.
class ThreefryAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreefryAgreement, UnrolledMatchesReference) {
  const std::uint64_t base = GetParam();
  for (std::uint64_t c = 0; c < 8; ++c) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      const u64x2 counter{base + c * 0x9E3779B97F4A7C15ULL, base ^ (c << 32)};
      const u64x2 key{base * 31 + k, ~base + k};
      EXPECT_EQ(threefry2x64(counter, key),
                threefry2x64_reference(counter, key))
          << "base=" << base << " c=" << c << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ThreefryAgreement,
                         ::testing::Values(0ull, 1ull, 2ull, 3ull, 0xFFull,
                                           0xFFFFull, 0xFFFFFFFFull,
                                           0x123456789ABCDEFull,
                                           0x8000000000000000ull,
                                           0xDEADBEEFCAFEBABEull));

TEST(Threefry, IsDeterministic) {
  const u64x2 counter{42, 43};
  const u64x2 key{7, 8};
  EXPECT_EQ(threefry2x64(counter, key), threefry2x64(counter, key));
}

TEST(Threefry, CounterChangeChangesOutput) {
  const u64x2 key{1234, 5678};
  const auto a = threefry2x64({0, 0}, key);
  const auto b = threefry2x64({1, 0}, key);
  EXPECT_NE(a, b);
}

TEST(Threefry, KeyChangeChangesOutput) {
  const u64x2 counter{0, 0};
  EXPECT_NE(threefry2x64(counter, {1, 0}), threefry2x64(counter, {2, 0}));
}

TEST(Threefry, AvalancheSingleBitFlipsFlipHalfTheOutput) {
  // Crypto-strength diffusion: flipping one input bit should flip ~32 of
  // the 64 output bits on average.  Allow a generous band.
  const u64x2 key{0xABCDEF, 0x123456};
  double total_flips = 0.0;
  int cases = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const u64x2 c0{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
    u64x2 c1 = c0;
    c1[0] ^= (1ull << bit);
    const auto r0 = threefry2x64(c0, key);
    const auto r1 = threefry2x64(c1, key);
    total_flips += __builtin_popcountll(r0[0] ^ r1[0]);
    ++cases;
  }
  const double mean_flips = total_flips / cases;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(Threefry, ReducedRoundsDiverge) {
  // Sanity on the round-count override: fewer rounds give different output.
  const u64x2 counter{5, 6};
  const u64x2 key{7, 8};
  EXPECT_NE(threefry2x64_reference(counter, key, 13),
            threefry2x64_reference(counter, key, 20));
}

TEST(Threefry, RejectsBadRoundCounts) {
  EXPECT_THROW(threefry2x64_reference({0, 0}, {0, 0}, -1), std::exception);
  EXPECT_THROW(threefry2x64_reference({0, 0}, {0, 0}, 33), std::exception);
}

// ---------------------------------------------------------------------------
// u01 conversion
// ---------------------------------------------------------------------------

TEST(U01, RangeBoundaries) {
  EXPECT_DOUBLE_EQ(u01(0), 0.0);
  EXPECT_LT(u01(~0ull), 1.0);
  EXPECT_GT(u01(~0ull), 0.999999999);
}

TEST(U01, OpenBelowNeverZero) {
  EXPECT_GT(u01_open_below(~0ull), 0.0);
  EXPECT_DOUBLE_EQ(u01_open_below(0), 1.0);
}

TEST(U01, Monotone) {
  EXPECT_LT(u01(1ull << 11), u01(2ull << 11));
}

// ---------------------------------------------------------------------------
// ParticleStream
// ---------------------------------------------------------------------------

TEST(ParticleStream, DeterministicPerKey) {
  ParticleStream a(123, 456);
  ParticleStream b(123, 456);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.next(), b.next());
}

TEST(ParticleStream, DistinctParticlesDiffer) {
  ParticleStream a(123, 1);
  ParticleStream b(123, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(ParticleStream, DistinctSeedsDiffer) {
  ParticleStream a(1, 42);
  ParticleStream b(2, 42);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(ParticleStream, ResumeFromCounterReproducesTail) {
  ParticleStream full(99, 7);
  std::vector<double> head(10), tail(10);
  for (auto& v : head) v = full.next();
  const std::uint64_t mark = full.counter();
  for (auto& v : tail) v = full.next();

  ParticleStream resumed(99, 7, mark);
  for (double expected : tail) EXPECT_DOUBLE_EQ(resumed.next(), expected);
}

TEST(ParticleStream, ResumeMidHistoryAtAnyPoint) {
  // One draw = one counter tick: save/restore is valid at every draw.
  for (int cut = 0; cut < 16; ++cut) {
    ParticleStream a(5, 11);
    for (int i = 0; i < cut; ++i) a.next();
    ParticleStream b(5, 11, a.counter());
    EXPECT_DOUBLE_EQ(a.next(), b.next()) << "cut=" << cut;
  }
}

TEST(ParticleStream, DrawsCountsUniforms) {
  ParticleStream s(1, 1);
  EXPECT_EQ(s.draws(), 0u);
  s.next();
  s.next_exponential();
  s.next_range(2.0, 3.0);
  EXPECT_EQ(s.draws(), 3u);
}

TEST(ParticleStream, RangeRespectsBounds) {
  ParticleStream s(77, 88);
  for (int i = 0; i < 1000; ++i) {
    const double v = s.next_range(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(ParticleStream, ExponentialIsPositive) {
  ParticleStream s(3, 4);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(s.next_exponential(), 0.0);
}

// ---------------------------------------------------------------------------
// Statistical sanity (fixed seeds: deterministic tests, generous bands)
// ---------------------------------------------------------------------------

TEST(Statistics, UniformMeanAndVariance) {
  ParticleStream s(2024, 1);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = s.next();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(Statistics, UniformChiSquare16Bins) {
  ParticleStream s(31337, 9);
  const int n = 160000;
  const int bins = 16;
  std::array<int, 16> counts{};
  for (int i = 0; i < n; ++i) {
    auto b = static_cast<int>(s.next() * bins);
    if (b == bins) b = bins - 1;
    counts[static_cast<std::size_t>(b)]++;
  }
  const double expected = static_cast<double>(n) / bins;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // 15 dof: 99.9th percentile is ~37.7.
  EXPECT_LT(chi2, 37.7);
}

TEST(Statistics, ExponentialMeanIsOne) {
  ParticleStream s(555, 666);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += s.next_exponential();
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(Statistics, LagOneAutocorrelationNegligible) {
  ParticleStream s(8080, 1);
  const int n = 100000;
  double prev = s.next();
  double sum_xy = 0.0, sum_x = 0.0, sum_x2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double cur = s.next();
    sum_xy += prev * cur;
    sum_x += prev;
    sum_x2 += prev * prev;
    prev = cur;
  }
  const double mean = sum_x / n;
  const double var = sum_x2 / n - mean * mean;
  const double cov = sum_xy / n - mean * mean;
  EXPECT_LT(std::fabs(cov / var), 0.02);
}

TEST(Statistics, CrossStreamCorrelationNegligible) {
  // Adjacent particle ids must be statistically independent.
  ParticleStream a(424242, 100);
  ParticleStream b(424242, 101);
  const int n = 100000;
  double sum_xy = 0.0, sum_x = 0.0, sum_y = 0.0, sum_x2 = 0.0, sum_y2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = a.next();
    const double y = b.next();
    sum_xy += x * y;
    sum_x += x;
    sum_y += y;
    sum_x2 += x * x;
    sum_y2 += y * y;
  }
  const double mx = sum_x / n, my = sum_y / n;
  const double cov = sum_xy / n - mx * my;
  const double sx = std::sqrt(sum_x2 / n - mx * mx);
  const double sy = std::sqrt(sum_y2 / n - my * my);
  EXPECT_LT(std::fabs(cov / (sx * sy)), 0.02);
}

TEST(BulkStream, DeterministicAndDistinctFromParticleStream) {
  BulkStream a(9, 9);
  BulkStream b(9, 9);
  ParticleStream p(9, 9);
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    const double va = a.next();
    EXPECT_DOUBLE_EQ(va, b.next());
    if (va != p.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);  // separate sub-stream domain
}

TEST(BulkStream, UniformRange) {
  BulkStream s(1, 2);
  for (int i = 0; i < 2000; ++i) {
    const double v = s.next();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace neutral::rng
