#include "rng/threefry.h"

#include "util/error.h"

namespace neutral::rng {
namespace {

// Skein key-schedule parity constant (Threefish specification).
constexpr std::uint64_t kParity = 0x1BD11BDAA9FC1A22ULL;

// Rotation distances for the 2x64 configuration (Salmon et al., Table 2).
constexpr int kRot[8] = {16, 42, 12, 31, 16, 32, 24, 21};

constexpr std::uint64_t rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

}  // namespace

u64x2 threefry2x64_reference(const u64x2& counter, const u64x2& key,
                             int rounds) {
  NEUTRAL_REQUIRE(rounds >= 0 && rounds <= 32,
                  "threefry2x64 supports 0..32 rounds");
  const std::uint64_t ks[3] = {key[0], key[1], kParity ^ key[0] ^ key[1]};
  std::uint64_t x0 = counter[0] + ks[0];
  std::uint64_t x1 = counter[1] + ks[1];
  for (int r = 0; r < rounds; ++r) {
    x0 += x1;
    x1 = rotl64(x1, kRot[r % 8]);
    x1 ^= x0;
    if ((r + 1) % 4 == 0) {
      const std::uint64_t j = static_cast<std::uint64_t>((r + 1) / 4);
      x0 += ks[j % 3];
      x1 += ks[(j + 1) % 3] + j;
    }
  }
  return {x0, x1};
}

u64x2 threefry2x64(const u64x2& counter, const u64x2& key) {
  const std::uint64_t ks0 = key[0];
  const std::uint64_t ks1 = key[1];
  const std::uint64_t ks2 = kParity ^ key[0] ^ key[1];

  std::uint64_t x0 = counter[0] + ks0;
  std::uint64_t x1 = counter[1] + ks1;

  // One macro expansion per mix round keeps the compiler's scheduling window
  // wide open; this is the exact unrolling Random123 performs.
#define NEUTRAL_TF_ROUND(R)          \
  x0 += x1;                          \
  x1 = rotl64(x1, kRot[(R) % 8]);    \
  x1 ^= x0;

  NEUTRAL_TF_ROUND(0) NEUTRAL_TF_ROUND(1) NEUTRAL_TF_ROUND(2) NEUTRAL_TF_ROUND(3)
  x0 += ks1; x1 += ks2 + 1;
  NEUTRAL_TF_ROUND(4) NEUTRAL_TF_ROUND(5) NEUTRAL_TF_ROUND(6) NEUTRAL_TF_ROUND(7)
  x0 += ks2; x1 += ks0 + 2;
  NEUTRAL_TF_ROUND(8) NEUTRAL_TF_ROUND(9) NEUTRAL_TF_ROUND(10) NEUTRAL_TF_ROUND(11)
  x0 += ks0; x1 += ks1 + 3;
  NEUTRAL_TF_ROUND(12) NEUTRAL_TF_ROUND(13) NEUTRAL_TF_ROUND(14) NEUTRAL_TF_ROUND(15)
  x0 += ks1; x1 += ks2 + 4;
  NEUTRAL_TF_ROUND(16) NEUTRAL_TF_ROUND(17) NEUTRAL_TF_ROUND(18) NEUTRAL_TF_ROUND(19)
  x0 += ks2; x1 += ks0 + 5;

#undef NEUTRAL_TF_ROUND

  return {x0, x1};
}

}  // namespace neutral::rng
