// Threefry2x64 counter-based random number generator (CBRNG).
//
// Re-implementation of the Threefry generator from Salmon et al., "Parallel
// random numbers: as easy as 1, 2, 3" (SC'11) — the generator the paper
// selects via Random123 (§IV-F).  Threefry is the Threefish block cipher
// with the tweak removed and the number of rounds reduced to 20, which
// passes BigCrush while costing a handful of ALU ops per 128 random bits.
//
// Being counter-based makes it stateless: the caller owns a (key, counter)
// pair and the generator is a pure function `block = threefry(key, counter)`.
// neutral keys each particle's stream with (master seed, particle id), so
// particle histories are reproducible regardless of scheduling, thread
// count, or parallelisation scheme — the property the cross-scheme
// equivalence tests rely on.
//
// Two implementations are provided:
//   * threefry2x64(...)           — unrolled production path.
//   * threefry2x64_reference(...) — straightforward loop used by tests to
//     cross-validate the unrolled code round for round.
#pragma once

#include <array>
#include <cstdint>

namespace neutral::rng {

/// 128-bit counter / key / output block for the 2x64 configuration.
using u64x2 = std::array<std::uint64_t, 2>;

/// Number of mix rounds; 20 is the Random123 default with a large safety
/// margin over the 13-round Crush-resistant minimum.
inline constexpr int kThreefryRounds = 20;

/// Production (fully unrolled) Threefry2x64-20.
u64x2 threefry2x64(const u64x2& counter, const u64x2& key);

/// Reference implementation: identical mathematics written as a plain
/// round-loop.  Exists so that tests can detect transcription slips in the
/// unrolled version; also accepts a round-count override for diffusion
/// experiments.
u64x2 threefry2x64_reference(const u64x2& counter, const u64x2& key,
                             int rounds = kThreefryRounds);

}  // namespace neutral::rng
