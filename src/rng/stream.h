// Per-particle random streams on top of the counter-based generators.
//
// neutral stores a (key, counter) pair per particle (§IV-F): the key is
// (master seed, particle id) and the counter advances once per draw.  A
// stream is therefore 16 bytes of state, cheap to carry in the particle
// record, and two particles' streams never collide.  Because draws depend
// only on (key, counter), the Over Particles and Over Events schemes consume
// *identical* random sequences for the same particle — the basis of the
// cross-scheme equivalence tests — and the stream can be persisted into the
// particle record and resumed at any point with no hidden state.
#pragma once

#include <cmath>
#include <cstdint>

#include "rng/threefry.h"

namespace neutral::rng {

/// Convert 64 random bits to a double uniform on [0, 1).
/// Uses the top 53 bits so every representable value is equally likely.
constexpr double u01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Convert to a double on (0, 1] — safe as a log() argument.
constexpr double u01_open_below(std::uint64_t bits) {
  return 1.0 - u01(bits);
}

/// Derive an independent master seed for a job's RNG substream.
///
/// A batch of jobs expanded from one base seed must each behave exactly as
/// if run alone: particle i of job j draws from the stream keyed
/// (derive_stream_seed(base, j), i), so the substream depends only on
/// (base seed, job id) — never on worker count, queue order or batch
/// composition.  One Threefry block keyed by the base seed gives full
/// 64-bit avalanche between consecutive job ids, unlike base+id arithmetic
/// which would make job j's particle streams collide with job j+1's.
constexpr std::uint64_t kStreamDeriveDomain = 0x62617463685f6964ull;  // "batch_id"

inline std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                        std::uint64_t stream_id) {
  return threefry2x64({stream_id, kStreamDeriveDomain},
                      {base_seed, kStreamDeriveDomain})[0];
}

/// A resumable, counted stream of uniforms for one particle.
///
/// One draw consumes one counter value (the second word of each Threefry
/// block is deliberately unused): save/restore of the bare counter at *any*
/// point reproduces the remainder of the sequence exactly, which the Over
/// Events scheme relies on when it re-gathers particle state every kernel.
class ParticleStream {
 public:
  ParticleStream() = default;

  /// Key the stream with (master seed, particle id).
  ParticleStream(std::uint64_t seed, std::uint64_t particle_id)
      : key_{seed, particle_id} {}

  /// Resume a stream mid-history from a persisted counter.
  ParticleStream(std::uint64_t seed, std::uint64_t particle_id,
                 std::uint64_t counter)
      : key_{seed, particle_id}, counter_(counter) {}

  /// Next uniform double on [0, 1).
  double next() {
    const u64x2 block = threefry2x64({counter_++, 0}, key_);
    return u01(block[0]);
  }

  /// Exponentially distributed deviate with unit mean: the number of mean
  /// free paths to the next collision (§V pseudo-code).
  double next_exponential() {
    const u64x2 block = threefry2x64({counter_++, 0}, key_);
    return -std::log(u01_open_below(block[0]));
  }

  /// Uniform on [lo, hi).
  double next_range(double lo, double hi) { return lo + (hi - lo) * next(); }

  /// Counter state for persistence into the particle record.
  [[nodiscard]] std::uint64_t counter() const { return counter_; }

  /// Total uniforms drawn so far on this stream (== counter: 1 draw/block).
  [[nodiscard]] std::uint64_t draws() const { return counter_; }

  [[nodiscard]] std::uint64_t seed() const { return key_[0]; }
  [[nodiscard]] std::uint64_t particle_id() const { return key_[1]; }

 private:
  u64x2 key_{0, 0};
  std::uint64_t counter_ = 0;
};

/// Bulk stream for initialisation-time sampling (source positions etc.):
/// uses both words of each block for full throughput.  Not resumable at
/// draw granularity — only used where the whole sequence is drawn at once.
class BulkStream {
 public:
  BulkStream(std::uint64_t seed, std::uint64_t stream_id)
      : key_{seed, stream_id} {}

  double next() {
    if (have_spare_) {
      have_spare_ = false;
      return u01(spare_);
    }
    const u64x2 block = threefry2x64({counter_++, 1}, key_);
    spare_ = block[1];
    have_spare_ = true;
    return u01(block[0]);
  }

 private:
  u64x2 key_;
  std::uint64_t counter_ = 0;
  std::uint64_t spare_ = 0;
  bool have_spare_ = false;
};

}  // namespace neutral::rng
