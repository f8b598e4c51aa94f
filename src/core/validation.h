// Conservation validation (§IV-C: reflective boundaries "make it
// straightforward to track the conservation of the particle population").
//
// Two invariants hold exactly (up to floating-point reassociation):
//
//   1. Energy: initial bank energy == released energy + in-flight energy.
//      `released` accumulates every weighted deposit the collision/death
//      handlers make; `in-flight` is the weighted energy of the survivors.
//   2. Tally consistency: the mesh tally total equals released energy plus
//      the track-length heating estimator — everything flushed, nothing
//      lost or double-counted.
//
// Population is also conserved: censuses + deaths == particle count, since
// reflective boundaries admit no leakage.
#pragma once

#include <cstdint>

#include "core/counters.h"
#include "core/particle.h"
#include "util/numeric.h"

namespace neutral {

struct EnergyBudget {
  double initial = 0.0;       ///< bank energy at t=0 [eV]
  double released = 0.0;      ///< deposited by collisions/terminations [eV]
  double in_flight = 0.0;     ///< weighted energy of surviving particles [eV]
  double tally_total = 0.0;   ///< sum over the tally mesh [eV]
  double path_heating = 0.0;  ///< track-length estimator total [eV]
  /// Russian-roulette bookkeeping: boosts add energy, kills remove it
  /// (equal in expectation; both zero with roulette disabled).
  double roulette_gained = 0.0;
  double roulette_killed = 0.0;

  /// Relative error of invariant 1 (extended for roulette):
  /// initial + gained - killed == released + in_flight, exactly.
  [[nodiscard]] double conservation_error() const {
    if (initial == 0.0) return 0.0;
    return std::fabs(initial + roulette_gained - roulette_killed - released -
                     in_flight) /
           initial;
  }

  /// Relative error of invariant 2.
  [[nodiscard]] double tally_consistency_error() const {
    const double expect = released + path_heating;
    const double scale = std::fmax(std::fabs(expect), std::fabs(tally_total));
    if (scale == 0.0) return 0.0;
    return std::fabs(tally_total - expect) / scale;
  }

  /// Both invariants within `tol` (relative).
  [[nodiscard]] bool conserved(double tol = 1.0e-9) const {
    return conservation_error() <= tol && tally_consistency_error() <= tol;
  }
};

/// Weighted in-flight energy of all non-dead particles.
template <class View>
double in_flight_energy(const View& v) {
  KahanSum sum;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v.state(i) != ParticleState::kDead) {
      sum.add(v.weight(i) * v.energy(i));
    }
  }
  return sum.value();
}

/// Number of non-dead particles.
template <class View>
std::int64_t population(const View& v) {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v.state(i) != ParticleState::kDead) ++n;
  }
  return n;
}

/// Weight of cell `i` in the positional checksum: the index's splitmix64
/// hash mapped to [0.5, 1.5) — never zero, so every cell contributes;
/// position-dependent, so swaps change the sum.
inline double positional_weight(std::int64_t i) {
  auto z = static_cast<std::uint64_t>(i) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return 0.5 + static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
}

/// Positional checksum of a field of `n` cells read through `value(i)`:
/// catches deposits landing in the wrong cells even when the total
/// matches.
template <class CellValue>
double positional_checksum(std::int64_t n, const CellValue& value) {
  KahanSum sum;
  for (std::int64_t i = 0; i < n; ++i) {
    sum.add(value(i) * positional_weight(i));
  }
  return sum.value();
}

}  // namespace neutral
