// Microscopic cross-section tables and lookup strategies (paper §IV-D, VI-A).
//
// A table maps continuous particle energy (eV) to a microscopic cross
// section (barns) by locating the enclosing energy bin and linearly
// interpolating.  Real nuclear-data tables hold 10^4..10^5 points per
// nuclide and are a well-known cache bottleneck [Siegel et al. 2014]; the
// synthetic tables here (synthetic.h) reproduce that footprint.
//
// Two bin-search strategies are provided because the paper measures their
// effect (§VI-A: the cached linear search bought 1.3x on csp):
//   * BinarySearch  — stateless O(log n) baseline (std::upper_bound).
//   * CachedLinear  — check the particle's previous bin; when the energy
//     has left it, read a start bin from an O(1) slot table and walk up a
//     few bins to the exact one.  The hint rarely holds: a scatter off
//     A=100 drops the energy by up to 3.9%, i.e. up to ~42 points of the
//     30k-point log grid, so there is no walk from the hint (walking 1-4
//     bins before reading the table measured 3-30% slower per collision).
//     tab_xs_lookup measures 3.9 steps per cached lookup (slot probe plus
//     walk) against 14.9 comparisons for binary search.
//
// The slot table is keyed by the energy's IEEE-754 bit pattern, which is
// monotone in the value for positive doubles:
//   slot = (bits(e) - bits(min_energy)) >> shift
// Each slot stores the bin of the smallest energy it can hold, so a short
// upward walk from there lands on the exact bin — the same bin binary
// search finds, so every interpolated value is bit-identical across the
// strategies.  No log/exp anywhere: `shift` is the smallest that keeps the
// index at most max(8, size()/4) + 1 int32s.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/aligned.h"
#include "util/numeric.h"

namespace neutral {

enum class XsLookup : std::uint8_t {
  kBinarySearch = 0,
  kCachedLinear = 1,
};

const char* to_string(XsLookup mode);

class CrossSectionTable {
 public:
  /// Build from parallel arrays: energies strictly increasing, in eV;
  /// values in barns, non-negative.
  CrossSectionTable(aligned_vector<double> energy_ev,
                    aligned_vector<double> barns);

  [[nodiscard]] std::int32_t size() const {
    return static_cast<std::int32_t>(energy_.size());
  }
  [[nodiscard]] double energy(std::int32_t i) const { return energy_[i]; }
  [[nodiscard]] double value(std::int32_t i) const { return barns_[i]; }
  [[nodiscard]] double min_energy() const { return energy_.front(); }
  [[nodiscard]] double max_energy() const { return energy_.back(); }

  /// `ev` clamped into [min_energy(), max_energy()].
  [[nodiscard]] double clamp_energy(double ev) const {
    return clamp(ev, energy_.front(), energy_.back());
  }

  /// Locate the bin for energy `ev` with the requested strategy, starting
  /// from `cached_index` (in/out; ignored unless CachedLinear).  Result bin
  /// i satisfies energy(i) <= ev < energy(i+1) after clamping `ev` into the
  /// table range.
  [[nodiscard]] std::int32_t find_bin(double ev, XsLookup mode,
                                      std::int32_t& cached_index) const {
    return search(ev, mode, cached_index, nullptr);
  }

  /// Interpolation weight of a clamped energy `e` inside bin `i`.  Tables
  /// on the same energy grid (same_energy_grid) share bin and weight.
  [[nodiscard]] double weight(std::int32_t i, double e) const {
    return (e - energy_[i]) / (energy_[i + 1] - energy_[i]);
  }

  /// Value at weight `t` inside bin `i` (barns).
  [[nodiscard]] double interpolate(std::int32_t i, double t) const {
    return barns_[i] + t * (barns_[i + 1] - barns_[i]);
  }

  /// Linear interpolation of the microscopic cross section at `ev` (barns).
  /// `cached_index` carries the per-particle search hint across calls.
  [[nodiscard]] double microscopic(double ev, XsLookup mode,
                                   std::int32_t& cached_index) const {
    const double e = clamp_energy(ev);
    const std::int32_t i = find_bin(e, mode, cached_index);
    return interpolate(i, weight(i, e));
  }

  /// Convenience overload for code without a cache slot (tests, plots).
  [[nodiscard]] double microscopic(double ev) const {
    std::int32_t idx = 0;
    return microscopic(ev, XsLookup::kBinarySearch, idx);
  }

  /// find_bin that also adds the search steps it took to `steps`: binary
  /// search counts comparisons; the cached search counts nothing on a hint
  /// hit, else one probe of the slot table plus the walk after it.  Runs
  /// the same search as find_bin.  Off the hot path.
  [[nodiscard]] std::int32_t find_bin_counted(double ev, XsLookup mode,
                                              std::int32_t& cached_index,
                                              std::int64_t& steps) const {
    return search(ev, mode, cached_index, &steps);
  }

  /// Entries of the slot table (at most max(8, size()/4) + 1).
  [[nodiscard]] std::size_t slot_count() const { return slot_start_.size(); }

  [[nodiscard]] const double* energies_data() const { return energy_.data(); }
  [[nodiscard]] const double* values_data() const { return barns_.data(); }

 private:
  static std::uint64_t bits(double e) { return std::bit_cast<std::uint64_t>(e); }

  /// The one search both find_bin and find_bin_counted run; `steps` is
  /// null on the hot path.
  [[nodiscard]] std::int32_t search(double ev, XsLookup mode,
                                    std::int32_t& cached_index,
                                    std::int64_t* steps) const;
  [[nodiscard]] std::int32_t find_binary(double ev, std::int64_t* steps) const;
  [[nodiscard]] std::int32_t find_cached(double ev, std::int32_t hint,
                                         std::int64_t* steps) const;
  [[nodiscard]] std::int32_t find_slot(double ev, std::int64_t* steps) const;
  void build_slots();

  aligned_vector<double> energy_;
  aligned_vector<double> barns_;

  // Slot table: slot s covers the bit patterns
  // [min_bits_ + (s << shift_), min_bits_ + ((s + 1) << shift_)) and
  // stores the bin of the smallest energy in it.
  aligned_vector<std::int32_t> slot_start_;
  std::uint64_t min_bits_ = 0;
  unsigned shift_ = 0;
};

/// True when `a` and `b` have element-wise identical energy grids — the
/// condition for one bin and one weight to serve both tables.
[[nodiscard]] bool same_energy_grid(const CrossSectionTable& a,
                                    const CrossSectionTable& b);

inline std::int32_t CrossSectionTable::search(double ev, XsLookup mode,
                                              std::int32_t& cached_index,
                                              std::int64_t* steps) const {
  const std::int32_t i = mode == XsLookup::kBinarySearch
                             ? find_binary(ev, steps)
                             : find_cached(ev, cached_index, steps);
  cached_index = i;
  return i;
}

inline std::int32_t CrossSectionTable::find_binary(double ev,
                                                   std::int64_t* steps) const {
  const auto it = std::upper_bound(energy_.begin(), energy_.end(), ev,
                                   [steps](double a, double b) {
                                     if (steps != nullptr) ++*steps;
                                     return a < b;
                                   });
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;
  return std::clamp(static_cast<std::int32_t>(it - energy_.begin()) - 1, 0,
                    last);
}

inline std::int32_t CrossSectionTable::find_cached(double ev,
                                                   std::int32_t hint,
                                                   std::int64_t* steps) const {
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;
  const std::int32_t i = std::clamp(hint, 0, last);
  const bool below = i > 0 && ev < energy_[i];
  const bool above = i < last && energy_[i + 1] <= ev;
  return below || above ? find_slot(ev, steps) : i;
}

inline std::int32_t CrossSectionTable::find_slot(double ev,
                                                 std::int64_t* steps) const {
  // NaN and anything below the range clamp to the first slot, so the slot
  // index is always in bounds.
  const double e = ev >= energy_.front() ? std::min(ev, energy_.back())
                                         : energy_.front();
  std::int32_t i = slot_start_[(bits(e) - min_bits_) >> shift_];
  if (steps != nullptr) ++*steps;
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;
  while (i < last && energy_[i + 1] <= e) {
    ++i;
    if (steps != nullptr) ++*steps;
  }
  return i;
}

/// Number density [atoms / cm^3] of a material with mass density
/// `rho_g_cm3` and molar mass `molar_mass_g_mol`.
double number_density(double rho_g_cm3, double molar_mass_g_mol);

/// Macroscopic cross section [1/cm] from a microscopic value in barns and a
/// number density in atoms/cm^3 (paper §IV-D2: the density coupling that
/// ties every particle to the mesh).
double macroscopic(double micro_barns, double n_per_cm3);

}  // namespace neutral
