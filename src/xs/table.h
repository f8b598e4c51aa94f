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
//   * BinarySearch  — stateless O(log n) baseline.
//   * CachedLinear  — walk linearly from the particle's previous index;
//     collisions change energy slowly, so the walk is usually 0-2 steps and
//     stays in the cache lines already resident.  A walk that runs long (a
//     cold hint, a hard down-scatter) reseeds from an O(1) log-uniform
//     bucket -> index acceleration grid.
#pragma once

#include <cstdint>

#include "util/aligned.h"

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

  /// Locate the bin for energy `ev` with the requested strategy, starting
  /// from `cached_index` (in/out; ignored unless CachedLinear).  Result bin
  /// i satisfies energy(i) <= ev < energy(i+1) after clamping `ev` into the
  /// table range.
  [[nodiscard]] std::int32_t find_bin(double ev, XsLookup mode,
                                      std::int32_t& cached_index) const;

  /// Linear interpolation of the microscopic cross section at `ev` (barns).
  /// `cached_index` carries the per-particle search hint across calls.
  [[nodiscard]] double microscopic(double ev, XsLookup mode,
                                   std::int32_t& cached_index) const;

  /// Convenience overload for code without a cache slot (tests, plots).
  [[nodiscard]] double microscopic(double ev) const {
    std::int32_t idx = 0;
    return microscopic(ev, XsLookup::kBinarySearch, idx);
  }

  /// Instrumented find_bin for the lookup benchmark: identical result,
  /// but also accumulates the number of search steps (probes/walk
  /// advances beyond the first) into `steps`.  Off the hot path.
  [[nodiscard]] std::int32_t find_bin_counted(double ev, XsLookup mode,
                                              std::int32_t& cached_index,
                                              std::int64_t& steps) const;

  [[nodiscard]] const double* energies_data() const { return energy_.data(); }
  [[nodiscard]] const double* values_data() const { return barns_.data(); }

 private:
  [[nodiscard]] std::int32_t find_binary(double ev) const;
  [[nodiscard]] std::int32_t find_cached(double ev, std::int32_t hint) const;
  [[nodiscard]] std::int32_t find_bucketed(double ev) const;
  void build_buckets();

  aligned_vector<double> energy_;
  aligned_vector<double> barns_;

  // Log-uniform acceleration grid: bucket b spans
  // [min_e * ratio^b, min_e * ratio^(b+1)) and stores the smallest table
  // index whose bin can contain an energy in that bucket.
  aligned_vector<std::int32_t> bucket_start_;
  double log_min_ = 0.0;
  double inv_log_bucket_width_ = 0.0;
};

/// Number density [atoms / cm^3] of a material with mass density
/// `rho_g_cm3` and molar mass `molar_mass_g_mol`.
double number_density(double rho_g_cm3, double molar_mass_g_mol);

/// Macroscopic cross section [1/cm] from a microscopic value in barns and a
/// number density in atoms/cm^3 (paper §IV-D2: the density coupling that
/// ties every particle to the mesh).
double macroscopic(double micro_barns, double n_per_cm3);

}  // namespace neutral
