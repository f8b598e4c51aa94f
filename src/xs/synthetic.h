// Synthetic microscopic cross-section data (paper §IV-D).
//
// The mini-app ships "two dummy data tables that mimic the capture and
// scatter cross sections for a single material".  These generators produce
// deterministic tables with the qualitative structure of real neutron data:
//
//   * capture: 1/v behaviour at thermal energies plus a resonance region of
//     Lorentzian peaks between ~1 eV and ~10 keV;
//   * elastic scatter: a broad, slowly varying potential-scattering level
//     with shallower resonances.
//
// Sizes default to 30k points per table (~0.5 MB each) to be representative
// of the nuclear-data footprint the paper calls out as a known bottleneck.
// A solve reads both tables through one MaterialXs (material.h), which
// builds them on one grid, once per process per config.
#pragma once

#include <cstdint>

#include "xs/table.h"

namespace neutral {

struct SyntheticXsConfig {
  std::int32_t points = 30000;     ///< table entries
  double min_energy_ev = 1.0e-5;   ///< thermal floor
  double max_energy_ev = 2.0e7;    ///< 20 MeV ceiling
  std::int32_t resonances = 120;   ///< Lorentzian peaks in the resonance region
  std::uint64_t seed = 1234;       ///< placement of the resonances
};

/// The log-spaced energy grid [eV] every table of `cfg` is built on.
aligned_vector<double> synthetic_energy_grid(const SyntheticXsConfig& cfg);

/// Capture (absorption) cross section table on `grid`, which must be
/// synthetic_energy_grid(cfg).
CrossSectionTable make_capture_table(const SyntheticXsConfig& cfg,
                                     aligned_vector<double> grid);

/// Elastic-scattering cross section table on `grid`, which must be
/// synthetic_energy_grid(cfg).
CrossSectionTable make_scatter_table(const SyntheticXsConfig& cfg,
                                     aligned_vector<double> grid);

/// Capture (absorption) cross section table.
CrossSectionTable make_capture_table(const SyntheticXsConfig& cfg = {});

/// Elastic-scattering cross section table.
CrossSectionTable make_scatter_table(const SyntheticXsConfig& cfg = {});

}  // namespace neutral
