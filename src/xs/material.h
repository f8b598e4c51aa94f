// One material's cross-section data, built once per process and shared.
//
// The paper's mini-app carries "two dummy data tables that mimic the
// capture and scatter cross sections for a single material" (§IV-D), sized
// like real nuclear data: ~1 MB for the default 30 000-point pair.  The
// tables depend only on the deck's SyntheticXsConfig, never on its
// geometry, so every World built from decks with one config reads the same
// immutable MaterialXs instead of carrying its own copy.
//
// shared_material_xs interns materials by every field of the config.  The
// registry holds only weak references: a material lives exactly as long as
// some world (or other holder) uses it, and the next request after the last
// holder lets go builds it afresh, bit for bit the same.
#pragma once

#include <cstdint>
#include <memory>

#include "xs/synthetic.h"
#include "xs/table.h"

namespace neutral {

struct MaterialXs {
  /// Build both tables on one energy grid, computed once.
  explicit MaterialXs(const SyntheticXsConfig& cfg);

  /// Capture and scatter tables on one grid, knot for knot
  /// (same_energy_grid), so one bin search and one weight serve both
  /// (refresh_cross_sections).
  const CrossSectionTable capture;
  const CrossSectionTable scatter;
  /// Largest E * v(E) * sigma_a(E) over the capture table's knots [eV cm/s
  /// barns]: the heating rate per unit weight and number density.
  const double capture_rate;

  /// Bytes of the material's arrays: per table the energy and value arrays
  /// and the slot index (slot_count() int32s), plus the struct itself.
  [[nodiscard]] std::uint64_t footprint_bytes() const;

 private:
  MaterialXs(const SyntheticXsConfig& cfg, aligned_vector<double> grid);
};

/// The live material for `cfg`, or a new one built from it.  Safe to call
/// from any thread; two callers with one config get one object, built
/// once, and materials of different configs build in parallel.
std::shared_ptr<const MaterialXs> shared_material_xs(
    const SyntheticXsConfig& cfg);

}  // namespace neutral
