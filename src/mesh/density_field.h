// Cell-centred mass-density field (paper §IV-B).
//
// The transport kernels read this field once per facet crossing — the
// random-access pattern the paper identifies as the dominant latency
// bottleneck — so the storage is a flat row-major aligned array.
//
// Units: the public API accepts kg/m^3 (the paper quotes densities in
// kg/m^3) and stores g/cm^3 because the cross-section module computes
// number densities in CGS.
#pragma once

#include <cstdint>

#include "mesh/mesh2d.h"
#include "util/aligned.h"

namespace neutral {

/// kg/m^3 -> g/cm^3.
inline constexpr double kKgM3ToGCm3 = 1.0e-3;

class DensityField {
 public:
  /// All cells initialised to `uniform_kg_m3`.
  DensityField(const StructuredMesh2D& mesh, double uniform_kg_m3);

  /// Overwrite every cell.
  void fill(double kg_m3);

  /// Overwrite cells whose *centres* fall inside the axis-aligned rectangle
  /// [x0,x1] x [y0,y1] (coordinates in mesh units).  Used to build the csp
  /// centre square and layered-phantom examples.
  void fill_rect(double x0, double y0, double x1, double y1, double kg_m3);

  /// Density of a flat-indexed cell in g/cm^3 (kernel hot path).
  [[nodiscard]] double g_cm3(std::int64_t flat) const { return rho_[flat]; }

  /// Density in the deck's native unit, for reporting.
  [[nodiscard]] double kg_m3(std::int64_t flat) const {
    return rho_[flat] / kKgM3ToGCm3;
  }

  [[nodiscard]] const double* data() const { return rho_.data(); }
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(rho_.size());
  }
  [[nodiscard]] const StructuredMesh2D& mesh() const { return *mesh_; }

 private:
  const StructuredMesh2D* mesh_;
  aligned_vector<double> rho_;  // g/cm^3
};

}  // namespace neutral
