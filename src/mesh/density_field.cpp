#include "mesh/density_field.h"

#include "util/error.h"

namespace neutral {

DensityField::DensityField(const StructuredMesh2D& mesh, double uniform_kg_m3)
    : mesh_(&mesh) {
  NEUTRAL_REQUIRE(uniform_kg_m3 >= 0.0, "density must be non-negative");
  rho_.assign(static_cast<std::size_t>(mesh.num_cells()),
              uniform_kg_m3 * kKgM3ToGCm3);
}

void DensityField::fill(double kg_m3) {
  NEUTRAL_REQUIRE(kg_m3 >= 0.0, "density must be non-negative");
  std::fill(rho_.begin(), rho_.end(), kg_m3 * kKgM3ToGCm3);
}

void DensityField::fill_rect(double x0, double y0, double x1, double y1,
                             double kg_m3) {
  NEUTRAL_REQUIRE(kg_m3 >= 0.0, "density must be non-negative");
  NEUTRAL_REQUIRE(x0 <= x1 && y0 <= y1, "rectangle must be well-formed");
  const auto& m = *mesh_;
  for (std::int32_t j = 0; j < m.ny(); ++j) {
    const double cy = m.centre_y(j);
    if (cy < y0 || cy > y1) continue;
    for (std::int32_t i = 0; i < m.nx(); ++i) {
      const double cx = m.centre_x(i);
      if (cx < x0 || cx > x1) continue;
      rho_[m.flat_index({i, j})] = kg_m3 * kKgM3ToGCm3;
    }
  }
}

}  // namespace neutral
