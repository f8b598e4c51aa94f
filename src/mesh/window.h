// Domain windows: rectangular cell-index slabs of a StructuredMesh2D.
//
// Domain (spatial) decomposition splits the O(nx*ny) mesh-resident state —
// the tally and the density field, the memory floor of the mini-app — while
// the O(nx+ny) edge-coordinate arrays stay replicated on every subdomain.
// Cell indices therefore remain GLOBAL everywhere: a window never changes
// the facet-distance arithmetic or the boundary tests (they read edge
// coordinates and the full mesh extents), it only remaps *storage*, so a
// windowed transport replays bit-identical particle histories and differs
// from the undecomposed run only in which slab its deposits land on.
#pragma once

#include <cstdint>

#include "mesh/mesh2d.h"

namespace neutral {

/// Half-open cell-index window [x0, x0+nx) x [y0, y0+ny).  A
/// default-constructed window (nx == ny == 0) is inactive and means "the
/// full mesh" wherever a window is optional (SimulationConfig::window).
struct DomainWindow {
  std::int32_t x0 = 0;
  std::int32_t y0 = 0;
  std::int32_t nx = 0;
  std::int32_t ny = 0;

  friend bool operator==(const DomainWindow&, const DomainWindow&) = default;

  [[nodiscard]] bool active() const { return nx > 0 && ny > 0; }

  [[nodiscard]] std::int64_t num_cells() const {
    return static_cast<std::int64_t>(nx) * ny;
  }

  [[nodiscard]] bool contains(CellIndex c) const {
    return c.x >= x0 && c.x < x0 + nx && c.y >= y0 && c.y < y0 + ny;
  }

  /// Row-major index into the window's slab storage.  Only valid when
  /// contains(c); for the full-mesh window this is exactly
  /// StructuredMesh2D::flat_index.
  [[nodiscard]] std::int64_t local_flat(CellIndex c) const {
    return static_cast<std::int64_t>(c.y - y0) * nx + (c.x - x0);
  }

  /// Does this window fit inside `mesh`?
  [[nodiscard]] bool within(const StructuredMesh2D& mesh) const {
    return x0 >= 0 && y0 >= 0 && nx >= 1 && ny >= 1 &&
           x0 + nx <= mesh.nx() && y0 + ny <= mesh.ny();
  }

  /// Is this window exactly the whole of `mesh`?
  [[nodiscard]] bool covers(const StructuredMesh2D& mesh) const {
    return x0 == 0 && y0 == 0 && nx == mesh.nx() && ny == mesh.ny();
  }

  /// The window covering all of `mesh`.
  static DomainWindow full(const StructuredMesh2D& mesh) {
    return DomainWindow{0, 0, mesh.nx(), mesh.ny()};
  }
};

}  // namespace neutral
