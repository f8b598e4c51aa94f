// Facet intersection and reflective boundaries (paper §IV-C).
//
// The structured grid lets facet checking collapse to two axis-aligned
// distance computations in Cartesian space.  These helpers are header-only:
// they sit on the hottest path in the whole mini-app (~3 ns per facet event
// on the paper's Broadwell) and must inline into both the native kernels
// and the machine-model simulator's lane functors.
//
// Robustness note: the *cell index* is the source of truth for which cell a
// particle occupies, never its floating-point position.  Every facet event
// advances the index by exactly one cell, so round-off in the position can
// never produce an infinite loop of zero-length steps.
#pragma once

#include <cstdint>

#include "mesh/mesh2d.h"
#include "util/numeric.h"

namespace neutral {

/// Outcome of the nearest-facet search for one particle.
struct FacetIntersection {
  double distance = kInf;  ///< flight distance to the facet (>= 0)
  std::int8_t axis = 0;    ///< 0: vertical facet (x), 1: horizontal (y)
  std::int8_t step = 0;    ///< -1 or +1: cell-index delta along `axis`
  bool at_boundary = false;  ///< facet lies on the domain boundary
};

/// Distance along the flight direction to the nearest facet of cell `c`.
///
/// Direction components may be zero (motion parallel to an axis); the
/// corresponding facet is then unreachable and reported as infinity.
inline FacetIntersection nearest_facet(const StructuredMesh2D& mesh, double x,
                                       double y, double omega_x, double omega_y,
                                       CellIndex c) {
  // Distance to the vertical facet in the direction of travel.
  double dist_x = kInf;
  std::int8_t step_x = 0;
  if (omega_x > 0.0) {
    dist_x = (mesh.edge_x(c.x + 1) - x) / omega_x;
    step_x = 1;
  } else if (omega_x < 0.0) {
    dist_x = (mesh.edge_x(c.x) - x) / omega_x;
    step_x = -1;
  }

  double dist_y = kInf;
  std::int8_t step_y = 0;
  if (omega_y > 0.0) {
    dist_y = (mesh.edge_y(c.y + 1) - y) / omega_y;
    step_y = 1;
  } else if (omega_y < 0.0) {
    dist_y = (mesh.edge_y(c.y) - y) / omega_y;
    step_y = -1;
  }

  FacetIntersection out;
  if (dist_x <= dist_y) {
    out.distance = dist_x;
    out.axis = 0;
    out.step = step_x;
    out.at_boundary = (step_x > 0 && c.x + 1 == mesh.nx()) ||
                      (step_x < 0 && c.x == 0);
  } else {
    out.distance = dist_y;
    out.axis = 1;
    out.step = step_y;
    out.at_boundary = (step_y > 0 && c.y + 1 == mesh.ny()) ||
                      (step_y < 0 && c.y == 0);
  }
  // Round-off can yield a marginally negative distance when the position
  // sits a ULP past the facet it just crossed; clamp — the index update
  // below still advances the particle through the mesh.
  if (out.distance < 0.0) out.distance = 0.0;
  return out;
}

/// Apply a facet crossing to the cell index / direction.
///
/// Interior facet: the index steps into the neighbour cell.  Boundary
/// facet: reflective boundary conditions (§IV-C) flip the direction
/// component normal to the facet and the index stays put.  Returns true if
/// the particle was reflected.
inline bool apply_facet_crossing(const FacetIntersection& f, CellIndex& c,
                                 double& omega_x, double& omega_y) {
  if (f.at_boundary) {
    if (f.axis == 0) {
      omega_x = -omega_x;
    } else {
      omega_y = -omega_y;
    }
    return true;
  }
  if (f.axis == 0) {
    c.x += f.step;
  } else {
    c.y += f.step;
  }
  return false;
}

}  // namespace neutral
