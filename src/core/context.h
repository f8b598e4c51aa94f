// TransportContext: the read-mostly world the kernels execute against.
#pragma once

#include <cstdint>

#include "core/tally.h"
#include "mesh/density_field.h"
#include "mesh/mesh2d.h"
#include "mesh/window.h"
#include "xs/table.h"

namespace neutral {

class PhaseProfiler;

/// Bundles the mesh, fields, nuclear data and run policies.  All pointers
/// are non-owning; the Simulation facade guarantees their lifetimes.
struct TransportContext {
  const StructuredMesh2D* mesh = nullptr;
  const DensityField* density = nullptr;
  const CrossSectionTable* xs_capture = nullptr;
  const CrossSectionTable* xs_scatter = nullptr;
  EnergyTally* tally = nullptr;

  XsLookup lookup = XsLookup::kCachedLinear;

  double molar_mass_g_mol = 1.0;
  double mass_number = 100.0;
  double min_energy_ev = 1.0;
  double min_weight = 1.0e-10;
  /// Russian-roulette survival probability applied at the weight cutoff
  /// (§IV-E variance reduction).  0 disables roulette: the history simply
  /// terminates, depositing its remaining energy (the paper's behaviour).
  double roulette_survival = 0.0;
  std::uint64_t seed = 42;

  /// Optional §VI-A phase profiler (null disables all probes).
  PhaseProfiler* profiler = nullptr;

  /// Mesh window the density/tally storage covers.  Inactive (the default
  /// for hand-built contexts) falls back to mesh->flat_index; Simulation
  /// always sets it — to the full mesh for ordinary runs, to its slab for
  /// domain-decomposed runs.  Cell indices stay global either way.
  DomainWindow window;
  /// Park particles crossing out of `window` as kMigrating instead of
  /// refreshing cell state (domain decomposition only).
  bool migrate = false;
};

}  // namespace neutral
