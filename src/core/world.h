// The immutable "world" a solve executes against: mesh + density field +
// the material's cross-section tables, bundled so many Simulations can
// share one copy.
//
// Building the world is the expensive, read-only part of Simulation setup
// (a 4000^2 mesh is ~256 MB of edge/density/tally-shaped data); the
// particle bank and tally are the cheap, mutable part.  Splitting them
// lets the batch engine (src/batch) run many jobs against one cached world
// instead of rebuilding identical geometry per job.
//
// The cross-section tables depend only on the deck's SyntheticXsConfig, not
// on its geometry, so a World does not own them: it holds the process-wide
// MaterialXs for its config (xs/material.h), which every world built from
// that config shares.  footprint_bytes() counts only what the world owns;
// WorldCache charges a shared material once.
//
// A World is heap-allocated and pinned: DensityField stores a pointer to
// its mesh, so the struct is neither copyable nor movable and is only
// handed out as std::shared_ptr<const World>.
#pragma once

#include <cstdint>
#include <memory>

#include "core/deck.h"
#include "mesh/density_field.h"
#include "mesh/mesh2d.h"
#include "xs/material.h"

namespace neutral {

struct World {
  explicit World(const ProblemDeck& deck);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  StructuredMesh2D mesh;
  DensityField density;
  /// The deck's material, shared with every world of the same xs config.
  std::shared_ptr<const MaterialXs> xs;

  /// Fingerprint of the deck fields this world was built from (see
  /// world_fingerprint); lets caches detect reuse without keeping the deck.
  std::uint64_t fingerprint = 0;

  /// Estimated resident bytes of the arrays the world owns (mesh edges,
  /// density field), not of the shared material (MaterialXs::
  /// footprint_bytes).  Used by the world cache's byte budget; an
  /// estimate, not an allocator-exact figure.
  [[nodiscard]] std::uint64_t footprint_bytes() const;
};

/// Bound on one tally flush [eV], which sets an EnergyTally's quantum:
/// one source particle's weighted energy w0*E0, or less on a deck too thin
/// to absorb that in a timestep's flight — the track-length heating that
/// flight can score at `capture_rate` (MaterialXs::capture_rate) in the
/// deck's densest material — so near-vacuum decks keep their resolution.
double max_flush_energy(const ProblemDeck& deck, double capture_rate);

/// Build a world on the heap (the only way to obtain one).
std::shared_ptr<const World> build_world(const ProblemDeck& deck);

/// Hash of exactly the deck fields that determine the world: mesh geometry,
/// density description and cross-section table shape.  Run-control fields
/// (particles, seed, timesteps, cutoffs...) do not contribute, so decks that
/// differ only in those share a fingerprint — and can share a World.
std::uint64_t world_fingerprint(const ProblemDeck& deck);

}  // namespace neutral
