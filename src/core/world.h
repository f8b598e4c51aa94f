// The immutable "world" a solve executes against: mesh + density field +
// cross-section tables, bundled so many Simulations can share one copy.
//
// Building the world is the expensive, read-only part of Simulation setup
// (a 4000^2 mesh is ~256 MB of edge/density/tally-shaped data and the
// synthetic XS tables carry resonance construction); the particle bank and
// tally are the cheap, mutable part.  Splitting them lets the batch engine
// (src/batch) run many jobs against one cached world instead of rebuilding
// identical geometry per job.
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
#include "mesh/window.h"
#include "xs/table.h"

namespace neutral {

struct World {
  explicit World(const ProblemDeck& deck);

  /// Slab variant (domain decomposition): the mesh keeps its full,
  /// cheap O(nx+ny) edge arrays — cell indices stay global — but the
  /// density field allocates only the window's cells.  An inactive window
  /// is promoted to the full mesh.
  World(const ProblemDeck& deck, const DomainWindow& window);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  StructuredMesh2D mesh;
  /// The slab the density (and any Simulation built on this world's tally)
  /// covers; DomainWindow::full(mesh) for an unwindowed world.
  DomainWindow window;
  DensityField density;
  CrossSectionTable xs_capture;
  CrossSectionTable xs_scatter;
  /// max_capture_rate(xs_capture), taken once per world.
  double capture_rate = 0.0;

  /// Fingerprint of the deck fields this world was built from (see
  /// world_fingerprint); lets caches detect reuse without keeping the deck.
  std::uint64_t fingerprint = 0;

  /// Estimated resident bytes of the bulk arrays (mesh edges, density
  /// field, XS tables).  Used by the world cache's byte budget; an
  /// estimate, not an allocator-exact figure.
  [[nodiscard]] std::uint64_t footprint_bytes() const;
};

/// Largest E * v(E) * sigma_a(E) over the capture table's knots [eV cm/s
/// barns]: the heating rate per unit weight and number density.
double max_capture_rate(const CrossSectionTable& capture);

/// Bound on one tally flush [eV], which sets an EnergyTally's quantum:
/// one source particle's weighted energy w0*E0, or less on a deck too thin
/// to absorb that in a timestep's flight — the track-length heating that
/// flight can score at `capture_rate` (max_capture_rate) in the deck's
/// densest material — so near-vacuum decks keep their resolution.  Its
/// inputs are the deck and the capture table every subdomain of a
/// decomposed run shares, so all subdomains set one quantum.
double max_flush_energy(const ProblemDeck& deck, double capture_rate);

/// Build a world on the heap (the only way to obtain one).
std::shared_ptr<const World> build_world(const ProblemDeck& deck);

/// Build a domain-slab world; an inactive window builds the full world.
std::shared_ptr<const World> build_world(const ProblemDeck& deck,
                                         const DomainWindow& window);

/// Hash of exactly the deck fields that determine the world: mesh geometry,
/// density description and cross-section table shape.  Run-control fields
/// (particles, seed, timesteps, cutoffs...) do not contribute, so decks that
/// differ only in those share a fingerprint — and can share a World.
std::uint64_t world_fingerprint(const ProblemDeck& deck);

/// Fingerprint of a windowed (domain-slab) world: world_fingerprint when
/// the window covers the whole mesh, otherwise mixed with the window
/// coordinates so slab worlds never collide with the full world or with
/// each other in caches.
std::uint64_t domain_world_fingerprint(const ProblemDeck& deck,
                                       const DomainWindow& window);

}  // namespace neutral
