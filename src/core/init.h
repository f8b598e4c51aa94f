// Particle source initialisation (§IV-F: "random numbers determine the
// initial particle locations and directions within a bounded source
// region").
//
// Each particle's birth state is sampled from its *own* counter-based
// stream, so initialisation is order-independent: it parallelises freely
// and produces identical banks for AoS and SoA layouts.
#pragma once

#include <cmath>
#include <cstdint>

#include "core/deck.h"
#include "core/particle.h"
#include "mesh/mesh2d.h"
#include "rng/stream.h"
#include "util/error.h"
#include "util/numeric.h"

namespace neutral {

/// Sample the complete birth record of particle `gid` — the single source
/// of truth for the draw order (x, y, angle, mfp: 4 draws; the history
/// resumes the stream from counter 4).
inline Particle sample_birth(const ProblemDeck& deck,
                             const StructuredMesh2D& mesh,
                             std::uint64_t gid) {
  rng::ParticleStream stream(deck.seed, gid);
  const double x = stream.next_range(deck.src_x0, deck.src_x1);
  const double y = stream.next_range(deck.src_y0, deck.src_y1);
  const double theta = stream.next_range(0.0, kTwoPi);
  const double mfp = stream.next_exponential();

  Particle p;
  p.x = x;
  p.y = y;
  p.omega_x = std::cos(theta);
  p.omega_y = std::sin(theta);
  p.energy = deck.initial_energy_ev;
  p.weight = deck.initial_weight;
  p.dt_to_census = 0.0;
  p.mfp_to_collision = mfp;
  const CellIndex c = mesh.locate(x, y);
  p.cellx = c.x;
  p.celly = c.y;
  p.xs_index = 0;
  p.state = ParticleState::kCensus;
  p.rng_counter = stream.counter();
  p.id = gid;
  return p;
}

/// Populate `v` with the deck's source: index i becomes particle id i, and
/// every birth draw comes from that id's own counter-based stream, so the
/// bank is identical whatever the thread count or layout.  Particles are
/// born in state kCensus: the driver flips them to kAlive and assigns dt
/// at the start of each timestep.
template <class View>
void initialise_particles(const View& v, const ProblemDeck& deck,
                          const StructuredMesh2D& mesh) {
  NEUTRAL_REQUIRE(static_cast<std::int64_t>(v.size()) <= deck.n_particles,
                  "bank must fit inside deck.n_particles");
  NEUTRAL_REQUIRE(deck.src_x1 >= deck.src_x0 && deck.src_y1 >= deck.src_y0,
                  "source rectangle must be well-formed");
  const auto n = static_cast<std::int64_t>(v.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    write_record(v, static_cast<std::size_t>(i),
                 sample_birth(deck, mesh, static_cast<std::uint64_t>(i)));
  }
}

/// Total weighted energy in the full source bank [eV] — the conserved
/// quantity of a run.
inline double initial_bank_energy(const ProblemDeck& deck) {
  return static_cast<double>(deck.n_particles) * deck.initial_weight *
         deck.initial_energy_ev;
}

}  // namespace neutral
