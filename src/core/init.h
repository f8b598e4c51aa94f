// Particle source initialisation (§IV-F: "random numbers determine the
// initial particle locations and directions within a bounded source
// region").
//
// Each particle's birth state is sampled from its *own* counter-based
// stream, so initialisation is order-independent: it parallelises freely
// and produces identical banks for AoS and SoA layouts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/deck.h"
#include "core/particle.h"
#include "mesh/mesh2d.h"
#include "rng/stream.h"
#include "util/error.h"
#include "util/numeric.h"

namespace neutral {

/// Sample the complete birth record of particle `gid` — the single source
/// of truth for the draw order (x, y, angle, mfp: 4 draws; the history
/// resumes the stream from counter 4).  Both the bank initialiser below
/// and the domain-decomposition window scans (core/simulation.cpp,
/// batch/domain.cpp) use this, so a particle's birth state is one value no
/// matter which bank it lands in.
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

/// Deterministically distribute every birth in the deck among `n_banks`
/// banks (domain decomposition): sample each id with sample_birth and hand
/// the record to the bank `owner_of(particle)` names; an owner index >=
/// n_banks discards it (a window filter).  The scan is chunked across
/// parallel workers, and THE INVARIANT THE BIT-IDENTITY GUARANTEE RESTS ON
/// lives here, in one place: chunks are contiguous id ranges concatenated
/// in chunk order, so every bank is in id order for any chunk count.  The
/// chunk count comes from the hardware, not omp_get_max_threads() —
/// Simulation constructors pin the calling thread's OpenMP ICV to the
/// transport width (often 1), which must not serialise later scans.
template <class OwnerFn>
std::vector<std::vector<Particle>> route_births(const ProblemDeck& deck,
                                                const StructuredMesh2D& mesh,
                                                std::size_t n_banks,
                                                OwnerFn owner_of) {
  const std::int32_t chunks = std::max(
      1, static_cast<std::int32_t>(std::thread::hardware_concurrency()));
  const std::int64_t n = deck.n_particles;
  std::vector<std::vector<std::vector<Particle>>> local(
      static_cast<std::size_t>(chunks),
      std::vector<std::vector<Particle>>(n_banks));
#pragma omp parallel for schedule(static) num_threads(chunks)
  for (std::int32_t chunk = 0; chunk < chunks; ++chunk) {
    auto& mine = local[static_cast<std::size_t>(chunk)];
    const std::int64_t begin = n * chunk / chunks;
    const std::int64_t end = n * (chunk + 1) / chunks;
    for (std::int64_t gid = begin; gid < end; ++gid) {
      const Particle p =
          sample_birth(deck, mesh, static_cast<std::uint64_t>(gid));
      const std::size_t owner = owner_of(p);
      if (owner < n_banks) mine[owner].push_back(p);
    }
  }
  std::vector<std::vector<Particle>> banks(n_banks);
  for (std::size_t d = 0; d < n_banks; ++d) {
    std::size_t total = 0;
    for (std::int32_t chunk = 0; chunk < chunks; ++chunk) {
      total += local[static_cast<std::size_t>(chunk)][d].size();
    }
    banks[d].reserve(total);
    for (std::int32_t chunk = 0; chunk < chunks; ++chunk) {
      auto& src = local[static_cast<std::size_t>(chunk)][d];
      banks[d].insert(banks[d].end(), src.begin(), src.end());
    }
  }
  return banks;
}

/// Weighted energy of `count` source particles [eV] — the conserved
/// quantity of a (possibly windowed) bank.
inline double initial_bank_energy(const ProblemDeck& deck,
                                  std::int64_t count) {
  return static_cast<double>(count) * deck.initial_weight *
         deck.initial_energy_ev;
}

/// Total weighted energy in the full source bank [eV].
inline double initial_bank_energy(const ProblemDeck& deck) {
  return initial_bank_energy(deck, deck.n_particles);
}

}  // namespace neutral
