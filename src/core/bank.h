// ParticleBank: layout-polymorphic particle storage — the one first-class
// container every transport phase operates on.
//
// The paper's central experiment crosses parallelisation scheme (Over
// Particles / Over Events, §V) with data layout (AoS / SoA, §VI-D); the
// decomposition layer (domain windows — src/batch) must not collapse that
// product.  ParticleBank owns the particles in either layout behind one
// interface, so every consumer — schemes, Simulation, domain migration —
// is written once:
//
//   * kernels get the layout's native view through with_view() (the same
//     AosView/SoaView template dispatch the transport code always used);
//   * everything that moves particles BETWEEN banks speaks the canonical
//     AoS `Particle` record (the wire format: a complete checkpoint —
//     position, clocks, RNG counter).  The bank converts at the boundary,
//     so an SoA bank can inject migrants extracted from an AoS bank and
//     vice versa.
//
// Bank mutation — sourcing the deck or a window, census-order compaction when
// migrants leave, immigrant injection — lives here, not in Simulation:
// production event-based transport codes (MC/DC, OpenMC's event kernels)
// take the same shape, one particle bank abstraction under every phase.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/particle.h"

namespace neutral {

struct ProblemDeck;
class StructuredMesh2D;

class ParticleBank {
 public:
  explicit ParticleBank(Layout layout = Layout::kAoS) : layout_(layout) {}

  [[nodiscard]] Layout layout() const { return layout_; }
  [[nodiscard]] std::size_t size() const {
    return layout_ == Layout::kAoS ? aos_.size() : soa_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void resize(std::size_t n);

  /// Canonical-record element access (wire-format conversion per call; use
  /// with_view for hot loops).
  [[nodiscard]] Particle get(std::size_t i) const;
  void set(std::size_t i, const Particle& p);
  void append(const Particle& p);

  /// Stable-id iteration helpers (no layout branch at the call site).
  [[nodiscard]] std::uint64_t id(std::size_t i) const {
    return layout_ == Layout::kAoS ? aos_[i].id : soa_.id[i];
  }
  [[nodiscard]] ParticleState state(std::size_t i) const {
    return layout_ == Layout::kAoS ? aos_[i].state : soa_.state[i];
  }

  /// Run `fn` against the layout's native view — the single dispatch point
  /// that used to be the step_aos/step_soa fork in Simulation.
  template <class Fn>
  decltype(auto) with_view(Fn&& fn) {
    if (layout_ == Layout::kAoS) {
      return std::forward<Fn>(fn)(AosView(aos_.data(), aos_.size()));
    }
    return std::forward<Fn>(fn)(SoaView(soa_));
  }
  /// Const dispatch for read-only walks (population, energy sums).  The
  /// views expose mutable references, so this hands out a view over
  /// const_cast storage; callers must not write through it.
  template <class Fn>
  decltype(auto) with_view(Fn&& fn) const {
    return const_cast<ParticleBank*>(this)->with_view(std::forward<Fn>(fn));
  }

  /// Source the deck's whole bank: slot i holds particle id i, every birth
  /// drawn from that id's own counter-based stream (core/init.h).
  void source(const ProblemDeck& deck, const StructuredMesh2D& mesh);

  /// Adopt prebuilt wire-format records (window routing hands banks over
  /// this way).  Converts at the boundary for SoA banks; AoS banks take the
  /// vector by move.  Validation (window membership, id order) is the
  /// caller's job — the bank only stores.
  void assign(std::vector<Particle> records);

  /// Move every kMigrating particle out (appended to `out` in bank order,
  /// flipped back to kAlive — the record is the mid-flight checkpoint) and
  /// compact the survivors over the holes, preserving order.  Returns the
  /// number extracted.
  std::size_t extract_migrants(std::vector<Particle>& out);

  /// Append immigrant checkpoints (wire format, converted on entry).
  void inject(const Particle* records, std::size_t count);

  /// Number of non-dead particles.
  [[nodiscard]] std::int64_t surviving_population() const;
  /// Weighted energy of all non-dead particles [eV].
  [[nodiscard]] double in_flight_energy() const;
  /// Resident bytes of the particle arrays (size-based estimate).
  [[nodiscard]] std::uint64_t footprint_bytes() const;

 private:
  Layout layout_;
  std::vector<Particle> aos_;
  ParticleSoA soa_;
};

}  // namespace neutral
