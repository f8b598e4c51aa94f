// ParticleBank: layout-polymorphic particle storage — the one first-class
// container every transport phase operates on.
//
// The paper's central experiment crosses parallelisation scheme (Over
// Particles / Over Events, §V) with data layout (AoS / SoA, §VI-D).
// ParticleBank owns the particles in either layout behind one interface,
// so every consumer — schemes, Simulation, tests — is written once:
//
//   * kernels get the layout's native view through with_view() (the same
//     AosView/SoaView template dispatch the transport code always used);
//   * element access speaks the canonical AoS `Particle` record, converted
//     at the boundary, so callers never branch on the layout.
//
// Production event-based transport codes (MC/DC, OpenMC's event kernels)
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

  [[nodiscard]] std::size_t size() const {
    return layout_ == Layout::kAoS ? aos_.size() : soa_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void resize(std::size_t n);

  /// Canonical-record element access (layout conversion per call; use
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
