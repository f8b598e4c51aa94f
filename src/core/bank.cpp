#include "core/bank.h"

#include "core/deck.h"
#include "core/init.h"
#include "core/validation.h"
#include "mesh/mesh2d.h"

namespace neutral {

void ParticleBank::resize(std::size_t n) {
  if (layout_ == Layout::kAoS) {
    aos_.resize(n);
  } else {
    soa_.resize(n);
  }
}

Particle ParticleBank::get(std::size_t i) const {
  return with_view([i](const auto& v) { return read_record(v, i); });
}

void ParticleBank::set(std::size_t i, const Particle& p) {
  with_view([i, &p](const auto& v) { write_record(v, i, p); });
}

void ParticleBank::append(const Particle& p) {
  if (layout_ == Layout::kAoS) {
    aos_.push_back(p);
    return;
  }
  const std::size_t i = soa_.size();
  soa_.resize(i + 1);
  write_record(SoaView(soa_), i, p);
}

void ParticleBank::source(const ProblemDeck& deck,
                          const StructuredMesh2D& mesh) {
  resize(static_cast<std::size_t>(deck.n_particles));
  with_view([&](const auto& v) { initialise_particles(v, deck, mesh); });
}

std::int64_t ParticleBank::surviving_population() const {
  return with_view([](const auto& v) { return population(v); });
}

double ParticleBank::in_flight_energy() const {
  return with_view([](const auto& v) { return neutral::in_flight_energy(v); });
}

std::uint64_t ParticleBank::footprint_bytes() const {
  const std::uint64_t n = size();
  if (layout_ == Layout::kAoS) return n * sizeof(Particle);
  // One aligned array per field: 8 doubles, 3 int32, 1 state byte, 2 u64.
  return n * (8 * sizeof(double) + 3 * sizeof(std::int32_t) +
              sizeof(ParticleState) + 2 * sizeof(std::uint64_t));
}

}  // namespace neutral
