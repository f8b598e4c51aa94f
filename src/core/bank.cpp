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

void ParticleBank::assign(std::vector<Particle> records) {
  if (layout_ == Layout::kAoS) {
    aos_ = std::move(records);
    return;
  }
  soa_.resize(records.size());
  const SoaView v(soa_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    write_record(v, i, records[i]);
  }
}

std::size_t ParticleBank::extract_migrants(std::vector<Particle>& out) {
  return with_view([&out, this](const auto& v) {
    std::size_t kept = 0;
    std::size_t extracted = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v.state(i) == ParticleState::kMigrating) {
        // Resumes mid-flight on the owner; the record is the checkpoint.
        Particle p = read_record(v, i);
        p.state = ParticleState::kAlive;
        out.push_back(p);
        ++extracted;
      } else {
        if (kept != i) copy_record(v, kept, i);
        ++kept;
      }
    }
    resize(kept);
    return extracted;
  });
}

void ParticleBank::inject(const Particle* records, std::size_t count) {
  if (layout_ == Layout::kAoS) {
    aos_.insert(aos_.end(), records, records + count);
    return;
  }
  const std::size_t base = soa_.size();
  soa_.resize(base + count);
  const SoaView v(soa_);
  for (std::size_t i = 0; i < count; ++i) {
    write_record(v, base + i, records[i]);
  }
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
