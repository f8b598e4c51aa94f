// Particle storage: Array-of-Structures and Structure-of-Arrays (paper §VI-D).
//
// The data-structure experiment (Fig 5) compares an AoS record — one cache
// block per particle, ideal for the Over Particles scheme where a thread
// owns a whole history — against SoA — separate field arrays, ideal for
// coalesced/vectorised access in the Over Events scheme.
//
// Transport kernels are written once against a *view* concept: `AosView`
// and `SoaView` expose identical per-field accessors, so the layout flip is
// a template parameter, not a code fork.
#pragma once

#include <cstdint>

#include "util/aligned.h"

namespace neutral {

/// Particle storage layout (§VI-D, Fig 5).  Owned by ParticleBank
/// (core/bank.h); declared here with the storage types it selects between.
enum class Layout : std::uint8_t {
  kAoS = 0,  ///< array of particle records
  kSoA = 1,  ///< one array per field
};

/// Life-cycle state of a particle within a timestep.
enum class ParticleState : std::uint8_t {
  kCensus = 0,  ///< alive, waiting for the next timestep (or newly born)
  kAlive = 1,   ///< in flight within the current timestep
  kDead = 2,    ///< history terminated (energy/weight cutoff)
};

/// AoS particle record (~96 bytes, 1.5 cache lines).
///
/// Fields mirror the mini-app: position, direction, energy, statistical
/// weight, the per-event clocks (time to census, mean-free-paths to
/// collision — §IV-A "individual timers for each event"), mesh coordinates,
/// the cached cross-section table index (§VI-A) and the counter-based RNG
/// stream state (§IV-F).
struct Particle {
  double x = 0.0;                 ///< cm
  double y = 0.0;                 ///< cm
  double omega_x = 0.0;           ///< direction cosine (unit vector)
  double omega_y = 0.0;
  double energy = 0.0;            ///< eV
  double weight = 0.0;            ///< statistical weight (§IV-E)
  double dt_to_census = 0.0;      ///< s remaining in this timestep
  double mfp_to_collision = 0.0;  ///< mean-free-paths to next collision
  std::int32_t cellx = 0;         ///< mesh cell index (source of truth)
  std::int32_t celly = 0;
  std::int32_t xs_index = 0;      ///< cached energy-bin hint (§VI-A)
  ParticleState state = ParticleState::kCensus;
  std::uint64_t rng_counter = 0;  ///< counter-based stream position
  std::uint64_t id = 0;           ///< keys the RNG stream; stable for life
};

/// SoA particle container: one aligned array per field.
class ParticleSoA {
 public:
  explicit ParticleSoA(std::size_t n = 0) { resize(n); }

  void resize(std::size_t n) {
    x.resize(n); y.resize(n);
    omega_x.resize(n); omega_y.resize(n);
    energy.resize(n); weight.resize(n);
    dt_to_census.resize(n); mfp_to_collision.resize(n);
    cellx.resize(n); celly.resize(n); xs_index.resize(n);
    state.resize(n, ParticleState::kCensus);
    rng_counter.resize(n); id.resize(n);
  }

  [[nodiscard]] std::size_t size() const { return x.size(); }

  aligned_vector<double> x, y, omega_x, omega_y, energy, weight;
  aligned_vector<double> dt_to_census, mfp_to_collision;
  aligned_vector<std::int32_t> cellx, celly, xs_index;
  aligned_vector<ParticleState> state;
  aligned_vector<std::uint64_t> rng_counter, id;
};

/// View over a contiguous AoS particle array.
class AosView {
 public:
  AosView(Particle* p, std::size_t n) : p_(p), n_(n) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  double& x(std::size_t i) const { return p_[i].x; }
  double& y(std::size_t i) const { return p_[i].y; }
  double& omega_x(std::size_t i) const { return p_[i].omega_x; }
  double& omega_y(std::size_t i) const { return p_[i].omega_y; }
  double& energy(std::size_t i) const { return p_[i].energy; }
  double& weight(std::size_t i) const { return p_[i].weight; }
  double& dt_to_census(std::size_t i) const { return p_[i].dt_to_census; }
  double& mfp_to_collision(std::size_t i) const { return p_[i].mfp_to_collision; }
  std::int32_t& cellx(std::size_t i) const { return p_[i].cellx; }
  std::int32_t& celly(std::size_t i) const { return p_[i].celly; }
  std::int32_t& xs_index(std::size_t i) const { return p_[i].xs_index; }
  ParticleState& state(std::size_t i) const { return p_[i].state; }
  std::uint64_t& rng_counter(std::size_t i) const { return p_[i].rng_counter; }
  std::uint64_t& id(std::size_t i) const { return p_[i].id; }

 private:
  Particle* p_;
  std::size_t n_;
};

/// View over a ParticleSoA.
class SoaView {
 public:
  explicit SoaView(ParticleSoA& s) : s_(&s) {}

  [[nodiscard]] std::size_t size() const { return s_->size(); }

  double& x(std::size_t i) const { return s_->x[i]; }
  double& y(std::size_t i) const { return s_->y[i]; }
  double& omega_x(std::size_t i) const { return s_->omega_x[i]; }
  double& omega_y(std::size_t i) const { return s_->omega_y[i]; }
  double& energy(std::size_t i) const { return s_->energy[i]; }
  double& weight(std::size_t i) const { return s_->weight[i]; }
  double& dt_to_census(std::size_t i) const { return s_->dt_to_census[i]; }
  double& mfp_to_collision(std::size_t i) const { return s_->mfp_to_collision[i]; }
  std::int32_t& cellx(std::size_t i) const { return s_->cellx[i]; }
  std::int32_t& celly(std::size_t i) const { return s_->celly[i]; }
  std::int32_t& xs_index(std::size_t i) const { return s_->xs_index[i]; }
  ParticleState& state(std::size_t i) const { return s_->state[i]; }
  std::uint64_t& rng_counter(std::size_t i) const { return s_->rng_counter[i]; }
  std::uint64_t& id(std::size_t i) const { return s_->id[i]; }

 private:
  ParticleSoA* s_;
};

/// Gather slot `i` of any view into a canonical AoS record, whatever
/// layout the view stores (ParticleBank's element access).
template <class View>
inline Particle read_record(const View& v, std::size_t i) {
  Particle p;
  p.x = v.x(i);
  p.y = v.y(i);
  p.omega_x = v.omega_x(i);
  p.omega_y = v.omega_y(i);
  p.energy = v.energy(i);
  p.weight = v.weight(i);
  p.dt_to_census = v.dt_to_census(i);
  p.mfp_to_collision = v.mfp_to_collision(i);
  p.cellx = v.cellx(i);
  p.celly = v.celly(i);
  p.xs_index = v.xs_index(i);
  p.state = v.state(i);
  p.rng_counter = v.rng_counter(i);
  p.id = v.id(i);
  return p;
}

/// Scatter a canonical record into slot `i` of any view (the inverse
/// boundary conversion).
template <class View>
inline void write_record(const View& v, std::size_t i, const Particle& p) {
  v.x(i) = p.x;
  v.y(i) = p.y;
  v.omega_x(i) = p.omega_x;
  v.omega_y(i) = p.omega_y;
  v.energy(i) = p.energy;
  v.weight(i) = p.weight;
  v.dt_to_census(i) = p.dt_to_census;
  v.mfp_to_collision(i) = p.mfp_to_collision;
  v.cellx(i) = p.cellx;
  v.celly(i) = p.celly;
  v.xs_index(i) = p.xs_index;
  v.state(i) = p.state;
  v.rng_counter(i) = p.rng_counter;
  v.id(i) = p.id;
}

}  // namespace neutral
