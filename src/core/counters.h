// Event counters accumulated per thread during transport.
//
// These feed the grind-time table (§VI-A), the energy-conservation
// validation, and the machine-model simulator's event statistics.
#pragma once

#include <cstdint>

namespace neutral {

struct EventCounters {
  std::uint64_t facets = 0;        ///< facet crossings (incl. reflections)
  std::uint64_t reflections = 0;   ///< boundary reflections (subset of facets)
  std::uint64_t collisions = 0;    ///< collision events of either kind
  std::uint64_t absorptions = 0;   ///< collisions sampled as absorption
  std::uint64_t scatters = 0;      ///< collisions sampled as elastic scatter
  std::uint64_t censuses = 0;      ///< histories reaching census this step
  std::uint64_t deaths_energy = 0; ///< terminations by the energy cutoff
  std::uint64_t deaths_weight = 0; ///< terminations by the weight cutoff
  std::uint64_t tally_flushes = 0; ///< atomic RMW operations on the tally
  std::uint64_t xs_lookups = 0;    ///< microscopic table interpolations
  std::uint64_t rng_draws = 0;     ///< uniforms consumed

  std::uint64_t roulette_survivals = 0; ///< weight-boosted survivors (§IV-E)
  std::uint64_t roulette_kills = 0;     ///< histories ended by roulette

  /// Weighted energy released into the mesh by collisions/terminations [eV];
  /// conserved against the initial bank (see validation.h).
  double released_energy = 0.0;
  /// Track-length heating-response estimator total [eV*response].
  double path_heating = 0.0;
  /// Energy created by roulette weight boosts [eV] (conserved only in
  /// expectation; tracked exactly for the extended energy budget).
  double roulette_gained_energy = 0.0;
  /// Energy removed by roulette kills [eV] (not deposited).
  double roulette_killed_energy = 0.0;

  EventCounters& operator+=(const EventCounters& o) {
    facets += o.facets;
    reflections += o.reflections;
    collisions += o.collisions;
    absorptions += o.absorptions;
    scatters += o.scatters;
    censuses += o.censuses;
    deaths_energy += o.deaths_energy;
    deaths_weight += o.deaths_weight;
    tally_flushes += o.tally_flushes;
    xs_lookups += o.xs_lookups;
    rng_draws += o.rng_draws;
    roulette_survivals += o.roulette_survivals;
    roulette_kills += o.roulette_kills;
    released_energy += o.released_energy;
    path_heating += o.path_heating;
    roulette_gained_energy += o.roulette_gained_energy;
    roulette_killed_energy += o.roulette_killed_energy;
    return *this;
  }

  [[nodiscard]] std::uint64_t total_events() const {
    return facets + collisions + censuses;
  }
};

}  // namespace neutral
