// The per-event transport step — the single source of truth for the physics.
//
// Both parallelisation schemes (§V) and the machine-model simulator execute
// this code:
//   * Over Particles calls advance_one_event in a tight loop per history,
//     keeping FlightState in registers (§VII-A.2 "caching occurs in
//     registers").
//   * Over Events persists FlightState into per-particle arrays between its
//     breadth-first kernels — the exact state-streaming the paper blames
//     for the scheme's memory traffic.
//   * The SIMT simulator runs it lane-by-lane with RecordingHooks.
//
// Because every random draw comes from the particle's own counter-based
// stream, the schemes sample bit-identical histories — the cross-scheme
// equivalence tests depend on this file alone.
#pragma once

#include <cmath>

#include "core/constants.h"
#include "core/context.h"
#include "core/counters.h"
#include "core/hooks.h"
#include "core/particle.h"
#include "mesh/facet.h"
#include "rng/stream.h"
#include "util/numeric.h"

namespace neutral {

/// Register-cached flight state: everything derivable from the particle's
/// (energy, cell) that would otherwise be recomputed per event.
struct FlightState {
  double micro_a = 0.0;        ///< microscopic capture XS [barns] at E
  double micro_s = 0.0;        ///< microscopic scatter XS [barns] at E
  double n = 0.0;              ///< number density [1/cm^3] of current cell
  double sigma_a = 0.0;        ///< macroscopic capture XS [1/cm]
  double sigma_t = 0.0;        ///< macroscopic total XS [1/cm]
  double speed = 0.0;          ///< cm/s
  double pending_deposit = 0.0;///< energy awaiting flush to flat_cell
  std::int64_t flat_cell = 0;  ///< tally target (the cell being traversed)
};

namespace detail {

inline double speed_from_energy(double ev) {
  return kSpeedPerSqrtEv * std::sqrt(ev);
}

/// Recompute macroscopic cross sections from cached microscopic values and
/// the cached number density.
inline void refresh_macroscopic(FlightState& fs) {
  fs.sigma_a = macroscopic(fs.micro_a, fs.n);
  fs.sigma_t = fs.sigma_a + macroscopic(fs.micro_s, fs.n);
}

}  // namespace detail

/// Reload the microscopic cross sections after an energy change.  Only
/// collisions change energy, so only collisions pay the bin search (§VI-A).
/// The two tables share one energy grid (World checks same_energy_grid),
/// so one search and one interpolation weight serve both channels.
template <class View, class Hooks>
inline void refresh_cross_sections(const View& v, std::size_t i,
                                   const TransportContext& ctx,
                                   FlightState& fs, EventCounters& ec,
                                   Hooks& hooks) {
  const CrossSectionTable& capture = *ctx.xs_capture;
  std::int32_t idx = v.xs_index(i);
  const std::int32_t before = idx;
  const double e = v.energy(i);
  const double clamped = capture.clamp_energy(e);
  idx = capture.find_bin(clamped, ctx.lookup, idx);
  const double t = capture.weight(idx, clamped);
  fs.micro_a = capture.interpolate(idx, t);
  fs.micro_s = ctx.xs_scatter->interpolate(idx, t);
  v.xs_index(i) = idx;
  ec.xs_lookups += 2;
  if constexpr (Hooks::kTracing) {
    const std::int32_t steps = idx > before ? idx - before : before - idx;
    hooks.xs_walk(steps, idx);
    hooks.xs_walk(steps > 0 ? 1 : 0, idx);  // second table: warm walk
  }
  detail::refresh_macroscopic(fs);
  fs.speed = detail::speed_from_energy(e);
}

/// Reload the cell-local density after a cell change (facet crossing) and
/// rebuild the macroscopic cross sections.  No table lookup: the cached
/// microscopic values remain valid (§VII-A.2).
template <class View, class Hooks>
inline void refresh_cell(const View& v, std::size_t i,
                         const TransportContext& ctx, FlightState& fs,
                         Hooks& hooks) {
  const CellIndex c{v.cellx(i), v.celly(i)};
  // Window-local storage index: same multiply-add as flat_index when the
  // context carries the full-mesh window, a slab offset when domain
  // decomposed.  Hand-built contexts without a window keep the old path.
  fs.flat_cell = ctx.window.active() ? ctx.window.local_flat(c)
                                     : ctx.mesh->flat_index(c);
  hooks.density_load(fs.flat_cell);
  const double rho = ctx.density->g_cm3(fs.flat_cell);
  fs.n = number_density(rho, ctx.molar_mass_g_mol);
  detail::refresh_macroscopic(fs);
}

/// Build the full flight state for a particle entering transport (history
/// start, or re-gather in the Over Events scheme).
template <class View, class Hooks>
inline void load_flight_state(const View& v, std::size_t i,
                              const TransportContext& ctx, FlightState& fs,
                              EventCounters& ec, Hooks& hooks) {
  fs.pending_deposit = 0.0;
  refresh_cross_sections(v, i, ctx, fs, ec, hooks);
  refresh_cell(v, i, ctx, fs, hooks);
}

/// Flush the register-accumulated deposit onto the tally mesh — the atomic
/// read-modify-write the paper identifies as the dominant serialisation
/// (§V-C, §VI-F).  Called on facet, census and death sites.
template <class View, class Hooks>
inline void flush_tally(const View&, std::size_t, const TransportContext& ctx,
                        FlightState& fs, EventCounters& ec,
                        std::int32_t thread, Hooks& hooks) {
  if (fs.pending_deposit != 0.0) {
    hooks.phase_start(Phase::kTally);
    ctx.tally->deposit(fs.flat_cell, fs.pending_deposit, thread);
    hooks.tally_flush(fs.flat_cell);
    ++ec.tally_flushes;
    fs.pending_deposit = 0.0;
    hooks.phase_stop(Phase::kTally);
  }
}

namespace detail {

/// Terminate a history and flush its tally register.  Cutoff deaths
/// deposit their remaining energy (§IV-E); roulette kills do not — the
/// removed energy is balanced by the weight boosts of roulette survivors
/// (in expectation; both tracked exactly in the counters).
template <class View, class Hooks>
inline void kill_particle(const View& v, std::size_t i,
                          const TransportContext& ctx, FlightState& fs,
                          EventCounters& ec, std::int32_t thread,
                          Hooks& hooks, bool deposit_remaining = true) {
  if (deposit_remaining) {
    const double remaining = v.weight(i) * v.energy(i);
    fs.pending_deposit += remaining;
    ec.released_energy += remaining;
  }
  v.state(i) = ParticleState::kDead;
  flush_tally(v, i, ctx, fs, ec, thread, hooks);
}

}  // namespace detail

/// Handle a collision event (§IV-A): implicit-capture absorption or elastic
/// scatter off a nucleus of mass number A, then draw the mean-free-paths to
/// the next collision.  The particle is already at the collision site.
template <class View, class Hooks>
inline void handle_collision(const View& v, std::size_t i,
                             const TransportContext& ctx, FlightState& fs,
                             EventCounters& ec, std::int32_t thread,
                             Hooks& hooks) {
  rng::ParticleStream stream(ctx.seed, v.id(i), v.rng_counter(i));
  hooks.phase_start(Phase::kCollision);
  ++ec.collisions;
  const std::uint64_t counter_before = v.rng_counter(i);

  const double p_absorb = fs.sigma_t > 0.0 ? fs.sigma_a / fs.sigma_t : 0.0;
  bool died = false;
  if (stream.next() < p_absorb) {
    // Absorption with implicit capture (§IV-E): the weighted batch loses
    // the absorbed fraction; the survivors continue unchanged.
    ++ec.absorptions;
    const double w = v.weight(i);
    const double new_w = w * (1.0 - p_absorb);
    const double dep = (w - new_w) * v.energy(i);
    fs.pending_deposit += dep;
    ec.released_energy += dep;
    v.weight(i) = new_w;
    if (new_w < ctx.min_weight) {
      if (ctx.roulette_survival > 0.0) {
        // Russian roulette (§IV-E): survive with probability p carrying
        // weight w/p, else terminate without depositing — unbiased in
        // expectation, fewer low-weight histories tracked.
        if (stream.next() < ctx.roulette_survival) {
          const double boosted = new_w / ctx.roulette_survival;
          ec.roulette_gained_energy += (boosted - new_w) * v.energy(i);
          v.weight(i) = boosted;
          ++ec.roulette_survivals;
        } else {
          ec.roulette_killed_energy += new_w * v.energy(i);
          ++ec.roulette_kills;
          ++ec.deaths_weight;
          ec.rng_draws += stream.counter() - counter_before;
          v.rng_counter(i) = stream.counter();
          hooks.phase_stop(Phase::kCollision);
          detail::kill_particle(v, i, ctx, fs, ec, thread, hooks,
                                /*deposit_remaining=*/false);
          return;
        }
      } else {
        ++ec.deaths_weight;
        died = true;
      }
    }
  } else {
    // Elastic scatter: sample the centre-of-mass deflection, derive the
    // outgoing energy and the laboratory deflection angle.  Three sqrt
    // calls, as the paper notes (§VI-A).
    ++ec.scatters;
    const double a = ctx.mass_number;
    const double mu_cm = 1.0 - 2.0 * stream.next();
    const double e0 = v.energy(i);
    const double e1 = e0 * (a * a + 2.0 * a * mu_cm + 1.0) / sqr(a + 1.0);
    const double cos_t = 0.5 * ((a + 1.0) * std::sqrt(e1 / e0) -
                                (a - 1.0) * std::sqrt(e0 / e1));
    double sin_t = std::sqrt(std::fmax(0.0, 1.0 - cos_t * cos_t));
    // 2D kinematics: the scattering plane collapses to a rotation whose
    // sense is equiprobable.
    if (stream.next() < 0.5) sin_t = -sin_t;
    const double ox = v.omega_x(i);
    const double oy = v.omega_y(i);
    v.omega_x(i) = ox * cos_t - oy * sin_t;
    v.omega_y(i) = ox * sin_t + oy * cos_t;

    const double dep = v.weight(i) * (e0 - e1);
    fs.pending_deposit += dep;
    ec.released_energy += dep;
    v.energy(i) = e1;
    // ALU-work hint: 3 sqrts + 2 divides + the kinematics arithmetic are
    // long-latency serial operations (~140 scalar cycles) — the cost the
    // Over Events collision kernel amortises across SIMD lanes (§VII-B).
    hooks.flops(140);
    if (e1 < ctx.min_energy_ev) {
      ++ec.deaths_energy;
      died = true;
    } else {
      // Energy changed: the microscopic table walk (§VI-A cached search).
      refresh_cross_sections(v, i, ctx, fs, ec, hooks);
    }
  }

  if (died) {
    ec.rng_draws += stream.counter() - counter_before;
    v.rng_counter(i) = stream.counter();
    hooks.phase_stop(Phase::kCollision);
    detail::kill_particle(v, i, ctx, fs, ec, thread, hooks);
    return;
  }

  // Draw the number of mean-free-paths until the next collision (§IV-F).
  v.mfp_to_collision(i) = stream.next_exponential();
  hooks.flops(25);  // log() in the exponential deviate
  const std::uint64_t draws = stream.counter() - counter_before;
  ec.rng_draws += draws;
  hooks.rng_draw(static_cast<std::int32_t>(draws));
  v.rng_counter(i) = stream.counter();
  hooks.phase_stop(Phase::kCollision);
}

/// Handle a facet encounter (§IV-A): flush the tally register for the cell
/// being left, then either step into the neighbour cell (reloading the
/// cached density) or reflect off the domain boundary (§IV-C).
template <class View, class Hooks>
inline void handle_facet(const View& v, std::size_t i,
                         const TransportContext& ctx,
                         const FacetIntersection& facet, FlightState& fs,
                         EventCounters& ec, std::int32_t thread,
                         Hooks& hooks) {
  ++ec.facets;
  // Every facet encounter flushes the deposition register (§V-C).
  flush_tally(v, i, ctx, fs, ec, thread, hooks);

  hooks.phase_start(Phase::kFacet);
  CellIndex c{v.cellx(i), v.celly(i)};
  const bool reflected = apply_facet_crossing(facet, c, v.omega_x(i),
                                              v.omega_y(i));
  hooks.flops(4);
  if (reflected) {
    ++ec.reflections;
    hooks.phase_stop(Phase::kFacet);
    return;  // same cell: cached density still valid
  }
  v.cellx(i) = c.x;
  v.celly(i) = c.y;
  if (ctx.migrate && !ctx.window.contains(c)) {
    // The neighbour cell belongs to another subdomain.  The record is now a
    // complete mid-flight checkpoint (tally register already flushed above,
    // clocks decayed, RNG counter current): park it for re-banking on the
    // owner (batch::run_domains drains these between transport rounds).
    ++ec.migrations;
    v.state(i) = ParticleState::kMigrating;
    hooks.phase_stop(Phase::kFacet);
    return;
  }
  refresh_cell(v, i, ctx, fs, hooks);
  hooks.phase_stop(Phase::kFacet);
}

/// Handle the census event (§IV-A): the terminal event of the timestep.
template <class View, class Hooks>
inline void handle_census(const View& v, std::size_t i,
                          const TransportContext& ctx, FlightState& fs,
                          EventCounters& ec, std::int32_t thread,
                          Hooks& hooks) {
  hooks.phase_start(Phase::kCensus);
  ++ec.censuses;
  v.dt_to_census(i) = 0.0;
  v.state(i) = ParticleState::kCensus;
  hooks.phase_stop(Phase::kCensus);
  flush_tally(v, i, ctx, fs, ec, thread, hooks);
}

/// Result of the event search: which event comes first, and the facet
/// details in case it is a facet.
struct EventSelection {
  EventType event = EventType::kCensus;
  FacetIntersection facet;
};

/// Find the First Encountered Event (Fig 1), move the particle to the event
/// site, decay the per-event clocks by the distance travelled (§IV-A), and
/// accumulate the track-length heating estimator.  Does NOT dispatch the
/// handler — the Over Events scheme runs the handlers in separate kernels.
template <class View, class Hooks>
inline EventSelection select_and_move(const View& v, std::size_t i,
                                      const TransportContext& ctx,
                                      FlightState& fs, EventCounters& ec,
                                      Hooks& hooks) {
  hooks.phase_start(Phase::kEventSearch);

  // Distances to the three candidate events.
  const double dist_census = fs.speed * v.dt_to_census(i);
  const double dist_collision =
      fs.sigma_t > 0.0 ? v.mfp_to_collision(i) / fs.sigma_t : kInf;
  EventSelection sel;
  sel.facet = nearest_facet(*ctx.mesh, v.x(i), v.y(i), v.omega_x(i),
                            v.omega_y(i), {v.cellx(i), v.celly(i)});
  hooks.flops(12);

  double dist;
  if (dist_collision <= sel.facet.distance && dist_collision <= dist_census) {
    sel.event = EventType::kCollision;
    dist = dist_collision;
  } else if (sel.facet.distance <= dist_census) {
    sel.event = EventType::kFacet;
    dist = sel.facet.distance;
  } else {
    sel.event = EventType::kCensus;
    dist = dist_census;
  }

  // Move to the event site and decay the other events' clocks by the
  // distance travelled (§IV-A).
  v.x(i) += v.omega_x(i) * dist;
  v.y(i) += v.omega_y(i) * dist;
  v.dt_to_census(i) -= dist / fs.speed;
  v.mfp_to_collision(i) -= dist * fs.sigma_t;

  // Track-length heating-response estimator for the traversed segment; the
  // segment never spans a facet, so it belongs wholly to the current cell.
  const double heating = v.weight(i) * v.energy(i) * fs.sigma_a * dist;
  fs.pending_deposit += heating;
  ec.path_heating += heating;
  hooks.flops(10);
  hooks.event(sel.event);
  hooks.phase_stop(Phase::kEventSearch);
  return sel;
}

/// Advance one particle by exactly one event: search + move + handler.
/// Returns the event type executed.
template <class View, class Hooks>
inline EventType advance_one_event(const View& v, std::size_t i,
                                   const TransportContext& ctx,
                                   FlightState& fs, EventCounters& ec,
                                   std::int32_t thread, Hooks& hooks) {
  const EventSelection sel = select_and_move(v, i, ctx, fs, ec, hooks);
  switch (sel.event) {
    case EventType::kCollision:
      handle_collision(v, i, ctx, fs, ec, thread, hooks);
      break;
    case EventType::kFacet:
      handle_facet(v, i, ctx, sel.facet, fs, ec, thread, hooks);
      break;
    case EventType::kCensus:
      handle_census(v, i, ctx, fs, ec, thread, hooks);
      break;
  }
  return sel.event;
}

/// Run one particle's history from its current state to census/death — the
/// Over Particles inner loop (Listing 1).
template <class View, class Hooks>
inline void run_history(const View& v, std::size_t i,
                        const TransportContext& ctx, EventCounters& ec,
                        std::int32_t thread, Hooks& hooks) {
  if (v.state(i) != ParticleState::kAlive) return;
  FlightState fs;
  load_flight_state(v, i, ctx, fs, ec, hooks);
  while (v.state(i) == ParticleState::kAlive) {
    advance_one_event(v, i, ctx, fs, ec, thread, hooks);
  }
}

}  // namespace neutral
