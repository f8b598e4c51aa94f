// Over Events parallelisation scheme (paper §V-B, Listing 2).
//
// Breadth-first traversal: every iteration advances *all* in-flight
// particles by one event through a pipeline of tight kernels —
//
//   1. event search   — compute the time to each event, pick the first
//                       encountered event, move the particle there;
//   2. collisions     — handle every particle whose event is a collision;
//   3. facets         — handle every particle whose event is a facet;
//   4. census         — park particles that reached the end of the step;
//   5. tally drain    — the separate atomic loop (§VI-G workaround).
//
// Properties the paper measures (§V-B, §VII-A): one tight loop per event
// kind; flight state streamed through per-particle arrays instead of
// registers; each kernel visits the whole particle list and masks on the
// event type (gathers); one barrier per kernel instead of one per timestep.
// The paper split the kernels so they could vectorise (§VI-G, Fig 8); with
// gcc 12 none of them does (every masked loop branches into the step.h
// handlers), so they run as plain static-scheduled OpenMP loops.
//
// The physics is the same step.h code the Over Particles scheme runs, so
// both schemes sample identical histories.
#pragma once

#include <cstdint>

#include "core/counters.h"
#include "core/context.h"
#include "core/particle.h"
#include "util/aligned.h"

namespace neutral {

/// Wall seconds accumulated per kernel over a timestep.
struct OverEventsKernelTimes {
  double event_search = 0.0;
  double collisions = 0.0;
  double facets = 0.0;
  double census = 0.0;
  double tally = 0.0;
  std::int64_t iterations = 0;

  [[nodiscard]] double total() const {
    return event_search + collisions + facets + census + tally;
  }
  OverEventsKernelTimes& operator+=(const OverEventsKernelTimes& o);
};

/// Workspace: the per-particle flight-state arrays.  In this scheme the
/// state that Over Particles keeps in registers lives in memory and is
/// re-streamed by every kernel — deliberately, per the paper.
class OverEventsWorkspace {
 public:
  explicit OverEventsWorkspace(std::size_t n_particles);

  [[nodiscard]] std::size_t size() const { return micro_a_.size(); }
  [[nodiscard]] std::uint64_t footprint_bytes() const;

  // Cached flight state (mirrors FlightState).
  aligned_vector<double> micro_a_, micro_s_, number_density_;
  aligned_vector<double> sigma_a_, sigma_t_, speed_, pending_;
  aligned_vector<std::int64_t> flat_cell_;
  // Event decision of the current iteration.
  aligned_vector<std::uint8_t> next_event_;  // EventType + kNoEvent sentinel
  // Facet-intersection details carried from search to the facet kernel.
  aligned_vector<double> facet_distance_;
  aligned_vector<std::int8_t> facet_axis_, facet_step_;
  aligned_vector<std::uint8_t> facet_boundary_;
};

inline constexpr std::uint8_t kNoEvent = 255;

/// Advance every particle one full timestep, breadth-first.  Kernel times
/// are accumulated into `times` when non-null; the step.h phase probes run
/// when ctx.profiler is set.
EventCounters over_events_step(const SoaView& v, const TransportContext& ctx,
                               double dt_s, OverEventsWorkspace& ws,
                               OverEventsKernelTimes* times);
EventCounters over_events_step(const AosView& v, const TransportContext& ctx,
                               double dt_s, OverEventsWorkspace& ws,
                               OverEventsKernelTimes* times);

}  // namespace neutral
