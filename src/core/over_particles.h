// Over Particles parallelisation scheme (paper §V-A, Listing 1).
//
// One OpenMP thread follows one particle from birth to census: a single
// synchronisation point per timestep, state cached in registers between
// events, deep unpredictable branches, and a possible load imbalance from
// uneven history lengths — the scheme the paper finds fastest on every
// architecture tested.
#pragma once

#include <cstdint>

#include "core/counters.h"
#include "core/context.h"
#include "core/particle.h"
#include "runtime/schedule.h"

namespace neutral {

/// Advance every particle in `v` through one timestep of length `dt_s`,
/// histories distributed by `schedule` (Fig 4); the step.h phase probes run
/// when ctx.profiler is set.  Returns the aggregated event counters.  The
/// caller is responsible for merging privatized tallies afterwards (see
/// EnergyTally::merge_each_step).
EventCounters over_particles_step(const AosView& v, const TransportContext& ctx,
                                  double dt_s, const SchedulePolicy& schedule);
EventCounters over_particles_step(const SoaView& v, const TransportContext& ctx,
                                  double dt_s, const SchedulePolicy& schedule);

}  // namespace neutral
