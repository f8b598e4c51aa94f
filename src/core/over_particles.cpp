#include "core/over_particles.h"

#include <omp.h>

#include "core/step.h"
#include "perf/profiler.h"
#include "util/aligned.h"
#include "util/error.h"

namespace neutral {
namespace {

/// Shared driver body: Listing 1 of the paper.  The outer foreach(particle)
/// is the OpenMP loop; schedule(runtime) lets the Fig 4 experiment flip the
/// scheduling clause without recompiling.
template <class View, class Hooks, class MakeHooks>
EventCounters drive(const View& v, const TransportContext& ctx, double dt_s,
                    const OverParticlesOptions& opt, MakeHooks make_hooks) {
  apply_schedule(opt.schedule);
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int32_t max_threads = omp_get_max_threads();
  aligned_vector<Padded<EventCounters>> thread_counters(
      static_cast<std::size_t>(max_threads));

  // Wake the survivors of the previous timestep.
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    if (v.state(i) == ParticleState::kCensus) {
      v.state(i) = ParticleState::kAlive;
      v.dt_to_census(i) = dt_s;
    }
  }

#pragma omp parallel
  {
    const std::int32_t thread = omp_get_thread_num();
    EventCounters& ec = thread_counters[static_cast<std::size_t>(thread)].value;
    Hooks hooks = make_hooks(thread);
#pragma omp for schedule(runtime)
    for (std::int64_t i = 0; i < n; ++i) {
      run_history(v, static_cast<std::size_t>(i), ctx, ec, thread, hooks);
    }
  }

  EventCounters total;
  for (const auto& tc : thread_counters) total += tc.value;
  return total;
}

template <class View>
EventCounters dispatch(const View& v, const TransportContext& ctx, double dt_s,
                       const OverParticlesOptions& opt) {
  if (opt.profile) {
    NEUTRAL_REQUIRE(ctx.profiler != nullptr,
                    "profiling requested but ctx.profiler is null");
    return drive<View, TimingHooks>(v, ctx, dt_s, opt, [&](std::int32_t t) {
      return TimingHooks(ctx.profiler, t);
    });
  }
  return drive<View, NoHooks>(v, ctx, dt_s, opt,
                              [](std::int32_t) { return NoHooks{}; });
}

}  // namespace

EventCounters over_particles_step(const AosView& v, const TransportContext& ctx,
                                  double dt_s,
                                  const OverParticlesOptions& opt) {
  return dispatch(v, ctx, dt_s, opt);
}

EventCounters over_particles_step(const SoaView& v, const TransportContext& ctx,
                                  double dt_s,
                                  const OverParticlesOptions& opt) {
  return dispatch(v, ctx, dt_s, opt);
}

}  // namespace neutral
