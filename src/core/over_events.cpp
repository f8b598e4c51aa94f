#include "core/over_events.h"

#include <omp.h>

#include "core/step.h"
#include "core/tally.h"
#include "runtime/timer.h"
#include "util/error.h"

namespace neutral {

OverEventsKernelTimes& OverEventsKernelTimes::operator+=(
    const OverEventsKernelTimes& o) {
  event_search += o.event_search;
  collisions += o.collisions;
  facets += o.facets;
  census += o.census;
  tally += o.tally;
  iterations += o.iterations;
  return *this;
}

OverEventsWorkspace::OverEventsWorkspace(std::size_t n_particles) {
  micro_a_.resize(n_particles);
  micro_s_.resize(n_particles);
  number_density_.resize(n_particles);
  sigma_a_.resize(n_particles);
  sigma_t_.resize(n_particles);
  speed_.resize(n_particles);
  pending_.resize(n_particles);
  flat_cell_.resize(n_particles);
  next_event_.assign(n_particles, kNoEvent);
  facet_distance_.resize(n_particles);
  facet_axis_.resize(n_particles);
  facet_step_.resize(n_particles);
  facet_boundary_.resize(n_particles);
}

std::uint64_t OverEventsWorkspace::footprint_bytes() const {
  const auto bytes = [](const auto& a) {
    return static_cast<std::uint64_t>(a.size() * sizeof(a[0]));
  };
  return bytes(micro_a_) + bytes(micro_s_) + bytes(number_density_) +
         bytes(sigma_a_) + bytes(sigma_t_) + bytes(speed_) + bytes(pending_) +
         bytes(flat_cell_) + bytes(next_event_) + bytes(facet_distance_) +
         bytes(facet_axis_) + bytes(facet_step_) + bytes(facet_boundary_);
}

namespace {

/// Gather the streamed flight state of particle i into registers — the
/// memory traffic that distinguishes this scheme (§VII-A.2).
template <class View>
inline FlightState load_fs(const OverEventsWorkspace& ws, std::size_t i) {
  FlightState fs;
  fs.micro_a = ws.micro_a_[i];
  fs.micro_s = ws.micro_s_[i];
  fs.n = ws.number_density_[i];
  fs.sigma_a = ws.sigma_a_[i];
  fs.sigma_t = ws.sigma_t_[i];
  fs.speed = ws.speed_[i];
  fs.pending_deposit = ws.pending_[i];
  fs.flat_cell = ws.flat_cell_[i];
  return fs;
}

inline void store_fs(OverEventsWorkspace& ws, std::size_t i,
                     const FlightState& fs) {
  ws.micro_a_[i] = fs.micro_a;
  ws.micro_s_[i] = fs.micro_s;
  ws.number_density_[i] = fs.n;
  ws.sigma_a_[i] = fs.sigma_a;
  ws.sigma_t_[i] = fs.sigma_t;
  ws.speed_[i] = fs.speed;
  ws.pending_[i] = fs.pending_deposit;
  ws.flat_cell_[i] = fs.flat_cell;
}

/// Parallel masked foreach over the whole particle list.  Every kernel
/// visits all particles and checks the mask — the gather pattern the paper
/// describes (§V-B "particles are gathered from memory").
///
/// The simd variant requests vectorisation with `omp for simd`; the scalar
/// variant compiles with auto-vectorisation disabled so the Fig 8
/// comparison measures a genuinely unvectorised baseline.
template <class MakeHooks, class Body>
void masked_foreach_simd(std::int64_t n,
                         aligned_vector<Padded<EventCounters>>& counters,
                         MakeHooks make_hooks, Body body) {
#pragma omp parallel
  {
    const std::int32_t t = omp_get_thread_num();
    EventCounters& ec = counters[static_cast<std::size_t>(t)].value;
    auto hooks = make_hooks(t);
#pragma omp for simd schedule(static)
    for (std::int64_t i = 0; i < n; ++i) body(i, ec, t, hooks);
  }
}

template <class MakeHooks, class Body>
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
void masked_foreach_scalar(std::int64_t n,
                           aligned_vector<Padded<EventCounters>>& counters,
                           MakeHooks make_hooks, Body body) {
#pragma omp parallel
  {
    const std::int32_t t = omp_get_thread_num();
    EventCounters& ec = counters[static_cast<std::size_t>(t)].value;
    auto hooks = make_hooks(t);
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) body(i, ec, t, hooks);
  }
}

template <bool Simd, class MakeHooks, class Body>
void masked_foreach(std::int64_t n,
                    aligned_vector<Padded<EventCounters>>& counters,
                    MakeHooks make_hooks, Body body) {
  if constexpr (Simd) {
    masked_foreach_simd(n, counters, make_hooks, body);
  } else {
    masked_foreach_scalar(n, counters, make_hooks, body);
  }
}

template <class View, class MakeHooks>
EventCounters drive(const View& v, const TransportContext& ctx, double dt_s,
                    const OverEventsOptions& opt, OverEventsWorkspace& ws,
                    OverEventsKernelTimes* times, MakeHooks make_hooks) {
  NEUTRAL_REQUIRE(ws.size() == v.size(),
                  "workspace must be sized to the particle container");
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int32_t max_threads = omp_get_max_threads();
  aligned_vector<Padded<EventCounters>> counters(
      static_cast<std::size_t>(max_threads));

  // Wake survivors and (re)build their streamed flight state.
#pragma omp parallel
  {
    const std::int32_t t = omp_get_thread_num();
    EventCounters& ec = counters[static_cast<std::size_t>(t)].value;
    auto hk = make_hooks(t);
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      if (v.state(i) == ParticleState::kCensus) {
        v.state(i) = ParticleState::kAlive;
        v.dt_to_census(i) = dt_s;
      }
      if (v.state(i) == ParticleState::kAlive) {
        FlightState fs;
        load_flight_state(v, static_cast<std::size_t>(i), ctx, fs, ec, hk);
        store_fs(ws, static_cast<std::size_t>(i), fs);
      }
      ws.next_event_[static_cast<std::size_t>(i)] = kNoEvent;
    }
  }

  // Kernel 1: event search — compute times-to-event, select, move.
  auto search = [&](std::int64_t i, EventCounters& ec, std::int32_t,
                    auto& hooks) {
    const auto u = static_cast<std::size_t>(i);
    if (v.state(u) != ParticleState::kAlive) {
      ws.next_event_[u] = kNoEvent;
      return;
    }
    FlightState fs = load_fs<View>(ws, u);
    const EventSelection sel = select_and_move(v, u, ctx, fs, ec, hooks);
    ws.next_event_[u] = static_cast<std::uint8_t>(sel.event);
    ws.facet_distance_[u] = sel.facet.distance;
    ws.facet_axis_[u] = sel.facet.axis;
    ws.facet_step_[u] = sel.facet.step;
    ws.facet_boundary_[u] = sel.facet.at_boundary ? 1 : 0;
    store_fs(ws, u, fs);
  };

  // Kernel 2: collisions.
  auto collide = [&](std::int64_t i, EventCounters& ec, std::int32_t t,
                     auto& hooks) {
    const auto u = static_cast<std::size_t>(i);
    if (ws.next_event_[u] != static_cast<std::uint8_t>(EventType::kCollision)) {
      return;
    }
    FlightState fs = load_fs<View>(ws, u);
    handle_collision(v, u, ctx, fs, ec, t, hooks);
    store_fs(ws, u, fs);
  };

  // Kernel 3: facets.
  auto cross = [&](std::int64_t i, EventCounters& ec, std::int32_t t,
                   auto& hooks) {
    const auto u = static_cast<std::size_t>(i);
    if (ws.next_event_[u] != static_cast<std::uint8_t>(EventType::kFacet)) {
      return;
    }
    FlightState fs = load_fs<View>(ws, u);
    FacetIntersection facet;
    facet.distance = ws.facet_distance_[u];
    facet.axis = ws.facet_axis_[u];
    facet.step = ws.facet_step_[u];
    facet.at_boundary = ws.facet_boundary_[u] != 0;
    handle_facet(v, u, ctx, facet, fs, ec, t, hooks);
    store_fs(ws, u, fs);
  };

  // Kernel 4: census.
  auto census = [&](std::int64_t i, EventCounters& ec, std::int32_t t,
                    auto& hooks) {
    const auto u = static_cast<std::size_t>(i);
    if (ws.next_event_[u] != static_cast<std::uint8_t>(EventType::kCensus)) {
      return;
    }
    FlightState fs = load_fs<View>(ws, u);
    handle_census(v, u, ctx, fs, ec, t, hooks);
    store_fs(ws, u, fs);
  };

  // Breadth-first main loop: one iteration advances the whole population by
  // a single event (Listing 2).
  for (;;) {
    WallTimer timer;
    std::int64_t in_flight = 0;
#pragma omp parallel for schedule(static) reduction(+ : in_flight)
    for (std::int64_t i = 0; i < n; ++i) {
      in_flight += (v.state(static_cast<std::size_t>(i)) ==
                    ParticleState::kAlive)
                       ? 1
                       : 0;
    }
    if (in_flight == 0) break;
    if (opt.simd_event_search) {
      masked_foreach<true>(n, counters, make_hooks, search);
    } else {
      masked_foreach<false>(n, counters, make_hooks, search);
    }
    if (times != nullptr) {
      times->event_search += timer.seconds();
      ++times->iterations;
    }

    timer.restart();
    if (opt.simd_collisions) {
      masked_foreach<true>(n, counters, make_hooks, collide);
    } else {
      masked_foreach<false>(n, counters, make_hooks, collide);
    }
    if (times != nullptr) times->collisions += timer.seconds();

    timer.restart();
    if (opt.simd_facets) {
      masked_foreach<true>(n, counters, make_hooks, cross);
    } else {
      masked_foreach<false>(n, counters, make_hooks, cross);
    }
    if (times != nullptr) times->facets += timer.seconds();

    timer.restart();
    masked_foreach<false>(n, counters, make_hooks, census);
    if (times != nullptr) times->census += timer.seconds();

    // Kernel 5: the separate tally loop (§VI-G) — drains the deposits the
    // handlers deferred when the tally runs in kDeferredAtomic mode.
    timer.restart();
    ctx.tally->drain_deferred();
    if (times != nullptr) times->tally += timer.seconds();
  }

  EventCounters total;
  for (const auto& tc : counters) total += tc.value;
  return total;
}

/// Pick the hooks policy: per-thread TimingHooks when profiling (TimingHooks
/// is stateful — one in-flight phase start per instance — so every parallel
/// region constructs its own through make_hooks), NoHooks otherwise.
template <class View>
EventCounters dispatch(const View& v, const TransportContext& ctx, double dt_s,
                       const OverEventsOptions& opt, OverEventsWorkspace& ws,
                       OverEventsKernelTimes* times) {
  if (opt.profile && ctx.profiler != nullptr) {
    PhaseProfiler* profiler = ctx.profiler;
    return drive(v, ctx, dt_s, opt, ws, times, [profiler](std::int32_t t) {
      return TimingHooks(profiler, t);
    });
  }
  return drive(v, ctx, dt_s, opt, ws, times,
               [](std::int32_t) { return NoHooks{}; });
}

}  // namespace

EventCounters over_events_step(const SoaView& v, const TransportContext& ctx,
                               double dt_s, const OverEventsOptions& opt,
                               OverEventsWorkspace& ws,
                               OverEventsKernelTimes* times) {
  return dispatch(v, ctx, dt_s, opt, ws, times);
}

EventCounters over_events_step(const AosView& v, const TransportContext& ctx,
                               double dt_s, const OverEventsOptions& opt,
                               OverEventsWorkspace& ws,
                               OverEventsKernelTimes* times) {
  return dispatch(v, ctx, dt_s, opt, ws, times);
}

}  // namespace neutral
