// Instrumentation hook concept for the transport step.
//
// The per-event step (step.h) is a template over a Hooks policy so one body
// of physics serves three callers with zero abstraction cost:
//
//   * NoHooks       — production: every call is an empty inline no-op.
//   * TimingHooks   — §VI-A grind-time profiling via the TSC.
//   * RecordingHooks (src/simt) — the machine-model simulator's memory /
//     divergence / atomic trace.
//
// Hooks receive *semantic* events (a density load, an N-step table walk, a
// tally flush) rather than raw addresses, so cost models can reason about
// them architecturally.
#pragma once

#include <cstdint>

#include "perf/profiler.h"

namespace neutral {

/// Event classes of the tracking loop (paper Fig 1).
enum class EventType : std::uint8_t {
  kCollision = 0,
  kFacet = 1,
  kCensus = 2,
};

inline const char* to_string(EventType e) {
  switch (e) {
    case EventType::kCollision: return "collision";
    case EventType::kFacet: return "facet";
    case EventType::kCensus: return "census";
  }
  return "?";
}

/// Default policy: fully transparent.
struct NoHooks {
  static constexpr bool kTracing = false;

  void phase_start(Phase) {}
  void phase_stop(Phase) {}
  void event(EventType) {}
  void density_load(std::int64_t /*flat*/) {}
  void xs_walk(std::int32_t /*steps*/, std::int32_t /*index*/) {}
  void tally_flush(std::int64_t /*flat*/) {}
  void rng_draw(std::int32_t /*n*/) {}
  void flops(std::int32_t /*n*/) {}
};

/// TSC-based phase timing for the grind-time experiment.
class TimingHooks {
 public:
  TimingHooks(PhaseProfiler* profiler, std::int32_t thread)
      : profiler_(profiler), thread_(thread) {}

  static constexpr bool kTracing = false;

  void phase_start(Phase) { start_ = read_cycles(); }
  void phase_stop(Phase p) {
    profiler_->add(thread_, p, read_cycles() - start_);
  }
  void event(EventType) {}
  void density_load(std::int64_t) {}
  void xs_walk(std::int32_t, std::int32_t) {}
  void tally_flush(std::int64_t) {}
  void rng_draw(std::int32_t) {}
  void flops(std::int32_t) {}

 private:
  PhaseProfiler* profiler_;
  std::int32_t thread_;
  std::uint64_t start_ = 0;
};

/// The one profiling rule both schemes share: the phase probes run exactly
/// when a profiler is attached (Simulation attaches one iff
/// SimulationConfig::profile).  Calls `body(make_hooks)`, where
/// `make_hooks(thread)` returns a TimingHooks for that thread or a NoHooks.
/// TimingHooks is stateful (one in-flight phase start per instance), so
/// every parallel region constructs its own through make_hooks.
template <class Body>
auto with_phase_hooks(PhaseProfiler* profiler, Body&& body) {
  if (profiler != nullptr) {
    return body(
        [profiler](std::int32_t t) { return TimingHooks(profiler, t); });
  }
  return body([](std::int32_t) { return NoHooks{}; });
}

}  // namespace neutral
