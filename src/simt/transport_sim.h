// Machine-model transport simulator (reproduces paper Figs 9-14).
//
// Replays the *actual* transport physics (core/step.h) lane by lane in
// lock-step warps under a DeviceModel cost model:
//
//   * the warp executes every distinct event path its active lanes need,
//     serially — SIMT divergence (§V-A "deep branches");
//   * semantic memory operations (density loads, XS walks, tally RMWs) are
//     coalesced across the warp into line transactions, probed against a
//     capacity cache, and charged latency/bandwidth;
//   * tally flushes landing on the same cell serialise — atomic conflicts
//     (§VII-A.1), with a CAS-emulation multiplier on devices without native
//     FP64 atomics (§VIII-A);
//   * per-unit stall cycles are hidden by the resident contexts (SMT ways /
//     occupancy-limited warps) — the latency-tolerance mechanism the paper
//     credits for the GPU win (§VIII);
//   * the Over Events variant replays the breadth-first kernel pipeline,
//     charging the per-kernel streaming of the flight-state arrays that the
//     Over Particles scheme keeps in registers (§VII-A.2).
//
// Because the physics is bit-identical to the native code (same RNG keys,
// same decks), the simulator's tally must match the native tally exactly —
// one of the integration tests.
#pragma once

#include <cstdint>
#include <memory>

#include "core/counters.h"
#include "core/simulation.h"
#include "simt/device.h"

namespace neutral::simt {

struct SimtConfig {
  DeviceModel device;
  Scheme scheme = Scheme::kOverParticles;
  ProblemDeck deck;
  XsLookup lookup = XsLookup::kCachedLinear;
  /// Registers per thread for the occupancy model; 0 = device default.
  std::int32_t regs_per_thread = 0;
  /// Threads to run (CPU devices); 0 = all contexts of all units.
  std::int32_t threads = 0;
  /// Fixed per-iteration costs (kernel launches/barriers) are charged as if
  /// the deck ran this many particles, i.e. scaled by
  /// min(1, n_particles/amortize_to_particles).  Combined with
  /// scale_seconds() this reproduces the fixed-cost share the paper-scale
  /// run would see.  Set to the paper's particle count for the deck.
  std::int64_t amortize_to_particles = 1000000;
};

struct SimtEstimate {
  /// Estimated wall seconds for the configured deck on the device.
  double seconds = 0.0;
  /// Achieved DRAM bandwidth implied by the estimate.
  double achieved_gbps = 0.0;
  double bandwidth_utilization = 0.0;  ///< achieved / device achievable
  /// Mean distinct event paths executed per warp-step (1 = converged).
  double divergence_paths = 1.0;
  /// Mean fraction of lanes active per warp-step.
  double lane_activity = 1.0;
  /// Resident contexts used per unit.
  std::int32_t contexts = 1;
  /// Fraction of cycles stalled on memory (before latency hiding).
  double memory_stall_fraction = 0.0;
  /// Mean depth of same-cell tally conflicts per flush batch.
  double atomic_conflict_depth = 1.0;
  double cache_hit_rate = 0.0;

  std::uint64_t issue_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t dram_bytes = 0;

  /// Physics outputs (exactly equal to a native run of the same deck).
  EventCounters counters;
  double tally_total = 0.0;
  double tally_checksum = 0.0;
};

/// Run the deck through the device model.  Deck sizes are simulated in
/// full; callers hand in laptop-scale decks and extrapolate with
/// `scale_seconds` if they want paper-scale numbers.
SimtEstimate simulate_transport(const SimtConfig& config);

/// Linear per-particle extrapolation helper: estimated seconds if the same
/// deck ran `target_particles` histories instead of `simulated_particles`.
double scale_seconds(const SimtEstimate& estimate,
                     std::int64_t simulated_particles,
                     std::int64_t target_particles);

}  // namespace neutral::simt
