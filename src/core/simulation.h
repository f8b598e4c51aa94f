// Simulation facade: owns the world and runs a configured solve.
//
// This is the public entry point examples and benchmarks use; it wires the
// deck into a mesh + density field + cross-section tables + tally + bank,
// then dispatches timesteps to the configured parallelisation scheme.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bank.h"
#include "core/context.h"
#include "core/counters.h"
#include "core/deck.h"
#include "core/over_events.h"
#include "core/over_particles.h"
#include "core/particle.h"
#include "core/tally.h"
#include "core/validation.h"
#include "core/world.h"
#include "mesh/density_field.h"
#include "mesh/mesh2d.h"
#include "perf/profiler.h"
#include "runtime/schedule.h"
#include "xs/table.h"

namespace neutral {

enum class Scheme : std::uint8_t {
  kOverParticles = 0,  ///< §V-A, Listing 1
  kOverEvents = 1,     ///< §V-B, Listing 2
};
const char* to_string(Scheme s);

// Layout lives in core/particle.h (the storage it selects between);
// ParticleBank (core/bank.h) owns the polymorphism.
const char* to_string(Layout l);

/// Parse the user-facing names the CLI and sweep specs accept; throw
/// neutral::Error listing the accepted spellings on anything else.
Scheme scheme_from_string(const std::string& s);
Layout layout_from_string(const std::string& s);
TallyMode tally_mode_from_string(const std::string& s);
XsLookup lookup_from_string(const std::string& s);
/// "static|dynamic|guided[,chunk]" (also "static,chunk").
SchedulePolicy schedule_from_string(const std::string& s);

struct SimulationConfig {
  ProblemDeck deck;
  Scheme scheme = Scheme::kOverParticles;
  Layout layout = Layout::kAoS;
  TallyMode tally_mode = TallyMode::kAtomic;
  XsLookup lookup = XsLookup::kCachedLinear;
  SchedulePolicy schedule = SchedulePolicy::statics();
  /// OpenMP thread count; 0 keeps the ambient setting.
  std::int32_t threads = 0;
  /// Enable §VI-A phase profiling: Simulation attaches a PhaseProfiler,
  /// and both schemes drive the step.h phase probes into it.
  bool profile = false;
  /// Cooperative wall-clock deadline: step() checks it at timestep
  /// boundaries (never inside the hot tracking loop) and
  /// throw TimeoutError once it passes.  The batch engine stamps this from
  /// QueuePolicy::max_run_wall so a long-lived service bounds every run;
  /// time_point::max() (the default) disables the check entirely.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation flag (not owned; may be null), checked at
  /// the same boundaries as `deadline`: once set, the run aborts with a
  /// CancelledError.  neutrald points every job of a submission at
  /// one flag so a client `cancel` stops in-flight work between timesteps.
  const std::atomic<bool>* cancel = nullptr;
};

/// Outcome of one timestep.
struct StepResult {
  double seconds = 0.0;
  EventCounters counters;
  OverEventsKernelTimes kernel_times;  ///< populated by Over Events only
};

/// Outcome of a full run.
struct RunResult {
  double total_seconds = 0.0;
  std::vector<StepResult> steps;
  EventCounters counters;             ///< accumulated over all steps
  OverEventsKernelTimes kernel_times; ///< accumulated (Over Events)
  EnergyBudget budget;
  double tally_checksum = 0.0;        ///< positional checksum of the tally
  std::int64_t population = 0;        ///< surviving particles
  std::uint64_t tally_footprint_bytes = 0;
  /// Peak mesh-resident bytes (tally + density field) this run held.
  std::uint64_t peak_mesh_bytes = 0;
  /// Peak bank-proportional bytes this run held: particle storage plus the
  /// Over Events flight-state workspace.
  std::uint64_t peak_bank_bytes = 0;
  /// §VI-A phase profile; all-zero unless the run profiled
  /// (SimulationConfig::profile).
  PhaseProfiler::Report phases;

  /// Events per second — the throughput figure the harness reports.
  [[nodiscard]] double events_per_second() const {
    return total_seconds > 0.0
               ? static_cast<double>(counters.total_events()) / total_seconds
               : 0.0;
  }
};

class Simulation {
 public:
  /// Build the world (mesh + density + XS tables) from the deck and run
  /// against it — the single-job path.
  explicit Simulation(SimulationConfig config);

  /// Run against an existing world — the cheap-reuse path the batch engine
  /// takes when many jobs share geometry.  `world` must have been built
  /// from a deck with the same world_fingerprint as `config.deck`.
  Simulation(SimulationConfig config, std::shared_ptr<const World> world);

  /// Advance one timestep and return its result.
  StepResult step();

  /// Run deck.n_timesteps timesteps and assemble the full result
  /// (including the energy budget and tally checksum).
  RunResult run();

  /// Recompute budget/checksum without advancing (used after step() calls);
  /// merges the tally first.
  [[nodiscard]] RunResult summary();

  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] const StructuredMesh2D& mesh() const { return world_->mesh; }
  [[nodiscard]] const DensityField& density() const {
    return world_->density;
  }
  [[nodiscard]] const std::shared_ptr<const World>& world() const {
    return world_;
  }
  [[nodiscard]] const EnergyTally& tally() const { return tally_; }
  [[nodiscard]] EnergyTally& tally() { return tally_; }
  [[nodiscard]] const PhaseProfiler* profiler() const {
    return profiler_.get();
  }

  [[nodiscard]] std::int64_t surviving_population() const {
    return bank_.surviving_population();
  }
  [[nodiscard]] double bank_in_flight_energy() const {
    return bank_.in_flight_energy();
  }

 private:
  /// Throw TimeoutError / CancelledError when config.deadline passed or
  /// config.cancel is set (called at timestep boundaries).
  void check_interrupt() const;
  /// Fold the current bank + workspace bytes into the run's peak.
  void note_bank_peak();

  SimulationConfig config_;
  std::shared_ptr<const World> world_;
  EnergyTally tally_;
  std::unique_ptr<PhaseProfiler> profiler_;

  ParticleBank bank_;
  std::unique_ptr<OverEventsWorkspace> workspace_;
  std::uint64_t peak_bank_bytes_ = 0;

  TransportContext ctx_;
  EventCounters accumulated_;
  OverEventsKernelTimes accumulated_kernel_times_;
  std::vector<StepResult> step_results_;
  double total_seconds_ = 0.0;
};

}  // namespace neutral
