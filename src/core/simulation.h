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
  /// Enable §VI-A phase profiling (Over Particles only).
  bool profile = false;
  OverEventsOptions over_events;
  /// Domain decomposition: the mesh slab this run owns.  Inactive (the
  /// default) = the full mesh.  An active window allocates density/tally
  /// storage only for the slab, sources only the particles *born* inside
  /// it, and parks particles crossing out of it as kMigrating —
  /// batch::run_domains drives the transport_round/extract/inject cycle.
  /// Windows compose with every scheme and layout (the bank converts
  /// migrant checkpoints at the boundary).
  DomainWindow window;
  /// Cooperative wall-clock deadline: run() and transport_round() check it
  /// at timestep/round boundaries (never inside the hot tracking loop) and
  /// throw TimeoutError once it passes.  The batch engine stamps this from
  /// QueuePolicy::max_run_wall so a long-lived service bounds every run;
  /// time_point::max() (the default) disables the check entirely.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation flag (not owned; may be null), checked at
  /// the same boundaries as `deadline`: once set, the run aborts with an
  /// Error("run cancelled").  neutrald points every job of a submission at
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
  /// Peak mesh-resident bytes (tally + density slab) this run held — the
  /// figure domain decomposition exists to shrink.  Merging takes the max,
  /// so a reduced domain run reports its largest subdomain's slab.
  std::uint64_t peak_mesh_bytes = 0;
  /// Peak bank-proportional bytes this run held: particle storage plus the
  /// Over Events flight-state workspace, tracked across sourcing and
  /// migrant injection.  Max-merged like peak_mesh_bytes, so a decomposed
  /// run reports its hungriest partial solve.
  std::uint64_t peak_bank_bytes = 0;
  /// The merged tally's integer cells; only windowed runs carry them (the
  /// domain stitch copies their slabs into the full grid), so a plain run
  /// holds no second copy of its mesh.
  std::shared_ptr<const TallyImage> tally;
  /// §VI-A phase profile; all-zero unless the run profiled
  /// (SimulationConfig::profile on a scheme with probes).  Extensive —
  /// merging sums it, so domain runs report the whole solve.
  PhaseProfiler::Report phases;

  /// Events per second — the throughput figure the harness reports.
  [[nodiscard]] double events_per_second() const {
    return total_seconds > 0.0
               ? static_cast<double>(counters.total_events()) / total_seconds
               : 0.0;
  }

  /// Merge another partial solve in: counters, kernel times, budget,
  /// population and per-step data are all extensive sums.  total_seconds
  /// becomes aggregate part seconds (subdomains overlap in wall time; the
  /// decomposed row tracks wall clock separately — JobOutcome::seconds).
  /// The tally checksum and image are NOT mergeable element-wise — they
  /// are cleared here and recomputed by the domain stitch
  /// (batch::run_domains).
  RunResult& operator+=(const RunResult& o);
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

  /// Windowed run with a prebuilt bank: batch::run_domains samples the
  /// deck's id space ONCE and routes each birth to its owning subdomain,
  /// so G subdomains cost one scan instead of G.  `bank` holds canonical
  /// wire-format records — exactly the window's births, in id order
  /// (validated); the bank converts to the configured layout on adoption.
  Simulation(SimulationConfig config, std::shared_ptr<const World> world,
             std::vector<Particle> bank);

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

  /// The layout-polymorphic particle bank this run transports.
  [[nodiscard]] const ParticleBank& bank() const { return bank_; }
  [[nodiscard]] std::int64_t surviving_population() const {
    return bank_.surviving_population();
  }
  [[nodiscard]] double bank_in_flight_energy() const {
    return bank_.in_flight_energy();
  }

  // --- Domain decomposition (windowed runs; see batch/domain.h) ---------

  /// The mesh slab this run owns (full mesh for ordinary runs).
  [[nodiscard]] const DomainWindow& window() const { return window_; }
  /// Current bank size (residents + injected immigrants; includes dead).
  [[nodiscard]] std::int64_t bank_size() const {
    return static_cast<std::int64_t>(bank_.size());
  }
  /// Particles this run sourced at t=0 (born inside the window).
  [[nodiscard]] std::int64_t sourced_count() const { return sourced_count_; }

  /// One transport round of a windowed run.  wake=true begins a timestep
  /// (census -> alive with a fresh dt) — call once per timestep; wake=false
  /// resumes only freshly injected mid-flight immigrants.  Counters and
  /// seconds fold into the current timestep's StepResult, so summary()
  /// reports deck.n_timesteps steps regardless of the round count.
  StepResult transport_round(bool wake);

  /// Move kMigrating particles out of the bank (appended to `out` in bank
  /// order, flipped back to kAlive); returns how many were extracted.
  std::size_t extract_migrants(std::vector<Particle>& out);

  /// Re-bank mid-flight immigrant checkpoints (canonical wire format;
  /// converted into this bank's layout on entry).  Every record's cell must
  /// lie inside this run's window; the next transport_round(false) resumes
  /// the histories exactly where the source subdomain parked them — Over
  /// Events runs grow and re-stream their workspace to fit the arrivals.
  void inject_migrants(const Particle* migrants, std::size_t count);

 private:
  /// Common constructor; `prebuilt` (windowed runs only) is adopted as the
  /// bank instead of scanning the id space.
  Simulation(SimulationConfig config, std::shared_ptr<const World> world,
             std::vector<Particle>* prebuilt);

  /// One transport pass over the bank — the single scheme × layout dispatch
  /// point (ParticleBank::with_view replaces the old step_aos/step_soa
  /// fork).  wake_census starts a timestep; false resumes immigrants only.
  StepResult step_transport(bool wake_census);
  /// Throw TimeoutError / Error when config.deadline passed or
  /// config.cancel is set (called at timestep and round boundaries).
  void check_interrupt() const;
  void source_window_bank();
  void adopt_window_bank(std::vector<Particle> bank);
  /// Fold the current bank + workspace bytes into the run's peak.
  void note_bank_peak();

  SimulationConfig config_;
  std::shared_ptr<const World> world_;
  DomainWindow window_;   ///< config_.window, promoted to the full mesh
  std::int64_t sourced_count_ = 0;  ///< particles sourced at t=0
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
