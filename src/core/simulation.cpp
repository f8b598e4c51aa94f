#include "core/simulation.h"

#include <omp.h>

#include <algorithm>

#include "core/init.h"
#include "runtime/timer.h"
#include "util/error.h"

namespace neutral {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kOverParticles: return "over-particles";
    case Scheme::kOverEvents: return "over-events";
  }
  return "?";
}

const char* to_string(Layout l) {
  switch (l) {
    case Layout::kAoS: return "AoS";
    case Layout::kSoA: return "SoA";
  }
  return "?";
}

Scheme scheme_from_string(const std::string& s) {
  if (s == "particles" || s == "over-particles") return Scheme::kOverParticles;
  if (s == "events" || s == "over-events") return Scheme::kOverEvents;
  throw Error("unknown scheme '" + s + "' (particles|events)");
}

Layout layout_from_string(const std::string& s) {
  if (s == "aos" || s == "AoS") return Layout::kAoS;
  if (s == "soa" || s == "SoA") return Layout::kSoA;
  throw Error("unknown layout '" + s + "' (aos|soa)");
}

TallyMode tally_mode_from_string(const std::string& s) {
  if (s == "atomic") return TallyMode::kAtomic;
  if (s == "privatized") return TallyMode::kPrivatized;
  if (s == "merge-step") return TallyMode::kPrivatizedMergeEveryStep;
  if (s == "deferred") return TallyMode::kDeferredAtomic;
  throw Error("unknown tally mode '" + s +
              "' (atomic|privatized|merge-step|deferred)");
}

XsLookup lookup_from_string(const std::string& s) {
  if (s == "binary") return XsLookup::kBinarySearch;
  if (s == "cached") return XsLookup::kCachedLinear;
  throw Error("unknown lookup '" + s + "' (binary|cached)");
}

SchedulePolicy schedule_from_string(const std::string& s) {
  const auto comma = s.find(',');
  const std::string kind = comma == std::string::npos ? s : s.substr(0, comma);
  std::int32_t chunk = 0;
  if (comma != std::string::npos) {
    try {
      chunk = std::stoi(s.substr(comma + 1));
    } catch (const std::exception&) {
      throw Error("bad schedule chunk in '" + s + "'");
    }
  }
  if (kind == "static") {
    return chunk > 0 ? SchedulePolicy::static_chunk(chunk)
                     : SchedulePolicy::statics();
  }
  if (kind == "dynamic") return SchedulePolicy::dynamic(chunk);
  if (kind == "guided") return SchedulePolicy::guided(chunk);
  throw Error("unknown schedule '" + s + "' (static|dynamic|guided[,chunk])");
}

Simulation::Simulation(SimulationConfig config)
    : Simulation(std::move(config), nullptr) {}

Simulation::Simulation(SimulationConfig config,
                       std::shared_ptr<const World> world)
    : config_(std::move(config)),
      world_(world != nullptr ? std::move(world) : build_world(config_.deck)),
      tally_(world_->mesh.num_cells(),
             config_.tally_mode,
             config_.threads > 0 ? config_.threads : omp_get_max_threads(),
             max_flush_energy(config_.deck, world_->xs->capture_rate)),
      bank_(config_.layout) {
  NEUTRAL_REQUIRE(config_.deck.n_particles > 0, "deck must define particles");
  NEUTRAL_REQUIRE(world_->fingerprint == world_fingerprint(config_.deck),
                  "shared world was built from a different deck geometry");

  if (config_.threads > 0) set_thread_count(config_.threads);
  if (config_.profile) {
    profiler_ = std::make_unique<PhaseProfiler>(omp_get_max_threads());
  }

  ctx_.mesh = &world_->mesh;
  ctx_.density = &world_->density;
  ctx_.xs_capture = &world_->xs->capture;
  ctx_.xs_scatter = &world_->xs->scatter;
  ctx_.tally = &tally_;
  ctx_.lookup = config_.lookup;
  ctx_.molar_mass_g_mol = config_.deck.molar_mass_g_mol;
  ctx_.mass_number = config_.deck.mass_number;
  ctx_.min_energy_ev = config_.deck.min_energy_ev;
  ctx_.min_weight = config_.deck.min_weight;
  ctx_.roulette_survival = config_.deck.roulette_survival;
  ctx_.seed = config_.deck.seed;
  ctx_.profiler = profiler_.get();

  bank_.source(config_.deck, world_->mesh);
  note_bank_peak();
}

void Simulation::note_bank_peak() {
  const std::uint64_t bytes =
      bank_.footprint_bytes() +
      (workspace_ != nullptr ? workspace_->footprint_bytes() : 0);
  peak_bank_bytes_ = std::max(peak_bank_bytes_, bytes);
}

void Simulation::check_interrupt() const {
  // Acquire pairs with the canceller's store: anything the cancelling
  // thread wrote before flipping the flag (an error message, a shutdown
  // reason) is visible here.  Cost is irrelevant — this runs once per
  // timestep, not per event — and it keeps the determinism lint's rule
  // simple: relaxed ordering lives only in the metric cells.
  if (config_.cancel != nullptr &&
      config_.cancel->load(std::memory_order_acquire)) {
    throw CancelledError("run cancelled");
  }
  if (config_.deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() > config_.deadline) {
    throw TimeoutError("run exceeded its wall-clock deadline");
  }
}

StepResult Simulation::step() {
  check_interrupt();
  StepResult result;
  WallTimer timer;
  if (config_.scheme == Scheme::kOverParticles) {
    result.counters = bank_.with_view([&](const auto& view) {
      return over_particles_step(view, ctx_, config_.deck.dt_s,
                                 config_.schedule);
    });
  } else {
    // The bank never changes size, so the flight-state workspace is built
    // once, on the first step.
    if (workspace_ == nullptr) {
      workspace_ = std::make_unique<OverEventsWorkspace>(bank_.size());
      note_bank_peak();
    }
    result.counters = bank_.with_view([&](const auto& view) {
      return over_events_step(view, ctx_, config_.deck.dt_s, *workspace_,
                              &result.kernel_times);
    });
  }
  if (tally_.merge_each_step()) tally_.merge();
  result.seconds = timer.seconds();

  accumulated_ += result.counters;
  accumulated_kernel_times_ += result.kernel_times;
  total_seconds_ += result.seconds;
  step_results_.push_back(result);
  return result;
}

RunResult Simulation::summary() {
  RunResult r;
  r.total_seconds = total_seconds_;
  r.steps = step_results_;
  r.counters = accumulated_;
  r.kernel_times = accumulated_kernel_times_;

  r.budget.initial = initial_bank_energy(config_.deck);
  r.budget.released = accumulated_.released_energy;
  r.budget.in_flight = bank_in_flight_energy();
  const TallyImage& cells = tally_.merged();
  r.budget.tally_total = cells.total();
  r.budget.path_heating = accumulated_.path_heating;
  r.budget.roulette_gained = accumulated_.roulette_gained_energy;
  r.budget.roulette_killed = accumulated_.roulette_killed_energy;
  r.tally_checksum = cells.checksum();
  r.population = surviving_population();
  r.tally_footprint_bytes = tally_.footprint_bytes();
  r.peak_mesh_bytes =
      tally_.footprint_bytes() +
      static_cast<std::uint64_t>(world_->density.size()) * sizeof(double);
  r.peak_bank_bytes = peak_bank_bytes_;
  if (profiler_ != nullptr) r.phases = profiler_->report();
  return r;
}

RunResult Simulation::run() {
  for (std::int32_t s = 0; s < config_.deck.n_timesteps; ++s) step();
  return summary();
}

}  // namespace neutral
