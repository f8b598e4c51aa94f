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
    : Simulation(std::move(config), nullptr,
                 static_cast<std::vector<Particle>*>(nullptr)) {}

Simulation::Simulation(SimulationConfig config,
                       std::shared_ptr<const World> world)
    : Simulation(std::move(config), std::move(world),
                 static_cast<std::vector<Particle>*>(nullptr)) {}

Simulation::Simulation(SimulationConfig config,
                       std::shared_ptr<const World> world,
                       std::vector<Particle> bank)
    : Simulation(std::move(config), std::move(world), &bank) {}

Simulation::Simulation(SimulationConfig config,
                       std::shared_ptr<const World> world,
                       std::vector<Particle>* prebuilt)
    : config_(std::move(config)),
      world_(world != nullptr
                 ? std::move(world)
                 : build_world(config_.deck, config_.window)),
      window_(config_.window.active() ? config_.window
                                      : DomainWindow::full(world_->mesh)),
      tally_(window_.num_cells(),
             config_.tally_mode,
             config_.threads > 0 ? config_.threads : omp_get_max_threads(),
             max_flush_energy(config_.deck, world_->capture_rate)),
      bank_(config_.layout) {
  NEUTRAL_REQUIRE(config_.deck.n_particles > 0, "deck must define particles");
  NEUTRAL_REQUIRE(window_.within(world_->mesh),
                  "domain window must fit inside the mesh");
  NEUTRAL_REQUIRE(
      world_->fingerprint ==
          domain_world_fingerprint(config_.deck, window_),
      "shared world was built from a different deck geometry or window");
  NEUTRAL_REQUIRE(world_->window == window_,
                  "shared world covers a different mesh window");
  // Windowed (domain-decomposed) runs compose with every scheme and
  // layout: the bank converts migrant checkpoints at the boundary and the
  // Over Events workspace re-streams per round, so no configuration
  // restriction applies beyond the window validity checks above.

  if (config_.threads > 0) set_thread_count(config_.threads);
  if (config_.profile) {
    profiler_ = std::make_unique<PhaseProfiler>(omp_get_max_threads());
  }

  ctx_.mesh = &world_->mesh;
  ctx_.density = &world_->density;
  ctx_.xs_capture = &world_->xs_capture;
  ctx_.xs_scatter = &world_->xs_scatter;
  ctx_.tally = &tally_;
  ctx_.lookup = config_.lookup;
  ctx_.molar_mass_g_mol = config_.deck.molar_mass_g_mol;
  ctx_.mass_number = config_.deck.mass_number;
  ctx_.min_energy_ev = config_.deck.min_energy_ev;
  ctx_.min_weight = config_.deck.min_weight;
  ctx_.roulette_survival = config_.deck.roulette_survival;
  ctx_.seed = config_.deck.seed;
  ctx_.profiler = profiler_.get();
  ctx_.window = window_;
  ctx_.migrate = config_.window.active();

  if (config_.window.active()) {
    if (prebuilt != nullptr) {
      adopt_window_bank(std::move(*prebuilt));
    } else {
      source_window_bank();
    }
    sourced_count_ = static_cast<std::int64_t>(bank_.size());
    note_bank_peak();
    return;
  }
  NEUTRAL_REQUIRE(prebuilt == nullptr,
                  "prebuilt banks are a windowed-run feature");

  sourced_count_ = config_.deck.n_particles;
  bank_.source(config_.deck, world_->mesh);
  note_bank_peak();
}

void Simulation::note_bank_peak() {
  const std::uint64_t bytes =
      bank_.footprint_bytes() +
      (workspace_ != nullptr ? workspace_->footprint_bytes() : 0);
  peak_bank_bytes_ = std::max(peak_bank_bytes_, bytes);
}

void Simulation::source_window_bank() {
  // Scan the full id space and keep the particles *born* inside the
  // window: each id costs only its 4 birth draws, so the scan is
  // O(n_particles) time but the bank is O(particles in the slab) memory —
  // the point of decomposing.  route_births owns the id-order invariant.
  std::vector<std::vector<Particle>> banks = route_births(
      config_.deck, world_->mesh, 1, [this](const Particle& p) {
        return window_.contains({p.cellx, p.celly}) ? std::size_t{0}
                                                    : std::size_t{1};
      });
  bank_.assign(std::move(banks.front()));
}

void Simulation::adopt_window_bank(std::vector<Particle> bank) {
  std::uint64_t last_id = 0;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const Particle& p = bank[i];
    NEUTRAL_REQUIRE(window_.contains({p.cellx, p.celly}),
                    "prebuilt bank holds a particle born outside the "
                    "window");
    NEUTRAL_REQUIRE(p.state == ParticleState::kCensus,
                    "prebuilt bank records must be unborn (kCensus)");
    NEUTRAL_REQUIRE(i == 0 || p.id > last_id,
                    "prebuilt bank must be in strict id order");
    last_id = p.id;
  }
  bank_.assign(std::move(bank));
}

StepResult Simulation::step_transport(bool wake_census) {
  StepResult result;
  WallTimer timer;
  if (config_.scheme == Scheme::kOverParticles) {
    OverParticlesOptions opt;
    opt.schedule = config_.schedule;
    opt.profile = config_.profile;
    opt.wake_census = wake_census;
    result.counters = bank_.with_view([&](const auto& view) {
      return over_particles_step(view, ctx_, config_.deck.dt_s, opt);
    });
  } else {
    // Size the flight-state workspace to the bank: immigrant injection
    // grows it, migrant extraction shrinks it, and the drive prologue
    // re-streams every in-flight particle, so a bare resize suffices.
    if (workspace_ == nullptr) {
      workspace_ = std::make_unique<OverEventsWorkspace>(bank_.size());
    } else if (workspace_->size() != bank_.size()) {
      workspace_->resize(bank_.size());
    }
    note_bank_peak();
    OverEventsOptions opt = config_.over_events;
    opt.wake_census = wake_census;
    opt.profile = config_.profile;
    result.counters = bank_.with_view([&](const auto& view) {
      return over_events_step(view, ctx_, config_.deck.dt_s, opt,
                              *workspace_, &result.kernel_times);
    });
  }
  if (tally_.merge_each_step()) tally_.merge();
  result.seconds = timer.seconds();
  return result;
}

void Simulation::check_interrupt() const {
  // Acquire pairs with the canceller's store: anything the cancelling
  // thread wrote before flipping the flag (an error message, a shutdown
  // reason) is visible here.  Cost is irrelevant — this runs once per
  // timestep/round boundary, not per event — and it keeps the determinism
  // lint's rule simple: relaxed ordering lives only in the metrics shards.
  if (config_.cancel != nullptr &&
      config_.cancel->load(std::memory_order_acquire)) {
    throw Error("run cancelled");
  }
  if (config_.deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() > config_.deadline) {
    throw TimeoutError("run exceeded its wall-clock deadline");
  }
}

StepResult Simulation::step() {
  NEUTRAL_REQUIRE(!config_.window.active(),
                  "windowed simulations are driven round-by-round "
                  "(transport_round) by batch::run_domains, not step()");
  check_interrupt();
  StepResult result = step_transport(/*wake_census=*/true);
  accumulated_ += result.counters;
  accumulated_kernel_times_ += result.kernel_times;
  total_seconds_ += result.seconds;
  step_results_.push_back(result);
  return result;
}

StepResult Simulation::transport_round(bool wake) {
  NEUTRAL_REQUIRE(config_.window.active(),
                  "transport_round drives windowed runs; use step()");
  check_interrupt();
  // Rounds run on whichever engine worker picks them up, and the OpenMP
  // team size is a per-thread ICV: re-pin it here so the round matches the
  // thread budget the tally was built for (the constructor only pinned the
  // constructing thread).
  if (config_.threads > 0) set_thread_count(config_.threads);
  StepResult result = step_transport(wake);

  accumulated_ += result.counters;
  accumulated_kernel_times_ += result.kernel_times;
  total_seconds_ += result.seconds;
  if (wake || step_results_.empty()) {
    // A wake round opens the timestep's StepResult; resume rounds fold
    // into it so steps.size() stays deck.n_timesteps.
    step_results_.push_back(result);
  } else {
    step_results_.back().seconds += result.seconds;
    step_results_.back().counters += result.counters;
  }
  return result;
}

std::size_t Simulation::extract_migrants(std::vector<Particle>& out) {
  return bank_.extract_migrants(out);
}

void Simulation::inject_migrants(const Particle* migrants,
                                 std::size_t count) {
  NEUTRAL_REQUIRE(config_.window.active(),
                  "only windowed runs accept migrants");
  for (std::size_t i = 0; i < count; ++i) {
    const Particle& p = migrants[i];
    NEUTRAL_REQUIRE(window_.contains({p.cellx, p.celly}),
                    "migrant re-banked on a subdomain that does not own "
                    "its cell");
    NEUTRAL_REQUIRE(p.state == ParticleState::kAlive,
                    "migrant checkpoints must arrive mid-flight (kAlive)");
  }
  bank_.inject(migrants, count);
  note_bank_peak();
}

RunResult Simulation::summary() {
  RunResult r;
  r.total_seconds = total_seconds_;
  r.steps = step_results_;
  r.counters = accumulated_;
  r.kernel_times = accumulated_kernel_times_;

  // Windowed runs source only the particles born in their slab; the
  // per-subdomain budgets telescope to the full bank under merging.
  r.budget.initial = initial_bank_energy(config_.deck, sourced_count_);
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
  if (config_.window.active()) {
    r.tally = std::make_shared<const TallyImage>(cells);
  }
  if (profiler_ != nullptr) r.phases = profiler_->report();
  return r;
}

RunResult& RunResult::operator+=(const RunResult& o) {
  total_seconds += o.total_seconds;
  counters += o.counters;
  kernel_times += o.kernel_times;
  budget += o.budget;
  population += o.population;
  tally_footprint_bytes += o.tally_footprint_bytes;
  peak_mesh_bytes = std::max(peak_mesh_bytes, o.peak_mesh_bytes);
  peak_bank_bytes = std::max(peak_bank_bytes, o.peak_bank_bytes);
  phases += o.phases;
  if (steps.empty()) {
    steps = o.steps;
  } else if (!o.steps.empty()) {
    NEUTRAL_REQUIRE(steps.size() == o.steps.size(),
                    "merged runs must share a timestep count");
    for (std::size_t s = 0; s < steps.size(); ++s) {
      steps[s].seconds += o.steps[s].seconds;
      steps[s].counters += o.steps[s].counters;
      steps[s].kernel_times += o.steps[s].kernel_times;
    }
  }
  // Checksum and image cannot be merged element-wise; the domain stitch
  // (batch::run_domains) recomputes them from the subdomain images.
  tally_checksum = 0.0;
  tally.reset();
  return *this;
}

RunResult Simulation::run() {
  for (std::int32_t s = 0; s < config_.deck.n_timesteps; ++s) step();
  return summary();
}

}  // namespace neutral
