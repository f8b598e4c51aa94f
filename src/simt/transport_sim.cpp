#include "simt/transport_sim.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/init.h"
#include "core/step.h"
#include "core/world.h"
#include "simt/cache.h"
#include "util/error.h"

namespace neutral::simt {
namespace {

// ---------------------------------------------------------------------------
// Cost constants (cycles unless stated).  These are architectural folklore
// numbers, not fitted parameters: a counter-based RNG block is ~16 ALU ops,
// a cached table-walk step is a compare + increment against resident lines,
// and every event carries bookkeeping beyond its recorded FLOPs.
// ---------------------------------------------------------------------------
constexpr double kEventBaseCycles = 60.0;  ///< branchy scalar pipeline work
constexpr double kRngCyclesPerDraw = 16.0;
constexpr double kXsStepCycles = 3.0;
constexpr double kMaskCheckCycles = 2.0;
/// Issue cost of one gathered/scattered lane in the Over Events kernels —
/// the indirection penalty §VII-A.3 blames for vectorisation not paying.
constexpr double kGatherCyclesPerLane = 6.0;
constexpr double kMissOverlapCycles = 10.0;  ///< extra per additional miss
constexpr double kEmulatedAtomicMult = 3.0;  ///< CAS loop vs native (§VIII-A)
/// Streamed flight-state block per particle in the Over Events scheme:
/// 8 particle fields + 8 cached-state fields + cell/tally bookkeeping.
constexpr std::int32_t kOeStateBytes = 136;
/// Spill traffic per register below the compiler's natural allocation, per
/// event (§VI-H: capping 102 -> 64 regs forces locals into memory).  Spills
/// mostly stay in L1/L2: charged as extra issue work, not DRAM traffic.
constexpr double kSpillBytesPerReg = 1.0;
constexpr double kSpillCyclesPerByte = 1.0 / 8.0;

/// Per-lane trace of one advance_one_event call.
struct LaneRecord {
  bool active = false;
  EventType event = EventType::kCensus;
  std::int32_t flops = 0;
  std::int32_t rng = 0;
  std::int32_t xs_steps = 0;
  std::int32_t xs_index = -1;
  std::int64_t density_flat = -1;
  std::int64_t tally_flat = -1;
};

/// Hooks implementation that fills a LaneRecord.
class RecordingHooks {
 public:
  static constexpr bool kTracing = true;
  explicit RecordingHooks(LaneRecord* rec) : rec_(rec) {}

  void phase_start(Phase) {}
  void phase_stop(Phase) {}
  void event(EventType e) { rec_->event = e; }
  void density_load(std::int64_t flat) { rec_->density_flat = flat; }
  void xs_walk(std::int32_t steps, std::int32_t index) {
    rec_->xs_steps += steps;
    rec_->xs_index = index;
  }
  void tally_flush(std::int64_t flat) { rec_->tally_flat = flat; }
  void rng_draw(std::int32_t n) { rec_->rng += n; }
  void flops(std::int32_t n) { rec_->flops += n; }

 private:
  LaneRecord* rec_;
};

/// Per-compute-unit cycle ledger.
struct UnitLedger {
  double issue = 0.0;
  double stall = 0.0;
};

/// The cost engine: owns the cache, the ledgers and the statistics.
class CostEngine {
 public:
  CostEngine(const SimtConfig& cfg, std::int32_t units_used,
             std::int32_t contexts)
      : device_(cfg.device),
        cache_(scaled_cache_bytes(cfg), cfg.device.memory.line_bytes),
        units_(units_used),
        contexts_(contexts),
        ledgers_(static_cast<std::size_t>(units_used)) {
    if (cfg.amortize_to_particles > 0) {
      fixed_cost_scale_ =
          std::min(1.0, static_cast<double>(cfg.deck.n_particles) /
                            static_cast<double>(cfg.amortize_to_particles));
    }
    const std::int32_t regs = cfg.regs_per_thread > 0
                                  ? cfg.regs_per_thread
                                  : device_.default_regs_per_thread;
    if (device_.default_regs_per_thread > 0 &&
        regs < device_.default_regs_per_thread) {
      spill_bytes_per_event_ =
          kSpillBytesPerReg * (device_.default_regs_per_thread - regs);
    }
  }

  [[nodiscard]] static std::int64_t scaled_cache_bytes(const SimtConfig& cfg) {
    // Scale the modelled cache by (deck cells / paper cells) so a
    // laptop-scale deck keeps the paper-scale cache:footprint ratio.
    const double paper_cells = 4000.0 * 4000.0;
    const double deck_cells =
        static_cast<double>(cfg.deck.nx) * static_cast<double>(cfg.deck.ny);
    const double ratio = std::min(1.0, deck_cells / paper_cells);
    const auto scaled = static_cast<std::int64_t>(
        static_cast<double>(cfg.device.memory.cache_bytes) * ratio);
    return std::max<std::int64_t>(scaled, 4096);
  }

  /// Charge one Over Particles warp-step: records for `width` lanes, the
  /// active ones marked.  `unit` receives the cycles.
  void charge_warp_step(const std::vector<LaneRecord>& records,
                        std::int32_t unit) {
    ++warp_steps_;
    double issue = 0.0;

    // Path divergence: the warp serially executes every distinct event path
    // taken by its active lanes (§V-A).
    double path_max[3] = {0.0, 0.0, 0.0};
    bool path_present[3] = {false, false, false};
    std::int32_t active = 0;
    for (const LaneRecord& r : records) {
      if (!r.active) continue;
      ++active;
      const int p = static_cast<int>(r.event);
      path_present[p] = true;
      const double alu = kEventBaseCycles + r.flops +
                         kRngCyclesPerDraw * r.rng +
                         kXsStepCycles * r.xs_steps;
      path_max[p] = std::max(path_max[p], alu);
    }
    if (active == 0) return;
    std::int32_t paths = 0;
    for (int p = 0; p < 3; ++p) {
      if (path_present[p]) {
        ++paths;
        issue += path_max[p];
      }
    }
    divergence_paths_sum_ += paths;
    active_lane_sum_ += active;
    lane_slots_sum_ += static_cast<double>(records.size());

    issue /= device_.issue_per_cycle;

    // Memory transactions: coalesce the semantic loads across lanes into
    // unique cache lines, probe, and charge latency + bandwidth.  Spills
    // stay on-chip: extra issue work only (§VI-H).
    line_scratch_.clear();
    std::int32_t spill_events = 0;
    for (const LaneRecord& r : records) {
      if (!r.active) continue;
      if (spill_bytes_per_event_ > 0.0) ++spill_events;
      if (r.density_flat >= 0) {
        push_line(make_address(Region::kDensity,
                               static_cast<std::uint64_t>(r.density_flat) * 8));
      }
      push_xs_lines(r, /*include_walk_lines=*/true);
    }
    // One spill reload/store sequence is a warp-wide instruction: charge it
    // per warp-step, not per lane.
    if (spill_events > 0) {
      issue += spill_bytes_per_event_ * kSpillCyclesPerByte;
    }
    double stall = probe_random_lines();

    // Tally flushes: same-cell conflicts serialise; CAS emulation multiplies
    // (§VIII-A).
    conflict_scratch_.clear();
    for (const LaneRecord& r : records) {
      if (r.active && r.tally_flat >= 0) {
        conflict_scratch_.push_back(r.tally_flat);
      }
    }
    stall += charge_atomics(conflict_scratch_, /*parallel_units=*/1);

    ledgers_[static_cast<std::size_t>(unit)].issue += issue;
    ledgers_[static_cast<std::size_t>(unit)].stall += stall;
  }

  /// Charge an Over Events kernel visit of one warp: the masked pass reads
  /// the whole state span, processes `records`, writes back active lanes.
  void charge_oe_warp(const std::vector<LaneRecord>& records,
                      std::int32_t unit, std::uint64_t first_particle,
                      bool streams_state) {
    ++warp_steps_;
    double issue = 0.0;
    std::int32_t active = 0;
    std::int32_t gather_lanes = 0;
    double alu_max = 0.0;
    for (const LaneRecord& r : records) {
      if (!r.active) continue;
      ++active;
      if (r.density_flat >= 0 || r.xs_index >= 0) ++gather_lanes;
      const double alu = kEventBaseCycles + r.flops +
                         kRngCyclesPerDraw * r.rng +
                         kXsStepCycles * r.xs_steps;
      alu_max = std::max(alu_max, alu);
    }
    // Mask checks for the whole warp (the kernel visits every particle).
    issue += kMaskCheckCycles * static_cast<double>(records.size());
    // Single event path per kernel (§V-B), but the masked vector lanes only
    // sustain a fraction of their width on these gather-heavy bodies.
    const double effective_lanes = std::max(
        1.0, device_.simd_lanes * device_.simd_efficiency);
    issue += alu_max * std::max(1.0, active / effective_lanes);
    // Per-lane gather/scatter issue (§VII-A.3).
    issue += kGatherCyclesPerLane * gather_lanes;
    issue /= device_.issue_per_cycle;
    divergence_paths_sum_ += 1.0;
    active_lane_sum_ += active;
    lane_slots_sum_ += static_cast<double>(records.size());

    double stall = 0.0;
    if (streams_state && active > 0) {
      // Contiguous state span: read the whole warp footprint, write the
      // active lanes back — the §VII-A.2 streaming traffic.  Streamed
      // arrays are prefetchable: charge bandwidth for the misses plus a
      // single on-chip latency, never the full DRAM latency.
      line_scratch_.clear();
      const std::uint64_t span_begin = first_particle * kOeStateBytes;
      const std::uint64_t span_bytes =
          static_cast<std::uint64_t>(records.size()) * kOeStateBytes;
      for (std::uint64_t off = 0; off < span_bytes;
           off += static_cast<std::uint64_t>(device_.memory.line_bytes)) {
        push_line(make_address(Region::kParticleState, span_begin + off));
      }
      stall += probe_stream_lines();
      // Write-back of the active lanes.
      dram_bytes_ += static_cast<std::uint64_t>(active) * kOeStateBytes;
    }
    // Random accesses performed by the handlers (density reloads, table
    // walks): full dependent-latency accounting.
    line_scratch_.clear();
    for (const LaneRecord& r : records) {
      if (!r.active) continue;
      if (r.density_flat >= 0) {
        push_line(make_address(Region::kDensity,
                               static_cast<std::uint64_t>(r.density_flat) * 8));
      }
      push_xs_lines(r, /*include_walk_lines=*/false);
    }
    stall += probe_random_lines();
    ledgers_[static_cast<std::size_t>(unit)].issue += issue;
    ledgers_[static_cast<std::size_t>(unit)].stall += stall;
  }

  /// Charge a batch of tally flushes (the Over Events drain kernel): the
  /// batch spreads over all units; same-cell chains serialise.
  void charge_drain(const std::vector<std::int64_t>& cells) {
    if (cells.empty()) return;
    const double stall = charge_atomics(cells, units_);
    for (auto& ledger : ledgers_) ledger.stall += stall;
  }

  /// Kernel-launch/barrier overhead: a serial per-iteration cost on every
  /// unit, amortized to the extrapolation particle count (the paper-scale
  /// run pays the same launches over far more particles).
  void charge_barrier(std::int32_t launches) {
    const double cycles = device_.kernel_launch_ns * device_.clock_ghz *
                          static_cast<double>(launches) * fixed_cost_scale_;
    for (auto& ledger : ledgers_) ledger.stall += cycles;
  }

  /// Assemble the final estimate.
  void finalise(SimtEstimate& out) const {
    double worst = 0.0;
    double issue_total = 0.0;
    double stall_total = 0.0;
    for (const UnitLedger& ledger : ledgers_) {
      issue_total += ledger.issue;
      stall_total += ledger.stall;
      // Latency hiding: `contexts_` resident warps/threads overlap their
      // stalls (§VIII "architectures that are tolerant to latencies").
      worst = std::max(worst,
                       ledger.issue + ledger.stall / std::max(1, contexts_));
    }
    const double exec_seconds = worst / (device_.clock_ghz * 1.0e9);
    const double bw_seconds =
        static_cast<double>(dram_bytes_) /
        (device_.memory.dram_bandwidth_gbps * 1.0e9);
    out.seconds = std::max(exec_seconds, bw_seconds);
    out.issue_cycles = static_cast<std::uint64_t>(issue_total);
    out.stall_cycles = static_cast<std::uint64_t>(stall_total);
    out.dram_bytes = dram_bytes_;
    out.achieved_gbps =
        out.seconds > 0.0 ? static_cast<double>(dram_bytes_) / out.seconds / 1.0e9
                          : 0.0;
    out.bandwidth_utilization =
        out.achieved_gbps / device_.memory.dram_bandwidth_gbps;
    out.memory_stall_fraction =
        (issue_total + stall_total) > 0.0
            ? stall_total / (issue_total + stall_total)
            : 0.0;
    out.divergence_paths =
        warp_steps_ > 0 ? divergence_paths_sum_ / static_cast<double>(warp_steps_)
                        : 1.0;
    out.lane_activity =
        lane_slots_sum_ > 0.0 ? active_lane_sum_ / lane_slots_sum_ : 1.0;
    out.contexts = contexts_;
    out.atomic_conflict_depth =
        conflict_batches_ > 0
            ? conflict_depth_sum_ / static_cast<double>(conflict_batches_)
            : 1.0;
    out.cache_hit_rate = cache_.hit_rate();
  }

 private:
  /// Collect the table lines one lane's XS lookup touches: an energy line
  /// and a value line per reaction walk.
  void push_xs_lines(const LaneRecord& r, bool include_walk_lines) {
    if (r.xs_index < 0) return;
    const auto off = static_cast<std::uint64_t>(r.xs_index) * 8;
    push_line(make_address(Region::kXsEnergy, off));
    push_line(make_address(Region::kXsValue, off));
    if (!include_walk_lines) return;
    // A long cached-linear walk touches extra table lines.
    const std::int32_t extra_lines =
        (r.xs_steps * 8) / device_.memory.line_bytes;
    for (std::int32_t l = 1; l <= extra_lines; ++l) {
      push_line(make_address(
          Region::kXsEnergy,
          off + static_cast<std::uint64_t>(l) *
                    static_cast<std::uint64_t>(device_.memory.line_bytes)));
    }
  }

  void push_line(std::uint64_t addr) {
    const std::uint64_t line =
        addr / static_cast<std::uint64_t>(device_.memory.line_bytes);
    if (std::find(line_scratch_.begin(), line_scratch_.end(), line) ==
        line_scratch_.end()) {
      line_scratch_.push_back(line);
    }
  }

  /// Probe the collected unique lines as *dependent* random accesses: the
  /// transport chain cannot start the next event before these loads land,
  /// so every region with a miss costs a full DRAM latency (§VI-A "waiting
  /// for memory to come into L2").  Misses also charge bandwidth.
  double probe_random_lines() {
    std::int32_t misses = 0;
    std::int32_t hits = 0;
    std::uint64_t missed_regions = 0;  // bitset over Region ids
    for (std::uint64_t line : line_scratch_) {
      const std::uint64_t addr =
          line * static_cast<std::uint64_t>(device_.memory.line_bytes);
      if (cache_.access(addr)) {
        ++hits;
      } else {
        ++misses;
        missed_regions |= 1ull << (addr >> 40);
        dram_bytes_ += static_cast<std::uint64_t>(device_.memory.line_bytes);
      }
    }
    double stall = 0.0;
    const auto dependent_chains =
        static_cast<double>(__builtin_popcountll(missed_regions));
    if (misses > 0) {
      stall = dependent_chains * device_.memory.dram_latency_ns *
                  device_.clock_ghz +
              kMissOverlapCycles * (misses - static_cast<int>(dependent_chains));
    } else if (hits > 0) {
      stall = device_.memory.cache_latency_ns * device_.clock_ghz;
    }
    return stall;
  }

  /// Probe the collected lines as a *streamed* access: hardware prefetch
  /// hides the DRAM latency, so misses cost bandwidth plus one on-chip
  /// latency for the whole batch.
  double probe_stream_lines() {
    bool any_miss = false;
    for (std::uint64_t line : line_scratch_) {
      const std::uint64_t addr =
          line * static_cast<std::uint64_t>(device_.memory.line_bytes);
      if (!cache_.access(addr)) {
        any_miss = true;
        dram_bytes_ += static_cast<std::uint64_t>(device_.memory.line_bytes);
      }
    }
    return any_miss ? device_.memory.cache_latency_ns * device_.clock_ghz : 0.0;
  }

  /// Serialisation cost of a flush batch; conflicts grouped by cell.
  double charge_atomics(const std::vector<std::int64_t>& cells,
                        std::int32_t parallel_units) {
    if (cells.empty()) return 0.0;
    conflict_map_.clear();
    std::int64_t depth_max = 1;
    for (std::int64_t c : cells) {
      const std::int64_t d = ++conflict_map_[c];
      depth_max = std::max(depth_max, d);
    }
    ++conflict_batches_;
    conflict_depth_sum_ += static_cast<double>(depth_max);
    const double mult =
        device_.native_fp64_atomics ? 1.0 : kEmulatedAtomicMult;
    const double atomic_cycles = device_.atomic_ns * device_.clock_ghz * mult;
    // Each flush pays one atomic RMW; same-cell chains serialise on top.
    // The tally lines bounce between caches rather than streaming to DRAM,
    // so atomics cost latency (atomic_ns), not memory bandwidth.
    const double total = atomic_cycles * static_cast<double>(cells.size());
    return total / std::max(1, parallel_units);
  }

  const DeviceModel& device_;
  DirectMappedCache cache_;
  std::int32_t units_;
  std::int32_t contexts_;
  std::vector<UnitLedger> ledgers_;
  std::uint64_t dram_bytes_ = 0;
  double spill_bytes_per_event_ = 0.0;
  double fixed_cost_scale_ = 1.0;

  std::uint64_t warp_steps_ = 0;
  double divergence_paths_sum_ = 0.0;
  double active_lane_sum_ = 0.0;
  double lane_slots_sum_ = 0.0;
  double conflict_depth_sum_ = 0.0;
  std::uint64_t conflict_batches_ = 0;

  std::vector<std::uint64_t> line_scratch_;
  std::vector<std::int64_t> conflict_scratch_;
  std::unordered_map<std::int64_t, std::int64_t> conflict_map_;
};

/// A simulated run's state beside its World, which build_world makes by the
/// same rule every solve uses.
struct SimWorld {
  explicit SimWorld(const SimtConfig& cfg)
      : world(build_world(cfg.deck)),
        tally(world->mesh.num_cells(), TallyMode::kAtomic, 1,
              max_flush_energy(cfg.deck, world->xs->capture_rate)),
        particles(static_cast<std::size_t>(cfg.deck.n_particles)),
        flight(static_cast<std::size_t>(cfg.deck.n_particles)) {
    ctx.mesh = &world->mesh;
    ctx.density = &world->density;
    ctx.xs_capture = &world->xs->capture;
    ctx.xs_scatter = &world->xs->scatter;
    ctx.tally = &tally;
    ctx.lookup = cfg.lookup;
    ctx.molar_mass_g_mol = cfg.deck.molar_mass_g_mol;
    ctx.mass_number = cfg.deck.mass_number;
    ctx.min_energy_ev = cfg.deck.min_energy_ev;
    ctx.min_weight = cfg.deck.min_weight;
    ctx.seed = cfg.deck.seed;
    initialise_particles(AosView(particles.data(), particles.size()),
                         cfg.deck, world->mesh);
  }

  std::shared_ptr<const World> world;
  EnergyTally tally;
  std::vector<Particle> particles;
  std::vector<FlightState> flight;
  TransportContext ctx;
};

void resolve_parallelism(const SimtConfig& cfg, std::int32_t* units_used,
                         std::int32_t* contexts) {
  const DeviceModel& d = cfg.device;
  if (d.simt_lanes > 1) {
    // GPU: all SMs active; occupancy from the register model.
    *units_used = d.compute_units;
    const std::int32_t regs = cfg.regs_per_thread > 0
                                  ? cfg.regs_per_thread
                                  : d.default_regs_per_thread;
    *contexts = d.occupancy(regs);
    return;
  }
  // CPU: map `threads` onto cores, then SMT ways.
  const std::int32_t t =
      cfg.threads > 0 ? cfg.threads : d.compute_units * d.max_contexts;
  *units_used = std::min(t, d.compute_units);
  *contexts = std::clamp((t + *units_used - 1) / *units_used, 1,
                         d.max_contexts);
}

SimtEstimate simulate_over_particles(const SimtConfig& cfg) {
  SimWorld world(cfg);
  std::int32_t units_used = 1, contexts = 1;
  resolve_parallelism(cfg, &units_used, &contexts);
  CostEngine engine(cfg, units_used, contexts);
  const AosView view(world.particles.data(), world.particles.size());
  EventCounters ec;

  const auto n = static_cast<std::int64_t>(view.size());
  const std::int32_t width = std::max(1, cfg.device.simt_lanes);
  const std::int64_t warps = (n + width - 1) / width;
  std::vector<LaneRecord> records(static_cast<std::size_t>(width));

  for (std::int32_t step = 0; step < cfg.deck.n_timesteps; ++step) {
    // Wake survivors.
    for (std::int64_t i = 0; i < n; ++i) {
      if (view.state(i) == ParticleState::kCensus) {
        view.state(i) = ParticleState::kAlive;
        view.dt_to_census(i) = cfg.deck.dt_s;
      }
    }
    for (std::int64_t w = 0; w < warps; ++w) {
      const std::int64_t lo = w * width;
      const std::int64_t hi = std::min(n, lo + width);
      const auto unit = static_cast<std::int32_t>(w % units_used);

      // History start: the flight-state gather counts as a warp-step.
      for (std::int64_t i = lo; i < hi; ++i) {
        LaneRecord& rec = records[static_cast<std::size_t>(i - lo)];
        rec = LaneRecord{};
        if (view.state(i) != ParticleState::kAlive) continue;
        rec.active = true;
        RecordingHooks hooks(&rec);
        load_flight_state(view, static_cast<std::size_t>(i), world.ctx,
                          world.flight[static_cast<std::size_t>(i)], ec, hooks);
      }
      engine.charge_warp_step(records, unit);

      // Lock-step event loop until the warp retires (§V-A Listing 1).
      for (;;) {
        bool any_alive = false;
        for (std::int64_t i = lo; i < hi; ++i) {
          LaneRecord& rec = records[static_cast<std::size_t>(i - lo)];
          rec = LaneRecord{};
          if (view.state(i) != ParticleState::kAlive) continue;
          any_alive = true;
          rec.active = true;
          RecordingHooks hooks(&rec);
          advance_one_event(view, static_cast<std::size_t>(i), world.ctx,
                            world.flight[static_cast<std::size_t>(i)], ec,
                            /*thread=*/0, hooks);
        }
        if (!any_alive) break;
        engine.charge_warp_step(records, unit);
      }
    }
  }

  SimtEstimate out;
  engine.finalise(out);
  out.counters = ec;
  const TallyImage& cells = world.tally.merged();
  out.tally_total = cells.total();
  out.tally_checksum = cells.checksum();
  return out;
}

SimtEstimate simulate_over_events(const SimtConfig& cfg) {
  SimWorld world(cfg);
  std::int32_t units_used = 1, contexts = 1;
  resolve_parallelism(cfg, &units_used, &contexts);
  CostEngine engine(cfg, units_used, contexts);
  const AosView view(world.particles.data(), world.particles.size());
  EventCounters ec;

  const auto n = static_cast<std::int64_t>(view.size());
  const std::int32_t width = std::max(1, cfg.device.simd_lanes);
  const std::int64_t warps = (n + width - 1) / width;
  std::vector<LaneRecord> records(static_cast<std::size_t>(width));
  std::vector<EventSelection> selections(static_cast<std::size_t>(n));
  std::vector<std::int64_t> drain;

  auto for_warp = [&](std::int64_t w, auto&& body) {
    const std::int64_t lo = w * width;
    const std::int64_t hi = std::min(n, lo + width);
    for (std::int64_t i = lo; i < hi; ++i) {
      LaneRecord& rec = records[static_cast<std::size_t>(i - lo)];
      rec = LaneRecord{};
      body(i, rec);
    }
    engine.charge_oe_warp(records, static_cast<std::int32_t>(w % units_used),
                          static_cast<std::uint64_t>(lo),
                          /*streams_state=*/true);
  };

  for (std::int32_t step = 0; step < cfg.deck.n_timesteps; ++step) {
    // Wake + state build kernel.
    for (std::int64_t w = 0; w < warps; ++w) {
      for_warp(w, [&](std::int64_t i, LaneRecord& rec) {
        if (view.state(i) == ParticleState::kCensus) {
          view.state(i) = ParticleState::kAlive;
          view.dt_to_census(i) = cfg.deck.dt_s;
        }
        if (view.state(i) != ParticleState::kAlive) return;
        rec.active = true;
        RecordingHooks hooks(&rec);
        load_flight_state(view, static_cast<std::size_t>(i), world.ctx,
                          world.flight[static_cast<std::size_t>(i)], ec, hooks);
      });
    }
    engine.charge_barrier(1);

    // Breadth-first iterations (§V-B Listing 2).
    for (;;) {
      std::int64_t in_flight = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        if (view.state(i) == ParticleState::kAlive) ++in_flight;
      }
      if (in_flight == 0) break;

      // Kernel 1: event search.
      for (std::int64_t w = 0; w < warps; ++w) {
        for_warp(w, [&](std::int64_t i, LaneRecord& rec) {
          if (view.state(i) != ParticleState::kAlive) return;
          rec.active = true;
          RecordingHooks hooks(&rec);
          selections[static_cast<std::size_t>(i)] = select_and_move(
              view, static_cast<std::size_t>(i), world.ctx,
              world.flight[static_cast<std::size_t>(i)], ec, hooks);
        });
      }

      // Snapshot the drain produced by the handlers below: deposits are
      // deferred to the separate tally kernel (§VI-G), so intercept the
      // tally_flat records.
      drain.clear();

      // Kernel 2: collisions.
      for (std::int64_t w = 0; w < warps; ++w) {
        for_warp(w, [&](std::int64_t i, LaneRecord& rec) {
          if (view.state(i) != ParticleState::kAlive) return;
          if (selections[static_cast<std::size_t>(i)].event !=
              EventType::kCollision) {
            return;
          }
          rec.active = true;
          RecordingHooks hooks(&rec);
          handle_collision(view, static_cast<std::size_t>(i), world.ctx,
                           world.flight[static_cast<std::size_t>(i)], ec,
                           /*thread=*/0, hooks);
          if (rec.tally_flat >= 0) {
            drain.push_back(rec.tally_flat);
            rec.tally_flat = -1;  // cost moves to the drain kernel
          }
        });
      }

      // Kernel 3: facets.
      for (std::int64_t w = 0; w < warps; ++w) {
        for_warp(w, [&](std::int64_t i, LaneRecord& rec) {
          if (view.state(i) != ParticleState::kAlive) return;
          if (selections[static_cast<std::size_t>(i)].event !=
              EventType::kFacet) {
            return;
          }
          rec.active = true;
          RecordingHooks hooks(&rec);
          handle_facet(view, static_cast<std::size_t>(i), world.ctx,
                       selections[static_cast<std::size_t>(i)].facet,
                       world.flight[static_cast<std::size_t>(i)], ec,
                       /*thread=*/0, hooks);
          if (rec.tally_flat >= 0) {
            drain.push_back(rec.tally_flat);
            rec.tally_flat = -1;
          }
        });
      }

      // Kernel 4: census.
      for (std::int64_t w = 0; w < warps; ++w) {
        for_warp(w, [&](std::int64_t i, LaneRecord& rec) {
          if (view.state(i) != ParticleState::kAlive) return;
          if (selections[static_cast<std::size_t>(i)].event !=
              EventType::kCensus) {
            return;
          }
          rec.active = true;
          RecordingHooks hooks(&rec);
          handle_census(view, static_cast<std::size_t>(i), world.ctx,
                        world.flight[static_cast<std::size_t>(i)], ec,
                        /*thread=*/0, hooks);
          if (rec.tally_flat >= 0) {
            drain.push_back(rec.tally_flat);
            rec.tally_flat = -1;
          }
        });
      }

      // Kernel 5: the separate tally loop.
      engine.charge_drain(drain);
      engine.charge_barrier(5);
    }
  }

  SimtEstimate out;
  engine.finalise(out);
  out.counters = ec;
  const TallyImage& cells = world.tally.merged();
  out.tally_total = cells.total();
  out.tally_checksum = cells.checksum();
  return out;
}

}  // namespace

SimtEstimate simulate_transport(const SimtConfig& config) {
  NEUTRAL_REQUIRE(config.deck.n_particles > 0, "deck must define particles");
  if (config.scheme == Scheme::kOverParticles) {
    return simulate_over_particles(config);
  }
  return simulate_over_events(config);
}

double scale_seconds(const SimtEstimate& estimate,
                     std::int64_t simulated_particles,
                     std::int64_t target_particles) {
  NEUTRAL_REQUIRE(simulated_particles > 0 && target_particles > 0,
                  "particle counts must be positive");
  return estimate.seconds * static_cast<double>(target_particles) /
         static_cast<double>(simulated_particles);
}

}  // namespace neutral::simt
