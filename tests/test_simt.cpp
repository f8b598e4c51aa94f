// Tests for the machine-model simulator (simt/): cache model, device
// presets, physics fidelity (simulator == native), and the qualitative
// architecture relationships the paper reports (Figs 9-14).
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"
#include "simt/cache.h"
#include "simt/device.h"
#include "simt/transport_sim.h"

namespace neutral::simt {
namespace {

// ---------------------------------------------------------------------------
// Cache model
// ---------------------------------------------------------------------------

TEST(Cache, ColdMissThenHit) {
  DirectMappedCache c(1 << 16, 64);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
}

TEST(Cache, ConflictEviction) {
  DirectMappedCache c(/*capacity=*/128, /*line=*/64);  // 2 lines
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(128));  // maps onto slot 0 -> evicts
  EXPECT_FALSE(c.access(0));    // miss again
}

TEST(Cache, HitRateTracksAccesses) {
  DirectMappedCache c(1 << 16, 64);
  c.access(0);
  c.access(0);
  c.access(0);
  EXPECT_NEAR(c.hit_rate(), 2.0 / 3.0, 1e-12);
  c.reset();
  EXPECT_EQ(c.probes(), 0u);
  EXPECT_FALSE(c.access(0));
}

TEST(Cache, CapacityRoundsToPowerOfTwoLines) {
  DirectMappedCache c(100 * 64, 64);  // 100 lines -> 64 lines
  // Distinct lines beyond capacity evict: address space walk misses.
  int misses = 0;
  for (int i = 0; i < 128; ++i) {
    if (!c.access(static_cast<std::uint64_t>(i) * 64)) ++misses;
  }
  EXPECT_EQ(misses, 128);  // cold pass all miss
  misses = 0;
  for (int i = 0; i < 128; ++i) {
    if (!c.access(static_cast<std::uint64_t>(i) * 64)) ++misses;
  }
  EXPECT_EQ(misses, 128);  // 64-line cache cannot hold 128 lines
}

TEST(Cache, RegionsDoNotAlias) {
  const auto a = make_address(Region::kDensity, 0);
  const auto b = make_address(Region::kTally, 0);
  EXPECT_NE(a, b);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(DirectMappedCache(0, 64), Error);
}

// ---------------------------------------------------------------------------
// Device presets
// ---------------------------------------------------------------------------

TEST(Devices, PresetsAreSane) {
  std::int32_t n = 0;
  const DeviceModel* devices = all_devices(&n);
  ASSERT_EQ(n, 6);
  for (std::int32_t i = 0; i < n; ++i) {
    const DeviceModel& d = devices[i];
    EXPECT_GT(d.compute_units, 0) << d.name;
    EXPECT_GT(d.clock_ghz, 0.0) << d.name;
    EXPECT_GT(d.memory.dram_bandwidth_gbps, 0.0) << d.name;
    EXPECT_GT(d.memory.dram_latency_ns, d.memory.cache_latency_ns) << d.name;
  }
}

TEST(Devices, OccupancyFollowsRegisterPressure) {
  const DeviceModel gpu = k20x();
  // 65536 regs / (102 regs x 32 lanes) = 20 warps.
  EXPECT_EQ(gpu.occupancy(102), 20);
  // 64 regs -> 32 warps: the §VI-H capping experiment.
  EXPECT_EQ(gpu.occupancy(64), 32);
  EXPECT_GT(gpu.occupancy(64), gpu.occupancy(102));
  // Unconstrained devices always report max contexts.
  EXPECT_EQ(broadwell_2699v4_dual().occupancy(200),
            broadwell_2699v4_dual().max_contexts);
}

TEST(Devices, McdramTradesLatencyForBandwidth) {
  const DeviceModel ddr = knl_7210_ddr();
  const DeviceModel mcdram = knl_7210_mcdram();
  EXPECT_GT(mcdram.memory.dram_bandwidth_gbps,
            3.0 * ddr.memory.dram_bandwidth_gbps);
  EXPECT_GT(mcdram.memory.dram_latency_ns, ddr.memory.dram_latency_ns);
}

// ---------------------------------------------------------------------------
// Simulator physics fidelity
// ---------------------------------------------------------------------------

ProblemDeck sim_deck(const std::string& name, std::int64_t particles) {
  ProblemDeck d = deck_by_name(name, /*mesh_scale=*/0.016, 1.0);
  d.n_particles = particles;
  d.n_timesteps = 1;
  // Shrink the XS tables with the mesh so they stay cache-resident, as at
  // paper scale (see bench/sim_common.h).
  d.xs.points = 480;
  d.seed = 77;
  return d;
}

TEST(Fidelity, SimulatorTallyMatchesNativeRunExactly) {
  // The simulator replays the identical physics: its tally must equal the
  // native single-thread tally bit-for-bit (same deck, same seed).
  SimtConfig sc;
  sc.device = broadwell_2699v4_dual();
  sc.deck = sim_deck("csp", 400);
  const SimtEstimate est = simulate_transport(sc);

  SimulationConfig nc;
  nc.deck = sc.deck;
  nc.threads = 1;
  Simulation native(nc);
  const RunResult r = native.run();

  EXPECT_EQ(est.counters.collisions, r.counters.collisions);
  EXPECT_EQ(est.counters.facets, r.counters.facets);
  EXPECT_EQ(est.counters.censuses, r.counters.censuses);
  EXPECT_EQ(est.tally_total, r.budget.tally_total);
  EXPECT_EQ(est.tally_checksum, r.tally_checksum);
}

TEST(Fidelity, OverEventsSimulatorSamePhysicsAsOverParticles) {
  SimtConfig op;
  op.device = p100();
  op.deck = sim_deck("csp", 300);
  SimtConfig oe = op;
  oe.scheme = Scheme::kOverEvents;
  const SimtEstimate a = simulate_transport(op);
  const SimtEstimate b = simulate_transport(oe);
  EXPECT_EQ(a.counters.collisions, b.counters.collisions);
  EXPECT_EQ(a.counters.facets, b.counters.facets);
  EXPECT_EQ(a.tally_total, b.tally_total);
  EXPECT_EQ(a.tally_checksum, b.tally_checksum);
}

// ---------------------------------------------------------------------------
// Qualitative architecture relationships (the paper's headline shapes)
// ---------------------------------------------------------------------------

TEST(Estimates, OverParticlesBeatsOverEventsOnCsp) {
  // §VII: Over Particles wins on every device for csp.
  for (const auto& device : {broadwell_2699v4_dual(), p100()}) {
    SimtConfig op;
    op.device = device;
    op.deck = sim_deck("csp", 512);
    SimtConfig oe = op;
    oe.scheme = Scheme::kOverEvents;
    const double t_op = simulate_transport(op).seconds;
    const double t_oe = simulate_transport(oe).seconds;
    EXPECT_GT(t_oe, t_op) << device.name;
  }
}

TEST(Estimates, P100FasterThanK20XForOverParticles) {
  // §VIII: 4.5x generational speedup (we accept >2x as shape-correct).
  SimtConfig old_gpu;
  old_gpu.device = k20x();
  old_gpu.deck = sim_deck("csp", 512);
  SimtConfig new_gpu = old_gpu;
  new_gpu.device = p100();
  const double t_k20x = simulate_transport(old_gpu).seconds;
  const double t_p100 = simulate_transport(new_gpu).seconds;
  EXPECT_GT(t_k20x, 2.0 * t_p100);
}

TEST(Estimates, OverEventsGainsMoreFromMcdramThanOverParticles) {
  // §VII-B: the bandwidth-hungry scheme benefits from MCDRAM (2.38x in the
  // paper); the latency-bound scheme barely moves.
  SimtConfig base;
  base.deck = sim_deck("csp", 512);

  auto runtime = [&](const DeviceModel& dev, Scheme scheme) {
    SimtConfig c = base;
    c.device = dev;
    c.scheme = scheme;
    return simulate_transport(c).seconds;
  };
  const double op_gain = runtime(knl_7210_ddr(), Scheme::kOverParticles) /
                         runtime(knl_7210_mcdram(), Scheme::kOverParticles);
  const double oe_gain = runtime(knl_7210_ddr(), Scheme::kOverEvents) /
                         runtime(knl_7210_mcdram(), Scheme::kOverEvents);
  EXPECT_GT(oe_gain, op_gain);
}

TEST(Estimates, OverEventsAchievesHigherBandwidthUtilization) {
  // §VII-D: OE hits ~50% of achievable bandwidth vs ~20% for OP, despite
  // being slower.
  SimtConfig op;
  op.device = k20x();
  op.deck = sim_deck("csp", 512);
  SimtConfig oe = op;
  oe.scheme = Scheme::kOverEvents;
  const SimtEstimate e_op = simulate_transport(op);
  const SimtEstimate e_oe = simulate_transport(oe);
  EXPECT_GT(e_oe.bandwidth_utilization, e_op.bandwidth_utilization);
}

TEST(Estimates, SmtImprovesLatencyBoundTransport) {
  // Fig 6: running all hardware threads beats one thread per core.
  SimtConfig cfg;
  cfg.device = power8_dual10();
  cfg.deck = sim_deck("csp", 512);
  cfg.threads = 20;  // one per core
  const double t_single = simulate_transport(cfg).seconds;
  cfg.threads = 160;  // SMT8
  const double t_smt = simulate_transport(cfg).seconds;
  EXPECT_LT(t_smt, t_single);
}

TEST(Estimates, MoreThreadsNeverSlowerOnCpuModel) {
  SimtConfig cfg;
  cfg.device = broadwell_2699v4_dual();
  cfg.deck = sim_deck("stream", 256);
  double prev = 1e30;
  for (std::int32_t t : {1, 4, 16, 44, 88}) {
    cfg.threads = t;
    const double s = simulate_transport(cfg).seconds;
    EXPECT_LE(s, prev * 1.001) << t << " threads";
    prev = s;
  }
}

TEST(Estimates, RegisterCappingHelpsK20X) {
  // §VI-H: capping 102 -> 64 registers improved K20X by 1.6x.  Needs
  // enough warps per SMX for the occupancy limit to bind:
  // 16384 particles = 512 warps over 14 SMX = ~36 resident candidates.
  SimtConfig cfg;
  cfg.device = k20x();
  cfg.deck = sim_deck("csp", 16384);
  cfg.regs_per_thread = 102;
  const double t_full = simulate_transport(cfg).seconds;
  cfg.regs_per_thread = 64;
  const double t_capped = simulate_transport(cfg).seconds;
  EXPECT_LT(t_capped, t_full);
}

TEST(Estimates, DivergenceVisibleOnWarpDevices) {
  // csp mixes facet and collision events: warps must show >1 path.
  SimtConfig cfg;
  cfg.device = p100();
  cfg.deck = sim_deck("csp", 512);
  const SimtEstimate e = simulate_transport(cfg);
  EXPECT_GT(e.divergence_paths, 1.0);
  EXPECT_LE(e.divergence_paths, 3.0);
  // CPU (1 lane) never diverges.
  cfg.device = broadwell_2699v4_dual();
  EXPECT_DOUBLE_EQ(simulate_transport(cfg).divergence_paths, 1.0);
}

TEST(Estimates, MemoryStallDominatesOnGpu) {
  // §VII-E: ~87% of kernel time waits on memory dependencies.
  SimtConfig cfg;
  cfg.device = p100();
  cfg.deck = sim_deck("csp", 512);
  const SimtEstimate e = simulate_transport(cfg);
  EXPECT_GT(e.memory_stall_fraction, 0.5);
}

TEST(Estimates, ScaleSecondsIsLinear) {
  SimtEstimate e;
  e.seconds = 2.0;
  EXPECT_DOUBLE_EQ(scale_seconds(e, 100, 1000), 20.0);
  EXPECT_THROW(scale_seconds(e, 0, 10), Error);
}

TEST(Estimates, EstimateFieldsPopulated) {
  SimtConfig cfg;
  cfg.device = knl_7210_mcdram();
  cfg.deck = sim_deck("scatter", 128);
  const SimtEstimate e = simulate_transport(cfg);
  EXPECT_GT(e.seconds, 0.0);
  EXPECT_GT(e.dram_bytes, 0u);
  EXPECT_GT(e.issue_cycles, 0u);
  EXPECT_GE(e.cache_hit_rate, 0.0);
  EXPECT_LE(e.cache_hit_rate, 1.0);
  EXPECT_GE(e.contexts, 1);
}

}  // namespace
}  // namespace neutral::simt
