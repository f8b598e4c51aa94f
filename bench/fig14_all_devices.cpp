// Figure 14: all tested devices, Over Particles scheme (§VIII) — the
// cross-architecture summary.  Hardware-gated: all six device models, plus
// the measured host row for grounding.
#include "bench_common.h"
#include "sim_common.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    SimScale scale;
    if (!SimScale::parse(cli, &scale)) return 0;
    const std::string csv =
        sim_banner("fig14_all_devices", "Fig 14 (all devices, OP)", scale);

    ResultTable table("Fig 14 — Over Particles across devices (paper scale)",
                      {"device", "stream [s]", "scatter [s]", "csp [s]",
                       "csp vs BDW"});
    std::int32_t count = 0;
    const simt::DeviceModel* devices = simt::all_devices(&count);
    double bdw_csp = 0.0;
    for (std::int32_t i = 0; i < count; ++i) {
      const simt::DeviceModel& device = devices[i];
      double seconds[3] = {0, 0, 0};
      const char* decks[3] = {"stream", "scatter", "csp"};
      for (int d = 0; d < 3; ++d) {
        seconds[d] = estimate_paper_scale(
            sim_config(device, Scheme::kOverParticles, decks[d], scale),
            decks[d], scale).seconds;
      }
      if (i == 0) bdw_csp = seconds[2];
      table.add_row({device.name, ResultTable::cell(seconds[0], 2),
                     ResultTable::cell(seconds[1], 2),
                     ResultTable::cell(seconds[2], 2),
                     ResultTable::cell(bdw_csp / seconds[2], 2)});
    }
    table.print();
    table.write_csv(csv);

    // Ground the model with a measured host data point at the same deck scale.
    BenchScale host_scale;
    host_scale.mesh_scale = scale.mesh_scale;
    host_scale.particle_scale = 0.002;
    SimulationConfig cfg;
    cfg.deck = host_scale.deck("csp");
    const RunResult host = run_sim(cfg);
    std::printf("\nmeasured on this host: csp %.3fs for %lld particles "
                "(%.3g events/s)\n",
                host.total_seconds,
                static_cast<long long>(cfg.deck.n_particles),
                host.events_per_second());
    std::printf(
        "paper: P100 fastest everywhere (3.2x over dual Broadwell on csp,\n"
        "4.5x over K20X); BDW 1.34x over POWER8; KNL disappoints; K20X\n"
        "slowest on csp by a small margin.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig14_all_devices: %s\n", e.what());
    return 1;
  }
}
