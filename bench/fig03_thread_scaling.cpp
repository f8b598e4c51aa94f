// Figure 3: parallel efficiency vs thread count for the bandwidth-bound
// arch proxies flow and hot (§VI-B), beside the machine model's curves.
//
// Two parts:
//   1. measured host sweep of the proxies up to the host's logical CPUs
//      (neutral's own thread scaling is a row group of the bench_transport
//      record: its `scaling_eff` column);
//   2. machine-model efficiency curves for the paper's dual-socket
//      Broadwell and POWER8, where the NUMA/SMT structure lives.
#include "bench_common.h"
#include "proxies/flow.h"
#include "proxies/hot.h"
#include "sim_common.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    BenchScale scale;
    if (!BenchScale::parse(cli, &scale)) return 0;
    const std::string csv =
        banner("fig03_thread_scaling", "Fig 3 (parallel efficiency)", scale);

    const std::int32_t hw = probe_host().logical_cpus;
    ResultTable table("Fig 3a — measured parallel efficiency (this host)",
                      {"threads", "flow eff", "hot eff"});

    // Baselines at 1 thread.
    double base_flow = 0.0, base_hot = 0.0;
    for (std::int32_t t = 1; t <= hw; t *= 2) {
      set_thread_count(t);

      FlowConfig fc;
      fc.nx = fc.ny = static_cast<std::int32_t>(512 * scale.mesh_scale / 0.08);
      FlowSolver flow(fc);
      flow.initialise_pulse();
      const double t_flow = flow.run(20);

      HotConfig hc;
      hc.nx = hc.ny = fc.nx;
      HotSolver hot(hc);
      hot.initialise_hot_square();
      const double t_hot = hot.solve().seconds;

      if (t == 1) {
        base_flow = t_flow;
        base_hot = t_hot;
      }
      auto eff = [&](double base, double now) {
        return base / (now * static_cast<double>(t));
      };
      table.add_row({ResultTable::cell(static_cast<long>(t)),
                     ResultTable::cell(eff(base_flow, t_flow), 3),
                     ResultTable::cell(eff(base_hot, t_hot), 3)});
    }
    set_thread_count(hw);
    table.print();
    table.write_csv(csv);

    // Part 2: the model's efficiency curves for the paper's CPUs.
    SimScale sim_scale;
    sim_scale.mesh_scale = scale.mesh_scale;
    sim_scale.particles = 1024;
    ResultTable model("Fig 3b — model parallel efficiency (paper CPUs, csp, OP)",
                      {"device", "threads", "efficiency"});
    for (const auto& device :
         {simt::broadwell_2699v4_dual(), simt::power8_dual10()}) {
      double base = 0.0;
      const std::int32_t total =
          device.compute_units * device.max_contexts;
      for (std::int32_t t = 1; t <= total; t *= 2) {
        auto cfg = sim_config(device, Scheme::kOverParticles, "csp", sim_scale);
        cfg.threads = t;
        const double seconds = simt::simulate_transport(cfg).seconds;
        if (t == 1) base = seconds;
        model.add_row({device.name, ResultTable::cell(static_cast<long>(t)),
                       ResultTable::cell(
                           base / (seconds * static_cast<double>(t)), 3)});
      }
    }
    model.print();
    model.write_csv("fig03_thread_scaling_model.csv");
    std::printf(
        "\npaper: neutral scales well within a socket, drops crossing the NUMA\n"
        "boundary; flow/hot saturate memory bandwidth earlier; POWER8 SMT lanes\n"
        "step at 6 and 11 threads.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig03_thread_scaling: %s\n", e.what());
    return 1;
  }
}
