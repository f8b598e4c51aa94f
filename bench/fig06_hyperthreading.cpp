// Figure 6: hyperthreading / SMT sweep (§VI-E).
//
// The paper's latency-bound transport gains 1.37x (Broadwell HT), 2.16x
// (KNL SMT4) and 6.2x (POWER8 SMT8) from filling every hardware thread,
// while the bandwidth-bound `flow` proxy gains nothing and loses ~1.2x when
// oversubscribed.  Host measurements plus the SMT model for the paper CPUs.
#include "bench_common.h"
#include "proxies/flow.h"
#include "sim_common.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    BenchScale scale;
    if (!BenchScale::parse(cli, &scale)) return 0;
    const std::string csv =
        banner("fig06_hyperthreading", "Fig 6 (hyperthreading/SMT)", scale);

    const std::int32_t hw = probe_host().logical_cpus;
    ResultTable measured("Fig 6a — measured thread sweep (this host, csp)",
                         {"threads", "neutral [s]", "flow [s]"});
    for (std::int32_t t = 1; t <= 4 * hw; t *= 2) {
      set_thread_count(t);
      SimulationConfig cfg;
      cfg.deck = scale.deck("csp");
      cfg.threads = t;
      const double t_neutral = run_sim(cfg).total_seconds;

      FlowConfig fc;
      fc.nx = fc.ny = static_cast<std::int32_t>(512 * scale.mesh_scale / 0.08);
      FlowSolver flow(fc);
      flow.initialise_pulse();
      const double t_flow = flow.run(20);
      measured.add_row({ResultTable::cell(static_cast<long>(t)),
                        ResultTable::cell(t_neutral, 3),
                        ResultTable::cell(t_flow, 3)});
    }
    set_thread_count(hw);
    measured.print();
    measured.write_csv(csv);
    if (hw == 1) {
      std::printf("NOTE: 1 logical CPU — the sweep only shows oversubscription "
                  "overhead; SMT gains live in the model below.\n");
    }

    SimScale sim_scale;
    sim_scale.mesh_scale = scale.mesh_scale;
    sim_scale.particles = 1024;
    ResultTable model(
        "Fig 6b — model SMT gain (csp, Over Particles): all hardware threads "
        "vs 1/core",
        {"device", "1 thread/core [s]", "all SMT [s]", "SMT speedup"});
    struct Case {
      simt::DeviceModel device;
      const char* paper;
    };
    for (const Case& c : {Case{simt::broadwell_2699v4_dual(), "1.37x"},
                          Case{simt::knl_7210_ddr(), "2.16x"},
                          Case{simt::power8_dual10(), "6.2x"}}) {
      auto cfg = sim_config(c.device, Scheme::kOverParticles, "csp", sim_scale);
      cfg.threads = c.device.compute_units;
      const double t_one = simt::simulate_transport(cfg).seconds;
      cfg.threads = c.device.compute_units * c.device.max_contexts;
      const double t_smt = simt::simulate_transport(cfg).seconds;
      model.add_row({c.device.name + std::string(" (paper ") + c.paper + ")",
                     ResultTable::cell(t_one, 4), ResultTable::cell(t_smt, 4),
                     ResultTable::cell(t_one / t_smt, 2)});
    }
    model.print();
    model.write_csv("fig06_hyperthreading_model.csv");
    std::printf(
        "\npaper: neutral gains 1.37x/2.16x/6.2x from SMT on BDW/KNL/POWER8;\n"
        "flow gains nothing (bandwidth already saturated) and loses ~1.2x when\n"
        "oversubscribed.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig06_hyperthreading: %s\n", e.what());
    return 1;
  }
}
