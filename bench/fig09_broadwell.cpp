// Figure 9: Over Particles vs Over Events on the dual-socket Broadwell,
// all three problems (§VII-A).  Native host measurements (the schemes are
// fully implemented here) plus the Broadwell-model estimates at paper scale.
#include "bench_common.h"
#include "sim_common.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    BenchScale scale;
    if (!BenchScale::parse(cli, &scale)) return 0;
    const std::string csv =
        banner("fig09_broadwell", "Fig 9 (Broadwell, OP vs OE)", scale);

    ResultTable measured("Fig 9a — measured on this host (laptop scale)",
                         {"problem", "over-particles [s]", "over-events [s]",
                          "OE/OP"});
    for (const std::string name : {"stream", "scatter", "csp"}) {
      SimulationConfig op;
      op.deck = scale.deck(name);
      const double t_op = run_sim(op).total_seconds;
      SimulationConfig oe = op;
      oe.scheme = Scheme::kOverEvents;
      oe.layout = Layout::kSoA;
      oe.tally_mode = TallyMode::kDeferredAtomic;
      const double t_oe = run_sim(oe).total_seconds;
      measured.add_row({name, ResultTable::cell(t_op, 3),
                        ResultTable::cell(t_oe, 3),
                        ResultTable::cell(t_oe / t_op, 2)});
    }
    measured.print();
    measured.write_csv(csv);

    SimScale sim_scale;
    ResultTable model(
        "Fig 9b — Broadwell-model estimate at paper scale (88 threads)",
        {"problem", "over-particles [s]", "over-events [s]", "OE/OP"});
    for (const std::string name : {"stream", "scatter", "csp"}) {
      const auto dev = simt::broadwell_2699v4_dual();
      const double t_op = estimate_paper_scale(
          sim_config(dev, Scheme::kOverParticles, name, sim_scale), name,
          sim_scale).seconds;
      const double t_oe = estimate_paper_scale(
          sim_config(dev, Scheme::kOverEvents, name, sim_scale), name,
          sim_scale).seconds;
      model.add_row({name, ResultTable::cell(t_op, 2),
                     ResultTable::cell(t_oe, 2),
                     ResultTable::cell(t_oe / t_op, 2)});
    }
    model.print();
    model.write_csv("fig09_broadwell_model.csv");
    std::printf(
        "\npaper: Over Particles wins every problem on Broadwell (4.56x on\n"
        "csp); fewer atomic conflicts, register caching, vectorisation that\n"
        "never pays for its gathers (§VII-A).\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig09_broadwell: %s\n", e.what());
    return 1;
  }
}
