// Figure 11: POWER8 (160 SMT threads), Over Particles vs Over Events
// (§VII-C).  Hardware-gated: POWER8 machine model.
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
        sim_banner("fig11_power8", "Fig 11 (POWER8)", scale);

    ResultTable table("Fig 11 — POWER8 estimates at paper scale (160 threads)",
                      {"problem", "over-particles [s]", "over-events [s]",
                       "OE/OP"});
    for (const std::string name : {"stream", "scatter", "csp"}) {
      const auto dev = simt::power8_dual10();
      const double t_op = estimate_paper_scale(
          sim_config(dev, Scheme::kOverParticles, name, scale), name, scale)
          .seconds;
      const double t_oe = estimate_paper_scale(
          sim_config(dev, Scheme::kOverEvents, name, scale), name, scale)
          .seconds;
      table.add_row({name, ResultTable::cell(t_op, 2),
                     ResultTable::cell(t_oe, 2),
                     ResultTable::cell(t_oe / t_op, 2)});
    }
    table.print();
    table.write_csv(csv);
    std::printf(
        "\npaper: Over Particles 3.75x faster on csp; POWER8 slower than the\n"
        "Broadwell on both schemes.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig11_power8: %s\n", e.what());
    return 1;
  }
}
