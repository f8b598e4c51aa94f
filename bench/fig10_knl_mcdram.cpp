// Figure 10: KNL 7210 with data in MCDRAM vs DDR, both schemes, all three
// problems (§VII-B).  Hardware-gated: reproduced on the KNL machine model
// (flat-mode memory flip = two memory-system parameter sets).
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
        sim_banner("fig10_knl_mcdram", "Fig 10 (KNL MCDRAM vs DDR)", scale);

    ResultTable table("Fig 10 — KNL 7210 estimates at paper scale (256 threads)",
                      {"problem", "scheme", "DDR [s]", "MCDRAM [s]",
                       "MCDRAM speedup"});
    double op_csp_mcdram = 0.0, oe_csp_mcdram = 0.0;
    for (const std::string name : {"stream", "scatter", "csp"}) {
      for (const Scheme scheme :
           {Scheme::kOverParticles, Scheme::kOverEvents}) {
        const double t_ddr = estimate_paper_scale(
            sim_config(simt::knl_7210_ddr(), scheme, name, scale), name, scale)
            .seconds;
        const double t_mcdram = estimate_paper_scale(
            sim_config(simt::knl_7210_mcdram(), scheme, name, scale), name,
            scale).seconds;
        if (name == "csp") {
          (scheme == Scheme::kOverParticles ? op_csp_mcdram : oe_csp_mcdram) =
              t_mcdram;
        }
        table.add_row({name, to_string(scheme), ResultTable::cell(t_ddr, 2),
                       ResultTable::cell(t_mcdram, 2),
                       ResultTable::cell(t_ddr / t_mcdram, 2)});
      }
    }
    table.print();
    table.write_csv(csv);
    if (op_csp_mcdram > 0.0) {
      std::printf("\ncsp OE/OP (MCDRAM): %.2fx\n",
                  oe_csp_mcdram / op_csp_mcdram);
    }
    std::printf(
        "paper: OE gains 2.38x from MCDRAM on csp while OP barely moves (and\n"
        "scatter OP slightly *prefers* DDR's lower latency); OE still loses to\n"
        "OP overall except on scatter (1.73x OE win).\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig10_knl_mcdram: %s\n", e.what());
    return 1;
  }
}
