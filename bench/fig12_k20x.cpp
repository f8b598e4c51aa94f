// Figure 12: NVIDIA K20X, Over Particles vs Over Events (§VII-D), plus the
// bandwidth-utilisation observation (OP ~20% of achievable, OE ~50%).
// Hardware-gated: Kepler machine model (emulated FP64 atomics, 128-thread
// blocks -> 32-lane warps).
#include "bench_common.h"
#include "sim_common.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    SimScale scale;
    if (!SimScale::parse(cli, &scale)) return 0;
    const std::string csv = sim_banner("fig12_k20x", "Fig 12 (K20X)", scale);

    ResultTable table("Fig 12 — K20X estimates at paper scale",
                      {"problem", "scheme", "seconds", "achieved GB/s",
                       "BW util", "divergent paths/warp-step"});
    for (const std::string name : {"stream", "scatter", "csp"}) {
      for (const Scheme scheme :
           {Scheme::kOverParticles, Scheme::kOverEvents}) {
        const auto est = estimate_paper_scale(
            sim_config(simt::k20x(), scheme, name, scale), name, scale);
        table.add_row({name, to_string(scheme),
                       ResultTable::cell(est.seconds, 2),
                       ResultTable::cell(est.achieved_gbps, 1),
                       ResultTable::cell(est.bandwidth_utilization, 2),
                       ResultTable::cell(est.divergence_paths, 2)});
      }
    }
    table.print();
    table.write_csv(csv);
    std::printf(
        "\npaper: OP ~35 GB/s (~20%% of achievable) because the access pattern\n"
        "is random; OE streams its state and reaches ~90 GB/s (~50%%) yet is\n"
        "still slower end-to-end.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig12_k20x: %s\n", e.what());
    return 1;
  }
}
