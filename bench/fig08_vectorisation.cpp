// Figure 8: per-method vectorisation of the Over Events scheme (§VI-G).
//
// The atomics were hoisted into a separate tally loop so the event kernels
// could vectorise; the paper then measured per-kernel speedup of the
// vectorised build (substantial on KNL, facets-only on Broadwell).  Here
// each kernel's simd variant is toggled independently and its accumulated
// kernel time compared against the scalar build.
#include "bench_common.h"

using namespace neutral;
using namespace neutral::bench;

namespace {

OverEventsKernelTimes measure(const BenchScale& scale, bool simd_search,
                              bool simd_coll, bool simd_facet) {
  SimulationConfig cfg;
  cfg.deck = scale.deck("csp");
  cfg.scheme = Scheme::kOverEvents;
  cfg.layout = Layout::kSoA;
  cfg.tally_mode = TallyMode::kDeferredAtomic;
  cfg.over_events.simd_event_search = simd_search;
  cfg.over_events.simd_collisions = simd_coll;
  cfg.over_events.simd_facets = simd_facet;
  return run_sim(cfg).kernel_times;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  BenchScale scale;
  if (!BenchScale::parse(cli, &scale)) return 0;
  const std::string csv =
      banner("fig08_vectorisation", "Fig 8 (Over Events vectorisation)", scale);

  const OverEventsKernelTimes scalar = measure(scale, false, false, false);
  const OverEventsKernelTimes simd = measure(scale, true, true, true);

  ResultTable table("Fig 8 — per-method kernel time, scalar vs simd (csp)",
                    {"method", "scalar [s]", "simd [s]", "speedup"});
  auto row = [&](const char* method, double t_scalar, double t_simd) {
    table.add_row({method, ResultTable::cell(t_scalar, 4),
                   ResultTable::cell(t_simd, 4),
                   ResultTable::cell(t_simd > 0.0 ? t_scalar / t_simd : 0.0, 3)});
  };
  row("event-search", scalar.event_search, simd.event_search);
  row("collisions", scalar.collisions, simd.collisions);
  row("facets", scalar.facets, simd.facets);
  row("tally (separate loop)", scalar.tally, simd.tally);
  row("total", scalar.total(), simd.total());

  table.print();
  table.write_csv(csv);
  std::printf(
      "\npaper: on Broadwell only the facet kernel gained from vectorisation;\n"
      "KNL (AVX-512) gained on every kernel.  Gather-dominated loops limit\n"
      "what host auto-vectorisation can extract (§VII-A.3).\n");
  return 0;
}
