// Figure 2: energy-deposition plots of the three test problems after a
// single timestep, plus the event-mix statistics that define each regime
// (stream: facet-only; scatter: collision-dominated; csp: mixed).
//
// Writes fig02_<deck>.ppm heat maps next to the binary.
#include "bench_common.h"
#include "mesh/heatmap.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  BenchScale scale;
  if (!BenchScale::parse(cli, &scale)) return 0;
  const std::string csv = banner("fig02_problems", "Fig 2 (test problems)", scale);

  ResultTable table("Fig 2 — test problems, one timestep",
                    {"problem", "particles", "facets/particle",
                     "collisions/particle", "reflections", "deaths",
                     "tally total [eV]", "solve [s]"});

  for (const std::string name : {"stream", "scatter", "csp"}) {
    SimulationConfig cfg;
    cfg.deck = scale.deck(name);
    cfg.deck.n_timesteps = 1;
    Simulation sim(cfg);
    const RunResult r = sim.run();

    const auto n = static_cast<double>(cfg.deck.n_particles);
    table.add_row({name, ResultTable::cell(cfg.deck.n_particles),
                   ResultTable::cell(static_cast<double>(r.counters.facets) / n, 1),
                   ResultTable::cell(static_cast<double>(r.counters.collisions) / n, 1),
                   ResultTable::cell(static_cast<unsigned long long>(r.counters.reflections)),
                   ResultTable::cell(static_cast<unsigned long long>(
                       r.counters.deaths_energy + r.counters.deaths_weight)),
                   ResultTable::cell(r.budget.tally_total, 3),
                   ResultTable::cell(r.total_seconds, 3)});

    write_heatmap_ppm("fig02_" + name + ".ppm", sim.mesh(),
                      sim.tally().merged().values().data());
    std::printf("wrote fig02_%s.ppm\n", name.c_str());
  }

  table.print();
  table.write_csv(csv);
  std::printf(
      "\npaper: stream ~7000 facets/particle at full scale (scales with mesh\n"
      "resolution: expect ~7000*mesh_scale here); scatter collision-dominated;\n"
      "csp mixed.  Fig 2's plots are the PPM files.\n");
  return 0;
}
