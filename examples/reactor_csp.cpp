// Reactor-style workload: the centre-square problem end to end.
//
// Demonstrates the deck-file workflow (write a .params file, reload it),
// runs several timesteps with both parallelisation schemes, verifies they
// produce the same physics, and renders the energy-deposition heat map —
// the kind of map a reactor shielding/criticality analysis consumes
// (paper §III-A).
//
//   $ ./reactor_csp [--timesteps N] [--out csp_deposition.ppm]
#include <cmath>
#include <cstdio>

#include "core/simulation.h"
#include "io/deck_io.h"
#include "mesh/heatmap.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace neutral;

  CliParser cli(argc, argv);
  const long timesteps = cli.option_int("timesteps", 2, "timesteps to run");
  const std::string out =
      cli.option("out", "csp_deposition.ppm", "heat-map output path");
  if (!cli.finish()) return 0;

  // Author a deck, save it, and load it back — the .params workflow.
  ProblemDeck deck = csp_deck(/*mesh_scale=*/0.08, /*particle_scale=*/0.02);
  deck.n_timesteps = static_cast<std::int32_t>(timesteps);
  const std::string deck_path = "reactor_csp.params";
  save_deck(deck, deck_path);
  std::printf("wrote %s:\n%s\n", deck_path.c_str(),
              format_deck(deck).c_str());
  const ProblemDeck loaded = load_deck(deck_path);

  // Run both schemes on the identical deck.
  SimulationConfig op;
  op.deck = loaded;
  op.scheme = Scheme::kOverParticles;

  SimulationConfig oe = op;
  oe.scheme = Scheme::kOverEvents;
  oe.layout = Layout::kSoA;
  oe.tally_mode = TallyMode::kDeferredAtomic;

  Simulation sim_op(op);
  const RunResult r_op = sim_op.run();
  Simulation sim_oe(oe);
  const RunResult r_oe = sim_oe.run();

  std::printf("over-particles : %.3f s, tally %.6g eV\n", r_op.total_seconds,
              r_op.budget.tally_total);
  std::printf("over-events    : %.3f s, tally %.6g eV  (OE/OP %.2fx)\n",
              r_oe.total_seconds, r_oe.budget.tally_total,
              r_oe.total_seconds / r_op.total_seconds);

  // The schemes sample identical histories (§IV-F): same tallies.
  const double rel = std::fabs(r_op.budget.tally_total -
                               r_oe.budget.tally_total) /
                     r_op.budget.tally_total;
  std::printf("scheme agreement: relative tally difference %.3g\n", rel);
  if (rel > 1e-9) {
    std::printf("ERROR: schemes disagree\n");
    return 1;
  }

  write_heatmap_ppm(out, sim_op.mesh(),
                    sim_op.tally().merged().values().data());
  std::printf("wrote %s — beam entering from the bottom-left, heating\n"
              "concentrated where it strikes the dense centre square.\n",
              out.c_str());
  return 0;
}
