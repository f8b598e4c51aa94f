// Shielding workload: transmission through a wall of increasing thickness.
//
// Shielding calculations are the other reactor use-case the paper cites
// (§III-A).  A source shines at a wall; a detector slab behind the wall
// tallies the transmitted dose.  Sweeping the wall thickness produces the
// classic deep-penetration attenuation curve: transmission falls roughly
// exponentially with thickness.
//
//   $ ./shielding_wall [--particles N]
#include <cmath>
#include <cstdio>

#include "core/simulation.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace neutral;

  CliParser cli(argc, argv);
  const long particles = cli.option_int("particles", 10000, "histories");
  if (!cli.finish()) return 0;

  std::printf("thickness | transmitted fraction | attenuation\n");
  std::printf("----------+----------------------+------------\n");

  double previous = 0.0;
  for (const double thickness_cm : {1.0, 2.0, 4.0, 6.0, 8.0}) {
    ProblemDeck deck;
    deck.name = "shield";
    deck.nx = deck.ny = 256;
    deck.width_cm = deck.height_cm = 40.0;
    deck.base_density_kg_m3 = kVacuumDensityKgM3;
    // The wall spans the full height, starting at x = 15 cm.
    RegionSpec wall;
    wall.x0 = 15.0;
    wall.x1 = 15.0 + thickness_cm;
    wall.y0 = 0.0;
    wall.y1 = deck.height_cm;
    wall.density_kg_m3 = 10.0;  // ~0.7/cm removal at 1 MeV
    deck.regions.push_back(wall);
    // Detector slab behind the wall: transmitted particles deposit here.
    RegionSpec detector;
    detector.x0 = 30.0;
    detector.x1 = deck.width_cm;
    detector.y0 = 0.0;
    detector.y1 = deck.height_cm;
    detector.density_kg_m3 = 10.0;
    deck.regions.push_back(detector);
    // Source column in front of the wall.
    deck.src_x0 = 2.0; deck.src_x1 = 3.0;
    deck.src_y0 = 15.0; deck.src_y1 = 25.0;
    deck.n_particles = particles;
    deck.dt_s = 2.0e-8;  // one transit, little re-reflection
    deck.seed = 7;

    SimulationConfig config;
    config.deck = deck;
    Simulation sim(config);
    const RunResult result = sim.run();

    // Dose tallied inside the detector slab.
    const StructuredMesh2D& mesh = sim.mesh();
    const std::vector<double> tally = sim.tally().merged().values();
    double beyond = 0.0;
    for (std::int32_t j = 0; j < mesh.ny(); ++j) {
      for (std::int32_t i = 0; i < mesh.nx(); ++i) {
        if (mesh.centre_x(i) > detector.x0) {
          beyond += tally[mesh.flat_index({i, j})];
        }
      }
    }
    const double frac = beyond / result.budget.initial;
    std::printf("  %4.1f cm |      %12.4e    |   %s%.2fx\n", thickness_cm,
                frac, previous > 0.0 ? "" : " ",
                previous > 0.0 ? previous / frac : 1.0);
    previous = frac;
  }

  std::printf("\nthicker walls attenuate the transmitted dose; the ratio\n"
              "column approximates exp(Sigma_removal * delta_thickness).\n");
  return 0;
}
