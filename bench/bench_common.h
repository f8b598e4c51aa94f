// Shared plumbing for the figure/table reproduction benchmarks.
//
// Every bench binary:
//   * accepts --quick / --full / --mesh-scale / --particle-scale / --reps,
//     with environment overrides NEUTRAL_BENCH_SCALE / NEUTRAL_BENCH_FULL;
//   * prints the rows the corresponding paper figure reports (ResultTable);
//   * mirrors the rows into <binary>.csv beside the executable.
//
// Default scales are laptop-sized: the event *mix* per problem matches the
// paper (deck densities scale with mesh resolution — DESIGN.md §5), so
// ratios and crossovers are meaningful even though absolute runtimes are
// thousands of times smaller than the 4000^2 x 1e6-particle originals.
#pragma once

#include <cstdio>
#include <exception>
#include <string>

#include "core/simulation.h"
#include "runtime/host_info.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/table.h"

namespace neutral::bench {

struct BenchScale {
  double mesh_scale = 0.08;      ///< 4000 -> 320 cells per axis
  double particle_scale = 0.02;  ///< 1e6 -> 2e4 particles (1e7 -> 2e5)
  int reps = 1;                  ///< repetitions (best-of)
  bool full = false;

  /// Parse the standard options; returns false if --help was requested.
  static bool parse(CliParser& cli, BenchScale* out) {
    out->mesh_scale = cli.option_double(
        "mesh-scale", env_or_double("NEUTRAL_BENCH_SCALE", out->mesh_scale),
        "mesh resolution as a fraction of the paper's 4000^2");
    out->particle_scale = cli.option_double(
        "particle-scale", out->particle_scale,
        "particle count as a fraction of the paper's 1e6/1e7");
    out->reps = static_cast<int>(
        cli.option_int("reps", out->reps, "repetitions, best time kept"));
    const bool quick = cli.flag("quick", "extra-small problems (CI smoke)");
    out->full = cli.flag("full", "paper-scale problems (hours of runtime)") ||
                env_flag("NEUTRAL_BENCH_FULL");
    if (!cli.finish()) return false;
    if (quick) {
      out->mesh_scale = 0.03;
      out->particle_scale = 0.004;
    }
    if (out->full) {
      out->mesh_scale = 1.0;
      out->particle_scale = 1.0;
    }
    return true;
  }

  [[nodiscard]] ProblemDeck deck(const std::string& name) const {
    return deck_by_name(name, mesh_scale, particle_scale);
  }
};

/// Construct, run, and return the result of one configured solve.
inline RunResult run_sim(const SimulationConfig& cfg) {
  Simulation sim(cfg);
  return sim.run();
}

/// Best wall time over `reps` identical solves.
inline double best_seconds(const SimulationConfig& cfg, int reps) {
  double best = 1.0e300;
  for (int r = 0; r < reps; ++r) {
    const RunResult result = run_sim(cfg);
    if (result.total_seconds < best) best = result.total_seconds;
  }
  return best;
}

/// Print the standard banner and return the CSV path for this binary.
inline std::string banner(const std::string& binary_name,
                          const std::string& figure,
                          const BenchScale& scale) {
  std::printf("# %s — reproduces %s\n", binary_name.c_str(), figure.c_str());
  std::printf("# %s\n", host_banner().c_str());
  std::printf("# mesh-scale=%.4g particle-scale=%.4g reps=%d%s\n",
              scale.mesh_scale, scale.particle_scale, scale.reps,
              scale.full ? " (PAPER SCALE)" : "");
  return binary_name + ".csv";
}

}  // namespace neutral::bench
