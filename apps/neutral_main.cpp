// `neutral` — the mini-app driver binary.
//
// The reproduction equivalent of the original mini-app's executable: load a
// problem (a named paper test case or a .params deck file), pick the
// parallelisation scheme and the §VI optimisation knobs from the command
// line, solve, and print a full run report with conservation validation.
//
//   $ neutral --problem csp --scheme particles --threads 8
//   $ neutral --deck my_problem.params --scheme events --tally deferred
//   $ neutral --problem scatter --profile            # §VI-A grind table
//   $ neutral --problem csp --heatmap out.ppm        # deposition image
#include <cstdio>
#include <optional>
#include <string>

#include "batch/sweep.h"
#include "core/simulation.h"
#include "io/deck_io.h"
#include "io/results_io.h"
#include "mesh/heatmap.h"
#include "perf/profiler.h"
#include "runtime/host_info.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

using namespace neutral;

void print_report(const SimulationConfig& cfg, const RunResult& r) {
  std::printf("\n== neutral run report ==\n");
  std::printf("problem        : %s  (%d x %d cells, %lld particles, %d "
              "timesteps)\n",
              cfg.deck.name.c_str(), cfg.deck.nx, cfg.deck.ny,
              static_cast<long long>(cfg.deck.n_particles),
              cfg.deck.n_timesteps);
  std::printf("configuration  : %s / %s / tally=%s / lookup=%s / "
              "schedule=%s\n",
              to_string(cfg.scheme), to_string(cfg.layout),
              to_string(cfg.tally_mode), to_string(cfg.lookup),
              cfg.schedule.name().c_str());
  std::printf("wallclock      : %.4f s   (%.3g events/s)\n",
              r.total_seconds, r.events_per_second());
  std::printf("events         : %llu facets (%llu reflections), %llu "
              "collisions (%llu abs / %llu scat), %llu census\n",
              static_cast<unsigned long long>(r.counters.facets),
              static_cast<unsigned long long>(r.counters.reflections),
              static_cast<unsigned long long>(r.counters.collisions),
              static_cast<unsigned long long>(r.counters.absorptions),
              static_cast<unsigned long long>(r.counters.scatters),
              static_cast<unsigned long long>(r.counters.censuses));
  std::printf("terminations   : %llu energy cutoff, %llu weight cutoff "
              "(%llu roulette kills, %llu survivals)\n",
              static_cast<unsigned long long>(r.counters.deaths_energy),
              static_cast<unsigned long long>(r.counters.deaths_weight),
              static_cast<unsigned long long>(r.counters.roulette_kills),
              static_cast<unsigned long long>(r.counters.roulette_survivals));
  std::printf("rng draws      : %llu   xs lookups: %llu   tally flushes: "
              "%llu\n",
              static_cast<unsigned long long>(r.counters.rng_draws),
              static_cast<unsigned long long>(r.counters.xs_lookups),
              static_cast<unsigned long long>(r.counters.tally_flushes));
  std::printf("tally          : total %.8g eV, checksum %.8g, footprint "
              "%.1f MB\n",
              r.budget.tally_total, r.tally_checksum,
              static_cast<double>(r.tally_footprint_bytes) / (1 << 20));
  std::printf("memory         : mesh peak %.1f MB, bank peak %.2f MB "
              "(particles + event workspace)\n",
              static_cast<double>(r.peak_mesh_bytes) / (1 << 20),
              static_cast<double>(r.peak_bank_bytes) / (1 << 20));
  std::printf("population     : %lld surviving of %lld\n",
              static_cast<long long>(r.population),
              static_cast<long long>(cfg.deck.n_particles));
  std::printf("conservation   : energy %.3g, tally consistency %.3g -> %s\n",
              r.budget.conservation_error(),
              r.budget.tally_consistency_error(),
              r.budget.conserved(1e-9) ? "PASS" : "FAIL");
}

// The same formatter neutral_batch --profile prints the sweep's table with.
void print_profile(const RunResult& r) {
  std::fputs(format_grind_table(r.phases, PhaseProfiler::tsc_ghz()).c_str(),
             stdout);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    const std::string problem =
        cli.option("problem", "csp", "built-in problem: stream|scatter|csp");
    const std::string deck_file =
        cli.option("deck", "", "load a .params deck file instead");
    const double mesh_scale = cli.option_double(
        "mesh-scale", 0.08, "mesh resolution vs the paper's 4000^2");
    const double particle_scale = cli.option_double(
        "particle-scale", 0.02, "particles vs the paper's 1e6/1e7");
    SimulationConfig config;
    config.scheme = scheme_from_string(
        cli.option("scheme", "particles", "particles|events (§V)"));
    config.layout = layout_from_string(cli.option("layout", "aos", "aos|soa (§VI-D)"));
    const std::string tally = cli.option(
        "tally", "",
        "atomic|privatized|merge-step|deferred (§VI-F/G; unnamed = atomic, "
        "or deferred for --scheme events)");
    config.lookup = lookup_from_string(cli.option(
        "lookup", "cached", "binary|cached (§VI-A)"));
    config.schedule = schedule_from_string(
        cli.option("schedule", "static", "static|dynamic|guided[,chunk] (§VI-C)"));
    config.threads =
        static_cast<std::int32_t>(cli.option_int("threads", 0, "OpenMP threads (0 = default)"));
    config.profile = cli.flag("profile", "enable the §VI-A phase profiler");
    const long timesteps = cli.option_int("timesteps", 0, "override deck timesteps");
    const long particles = cli.option_int("particles", 0, "override deck particle count");
    const std::string heatmap =
        cli.option("heatmap", "", "write the deposition heat map (PPM)");
    const std::string record =
        cli.option("record", "", "write a .results regression record");
    const std::string verify =
        cli.option("verify", "", "verify against a .results record");
    if (!cli.finish()) return 0;

    config.deck = deck_file.empty()
                      ? deck_by_name(problem, mesh_scale, particle_scale)
                      : load_deck(deck_file);
    if (timesteps > 0) config.deck.n_timesteps = static_cast<std::int32_t>(timesteps);
    if (particles > 0) config.deck.n_particles = particles;
    config.tally_mode = batch::resolve_tally_mode(
        config.scheme,
        tally.empty() ? std::nullopt
                      : std::optional<TallyMode>(tally_mode_from_string(tally)));

    std::printf("# neutral-mc (%s)\n", host_banner().c_str());

    Simulation sim(config);
    const RunResult result = sim.run();
    print_report(config, result);
    if (config.profile) print_profile(result);
    if (!heatmap.empty()) {
      write_heatmap_ppm(heatmap, sim.mesh(),
                        sim.tally().merged().values().data());
      std::printf("heatmap        : wrote %s\n", heatmap.c_str());
    }
    if (!record.empty()) {
      save_results(make_expected(config, result), record);
      std::printf("record         : wrote %s\n", record.c_str());
    }
    bool ok = result.budget.conserved(1e-9);
    if (!verify.empty()) {
      const ResultsCheck check =
          verify_results(load_results(verify), config, result);
      std::printf("verification   : %s%s%s\n", check.passed ? "PASS" : "FAIL",
                  check.passed ? "" : " — ", check.detail.c_str());
      ok = ok && check.passed;
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neutral: %s\n", e.what());
    return 2;
  }
}
