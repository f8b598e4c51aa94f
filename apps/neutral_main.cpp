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
//   $ neutral --problem csp --domains 2x2            # decompose the mesh
//   $ neutral --problem csp --domains 2x2 --scheme events --layout soa
#include <cstdio>
#include <optional>
#include <string>

#include "batch/executor.h"
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

/// `wall_seconds` is the solve's wall clock: r.total_seconds for a plain
/// run, the reduced row's seconds for a decomposed one (whose
/// r.total_seconds sums the parts' times).
void print_report(const SimulationConfig& cfg, const RunResult& r,
                  double wall_seconds) {
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
  std::printf("wallclock      : %.4f s   (%.3g events/s)\n", wall_seconds,
              wall_seconds > 0.0
                  ? static_cast<double>(r.counters.total_events()) /
                        wall_seconds
                  : 0.0);
  if (wall_seconds != r.total_seconds) {
    std::printf("part time      : %.4f s summed over the parallel parts\n",
                r.total_seconds);
  }
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

// RunResult::phases is extensive and survives the domain reduction, so
// one formatter serves the plain and decomposed paths — and
// matches the batch sweep's table byte-for-byte in layout.
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
        "or deferred for --scheme events outside --domains)");
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
    const std::string domains = cli.option(
        "domains", "",
        "decompose the MESH into an RxC subdomain grid (e.g. 2x2): each "
        "subdomain materialises only its tally/density slab and particles "
        "migrate at subdomain facets; composes with every --scheme/--layout, "
        "and any grid at any --threads reduces to one bit-identical result");
    if (!cli.finish()) return 0;
    const batch::Decomposition how = batch::Decomposition::parse(domains);

    config.deck = deck_file.empty()
                      ? deck_by_name(problem, mesh_scale, particle_scale)
                      : load_deck(deck_file);
    if (timesteps > 0) config.deck.n_timesteps = static_cast<std::int32_t>(timesteps);
    if (particles > 0) config.deck.n_particles = particles;
    config.tally_mode = batch::resolve_tally_mode(
        config.scheme,
        tally.empty() ? std::nullopt
                      : std::optional<TallyMode>(tally_mode_from_string(tally)),
        how.domains());

    std::printf("# neutral-mc (%s)\n", host_banner().c_str());

    RunResult result;
    if (!how.domains()) {
      Simulation sim(config);
      result = sim.run();
      print_report(config, result, result.total_seconds);
      if (config.profile) print_profile(result);
      if (!heatmap.empty()) {
        write_heatmap_ppm(heatmap, sim.mesh(),
                          sim.tally().merged().values().data());
        std::printf("heatmap        : wrote %s\n", heatmap.c_str());
      }
    } else {
      // Fork-join one deck's subdomains over a batch engine
      // (src/batch/executor.h).  The engine sizes itself: one worker per
      // subdomain up to the cpu count, each with cpus / workers threads;
      // --threads goes through its oversubscription clamp, not into the
      // job.
      batch::EngineOptions engine_options;
      engine_options.threads_per_job = config.threads;
      batch::BatchEngine engine(engine_options);
      SimulationConfig job_config = config;
      job_config.threads = 0;
      batch::BatchReport report = batch::run_sweep(
          engine, {batch::make_job(0, job_config)}, how);
      const batch::JobOutcome& row = report.jobs.front();
      if (!row.ok) {
        std::fprintf(stderr, "neutral: %s\n", row.error.c_str());
        return 1;
      }
      config = row.config;  // tally mode and threads as executed
      result = row.result;
      print_report(config, result, row.seconds);
      if (config.profile) print_profile(result);
      std::printf("decomposition  : %s on %d workers, %.4f s wall (%.3g "
                  "events/s)\n",
                  how.describe().c_str(), report.workers,
                  report.wall_seconds, report.events_per_second());
      // Full mesh-resident footprint for the comparison: the summed
      // tally slabs (== the full tally) plus the full density field the
      // slabs avoided allocating.
      const batch::SplitStats& split = row.split;
      const std::uint64_t full_mesh_bytes =
          result.tally_footprint_bytes +
          static_cast<std::uint64_t>(config.deck.nx) * config.deck.ny *
              sizeof(double);
      std::printf("domains        : %dx%d grid, %lld migrations over %d "
                  "rounds; peak slab %.1f MB of %.1f MB full mesh\n",
                  split.grid_rows, split.grid_cols,
                  static_cast<long long>(split.migrations), split.rounds,
                  static_cast<double>(result.peak_mesh_bytes) / (1 << 20),
                  static_cast<double>(full_mesh_bytes) / (1 << 20));
      if (!heatmap.empty()) {
        // The merged image covers the full grid; a bare mesh (no density
        // field — the thing --domains avoids allocating) renders it.
        const StructuredMesh2D mesh(config.deck.nx, config.deck.ny,
                                    config.deck.width_cm,
                                    config.deck.height_cm);
        write_heatmap_ppm(heatmap, mesh, result.tally->values().data());
        std::printf("heatmap        : wrote %s\n", heatmap.c_str());
      }
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
