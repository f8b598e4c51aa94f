// `neutral_batch` — the batch execution engine CLI.
//
// Expands a parameter sweep into jobs, runs them concurrently on the
// worker pool (sharing Worlds between jobs with identical geometry), and
// prints a results table mirrored into CSV.
//
//   $ neutral_batch                         # built-in 12-job demo sweep
//   $ neutral_batch --spec my_sweep.spec --workers 4 --csv out.csv
//   $ neutral_batch --check-serial          # prove batch == serial physics
//   $ neutral_batch --write-spec sweep.spec # emit the default spec to edit
//   $ neutral_batch --domains 2x2           # decompose every sweep job
//   $ neutral_batch --connect 127.0.0.1:4817  # run the sweep on a neutrald
//
// --connect runs the SAME sweep workflow against a running `neutrald`
// daemon instead of an in-process engine: the spec text is submitted over
// TCP, completion events stream back as jobs finish server-side, and the
// table/CSV carry the daemon's bit-identical results (columns match the
// local table, so the two CSVs diff directly).  Engine knobs (--workers,
// --threads-per-job, --cache-mb, --no-cache) belong to the daemon in this
// mode and are rejected here.
//
// Exit status is non-zero when ANY row is not "ok" — failed, timed out,
// cancelled, un-reduced, or energy-non-conserving — in every mode, local
// or remote, so scripted sweeps cannot bury a failure in the CSV.
//
// The oversubscription policy is workers x threads_per_job <= logical
// cpus; both knobs derive sensible defaults from the host (see
// batch/engine.h).
//
// --domains RxC decomposes every sweep job's mesh through batch::run_sweep
// (src/batch/executor.h), which stitches each job back to one row.  Tally
// cells are exact integer sums (core/tally.h), so the checksum and
// population columns are bit-identical for every grid, worker count,
// thread count and tally mode, plain or decomposed.
// Every mode prints the same table: the plain columns, then the domain
// columns, `-` where a mode has none.  events/s is events / solve [s] on
// every row: the row's wall rate.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "batch/engine.h"
#include "batch/executor.h"
#include "batch/sweep.h"
#include "core/simulation.h"
#include "io/results_io.h"
#include "net/client.h"
#include "obs/trace.h"
#include "perf/profiler.h"
#include "runtime/host_info.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace neutral;
using namespace neutral::batch;

// 2 schemes x 2 layouts x 3 problem sizes = 12 jobs on one shared world.
constexpr const char* kDefaultSpec =
    "# neutral_batch default sweep: 2 schemes x 2 layouts x 3 sizes\n"
    "deck csp\n"
    "mesh_scale 0.05\n"
    "timesteps 1\n"
    "seed 42\n"
    "axis particles 2000 4000 8000\n"
    "axis scheme particles events\n"
    "axis layout aos soa\n";

/// Re-run one row's config as one plain single-thread solve and compare
/// checksums: bit-exact for any row, whatever its team width or grid
/// (exact integer tallies, counter-based RNG).
bool check_against_serial(const JobOutcome& outcome) {
  SimulationConfig serial_config = outcome.config;
  serial_config.threads = 1;
  Simulation sim(std::move(serial_config));
  const RunResult serial = sim.run();
  const bool same = serial.tally_checksum == outcome.result.tally_checksum &&
                    serial.counters.total_events() ==
                        outcome.result.counters.total_events();
  if (!same) {
    std::printf("  check FAIL %s: batch checksum %.17g != serial %.17g\n",
                outcome.label.c_str(), outcome.result.tally_checksum,
                serial.tally_checksum);
  }
  return same;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The one result table's column set — identical for every mode, local
/// or remote, so any two CSVs diff column-for-column (CI pins the
/// checksum and population columns, f8 and f9, across decompositions and
/// across the loopback boundary).
std::vector<std::string> result_columns() {
  return {"job",        "label",           "particles",      "tally",
          "events",     "events/s",        "solve [s]",      "tally checksum",
          "population", "world",           "worker",         "status",
          "grid",       "migrations",      "rounds",         "peak slab [MiB]",
          "peak bank [MiB]"};
}

std::string mib(std::uint64_t bytes) {
  return ResultTable::cell(static_cast<double>(bytes) / (1 << 20), 3);
}

/// One row of the table from one run_sweep row.
std::vector<std::string> result_cells(const JobOutcome& row) {
  const SplitStats& split = row.split;
  const bool grid = split.grid_rows > 0;
  const std::string none = "-";
  std::string status = "ok";
  if (row.timed_out) {
    status = "TIMEOUT: " + row.error;
  } else if (row.cancelled) {
    status = "CANCELLED: " + row.error;
  } else if (!row.ok) {
    status = "FAIL: " + row.error;
  }
  return {std::to_string(row.job_id),
          row.label,
          ResultTable::cell(static_cast<long>(row.config.deck.n_particles)),
          to_string(row.config.tally_mode),
          ResultTable::cell(static_cast<unsigned long long>(
              row.result.counters.total_events())),
          ResultTable::cell(row.events_per_second(), 3),
          ResultTable::cell(row.seconds, 3),
          ResultTable::cell_full(row.result.tally_checksum),
          ResultTable::cell(static_cast<long>(row.result.population)),
          grid                  ? none
          : row.world_cache_hit ? "cached"
                                : "built",
          row.worker >= 0 ? std::to_string(row.worker) : none,
          status,
          grid ? std::to_string(split.grid_rows) + "x" +
                     std::to_string(split.grid_cols)
               : none,
          grid ? ResultTable::cell(
                     static_cast<unsigned long long>(split.migrations))
               : none,
          grid ? std::to_string(split.rounds) : none,
          grid ? mib(row.result.peak_mesh_bytes) : none,
          grid ? mib(row.result.peak_bank_bytes) : none};
}

/// `--connect`: submit the sweep to a neutrald and render its rows through
/// the same table shape the in-process path uses.
int run_remote(const std::string& endpoint, const std::string& spec_text,
               const std::string& domains, const std::string& csv,
               bool quiet) {
  const auto [host, port] = net::NeutralClient::parse_endpoint(endpoint);
  net::NeutralClient client(host, port);
  net::SubmitRequest request;
  request.spec_text = spec_text;
  request.domains = domains;
  const std::uint64_t id = client.submit(request);
  std::printf("# neutral_batch --connect %s (submission #%llu)\n",
              endpoint.c_str(), static_cast<unsigned long long>(id));
  const net::RemoteResult result =
      client.wait(id, [&](const net::RemoteEvent& event) {
        if (quiet) return;
        std::printf("[remote worker %d] %-9s %-44s %8.3fs\n", event.worker,
                    event.status.c_str(), event.label.c_str(),
                    event.seconds);
      });

  ResultTable table("neutral_batch — " +
                        std::to_string(result.rows.size()) + " jobs via " +
                        endpoint,
                    result_columns());
  bool ok = result.ok();
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const net::RemoteRow& row = result.rows[i];
    if (row.status != "ok") ok = false;
    std::vector<std::string> cells = {
        std::to_string(i),
        row.label,
        ResultTable::cell(static_cast<long>(row.particles)),
        row.tally,
        ResultTable::cell(static_cast<unsigned long long>(row.events)),
        ResultTable::cell(row.seconds > 0.0
                              ? static_cast<double>(row.events) / row.seconds
                              : 0.0,
                          3),
        ResultTable::cell(row.seconds, 3),
        ResultTable::cell_full(row.checksum),
        ResultTable::cell(static_cast<long>(row.population)),
        "remote",
        "-",
        row.status == "ok" ? "ok" : row.status + ": " + row.error};
    cells.resize(result_columns().size(), "-");
    table.add_row(cells);
  }
  table.print();
  table.write_csv(csv);
  std::printf("wrote %s\n", csv.c_str());
  std::printf("\n== remote report ==\n");
  std::printf("submission     : #%llu -> %s%s%s\n",
              static_cast<unsigned long long>(id), result.status.c_str(),
              result.error.empty() ? "" : " — ", result.error.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    const std::string spec_path =
        cli.option("spec", "", "sweep spec file (see src/batch/sweep.h)");
    EngineOptions options;
    options.workers = static_cast<std::int32_t>(
        cli.option_int("workers", 0, "worker threads (0 = auto)"));
    options.threads_per_job = static_cast<std::int32_t>(cli.option_int(
        "threads-per-job", 0, "OpenMP threads per job (0 = auto)"));
    options.reuse_worlds =
        !cli.flag("no-cache", "rebuild the world for every job");
    const std::string csv =
        cli.option("csv", "neutral_batch.csv", "results CSV path");
    const std::string record_dir = cli.option(
        "record-dir", "",
        "write a .results regression record per sweep job (decomposed "
        "jobs record their merged whole-deck result)");
    const std::string write_spec = cli.option(
        "write-spec", "", "write the default sweep spec here and exit");
    const bool check_serial = cli.flag(
        "check-serial",
        "re-run each job as one plain 1-thread solve and compare "
        "checksums bit for bit");
    const bool quiet = cli.flag("quiet", "suppress per-job progress lines");
    const std::string domains = cli.option(
        "domains", "",
        "domain-decompose every sweep job over an RxC mesh grid (e.g. "
        "2x2); composes with the sweep's scheme/layout axes, reducing each "
        "job to one bit-identical row");
    const auto cache_mb = cli.option_int(
        "cache-mb", 0, "world cache byte budget in MiB (0 = unbounded)");
    const std::string connect = cli.option(
        "connect", "",
        "run the sweep against a neutrald at host:port instead of "
        "in-process (composes with --spec/--domains)");
    options.profile = cli.flag(
        "profile",
        "collect per-phase TSC timings in every job and print the sweep's "
        "aggregate grind-time table (probes live in the over-particles "
        "scheme; physics and checksums are unchanged)");
    const std::string trace_log = cli.option(
        "trace-log", "",
        "append one JSON line per job lifecycle event here "
        "(src/obs/trace.h)");
    if (!cli.finish()) return 0;
    const Decomposition how = Decomposition::parse(domains);
    options.cache.max_bytes =
        static_cast<std::uint64_t>(std::max(cache_mb, 0L)) << 20;

    if (!write_spec.empty()) {
      std::ofstream out(write_spec);
      NEUTRAL_REQUIRE(out.good(), "cannot write '" + write_spec + "'");
      out << kDefaultSpec;
      std::printf("wrote %s\n", write_spec.c_str());
      return 0;
    }

    if (!connect.empty()) {
      NEUTRAL_REQUIRE(!check_serial,
                      "--check-serial runs locally; not supported with "
                      "--connect");
      NEUTRAL_REQUIRE(record_dir.empty(),
                      "--record-dir is not supported with --connect");
      NEUTRAL_REQUIRE(!options.profile && trace_log.empty(),
                      "--profile / --trace-log observe the in-process "
                      "engine; start neutrald with --trace-log for the "
                      "daemon side");
      NEUTRAL_REQUIRE(options.workers == 0 && options.threads_per_job == 0 &&
                          options.reuse_worlds && cache_mb == 0,
                      "engine knobs (--workers, --threads-per-job, "
                      "--no-cache, --cache-mb) configure the daemon; set "
                      "them when starting neutrald");
      const std::string spec_text =
          spec_path.empty() ? kDefaultSpec : read_file(spec_path);
      return run_remote(connect, spec_text, domains, csv, quiet);
    }

    const SweepSpec spec = spec_path.empty() ? parse_sweep(kDefaultSpec)
                                             : load_sweep(spec_path);
    std::vector<Job> sweep_jobs = expand_sweep(spec, how.domains());
    std::unique_ptr<obs::TraceLog> trace;
    if (!trace_log.empty()) {
      trace = std::make_unique<obs::TraceLog>(trace_log);
      options.trace = trace.get();
    }
    BatchEngine engine(options);

    const std::size_t n_jobs = sweep_jobs.size();
    std::printf("# neutral_batch (%s)\n", host_banner().c_str());
    std::printf("# %zu sweep jobs, %s (world cache %s)\n", n_jobs,
                how.describe().c_str(), options.reuse_worlds ? "on" : "off");

    const BatchReport report = run_sweep(
        engine, std::move(sweep_jobs), how, /*cancel=*/nullptr,
        [&](const JobOutcome& outcome) {
          if (quiet) return;
          if (outcome.ok) {
            std::printf("[worker %d] done %-44s %8.3fs  %10.3g ev/s%s\n",
                        outcome.worker, outcome.label.c_str(),
                        outcome.seconds, outcome.events_per_second(),
                        outcome.world_cache_hit ? "  (cached world)" : "");
          } else {
            std::printf("[worker %d] FAIL %s: %s\n", outcome.worker,
                        outcome.label.c_str(), outcome.error.c_str());
          }
        });

    ResultTable table("neutral_batch — " + std::to_string(n_jobs) +
                          " jobs, " + how.describe(),
                      result_columns());
    for (const JobOutcome& row : report.jobs) table.add_row(result_cells(row));
    table.print();
    table.write_csv(csv);
    std::printf("wrote %s\n", csv.c_str());

    std::printf("\n== batch report ==\n");
    std::printf("jobs           : %zu completed, %zu failed (%zu cancelled, "
                "%zu timed out)\n",
                report.completed(), report.failed(), report.cancelled(),
                report.timed_out());
    std::printf("pool           : %d workers x %d threads/job\n",
                report.workers, report.threads_per_job);
    std::printf("wallclock      : %.3f s   (%.3g events/s aggregate)\n",
                report.wall_seconds, report.events_per_second());
    std::printf("world cache    : %llu hits / %llu misses (%.0f%% hit rate), "
                "%llu evictions; %llu worlds / %.1f MiB resident\n",
                static_cast<unsigned long long>(report.cache.hits),
                static_cast<unsigned long long>(report.cache.misses),
                100.0 * report.cache.hit_rate(),
                static_cast<unsigned long long>(report.cache.evictions),
                static_cast<unsigned long long>(report.cache.resident_worlds),
                static_cast<double>(report.cache.resident_bytes) /
                    (1 << 20));
    if (options.profile) {
      std::fputs(format_grind_table(report.phase_totals(),
                                    PhaseProfiler::tsc_ghz())
                     .c_str(),
                 stdout);
    }

    bool ok = report.failed() == 0;
    if (!record_dir.empty()) {
      // One record per row, from the (merged) whole-deck result.
      for (const JobOutcome& row : report.jobs) {
        if (!row.ok) continue;
        save_results(make_expected(row.config, row.result),
                     record_dir + "/job_" + std::to_string(row.job_id) +
                         ".results");
      }
      std::printf("records        : wrote %zu .results files to %s\n",
                  report.completed(), record_dir.c_str());
    }
    if (check_serial) {
      std::size_t matched = 0;
      for (const JobOutcome& row : report.jobs) {
        if (row.ok && check_against_serial(row)) ++matched;
      }
      const bool all = matched == report.completed();
      std::printf("serial check   : %zu/%zu jobs bit-identical to serial "
                  "runs -> %s\n",
                  matched, report.completed(), all ? "PASS" : "FAIL");
      ok = ok && all;
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neutral_batch: %s\n", e.what());
    return 2;
  }
}
