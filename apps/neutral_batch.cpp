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
//   $ neutral_batch --shards 4              # fork-join every sweep job
//   $ neutral_batch --connect 127.0.0.1:4817  # run the sweep on a neutrald
//
// --connect runs the SAME sweep workflow against a running `neutrald`
// daemon instead of an in-process engine: the spec text is submitted over
// TCP, completion events stream back as jobs finish server-side, and the
// table/CSV carry the daemon's bit-identical results (columns match the
// local table, so the two CSVs diff directly).  Engine knobs (--workers,
// --threads-per-job, --queue-capacity, --cache-mb, --no-cache) belong to
// the daemon in this mode and are rejected here.
//
// Exit status is non-zero when ANY row is not "ok" — failed, timed out,
// cancelled, un-reduced, or energy-non-conserving — in every mode, local
// or remote, so scripted sweeps cannot bury a failure in the CSV.
//
// The oversubscription policy is workers x threads_per_job <= logical
// cpus; both knobs derive sensible defaults from the host (see
// batch/engine.h).
//
// --shards N splits every sweep job into N concurrent shard jobs and
// reduces each group deterministically (src/batch/shard.h): the merged
// checksum and population are bit-identical for any N >= 1 at any worker
// count.  (Sharded runs use compensated tallies, so their checksums are
// comparable across shard counts but not with the plain unsharded path.)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "batch/domain.h"
#include "batch/engine.h"
#include "batch/shard.h"
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

/// Re-run one outcome's exact config serially and compare checksums.
/// Bit-exact by construction when the job ran with threads=1 (counter-based
/// RNG + one OpenMP thread leave no reassociation freedom).
bool check_against_serial(const JobOutcome& outcome) {
  Simulation sim(outcome.config);
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

/// The plain result table's column set — identical for local and remote
/// runs, so their CSVs diff column-for-column (CI pins the checksum and
/// population columns across the loopback boundary).
std::vector<std::string> result_columns() {
  return {"job", "label", "particles", "tally", "events", "events/s",
          "solve [s]", "tally checksum", "population", "world", "worker",
          "status"};
}

/// FAIL/TIMEOUT/CANCELLED prefixes keep the three non-ok outcomes
/// distinguishable in the table and CSV.
std::string outcome_cell(const JobOutcome& outcome) {
  if (outcome.ok) return "ok";
  if (outcome.timed_out) return "TIMEOUT: " + outcome.error;
  if (outcome.cancelled) return "CANCELLED: " + outcome.error;
  return "FAIL: " + outcome.error;
}

/// `--connect`: submit the sweep to a neutrald and render its rows through
/// the same table shape the in-process path uses.
int run_remote(const std::string& endpoint, const std::string& spec_text,
               std::int32_t shards, const std::string& domains,
               const std::string& csv, bool quiet) {
  const auto [host, port] = net::NeutralClient::parse_endpoint(endpoint);
  net::NeutralClient client(host, port);
  net::SubmitRequest request;
  request.spec_text = spec_text;
  request.shards = shards > 0 ? shards : 0;
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
    table.add_row(
        {std::to_string(i), row.label,
         ResultTable::cell(static_cast<long>(row.particles)), row.tally,
         ResultTable::cell(static_cast<unsigned long long>(row.events)),
         ResultTable::cell(row.seconds > 0.0
                               ? static_cast<double>(row.events) / row.seconds
                               : 0.0,
                           3),
         ResultTable::cell(row.seconds, 3),
         ResultTable::cell_full(row.checksum),
         ResultTable::cell(static_cast<long>(row.population)), "remote",
         "-",
         row.status == "ok" ? "ok" : row.status + ": " + row.error});
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
    options.queue_capacity = static_cast<std::size_t>(cli.option_int(
        "queue-capacity", 0, "bounded queue depth (0 = auto)"));
    options.reuse_worlds =
        !cli.flag("no-cache", "rebuild the world for every job");
    const std::string csv =
        cli.option("csv", "neutral_batch.csv", "results CSV path");
    const std::string record_dir = cli.option(
        "record-dir", "", "write a .results regression record per job");
    const std::string write_spec = cli.option(
        "write-spec", "", "write the default sweep spec here and exit");
    const bool check_serial = cli.flag(
        "check-serial",
        "re-run each job serially and compare checksums (pins jobs to 1 "
        "thread: atomic tallies only reproduce bit-exactly single-threaded)");
    const bool quiet = cli.flag("quiet", "suppress per-job progress lines");
    const auto shards = static_cast<std::int32_t>(cli.option_int(
        "shards", 0,
        "split every sweep job into N fork-join shard jobs (0 = off; any "
        "N >= 1 reduces to bit-identical merged results)"));
    const std::string domains = cli.option(
        "domains", "",
        "domain-decompose every sweep job over an RxC mesh grid (e.g. "
        "2x2); composes with the sweep's scheme/layout axes and with "
        "--shards (bank spans nested per subdomain), reducing each job to "
        "one bit-identical row");
    const auto cache_mb = cli.option_int(
        "cache-mb", 0, "world cache byte budget in MiB (0 = unbounded)");
    const long aging_ms = cli.option_int(
        "priority-aging-ms", 0,
        "queued jobs gain one effective priority level per this many ms "
        "waited, so saturating high-priority traffic cannot starve "
        "low-priority work (0 = strict priority)");
    const std::string connect = cli.option(
        "connect", "",
        "run the sweep against a neutrald at host:port instead of "
        "in-process (composes with --spec/--shards/--domains)");
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
    NEUTRAL_REQUIRE(aging_ms >= 0, "--priority-aging-ms must be >= 0");
    options.policy.priority_aging = std::chrono::milliseconds(aging_ms);
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
                          options.queue_capacity == 0 &&
                          options.reuse_worlds && cache_mb == 0 &&
                          aging_ms == 0,
                      "engine knobs (--workers, --threads-per-job, "
                      "--queue-capacity, --no-cache, --cache-mb, "
                      "--priority-aging-ms) configure the daemon; set them "
                      "when starting neutrald");
      const std::string spec_text =
          spec_path.empty() ? kDefaultSpec : read_file(spec_path);
      return run_remote(connect, spec_text, shards, domains, csv, quiet);
    }

    // Bit-exact comparison requires one OpenMP thread per job: with more,
    // atomic tally adds reorder between runs and checksums legitimately
    // wobble in the last bits.
    if (check_serial) options.threads_per_job = 1;

    const SweepSpec spec = spec_path.empty() ? parse_sweep(kDefaultSpec)
                                             : load_sweep(spec_path);
    const std::vector<Job> sweep_jobs = expand_sweep(spec);
    std::unique_ptr<obs::TraceLog> trace;
    if (!trace_log.empty()) {
      trace = std::make_unique<obs::TraceLog>(trace_log);
      options.trace = trace.get();
    }
    BatchEngine engine(options);

    // --domains: run every sweep job through the mesh decomposition and
    // reduce each to one bit-identical row.  Decks run one after another
    // (each solve is itself a fork-join over the pool), so this path has
    // its own table and exits here.
    if (!domains.empty()) {
      NEUTRAL_REQUIRE(!check_serial,
                      "--check-serial compares the plain pipeline; domain "
                      "runs use compensated tallies (use the 1x1-vs-RxC "
                      "CSV diff instead)");
      NEUTRAL_REQUIRE(record_dir.empty(),
                      "--record-dir is not supported with --domains");
      const auto [rows, cols] = parse_domain_grid(domains);
      const std::string shard_note =
          shards > 1 ? " x " + std::to_string(shards) + " bank shards" : "";
      std::printf("# neutral_batch (%s)\n", host_banner().c_str());
      std::printf("# %zu sweep jobs, each decomposed over a %dx%d domain "
                  "grid%s (sweep scheme/layout respected)\n",
                  sweep_jobs.size(), rows, cols, shard_note.c_str());
      ResultTable table(
          "neutral_batch — " + std::to_string(sweep_jobs.size()) +
              " jobs x " + domains + " domains",
          {"job", "label", "particles", "tally", "grid", "shards", "events",
           "migrations", "rounds", "peak slab [MiB]", "peak bank [MiB]",
           "tally checksum", "population", "status"});
      bool domains_ok = true;
      PhaseProfiler::Report sweep_phases;
      for (const Job& job : sweep_jobs) {
        SimulationConfig config = job.config;
        // Domain jobs carry custom work closures, so the engine's profile
        // stamp never reaches them — bake the flag into the base config
        // run_domains propagates to every subdomain Simulation.
        if (options.profile) config.profile = true;
        // Domains compose with every scheme x layout now, so the sweep's
        // axes run as declared.  The tally mode DEFAULTS to atomic — the
        // deferred mode expand_sweep defaults over-events jobs to buffers
        // deposits per thread, which would dwarf the slab (the very
        // footprint --domains exists to shrink) and make identical
        // physics report different peak bytes per row; run_domains forces
        // compensation, so atomic is exact for both schemes.  A mode the
        // spec NAMED is an explicit experimental choice and is kept, per
        // the SweepSpec::tally_mode_named contract.
        if (!spec.tally_mode_named) config.tally_mode = TallyMode::kAtomic;
        DomainOptions domain_options;
        domain_options.rows = rows;
        domain_options.cols = cols;
        domain_options.shards = shards > 0 ? shards : 1;
        domain_options.group = job.id + 1;
        domain_options.threads_per_domain =
            options.threads_per_job > 0 ? options.threads_per_job : 1;
        const DomainRunReport report =
            run_domains(engine, config, domain_options);
        if (report.ok) sweep_phases += report.merged.phases;
        if (!quiet) {
          std::printf("done %-44s %s\n", job.label.c_str(),
                      report.ok ? "ok" : report.error.c_str());
        }
        if (!report.ok) {
          domains_ok = false;
          table.add_row({std::to_string(job.id), job.label,
                         ResultTable::cell(
                             static_cast<long>(config.deck.n_particles)),
                         to_string(config.tally_mode), domains, "-", "-",
                         "-", "-", "-", "-", "-", "-",
                         (report.timed_out ? "TIMEOUT: " : "FAIL: ") +
                             report.error});
          continue;
        }
        const bool conserved = report.merged.budget.conserved(1e-9);
        if (!conserved) domains_ok = false;  // never bury it in the CSV
        table.add_row(
            {std::to_string(job.id), job.label,
             ResultTable::cell(static_cast<long>(config.deck.n_particles)),
             to_string(config.tally_mode),
             std::to_string(report.grid.rows) + "x" +
                 std::to_string(report.grid.cols),
             std::to_string(report.shards),
             ResultTable::cell(static_cast<unsigned long long>(
                 report.merged.counters.total_events())),
             ResultTable::cell(
                 static_cast<unsigned long long>(report.migrations)),
             std::to_string(report.rounds),
             ResultTable::cell(
                 static_cast<double>(report.peak_mesh_bytes) / (1 << 20),
                 3),
             ResultTable::cell(
                 static_cast<double>(report.merged.peak_bank_bytes) /
                     (1 << 20),
                 3),
             ResultTable::cell_full(report.merged.tally_checksum),
             ResultTable::cell(static_cast<long>(report.merged.population)),
             conserved ? "ok" : "NOT CONSERVED"});
      }
      table.print();
      table.write_csv(csv);
      std::printf("wrote %s\n", csv.c_str());
      if (options.profile) {
        std::fputs(
            format_grind_table(sweep_phases, PhaseProfiler::tsc_ghz())
                .c_str(),
            stdout);
      }
      return domains_ok ? 0 : 1;
    }

    // --shards: every sweep job becomes a fork-join group of shard jobs;
    // groups are reduced back to one row each after the run.
    std::vector<Job> jobs;
    if (shards >= 1) {
      // An explicit --threads-per-job must pass through the engine's
      // oversubscription clamp before it is baked into shard configs —
      // make_shard_jobs pins config.threads, which the worker loop then
      // honours as given.
      const std::int32_t threads_per_shard =
          options.threads_per_job > 0
              ? engine
                    .thread_budget(sweep_jobs.size() *
                                   static_cast<std::size_t>(shards))
                    .second
              : 0;
      jobs.reserve(sweep_jobs.size() * static_cast<std::size_t>(shards));
      for (const Job& job : sweep_jobs) {
        ShardOptions shard_options;
        shard_options.shards = shards;
        shard_options.threads_per_shard = threads_per_shard;
        shard_options.priority = job.priority;
        shard_options.group = job.id + 1;  // non-zero, unique per group
        std::vector<Job> group = make_shard_jobs(
            job.config, shard_options,
            job.id * static_cast<std::uint64_t>(shards), job.label + "/");
        for (Job& shard_job : group) jobs.push_back(std::move(shard_job));
      }
    } else {
      jobs = sweep_jobs;
    }
    const auto [workers, threads_per_job] =
        engine.thread_budget(jobs.size());
    std::printf("# neutral_batch (%s)\n", host_banner().c_str());
    std::printf("# %zu jobs on %d workers x %d threads/job (queue %zu, "
                "world cache %s)\n",
                jobs.size(), workers, threads_per_job,
                engine.queue_depth(workers),
                options.reuse_worlds ? "on" : "off");
    if (shards >= 1) {
      std::printf("# sharding: %zu sweep jobs x %d shards, deterministic "
                  "reduction\n",
                  sweep_jobs.size(), shards);
    }

    const BatchReport report = engine.run(
        std::move(jobs), [&](const JobOutcome& outcome) {
          if (quiet) return;
          if (outcome.ok) {
            std::printf("[worker %d] done %-44s %8.3fs  %10.3g ev/s%s\n",
                        outcome.worker, outcome.label.c_str(),
                        outcome.seconds,
                        outcome.result.events_per_second(),
                        outcome.world_cache_hit ? "  (cached world)" : "");
          } else {
            std::printf("[worker %d] FAIL %s: %s\n", outcome.worker,
                        outcome.label.c_str(), outcome.error.c_str());
          }
        });

    bool tables_ok = true;  // any non-ok row must fail the exit status
    if (shards >= 1) {
      // Reduce each contiguous fork-join group back to one sweep row.
      // plan_shards clamps tiny decks, so group sizes can differ.
      ResultTable table(
          "neutral_batch — " + std::to_string(sweep_jobs.size()) +
              " sweep jobs x " + std::to_string(shards) + " shards",
          {"job", "label", "particles", "tally", "shards", "events",
           "max shard [s]", "imbalance", "tally checksum", "population",
           "status"});
      std::size_t next = 0;
      for (const Job& job : sweep_jobs) {
        const std::size_t group_size = std::min<std::size_t>(
            static_cast<std::size_t>(shards),
            static_cast<std::size_t>(job.config.deck.n_particles));
        const batch::GroupReduction group =
            batch::reduce_outcome_group(&report.jobs.at(next), group_size);
        next += group_size;

        if (!group.ok) {
          tables_ok = false;
          table.add_row({std::to_string(job.id), job.label,
                         ResultTable::cell(
                             static_cast<long>(job.config.deck.n_particles)),
                         to_string(job.config.tally_mode),
                         std::to_string(group_size), "-", "-", "-", "-", "-",
                         (group.timed_out ? "TIMEOUT: " : "FAIL: ") +
                             group.error});
          continue;
        }
        const bool conserved = group.merged.budget.conserved(1e-9);
        if (!conserved) tables_ok = false;
        table.add_row(
            {std::to_string(job.id), job.label,
             ResultTable::cell(static_cast<long>(job.config.deck.n_particles)),
             to_string(job.config.tally_mode),
             std::to_string(group_size),
             ResultTable::cell(static_cast<unsigned long long>(
                 group.merged.counters.total_events())),
             ResultTable::cell(group.max_shard_seconds, 3),
             ResultTable::cell(group.imbalance(), 2),
             ResultTable::cell_full(group.merged.tally_checksum),
             ResultTable::cell(static_cast<long>(group.merged.population)),
             conserved ? "ok" : "NOT CONSERVED"});
      }
      table.print();
      table.write_csv(csv);
      std::printf("wrote %s\n", csv.c_str());
      if (!tables_ok) {
        std::printf("sharding       : at least one group failed to reduce\n");
      }
    } else {
      ResultTable table(
          "neutral_batch — " + std::to_string(report.jobs.size()) + " jobs",
          result_columns());
      for (const JobOutcome& j : report.jobs) {
        const bool conserved =
            !j.ok || j.result.budget.conserved(1e-9);
        if (!conserved) tables_ok = false;
        table.add_row(
            {std::to_string(j.job_id), j.label,
             ResultTable::cell(static_cast<long>(j.config.deck.n_particles)),
             to_string(j.config.tally_mode),
             ResultTable::cell(static_cast<unsigned long long>(
                 j.result.counters.total_events())),
             ResultTable::cell(j.result.events_per_second(), 3),
             ResultTable::cell(j.seconds, 3),
             ResultTable::cell_full(j.result.tally_checksum),
             ResultTable::cell(static_cast<long>(j.result.population)),
             j.world_cache_hit ? "cached" : "built",
             std::to_string(j.worker),
             conserved ? outcome_cell(j) : "NOT CONSERVED"});
      }
      table.print();
      table.write_csv(csv);
      std::printf("wrote %s\n", csv.c_str());
    }

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

    bool ok = report.failed() == 0 && tables_ok;
    if (!record_dir.empty()) {
      for (const JobOutcome& j : report.jobs) {
        if (!j.ok) continue;
        save_results(make_expected(j.config, j.result),
                     record_dir + "/job_" + std::to_string(j.job_id) +
                         ".results");
      }
      std::printf("records        : wrote %zu .results files to %s\n",
                  report.completed(), record_dir.c_str());
    }
    if (check_serial) {
      std::size_t matched = 0;
      for (const JobOutcome& j : report.jobs) {
        if (j.ok && check_against_serial(j)) ++matched;
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
