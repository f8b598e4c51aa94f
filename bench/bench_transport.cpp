// `bench_transport` — the recorded perf trajectory.
//
// Runs the golden decks (the same ones tests/test_golden.cpp pins) across
// scheme x layout and writes the committed BENCH_transport.json record:
// events/sec, per-phase ns/event (§VI-A grind times), peak bytes, and host
// info.  CI regenerates the document on every push, schema-checks it
// (`--check`), and uploads it as an artifact — a perf trajectory over the
// repo's history without gating merges on timing noise.  The paired
// BENCH_transport.baseline.json (an earlier record of the same default
// configuration) is what bench_compare diffs later records against.
//
//   $ bench_transport                      # 3 decks x 2 schemes x 2 layouts
//   $ bench_transport --particles 100000 --repeats 5
//   $ bench_transport --check BENCH_transport.json   # schema + host check
//
// Throughput is timed with profiling OFF: the per-phase TSC probes cost
// ~60-80 cycles per event phase, enough to dilute the very ratios an
// optimisation record exists to demonstrate.  A separate profiled pass
// (not timed) supplies the grind-time table, and its checksum must match
// the timed runs bit-exactly — the probes may not perturb physics.
//
// Timings default to 1 OpenMP thread so ns/event is a per-core grind time
// (comparable to the paper's table) and checksums stay bit-exact run to
// run.  The checksum column doubles as a correctness anchor: for the
// default particle count it must match across every layout at fixed
// scheme, like the golden tier proves at small scale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "io/deck_io.h"
#include "obs/bench_record.h"
#include "obs/json.h"
#include "perf/profiler.h"
#include "runtime/host_info.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

#ifndef NEUTRAL_GOLDEN_DIR
#define NEUTRAL_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace neutral;

constexpr const char* kDecks[] = {"golden_stream", "golden_scatter",
                                  "golden_csp"};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Short scheme/layout tokens for the JSON record (the long display forms
/// stay in the table).
const char* scheme_token(Scheme s) {
  return s == Scheme::kOverParticles ? "particles" : "events";
}
const char* layout_token(Layout l) {
  return l == Layout::kAoS ? "aos" : "soa";
}

struct RepeatStats {
  double min = 0.0;
  double median = 0.0;
  double stddev = 0.0;
};

RepeatStats repeat_stats(std::vector<double> seconds) {
  RepeatStats stats;
  std::sort(seconds.begin(), seconds.end());
  const std::size_t n = seconds.size();
  stats.min = seconds.front();
  stats.median = n % 2 == 1 ? seconds[n / 2]
                            : 0.5 * (seconds[n / 2 - 1] + seconds[n / 2]);
  double mean = 0.0;
  for (const double s : seconds) mean += s;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double s : seconds) var += (s - mean) * (s - mean);
  stats.stddev = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
  return stats;
}

int check_mode(const std::string& path, bool allow_host_mismatch) {
  const std::string text = read_file(path);
  const std::vector<std::string> problems = obs::validate_bench_record(text);
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
    }
    return 1;
  }
  // A schema-valid record from a different host shape is still not a
  // usable comparison point here: the committed baseline was once taken
  // on a 1-logical-CPU container and silently read as "no regression".
  const obs::BenchHostShape recorded = obs::read_host_shape(text);
  const HostInfo host = probe_host();
  obs::BenchHostShape current;
  current.logical_cpus = host.logical_cpus;
  current.openmp_max_threads = host.openmp_max_threads;
  current.threads = recorded.threads;  // run knob, not a host property
  if (!recorded.matches(current)) {
    std::fprintf(stderr,
                 "%s: host shape mismatch\n  record : %s\n  current: %s\n"
                 "timings are not comparable across host shapes "
                 "(--allow-host-mismatch to override)\n",
                 path.c_str(), recorded.describe().c_str(),
                 current.describe().c_str());
    if (!allow_host_mismatch) return 1;
    std::fprintf(stderr, "%s: mismatch waived by --allow-host-mismatch\n",
                 path.c_str());
  }
  const std::string schema = obs::parse_json(text).find("schema")->string;
  std::printf("%s: schema ok (%s), host shape %s\n", path.c_str(),
              schema.c_str(), recorded.describe().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    const std::string out_path = cli.option(
        "out", "BENCH_transport.json", "where to write the record");
    const std::string check_path = cli.option(
        "check", "",
        "validate an existing record against the schema, refuse a host "
        "shape that differs from this machine, and exit (CI runs this on "
        "the artifact)");
    const bool allow_host_mismatch = cli.flag(
        "allow-host-mismatch",
        "downgrade the --check host-shape refusal to a warning");
    const std::string deck_dir = cli.option(
        "deck-dir", NEUTRAL_GOLDEN_DIR, "directory with golden_*.params");
    const long particles = cli.option_int(
        "particles", 20000,
        "particles per deck (0 = the deck's own count; the default is "
        "large enough for stable grind times)");
    const auto repeats = static_cast<int>(cli.option_int(
        "repeats", 1,
        "timing repeats per config; the record keeps best-of for "
        "events/sec plus median and stddev per row"));
    const auto threads = static_cast<std::int32_t>(cli.option_int(
        "threads", 1,
        "OpenMP threads (1 keeps ns/event a per-core grind time and "
        "checksums bit-exact)"));
    const std::string lookup_name = cli.option(
        "lookup", "cached",
        "XS lookup strategy: binary|cached");
    const bool no_phases = cli.flag(
        "no-phases",
        "skip the separate profiled pass (faster; record has empty phase "
        "tables)");
    if (!cli.finish()) return 0;
    if (!check_path.empty()) {
      return check_mode(check_path, allow_host_mismatch);
    }
    NEUTRAL_REQUIRE(repeats >= 1, "--repeats must be >= 1");
    NEUTRAL_REQUIRE(particles >= 0, "--particles must be >= 0");
    const XsLookup lookup = lookup_from_string(lookup_name);

    const HostInfo host = probe_host();
    obs::BenchDocument doc;
    doc.cpu_model = host.cpu_model;
    doc.logical_cpus = host.logical_cpus;
    doc.openmp_max_threads = host.openmp_max_threads;
    doc.threads = threads;
    doc.repeats = repeats;
    doc.lookup = to_string(lookup);

    const double ghz = PhaseProfiler::tsc_ghz();
    std::printf("# bench_transport — perf trajectory record\n");
    std::printf("# %s\n", host_banner().c_str());
    // The host shape gates every later comparison; print it where it
    // cannot be missed, not just inside the JSON.
    std::printf("# HOST SHAPE: %d logical CPUs, %d OpenMP max threads — "
                "records from other shapes are not comparable\n",
                host.logical_cpus, host.openmp_max_threads);
    std::printf("# particles=%ld repeats=%d threads=%d tsc=%.2f GHz\n",
                particles, repeats, threads, ghz);
    std::printf("# config: lookup=%s\n", to_string(lookup));

    ResultTable table("bench_transport",
                      {"deck", "scheme", "layout", "particles", "events",
                       "events/s", "best [s]", "median [s]", "stddev [s]",
                       "tally checksum"});
    PhaseProfiler::Report all_phases;
    for (const char* deck_name : kDecks) {
      const ProblemDeck deck =
          load_deck(deck_dir + std::string("/") + deck_name + ".params");
      for (const Scheme scheme :
           {Scheme::kOverParticles, Scheme::kOverEvents}) {
        for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
          SimulationConfig config;
          config.deck = deck;
          if (particles > 0) config.deck.n_particles = particles;
          config.scheme = scheme;
          config.layout = layout;
          config.threads = threads;
          config.lookup = lookup;
          config.profile = false;  // probes would dilute the timings
          RunResult best;
          std::vector<double> seconds;
          seconds.reserve(static_cast<std::size_t>(repeats));
          for (int r = 0; r < repeats; ++r) {
            Simulation sim(config);
            RunResult result = sim.run();
            seconds.push_back(result.total_seconds);
            if (r == 0 || result.total_seconds < best.total_seconds) {
              best = std::move(result);
            }
          }
          const RepeatStats stats = repeat_stats(seconds);

          obs::BenchResult row;
          row.deck = deck_name;
          row.scheme = scheme_token(scheme);
          row.layout = layout_token(layout);
          row.particles = config.deck.n_particles;
          row.timesteps = deck.n_timesteps;
          row.events = best.counters.total_events();
          row.seconds = stats.min;
          row.seconds_median = stats.median;
          row.seconds_stddev = stats.stddev;
          row.events_per_second = best.events_per_second();
          row.checksum = best.tally_checksum;
          row.population = best.population;
          row.peak_mesh_bytes = best.peak_mesh_bytes;
          row.peak_bank_bytes = best.peak_bank_bytes;

          if (!no_phases) {
            // Separate profiled pass: grind times without contaminating
            // the throughput numbers above.  Physics must be untouched.
            config.profile = true;
            Simulation sim(config);
            const RunResult profiled = sim.run();
            if (threads == 1) {
              NEUTRAL_REQUIRE(
                  profiled.tally_checksum == best.tally_checksum,
                  "profiled pass changed the checksum — probes are "
                  "perturbing physics");
            }
            for (int p = 0; p < kNumPhases; ++p) {
              const auto phase = static_cast<Phase>(p);
              if (profiled.phases.visits[static_cast<std::size_t>(p)] ==
                  0) {
                continue;
              }
              obs::BenchPhase bench_phase;
              bench_phase.phase = to_string(phase);
              bench_phase.ns_per_event =
                  profiled.phases.cycles_per_visit(phase) / ghz;
              bench_phase.fraction = profiled.phases.fraction(phase);
              row.phases.push_back(std::move(bench_phase));
            }
            all_phases += profiled.phases;
          }
          doc.results.push_back(std::move(row));
          table.add_row(
              {deck_name, to_string(scheme), to_string(layout),
               ResultTable::cell(
                   static_cast<long>(config.deck.n_particles)),
               ResultTable::cell(static_cast<unsigned long long>(
                   best.counters.total_events())),
               ResultTable::cell(best.events_per_second(), 3),
               ResultTable::cell(stats.min, 3),
               ResultTable::cell(stats.median, 3),
               ResultTable::cell(stats.stddev, 4),
               ResultTable::cell_full(best.tally_checksum)});
        }
      }
    }
    table.print();
    if (!no_phases) {
      std::fputs(format_grind_table(all_phases, ghz).c_str(), stdout);
    }

    const std::string json = doc.to_json();
    // Never commit a record the schema check would reject.
    const std::vector<std::string> problems =
        obs::validate_bench_record(json);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "bench_transport: self-check: %s\n", p.c_str());
    }
    NEUTRAL_REQUIRE(problems.empty(),
                    "generated record failed its own schema check");
    std::ofstream out(out_path);
    NEUTRAL_REQUIRE(out.good(), "cannot write '" + out_path + "'");
    out << json;
    NEUTRAL_REQUIRE(out.good(), "short write to '" + out_path + "'");
    std::printf("wrote %s (%zu results, schema %s)\n", out_path.c_str(),
                doc.results.size(), obs::kBenchTransportSchema);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_transport: %s\n", e.what());
    return 2;
  }
}
