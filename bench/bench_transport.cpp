// `bench_transport` — the recorded on-node study.
//
// Runs the golden decks (the same ones tests/test_golden.cpp pins) and
// writes the committed BENCH_transport.json record: events/sec, scaling
// efficiency, tally footprint, per-phase ns/event (§VI-A grind times),
// peak bytes and host info.  The row plan is fixed:
//
//   grid   every deck x scheme x layout x threads {1, 2, 4} (capped at the
//          host's logical CPUs), each with the tally strategy the
//          front-ends run by default (batch::resolve_tally_mode: atomic for
//          Over Particles, deferred for Over Events) — Figs 3 and 5;
//   fig7   every deck, Over Particles/AoS at the top thread count, with the
//          privatised and merge-every-step tallies — Fig 7;
//   fig4   golden_csp, Over Particles/AoS at the top thread count, under
//          five OpenMP schedules — Fig 4.
//
//   $ bench_transport                              # the committed record
//   $ bench_transport --check BENCH_transport.json # schema + host check
//
// Throughput is timed with profiling OFF: the per-phase TSC probes cost
// ~60-80 cycles per event phase, enough to dilute the very ratios the
// record exists to show.  The 1-thread rows get a separate profiled pass
// (not timed) for the grind-time table, since grind time is a per-core
// figure; its checksum must match the timed runs bit-exactly.
//
// The record checks its own physics before it is written
// (BenchDocument::consistency_problems): every row of a deck has the
// events, population and checksum of the deck's 1-thread Over
// Particles/AoS row, bit for bit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "batch/sweep.h"
#include "core/simulation.h"
#include "io/deck_io.h"
#include "obs/bench_record.h"
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

/// One row of the plan: a deck and every study-axis choice.
struct RowPlan {
  const char* deck = nullptr;
  Scheme scheme = Scheme::kOverParticles;
  Layout layout = Layout::kAoS;
  std::int32_t threads = 1;
  TallyMode tally = TallyMode::kAtomic;
  SchedulePolicy schedule;
};

std::vector<RowPlan> row_plan(std::int32_t logical_cpus) {
  std::vector<std::int32_t> thread_counts;
  for (const std::int32_t t : {1, 2, 4}) {
    if (t <= logical_cpus) thread_counts.push_back(t);
  }
  const std::int32_t top = thread_counts.back();
  const SchedulePolicy statics = SchedulePolicy::statics();
  std::vector<RowPlan> plan;
  for (const char* deck : kDecks) {
    for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
      const TallyMode tally =
          batch::resolve_tally_mode(scheme, std::nullopt, false);
      for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
        for (const std::int32_t t : thread_counts) {
          plan.push_back({deck, scheme, layout, t, tally, statics});
        }
      }
    }
    for (const TallyMode tally :
         {TallyMode::kPrivatized, TallyMode::kPrivatizedMergeEveryStep}) {
      plan.push_back({deck, Scheme::kOverParticles, Layout::kAoS, top, tally,
                      statics});
    }
  }
  for (const SchedulePolicy& schedule :
       {SchedulePolicy::static_chunk(1), SchedulePolicy::static_chunk(64),
        SchedulePolicy::dynamic(), SchedulePolicy::dynamic(64),
        SchedulePolicy::guided()}) {
    plan.push_back({"golden_csp", Scheme::kOverParticles, Layout::kAoS, top,
                    TallyMode::kAtomic, schedule});
  }
  return plan;
}

int check_mode(const std::string& path, bool allow_host_mismatch) {
  const obs::BenchDocument doc = obs::load_bench_record(path);
  // A valid record from a different host shape is still not a usable
  // comparison point here: a baseline was once taken on a 1-logical-CPU
  // container and silently read as "no regression".
  const HostInfo host = probe_host();
  const obs::BenchHostShape current{host.logical_cpus,
                                    host.openmp_max_threads};
  if (!doc.host_shape().matches(current)) {
    std::fprintf(stderr,
                 "%s: host shape mismatch\n  record : %s\n  current: %s\n"
                 "timings are not comparable across host shapes "
                 "(--allow-host-mismatch to override)\n",
                 path.c_str(), doc.host_shape().describe().c_str(),
                 current.describe().c_str());
    if (!allow_host_mismatch) return 1;
    std::fprintf(stderr, "%s: mismatch waived by --allow-host-mismatch\n",
                 path.c_str());
  }
  std::printf("%s: schema ok (%s, %zu rows), host shape %s\n", path.c_str(),
              doc.schema.c_str(), doc.results.size(),
              doc.host_shape().describe().c_str());
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
        "validate an existing record (schema and physics consistency), "
        "refuse a host shape that differs from this machine, and exit");
    const bool allow_host_mismatch = cli.flag(
        "allow-host-mismatch",
        "downgrade the --check host-shape refusal to a warning");
    const std::string deck_dir = cli.option(
        "deck-dir", NEUTRAL_GOLDEN_DIR, "directory with golden_*.params");
    const long particles = cli.option_int(
        "particles", 20000,
        "particles per deck (0 = the deck's own count; the default is "
        "large enough for threads to pay)");
    const auto repeats = static_cast<int>(cli.option_int(
        "repeats", 5,
        "timing repeats per row; the record keeps best-of for "
        "events/sec plus median and stddev per row"));
    const std::string lookup_name = cli.option(
        "lookup", "cached",
        "XS lookup strategy: binary|cached");
    const bool no_phases = cli.flag(
        "no-phases",
        "skip the profiled pass of the 1-thread rows (faster; record has "
        "empty phase tables)");
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
    doc.repeats = repeats;
    doc.lookup = to_string(lookup);

    const double ghz = PhaseProfiler::tsc_ghz();
    std::printf("# bench_transport — on-node study record\n");
    std::printf("# %s\n", host_banner().c_str());
    // The host shape gates every later comparison; print it where it
    // cannot be missed, not just inside the JSON.
    std::printf("# HOST SHAPE: %d logical CPUs, %d OpenMP max threads — "
                "records from other shapes are not comparable\n",
                host.logical_cpus, host.openmp_max_threads);
    std::printf("# particles=%ld repeats=%d tsc=%.2f GHz lookup=%s\n",
                particles, repeats, ghz, to_string(lookup));

    ResultTable table("bench_transport",
                      {"deck", "scheme", "layout", "threads", "tally",
                       "schedule", "events", "events/s", "scaling eff",
                       "best [s]", "median [s]", "stddev [s]",
                       "tally checksum"});
    PhaseProfiler::Report all_phases;
    std::string loaded_name;
    ProblemDeck deck;
    for (const RowPlan& plan : row_plan(host.logical_cpus)) {
      if (loaded_name != plan.deck) {
        loaded_name = plan.deck;
        deck = load_deck(deck_dir + "/" + loaded_name + ".params");
      }
      SimulationConfig config;
      config.deck = deck;
      if (particles > 0) config.deck.n_particles = particles;
      config.scheme = plan.scheme;
      config.layout = plan.layout;
      config.threads = plan.threads;
      config.tally_mode = plan.tally;
      config.schedule = plan.schedule;
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
      row.deck = plan.deck;
      row.scheme = scheme_token(plan.scheme);
      row.layout = layout_token(plan.layout);
      row.threads = plan.threads;
      row.tally = to_string(plan.tally);
      row.schedule = plan.schedule.name();
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
      row.tally_bytes = best.tally_footprint_bytes;
      // The plan runs each 1-thread grid row before every row scaled
      // against it, so a row without a base is that grid row.
      const auto base = std::find_if(
          doc.results.begin(), doc.results.end(),
          [&row](const obs::BenchResult& r) {
            return r.threads == 1 && r.deck == row.deck &&
                   r.scheme == row.scheme && r.layout == row.layout;
          });
      row.scaling_eff = base == doc.results.end()
                            ? 1.0
                            : row.events_per_second /
                                  (plan.threads * base->events_per_second);

      if (!no_phases && plan.threads == 1) {
        // Separate profiled pass: grind times without contaminating the
        // throughput numbers above.  Physics must be untouched.
        config.profile = true;
        Simulation sim(config);
        const RunResult profiled = sim.run();
        NEUTRAL_REQUIRE(profiled.tally_checksum == best.tally_checksum,
                        "profiled pass changed the checksum — probes are "
                        "perturbing physics");
        for (int p = 0; p < kNumPhases; ++p) {
          const auto phase = static_cast<Phase>(p);
          if (profiled.phases.visits[static_cast<std::size_t>(p)] == 0) {
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
      table.add_row(
          {row.deck, to_string(plan.scheme), to_string(plan.layout),
           ResultTable::cell(static_cast<long>(row.threads)), row.tally,
           row.schedule,
           ResultTable::cell(static_cast<unsigned long long>(row.events)),
           ResultTable::cell(row.events_per_second, 3),
           ResultTable::cell(row.scaling_eff, 3),
           ResultTable::cell(stats.min, 3), ResultTable::cell(stats.median, 3),
           ResultTable::cell(stats.stddev, 4),
           ResultTable::cell_full(row.checksum)});
      doc.results.push_back(std::move(row));
    }
    table.print();
    if (!no_phases) {
      std::fputs(format_grind_table(all_phases, ghz).c_str(), stdout);
    }

    const std::string json = doc.to_json();
    // Never write a record the check would reject.
    const std::vector<std::string> problems =
        obs::validate_bench_record(json);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "bench_transport: self-check: %s\n", p.c_str());
    }
    NEUTRAL_REQUIRE(problems.empty(),
                    "generated record failed its own check; not written");
    std::ofstream out(out_path);
    NEUTRAL_REQUIRE(out.good(), "cannot write '" + out_path + "'");
    out << json;
    NEUTRAL_REQUIRE(out.good(), "short write to '" + out_path + "'");
    std::printf("wrote %s (%zu rows, schema %s)\n", out_path.c_str(),
                doc.results.size(), obs::kBenchTransportSchema);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_transport: %s\n", e.what());
    return 2;
  }
}
