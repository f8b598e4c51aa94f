// §VI-A in-text measurements: event grind times and the tally fraction.
//
//   * collision grind measured on the scatter problem   (paper: ~18 ns)
//   * facet grind measured on the stream problem        (paper: ~3 ns)
//   * tally share of runtime, Over Particles vs Over Events
//     (paper: ~50% vs ~22%)
//
// Grind = aggregate node time per event (runtime x phase fraction / event
// count), matching the paper's methodology.
#include <cstdint>
#include <string>

#include "bench_common.h"

using namespace neutral;
using namespace neutral::bench;

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  BenchScale scale;
  if (!BenchScale::parse(cli, &scale)) return 0;
  const std::string csv =
      banner("tab_event_grind", "§VI-A grind times / tally fraction", scale);

  ResultTable grind("§VI-A — event grind times (Over Particles, profiled)",
                    {"problem", "event", "count", "ns/event (node)",
                     "phase share"});

  for (const std::string name : {"scatter", "stream", "csp"}) {
    SimulationConfig cfg;
    cfg.deck = scale.deck(name);
    cfg.profile = true;
    Simulation sim(cfg);
    const RunResult r = sim.run();
    const auto report = sim.profiler()->report();

    auto add = [&](Phase phase, const char* label, std::uint64_t count) {
      if (count == 0) return;
      const double share = report.fraction(phase);
      const double ns = r.total_seconds * share * 1.0e9 /
                        static_cast<double>(count);
      grind.add_row({name, label,
                     ResultTable::cell(static_cast<unsigned long long>(count)),
                     ResultTable::cell(ns, 1), ResultTable::cell(share, 3)});
    };
    add(Phase::kCollision, "collision", r.counters.collisions);
    add(Phase::kFacet, "facet", r.counters.facets);
    add(Phase::kTally, "tally flush", r.counters.tally_flushes);
    add(Phase::kEventSearch, "event-search", r.counters.total_events());
  }
  grind.print();
  grind.write_csv(csv);

  // Tally share per scheme on csp.
  ResultTable share("§VI-A — tally share of runtime by scheme (csp)",
                    {"scheme", "tally share"});
  {
    SimulationConfig cfg;
    cfg.deck = scale.deck("csp");
    cfg.profile = true;
    Simulation sim(cfg);
    sim.run();
    share.add_row({"over-particles",
                   ResultTable::cell(
                       sim.profiler()->report().fraction(Phase::kTally), 3)});
  }
  {
    SimulationConfig cfg;
    cfg.deck = scale.deck("csp");
    cfg.scheme = Scheme::kOverEvents;
    cfg.layout = Layout::kSoA;
    cfg.tally_mode = TallyMode::kDeferredAtomic;
    const RunResult r = run_sim(cfg);
    share.add_row(
        {"over-events (tally kernel)",
         ResultTable::cell(r.kernel_times.tally / r.kernel_times.total(), 3)});
  }
  share.print();

  std::printf(
      "\npaper: ~18 ns/collision (scatter), ~3 ns/facet (stream) aggregated\n"
      "over 88 Broadwell threads; tally ~50%% of Over Particles runtime vs\n"
      "~22%% of Over Events.  Expect the same ordering, scaled by this\n"
      "machine's single-thread throughput.\n");
  return 0;
}
