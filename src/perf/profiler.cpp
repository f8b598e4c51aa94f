#include "perf/profiler.h"

#include <chrono>
#include <cstdio>

#include "util/error.h"

namespace neutral {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kEventSearch: return "event-search";
    case Phase::kCollision: return "collision";
    case Phase::kFacet: return "facet";
    case Phase::kTally: return "tally";
    case Phase::kCensus: return "census";
    case Phase::kOther: return "other";
  }
  return "?";
}

PhaseProfiler::PhaseProfiler(std::int32_t max_threads) {
  NEUTRAL_REQUIRE(max_threads >= 1, "profiler needs at least one slot");
  slots_.resize(static_cast<std::size_t>(max_threads));
}

std::uint64_t PhaseProfiler::Report::total_cycles() const {
  std::uint64_t t = 0;
  for (auto c : cycles) t += c;
  return t;
}

std::uint64_t PhaseProfiler::Report::total_visits() const {
  std::uint64_t t = 0;
  for (auto v : visits) t += v;
  return t;
}

PhaseProfiler::Report& PhaseProfiler::Report::operator+=(const Report& o) {
  for (int p = 0; p < kNumPhases; ++p) {
    cycles[static_cast<std::size_t>(p)] += o.cycles[static_cast<std::size_t>(p)];
    visits[static_cast<std::size_t>(p)] += o.visits[static_cast<std::size_t>(p)];
  }
  return *this;
}

double PhaseProfiler::Report::fraction(Phase p) const {
  const std::uint64_t total = total_cycles();
  if (total == 0) return 0.0;
  return static_cast<double>(cycles[static_cast<int>(p)]) /
         static_cast<double>(total);
}

double PhaseProfiler::Report::cycles_per_visit(Phase p) const {
  const std::uint64_t v = visits[static_cast<int>(p)];
  if (v == 0) return 0.0;
  return static_cast<double>(cycles[static_cast<int>(p)]) /
         static_cast<double>(v);
}

PhaseProfiler::Report PhaseProfiler::report() const {
  Report r;
  for (const auto& padded : slots_) {
    for (int p = 0; p < kNumPhases; ++p) {
      r.cycles[p] += padded.value.cycles[p];
      r.visits[p] += padded.value.visits[p];
    }
  }
  return r;
}

void PhaseProfiler::reset() {
  for (auto& padded : slots_) padded.value = Slot{};
}

std::string format_grind_table(const PhaseProfiler::Report& report,
                               double ghz) {
  if (report.total_visits() == 0 || ghz <= 0.0) {
    return "(no phase probes recorded — run with profiling on to collect "
           "§VI-A grind times)\n";
  }
  std::string out = "\n== §VI-A phase profile ==\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-14s %12s %14s %10s\n", "phase",
                "visits", "ns/visit", "share");
  out += line;
  for (int p = 0; p < kNumPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    if (report.visits[static_cast<std::size_t>(p)] == 0) continue;
    std::snprintf(line, sizeof line, "%-14s %12llu %14.1f %9.1f%%\n",
                  to_string(phase),
                  static_cast<unsigned long long>(
                      report.visits[static_cast<std::size_t>(p)]),
                  report.cycles_per_visit(phase) / ghz,
                  100.0 * report.fraction(phase));
    out += line;
  }
  std::snprintf(line, sizeof line,
                "%-14s %12llu %14s %10s   (%.4f s profiled @ %.2f GHz)\n",
                "total", static_cast<unsigned long long>(report.total_visits()),
                "", "",
                static_cast<double>(report.total_cycles()) / (ghz * 1.0e9),
                ghz);
  out += line;
  return out;
}

double PhaseProfiler::tsc_ghz() {
  static const double ghz = [] {
    // Calibrate the TSC against steady_clock over ~20 ms.
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = read_cycles();
    for (;;) {
      const auto t1 = std::chrono::steady_clock::now();
      const std::chrono::duration<double> dt = t1 - t0;
      if (dt.count() >= 0.02) {
        const std::uint64_t c1 = read_cycles();
        return static_cast<double>(c1 - c0) / dt.count() / 1.0e9;
      }
    }
  }();
  return ghz;
}

}  // namespace neutral
