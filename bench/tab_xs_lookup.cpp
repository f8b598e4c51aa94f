// §VI-A in-text: the cached linear cross-section search bought 1.3x over a
// binary search on csp.  Both lookup strategies are swept over the
// problems (the effect concentrates where collisions are frequent), and a
// microbench isolates the lookup itself: ns per capture+scatter pair and
// search steps per lookup, on a correlated collision-style energy walk.
// The pair runs as refresh_cross_sections does: one bin search on the
// capture table, one weight, both tables interpolated at that bin.
//
// Exit status 1 when the two strategies' checksums differ: they must find
// the same bin, so the interpolated values must be bit-identical.
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "rng/stream.h"
#include "xs/material.h"

using namespace neutral;
using namespace neutral::bench;

namespace {

/// Correlated multiplicative energy walk in the table's range — the access
/// pattern a collision loop produces (slow energy loss with jitter).
std::vector<double> energy_walk(const CrossSectionTable& xs, std::size_t n) {
  std::vector<double> energies(n);
  rng::ParticleStream stream(/*seed=*/1234, /*particle_id=*/1);
  const double lo = xs.min_energy();
  const double hi = xs.max_energy();
  double e = hi * 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    // Mostly small losses, occasional large scatter — and rare excursions
    // past the table edges to exercise the clamp path.
    const double u = stream.next();
    e *= u < 0.9 ? (0.8 + 0.2 * stream.next()) : (0.05 + stream.next());
    if (e < lo * 0.5) e = hi * (0.25 + 0.5 * stream.next());
    energies[i] = e;
  }
  return energies;
}

struct MicroResult {
  double ns_per_lookup = 0.0;
  double steps_per_lookup = 0.0;
  double sum = 0.0;  ///< checksum over all interpolated values (anti-DCE)
};

MicroResult micro_lookup(const MaterialXs& xs, XsLookup mode,
                         const std::vector<double>& energies, int reps) {
  MicroResult out;
  double best_ns = 1.0e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::int32_t idx = 0;
    double sum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const double ev : energies) {
      const double e = xs.capture.clamp_energy(ev);
      idx = xs.capture.find_bin(e, mode, idx);
      const double t = xs.capture.weight(idx, e);
      sum += xs.capture.interpolate(idx, t);
      sum += xs.scatter.interpolate(idx, t);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(energies.size());
    if (ns < best_ns) best_ns = ns;
    out.sum = sum;
  }
  out.ns_per_lookup = best_ns;

  // Steps are deterministic — count them once, outside the timed loop,
  // with the same search find_bin runs.
  std::int64_t steps = 0;
  std::int32_t idx = 0;
  for (const double e : energies) {
    (void)xs.capture.find_bin_counted(e, mode, idx, steps);
  }
  out.steps_per_lookup =
      static_cast<double>(steps) / static_cast<double>(energies.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  BenchScale scale;
  scale.reps = 3;
  if (!BenchScale::parse(cli, &scale)) return 0;
  const std::string csv =
      banner("tab_xs_lookup", "§VI-A XS lookup strategies", scale);

  constexpr XsLookup kModes[] = {XsLookup::kBinarySearch,
                                 XsLookup::kCachedLinear};

  ResultTable table("§VI-A — cross-section lookup strategy (Over Particles)",
                    {"problem", "strategy", "seconds", "binary/this"});
  for (const std::string name : {"csp", "scatter"}) {
    double binary_seconds = 0.0;
    for (const XsLookup mode : kModes) {
      SimulationConfig cfg;
      cfg.deck = scale.deck(name);
      cfg.lookup = mode;
      const double seconds = best_seconds(cfg, scale.reps);
      if (mode == XsLookup::kBinarySearch) binary_seconds = seconds;
      table.add_row({name, to_string(mode), ResultTable::cell(seconds, 3),
                     ResultTable::cell(binary_seconds / seconds, 3)});
    }
  }
  table.print();
  table.write_csv(csv);

  // Isolated lookup microbench: one capture+scatter pair per energy of a
  // correlated collision-style walk.
  const std::shared_ptr<const MaterialXs> xs =
      shared_material_xs(scale.deck("csp").xs);
  const std::vector<double> energies = energy_walk(xs->capture, 1u << 18);
  ResultTable micro("§VI-A — isolated lookup (capture+scatter pair, "
                    "collision-style energy walk)",
                    {"strategy", "ns/lookup", "steps/lookup", "checksum"});
  std::vector<double> sums;
  for (const XsLookup mode : kModes) {
    const MicroResult r = micro_lookup(*xs, mode, energies, scale.reps);
    micro.add_row({to_string(mode), ResultTable::cell(r.ns_per_lookup, 2),
                   ResultTable::cell(r.steps_per_lookup, 3),
                   ResultTable::cell_full(r.sum)});
    sums.push_back(r.sum);
  }
  micro.print();
  micro.write_csv("tab_xs_lookup_micro.csv");

  std::printf(
      "\npaper: cached linear search 1.3x faster than binary search on csp\n"
      "(collisions change energy slowly, so the walk stays in cache).\n");
  if (sums.front() != sums.back()) {
    std::printf("FAIL: the strategies' checksums differ — they must locate "
                "the same bin, so the values must be bit-identical\n");
    return 1;
  }
  std::printf("PASS: both strategies' checksums are bit-identical\n");
  return 0;
}
