// `bench_compare` — diff two bench_transport records.
//
// Matches rows by (deck, scheme, layout, threads, tally, schedule), prints
// per-row and geometric-mean events/sec ratios, and exits non-zero when the
// candidate falls below the threshold.  Two safety rails make the
// comparison honest:
//
//   * host shape: records from different machines are refused outright —
//     a baseline was once taken on a 1-logical-CPU container and silently
//     read as "no regression";
//   * checksums: when two matched rows ran the same problem, their tally
//     checksums must be bit-identical whatever their thread count or XS
//     lookup (tallies are exact integer sums).  That turns every perf
//     comparison into a correctness check, for free.
//
//   $ bench_compare --candidate fresh.json   # against the committed record
//   $ bench_compare ... --threshold 1.3      # demand a 1.3x speedup
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/bench_record.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

#ifndef NEUTRAL_BENCH_RECORD
#define NEUTRAL_BENCH_RECORD "BENCH_transport.json"
#endif

namespace {

using namespace neutral;

const obs::BenchResult* find_row(const obs::BenchDocument& record,
                                 const std::string& key) {
  for (const obs::BenchResult& r : record.results) {
    if (r.key() == key) return &r;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    const std::string baseline_path = cli.option(
        "baseline", NEUTRAL_BENCH_RECORD,
        "reference record (default: the committed BENCH_transport.json)");
    const std::string candidate_path = cli.option(
        "candidate", "BENCH_transport.json", "record under test");
    const double threshold = cli.option_double(
        "threshold", 0.95,
        "minimum acceptable geometric-mean events/sec ratio "
        "(candidate / baseline); 0.95 tolerates noise, 1.3 demands a "
        "1.3x speedup");
    const bool allow_host_mismatch = cli.flag(
        "allow-host-mismatch",
        "compare records from differing host shapes anyway (ratios are "
        "then NOT meaningful; checksum cross-checks still run)");
    if (!cli.finish()) return 0;
    NEUTRAL_REQUIRE(threshold > 0.0, "--threshold must be positive");

    const obs::BenchDocument baseline = obs::load_bench_record(baseline_path);
    const obs::BenchDocument candidate =
        obs::load_bench_record(candidate_path);

    std::printf("# bench_compare\n");
    std::printf("# baseline : %s (lookup=%s)\n#   host   : %s\n",
                baseline_path.c_str(), baseline.lookup.c_str(),
                baseline.host_shape().describe().c_str());
    std::printf("# candidate: %s (lookup=%s)\n#   host   : %s\n",
                candidate_path.c_str(), candidate.lookup.c_str(),
                candidate.host_shape().describe().c_str());

    if (!baseline.host_shape().matches(candidate.host_shape())) {
      std::fprintf(stderr,
                   "bench_compare: host shape mismatch — timings from "
                   "different shapes are not comparable%s\n",
                   allow_host_mismatch ? " (waived by --allow-host-mismatch)"
                                       : " (--allow-host-mismatch to force)");
      if (!allow_host_mismatch) return 1;
    }

    ResultTable table("bench_compare",
                      {"row", "baseline ev/s", "candidate ev/s", "ratio",
                       "checksum"});
    double log_ratio_sum = 0.0;
    int matched = 0;
    int checksum_failures = 0;
    int unmatched = 0;
    for (const obs::BenchResult& base : baseline.results) {
      const std::string key = base.key();
      const obs::BenchResult* cand = find_row(candidate, key);
      if (cand == nullptr) {
        std::fprintf(stderr, "bench_compare: no candidate row for %s\n",
                     key.c_str());
        ++unmatched;
        continue;
      }
      const double ratio = base.events_per_second > 0.0
                               ? cand->events_per_second /
                                     base.events_per_second
                               : 0.0;
      // Same problem -> bit-identical physics whichever XS lookup either
      // record used.
      std::string checksum_note = "n/a";
      if (base.particles == cand->particles &&
          base.timesteps == cand->timesteps) {
        const bool same = base.checksum == cand->checksum &&
                          base.population == cand->population;
        checksum_note = same ? "match" : "MISMATCH";
        if (!same) {
          ++checksum_failures;
          std::fprintf(stderr,
                       "bench_compare: checksum mismatch for %s: "
                       "baseline %.17g (pop %lld) vs candidate %.17g "
                       "(pop %lld)\n",
                       key.c_str(), base.checksum,
                       static_cast<long long>(base.population),
                       cand->checksum,
                       static_cast<long long>(cand->population));
        }
      }
      table.add_row({key, ResultTable::cell(base.events_per_second, 3),
                     ResultTable::cell(cand->events_per_second, 3),
                     ResultTable::cell(ratio, 4), checksum_note});
      if (ratio > 0.0) {
        log_ratio_sum += std::log(ratio);
        ++matched;
      }
    }
    table.print();
    NEUTRAL_REQUIRE(matched > 0, "no comparable rows between the records");
    const double geomean =
        std::exp(log_ratio_sum / static_cast<double>(matched));
    std::printf("geometric-mean events/sec ratio: %.4fx over %d row(s) "
                "(threshold %.4fx)\n",
                geomean, matched, threshold);

    bool failed = false;
    if (checksum_failures > 0) {
      std::fprintf(stderr,
                   "bench_compare: FAIL — %d checksum mismatch(es); the "
                   "records disagree on physics, not just speed\n",
                   checksum_failures);
      failed = true;
    }
    if (unmatched > 0) {
      std::fprintf(stderr,
                   "bench_compare: FAIL — %d baseline row(s) missing from "
                   "the candidate\n",
                   unmatched);
      failed = true;
    }
    if (geomean < threshold) {
      std::fprintf(stderr,
                   "bench_compare: FAIL — ratio %.4fx is below the "
                   "%.4fx threshold\n",
                   geomean, threshold);
      failed = true;
    }
    if (!failed) std::printf("bench_compare: OK\n");
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
