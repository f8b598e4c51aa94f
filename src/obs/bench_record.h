// The committed perf record of the paper's on-node study:
// BENCH_transport.json.
//
// bench_transport runs the golden decks over scheme x layout x threads,
// plus the Fig 7 tally-strategy and Fig 4 schedule rows, and writes one of
// these documents — events/sec, scaling efficiency, tally footprint,
// per-phase ns/event, peak bytes, and host info — so later optimisation
// PRs have a recorded baseline to beat.  The format is part of the repo
// contract: `validate_bench_record` is the check every writer and reader
// runs.  It is structural (fields present, right types, sane ranges) plus
// the record's own physics invariants, and never perf-gated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neutral::obs {

inline constexpr const char* kBenchTransportSchema =
    "neutral.bench_transport/v3";

struct BenchPhase {
  std::string phase;          ///< profiler phase name ("collision", ...)
  double ns_per_event = 0.0;  ///< mean ns per visit (§VI-A grind time)
  double fraction = 0.0;      ///< share of profiled cycles
};

struct BenchResult {
  std::string deck;    ///< golden deck name
  std::string scheme;  ///< "particles" | "events"
  std::string layout;  ///< "aos" | "soa"
  std::int32_t threads = 1;  ///< OpenMP threads the row ran with
  std::string tally;         ///< tally strategy as executed ("atomic", ...)
  std::string schedule;      ///< Over Particles loop schedule ("static", ...)
  std::int64_t particles = 0;
  std::int32_t timesteps = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;  ///< best (minimum) wall time over the repeats
  double seconds_median = 0.0;
  double seconds_stddev = 0.0;
  double events_per_second = 0.0;  ///< from the best repeat
  double checksum = 0.0;  ///< deterministic tally checksum for the config
  std::int64_t population = 0;
  std::uint64_t peak_mesh_bytes = 0;
  std::uint64_t peak_bank_bytes = 0;
  std::uint64_t tally_bytes = 0;  ///< tally footprint, private copies included
  /// events_per_second / (threads x events_per_second of the 1-thread row
  /// with the same deck, scheme and layout).
  double scaling_eff = 0.0;
  std::vector<BenchPhase> phases;  ///< empty unless profiled (1-thread rows)

  /// The row key bench_compare matches on:
  /// "deck/scheme/layout/threads/tally/schedule".
  [[nodiscard]] std::string key() const;
};

/// The part of a record that must match before timings are comparable.
/// A baseline was once taken on a 1-logical-CPU container and silently
/// compared against multi-core runs; bench_transport --check and
/// bench_compare refuse that by default.
struct BenchHostShape {
  std::int32_t logical_cpus = 0;
  std::int32_t openmp_max_threads = 0;

  [[nodiscard]] bool matches(const BenchHostShape& other) const {
    return logical_cpus == other.logical_cpus &&
           openmp_max_threads == other.openmp_max_threads;
  }
  [[nodiscard]] std::string describe() const;
};

struct BenchDocument {
  std::string schema = kBenchTransportSchema;
  std::string cpu_model = "unknown";
  std::int32_t logical_cpus = 1;
  std::int32_t openmp_max_threads = 1;
  std::int32_t repeats = 1;  ///< timing repeats (best-of)
  std::string lookup = "cached";  ///< XS lookup strategy name
  std::vector<BenchResult> results;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] BenchHostShape host_shape() const {
    return {logical_cpus, openmp_max_threads};
  }
  /// The physics the rows must agree on (empty = consistent): within a
  /// deck, every row has the events, population and checksum — bit for
  /// bit — of the deck's first 1-thread Over Particles/AoS row.
  [[nodiscard]] std::vector<std::string> consistency_problems() const;
};

/// Schema check plus consistency_problems().  Returns the list of problems
/// (empty = valid): wrong schema marker, missing/mistyped fields, empty
/// results, negative quantities, threads < 1, rows that disagree on
/// physics, non-JSON input.
std::vector<std::string> validate_bench_record(const std::string& json_text);

/// Read and validate the record at `path`.  Throws neutral::Error naming
/// every problem validate_bench_record finds.
BenchDocument load_bench_record(const std::string& path);

}  // namespace neutral::obs
