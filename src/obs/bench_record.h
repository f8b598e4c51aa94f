// The committed perf-trajectory record: BENCH_transport.json.
//
// bench_transport runs the golden decks across scheme x layout and writes
// one of these documents — events/sec, per-phase ns/event, peak bytes, and
// host info — so later optimisation PRs have a recorded baseline to beat.
// The format is part of the repo contract: `validate_bench_record` is the
// schema check CI runs on the uploaded artifact, deliberately structural
// (fields present, right types, sane ranges) and not perf-gated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neutral::obs {

inline constexpr const char* kBenchTransportSchema =
    "neutral.bench_transport/v2";
/// v1: no run-configuration fields, no repeat statistics.  Still accepted
/// by the validator and bench_compare (missing config = the default
/// config, which is what every v1 record ran) so the perf trajectory can
/// be diffed across the repo's own history.
inline constexpr const char* kBenchTransportSchemaV1 =
    "neutral.bench_transport/v1";

struct BenchPhase {
  std::string phase;          ///< profiler phase name ("collision", ...)
  double ns_per_event = 0.0;  ///< mean ns per visit (§VI-A grind time)
  double fraction = 0.0;      ///< share of profiled cycles
};

struct BenchResult {
  std::string deck;    ///< golden deck name
  std::string scheme;  ///< "particles" | "events"
  std::string layout;  ///< "aos" | "soa"
  std::int64_t particles = 0;
  std::int32_t timesteps = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;  ///< best (minimum) wall time over the repeats
  /// Repeat statistics (v2): equal to `seconds` when repeats == 1, so the
  /// fields are always present and old single-shot records stay readable.
  double seconds_median = 0.0;
  double seconds_stddev = 0.0;
  double events_per_second = 0.0;  ///< from the best repeat
  double checksum = 0.0;  ///< deterministic tally checksum for the config
  std::int64_t population = 0;
  std::uint64_t peak_mesh_bytes = 0;
  std::uint64_t peak_bank_bytes = 0;
  std::vector<BenchPhase> phases;  ///< empty for schemes without probes
};

struct BenchDocument {
  std::string schema = kBenchTransportSchema;
  std::string cpu_model = "unknown";
  std::int32_t logical_cpus = 1;
  std::int32_t openmp_max_threads = 1;
  std::int32_t threads = 1;  ///< OpenMP threads the bench ran with
  std::int32_t repeats = 1;  ///< timing repeats (best-of)
  /// Run configuration (v2): the XS lookup the record timed.  Two records
  /// are only comparable when bench_compare can see what each ran.  Older
  /// records may still carry the keys of since-retired fast-path flags;
  /// the validator ignores them.
  std::string lookup = "cached";  ///< XS lookup strategy name
  std::vector<BenchResult> results;

  [[nodiscard]] std::string to_json() const;
};

/// Structural schema check.  Returns the list of problems (empty = valid):
/// wrong schema marker, missing/mistyped fields, empty results, negative
/// quantities, non-JSON input.
std::vector<std::string> validate_bench_record(const std::string& json_text);

/// The part of a record that must match before timings are comparable.
/// The committed baseline was once taken on a 1-logical-CPU container and
/// silently compared against multi-core runs; both bench_transport --check
/// and bench_compare now refuse that by default.
struct BenchHostShape {
  std::int32_t logical_cpus = 0;
  std::int32_t openmp_max_threads = 0;
  std::int32_t threads = 0;  ///< run.threads, not a host property, but a
                             ///< mismatch poisons comparisons identically

  [[nodiscard]] bool matches(const BenchHostShape& other) const {
    return logical_cpus == other.logical_cpus &&
           openmp_max_threads == other.openmp_max_threads &&
           threads == other.threads;
  }
  [[nodiscard]] std::string describe() const;
};

/// Extract the host shape from a record.  Throws neutral::Error on
/// malformed input (run validate_bench_record first for a full report).
BenchHostShape read_host_shape(const std::string& json_text);

}  // namespace neutral::obs
