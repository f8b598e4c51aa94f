// `bench_compare` — diff two bench_transport records.
//
// Matches rows by (deck, scheme, layout), prints per-row and geometric-mean
// events/sec ratios, and exits non-zero when the candidate falls below the
// threshold.  Two safety rails make the comparison honest:
//
//   * host shape: records from different machines (or thread counts) are
//     refused outright — the committed baseline was once taken on a
//     1-logical-CPU container and silently read as "no regression";
//   * checksums: when two records ran the same problem at 1 thread, their
//     tally checksums must be bit-identical even if their XS lookups
//     differ.  That turns every perf comparison into a correctness check,
//     for free.
//
//   $ bench_compare --baseline BENCH_transport.baseline.json
//                   --candidate BENCH_transport.json    (one command)
//   $ bench_compare ... --threshold 1.3     # demand a 1.3x speedup
//
// CI runs this as a soft gate (warn on PR, artifacts always uploaded):
// timing noise must not block merges, but it should be loud.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_record.h"
#include "obs/json.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

namespace {

using namespace neutral;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Row {
  std::string deck, scheme, layout;
  std::int64_t particles = 0;
  std::int64_t timesteps = 0;
  double events_per_second = 0.0;
  double checksum = 0.0;
  std::int64_t population = 0;
};

struct Record {
  obs::BenchHostShape shape;
  std::string config;  ///< short "lookup=..." description
  std::vector<Row> rows;
};

double number_field(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.find(key);
  NEUTRAL_REQUIRE(v != nullptr && v->is(obs::JsonValue::Type::kNumber),
                  "record missing numeric field '" + std::string(key) + "'");
  return v->number;
}

std::string string_field(const obs::JsonValue& obj, const char* key) {
  const obs::JsonValue* v = obj.find(key);
  NEUTRAL_REQUIRE(v != nullptr && v->is(obs::JsonValue::Type::kString),
                  "record missing string field '" + std::string(key) + "'");
  return v->string;
}

Record load_record(const std::string& path) {
  const std::string text = read_file(path);
  const std::vector<std::string> problems = obs::validate_bench_record(text);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
  }
  NEUTRAL_REQUIRE(problems.empty(),
                  "'" + path + "' failed the schema check");
  Record record;
  record.shape = obs::read_host_shape(text);
  const obs::JsonValue doc = obs::parse_json(text);
  const obs::JsonValue* run = doc.find("run");
  // v1 records predate the run-config fields; they all ran the default
  // configuration, so report it as such rather than failing to load.
  const obs::JsonValue* lookup = run->find("lookup");
  const std::string lookup_name =
      lookup != nullptr && lookup->is(obs::JsonValue::Type::kString)
          ? lookup->string
          : "cached";
  // Older records may carry keys of since-retired fast-path flags; they
  // are ignored, and every record compares on the lookup axis alone.
  record.config = "lookup=" + lookup_name;
  for (const obs::JsonValue& r : doc.find("results")->array) {
    Row row;
    row.deck = string_field(r, "deck");
    row.scheme = string_field(r, "scheme");
    row.layout = string_field(r, "layout");
    row.particles = static_cast<std::int64_t>(number_field(r, "particles"));
    row.timesteps = static_cast<std::int64_t>(number_field(r, "timesteps"));
    row.events_per_second = number_field(r, "events_per_second");
    row.checksum = number_field(r, "checksum");
    row.population = static_cast<std::int64_t>(number_field(r, "population"));
    record.rows.push_back(std::move(row));
  }
  return record;
}

const Row* find_row(const Record& record, const Row& like) {
  for (const Row& r : record.rows) {
    if (r.deck == like.deck && r.scheme == like.scheme &&
        r.layout == like.layout) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    const std::string baseline_path = cli.option(
        "baseline", "BENCH_transport.baseline.json",
        "reference record (e.g. the committed seed-default baseline)");
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

    const Record baseline = load_record(baseline_path);
    const Record candidate = load_record(candidate_path);

    std::printf("# bench_compare\n");
    std::printf("# baseline : %s (%s)\n#   host   : %s\n",
                baseline_path.c_str(), baseline.config.c_str(),
                baseline.shape.describe().c_str());
    std::printf("# candidate: %s (%s)\n#   host   : %s\n",
                candidate_path.c_str(), candidate.config.c_str(),
                candidate.shape.describe().c_str());

    if (!baseline.shape.matches(candidate.shape)) {
      std::fprintf(stderr,
                   "bench_compare: host shape mismatch — timings from "
                   "different shapes are not comparable%s\n",
                   allow_host_mismatch ? " (waived by --allow-host-mismatch)"
                                       : " (--allow-host-mismatch to force)");
      if (!allow_host_mismatch) return 1;
    }

    ResultTable table("bench_compare",
                      {"deck", "scheme", "layout", "baseline ev/s",
                       "candidate ev/s", "ratio", "checksum"});
    double log_ratio_sum = 0.0;
    int matched = 0;
    int checksum_failures = 0;
    int unmatched = 0;
    for (const Row& base : baseline.rows) {
      const Row* cand = find_row(candidate, base);
      if (cand == nullptr) {
        std::fprintf(stderr,
                     "bench_compare: no candidate row for %s/%s/%s\n",
                     base.deck.c_str(), base.scheme.c_str(),
                     base.layout.c_str());
        ++unmatched;
        continue;
      }
      const double ratio = base.events_per_second > 0.0
                               ? cand->events_per_second /
                                     base.events_per_second
                               : 0.0;
      // Same problem at 1 thread -> bit-identical physics whichever XS
      // lookup either record used.
      std::string checksum_note = "n/a";
      if (base.particles == cand->particles &&
          base.timesteps == cand->timesteps &&
          baseline.shape.threads == 1 && candidate.shape.threads == 1) {
        const bool same = base.checksum == cand->checksum &&
                          base.population == cand->population;
        checksum_note = same ? "match" : "MISMATCH";
        if (!same) {
          ++checksum_failures;
          std::fprintf(stderr,
                       "bench_compare: checksum mismatch for %s/%s/%s: "
                       "baseline %.17g (pop %lld) vs candidate %.17g "
                       "(pop %lld)\n",
                       base.deck.c_str(), base.scheme.c_str(),
                       base.layout.c_str(), base.checksum,
                       static_cast<long long>(base.population),
                       cand->checksum,
                       static_cast<long long>(cand->population));
        }
      }
      table.add_row({base.deck, base.scheme, base.layout,
                     ResultTable::cell(base.events_per_second, 3),
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
