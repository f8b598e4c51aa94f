#include "obs/bench_record.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"
#include "util/error.h"

namespace neutral::obs {

namespace {

std::string quoted(const std::string& s) {
  // Built with += rather than `"\"" + json_escape(s) + "\""`: gcc 12's
  // -Wrestrict misfires on that operator+ chain (GCC PR105329) and this
  // tree builds warnings-as-errors.
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

constexpr double kAnyNumber = -std::numeric_limits<double>::infinity();

void check_number(const JsonValue& obj, const char* key,
                  const std::string& where, double min,
                  std::vector<std::string>& problems) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is(JsonValue::Type::kNumber)) {
    problems.push_back(where + ": missing or non-numeric field '" +
                       std::string(key) + "'");
    return;
  }
  if (v->number < min) {
    problems.push_back(where + ": field '" + std::string(key) +
                       "' is below " + json_number(min));
  }
}

void check_string(const JsonValue& obj, const char* key,
                  const std::string& where,
                  std::vector<std::string>& problems) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is(JsonValue::Type::kString) || v->string.empty()) {
    problems.push_back(where + ": missing or empty string field '" +
                       std::string(key) + "'");
  }
}

/// Structural problems of a parsed record.
std::vector<std::string> schema_problems(const JsonValue& doc) {
  std::vector<std::string> problems;
  if (!doc.is(JsonValue::Type::kObject)) {
    problems.emplace_back("document root is not an object");
    return problems;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(JsonValue::Type::kString)) {
    problems.emplace_back("missing string field 'schema'");
  } else if (schema->string != kBenchTransportSchema) {
    problems.push_back("unknown schema '" + schema->string + "' (expected " +
                       kBenchTransportSchema + ")");
  }
  const JsonValue* host = doc.find("host");
  if (host == nullptr || !host->is(JsonValue::Type::kObject)) {
    problems.emplace_back("missing object field 'host'");
  } else {
    check_string(*host, "cpu_model", "host", problems);
    check_number(*host, "logical_cpus", "host", 1, problems);
    check_number(*host, "openmp_max_threads", "host", 1, problems);
  }
  const JsonValue* run = doc.find("run");
  if (run == nullptr || !run->is(JsonValue::Type::kObject)) {
    problems.emplace_back("missing object field 'run'");
  } else {
    check_number(*run, "repeats", "run", 1, problems);
    check_string(*run, "lookup", "run", problems);
  }
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is(JsonValue::Type::kArray)) {
    problems.emplace_back("missing array field 'results'");
    return problems;
  }
  if (results->array.empty()) {
    problems.emplace_back("'results' is empty");
  }
  for (std::size_t i = 0; i < results->array.size(); ++i) {
    const JsonValue& r = results->array[i];
    const std::string where = "results[" + std::to_string(i) + "]";
    if (!r.is(JsonValue::Type::kObject)) {
      problems.push_back(where + ": not an object");
      continue;
    }
    for (const char* key :
         {"deck", "scheme", "layout", "tally", "schedule"}) {
      check_string(r, key, where, problems);
    }
    check_number(r, "threads", where, 1, problems);
    for (const char* key :
         {"particles", "timesteps", "events", "seconds", "seconds_median",
          "seconds_stddev", "events_per_second", "population",
          "peak_mesh_bytes", "peak_bank_bytes", "tally_bytes",
          "scaling_eff"}) {
      check_number(r, key, where, 0, problems);
    }
    check_number(r, "checksum", where, kAnyNumber, problems);
    const JsonValue* phases = r.find("phases");
    if (phases == nullptr || !phases->is(JsonValue::Type::kArray)) {
      problems.push_back(where + ": missing array field 'phases'");
      continue;
    }
    for (std::size_t p = 0; p < phases->array.size(); ++p) {
      const JsonValue& ph = phases->array[p];
      const std::string pwhere = where + ".phases[" + std::to_string(p) + "]";
      if (!ph.is(JsonValue::Type::kObject)) {
        problems.push_back(pwhere + ": not an object");
        continue;
      }
      check_string(ph, "phase", pwhere, problems);
      check_number(ph, "ns_per_event", pwhere, 0, problems);
      check_number(ph, "fraction", pwhere, 0, problems);
    }
  }
  return problems;
}

/// The document of a record that passed schema_problems.
BenchDocument to_document(const JsonValue& doc) {
  auto str = [](const JsonValue& obj, const char* key) {
    return obj.find(key)->string;
  };
  auto num = [](const JsonValue& obj, const char* key) {
    return obj.find(key)->number;
  };
  BenchDocument out;
  out.schema = str(doc, "schema");
  const JsonValue& host = *doc.find("host");
  out.cpu_model = str(host, "cpu_model");
  out.logical_cpus = static_cast<std::int32_t>(num(host, "logical_cpus"));
  out.openmp_max_threads =
      static_cast<std::int32_t>(num(host, "openmp_max_threads"));
  const JsonValue& run = *doc.find("run");
  out.repeats = static_cast<std::int32_t>(num(run, "repeats"));
  out.lookup = str(run, "lookup");
  for (const JsonValue& r : doc.find("results")->array) {
    BenchResult row;
    row.deck = str(r, "deck");
    row.scheme = str(r, "scheme");
    row.layout = str(r, "layout");
    row.threads = static_cast<std::int32_t>(num(r, "threads"));
    row.tally = str(r, "tally");
    row.schedule = str(r, "schedule");
    row.particles = static_cast<std::int64_t>(num(r, "particles"));
    row.timesteps = static_cast<std::int32_t>(num(r, "timesteps"));
    row.events = static_cast<std::uint64_t>(num(r, "events"));
    row.seconds = num(r, "seconds");
    row.seconds_median = num(r, "seconds_median");
    row.seconds_stddev = num(r, "seconds_stddev");
    row.events_per_second = num(r, "events_per_second");
    row.checksum = num(r, "checksum");
    row.population = static_cast<std::int64_t>(num(r, "population"));
    row.peak_mesh_bytes =
        static_cast<std::uint64_t>(num(r, "peak_mesh_bytes"));
    row.peak_bank_bytes =
        static_cast<std::uint64_t>(num(r, "peak_bank_bytes"));
    row.tally_bytes = static_cast<std::uint64_t>(num(r, "tally_bytes"));
    row.scaling_eff = num(r, "scaling_eff");
    for (const JsonValue& ph : r.find("phases")->array) {
      row.phases.push_back(
          {str(ph, "phase"), num(ph, "ns_per_event"), num(ph, "fraction")});
    }
    out.results.push_back(std::move(row));
  }
  return out;
}

}  // namespace

std::string BenchResult::key() const {
  return deck + "/" + scheme + "/" + layout + "/" + std::to_string(threads) +
         "/" + tally + "/" + schedule;
}

std::string BenchDocument::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": " + quoted(schema) + ",\n";
  out += "  \"host\": {\n";
  out += "    \"cpu_model\": " + quoted(cpu_model) + ",\n";
  out += "    \"logical_cpus\": " + std::to_string(logical_cpus) + ",\n";
  out += "    \"openmp_max_threads\": " + std::to_string(openmp_max_threads) +
         "\n  },\n";
  out += "  \"run\": {\n";
  out += "    \"repeats\": " + std::to_string(repeats) + ",\n";
  out += "    \"lookup\": " + quoted(lookup) + "\n  },\n";
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out += "    {\n";
    out += "      \"deck\": " + quoted(r.deck) + ",\n";
    out += "      \"scheme\": " + quoted(r.scheme) + ",\n";
    out += "      \"layout\": " + quoted(r.layout) + ",\n";
    out += "      \"threads\": " + std::to_string(r.threads) + ",\n";
    out += "      \"tally\": " + quoted(r.tally) + ",\n";
    out += "      \"schedule\": " + quoted(r.schedule) + ",\n";
    out += "      \"particles\": " + std::to_string(r.particles) + ",\n";
    out += "      \"timesteps\": " + std::to_string(r.timesteps) + ",\n";
    out += "      \"events\": " + std::to_string(r.events) + ",\n";
    out += "      \"seconds\": " + json_number(r.seconds) + ",\n";
    out += "      \"seconds_median\": " + json_number(r.seconds_median) +
           ",\n";
    out += "      \"seconds_stddev\": " + json_number(r.seconds_stddev) +
           ",\n";
    out += "      \"events_per_second\": " + json_number(r.events_per_second) +
           ",\n";
    out += "      \"scaling_eff\": " + json_number(r.scaling_eff) + ",\n";
    out += "      \"checksum\": " + json_number(r.checksum) + ",\n";
    out += "      \"population\": " + std::to_string(r.population) + ",\n";
    out += "      \"peak_mesh_bytes\": " + std::to_string(r.peak_mesh_bytes) +
           ",\n";
    out += "      \"peak_bank_bytes\": " + std::to_string(r.peak_bank_bytes) +
           ",\n";
    out += "      \"tally_bytes\": " + std::to_string(r.tally_bytes) + ",\n";
    out += "      \"phases\": [";
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
      const BenchPhase& ph = r.phases[p];
      out += (p == 0 ? "\n" : ",\n");
      out += "        {\"phase\": " + quoted(ph.phase) +
             ", \"ns_per_event\": " + json_number(ph.ns_per_event) +
             ", \"fraction\": " + json_number(ph.fraction) + "}";
    }
    out += r.phases.empty() ? "]\n" : "\n      ]\n";
    out += i + 1 < results.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::vector<std::string> BenchDocument::consistency_problems() const {
  std::vector<std::string> problems;
  for (const BenchResult& row : results) {
    const auto ref = std::find_if(
        results.begin(), results.end(), [&row](const BenchResult& r) {
          return r.deck == row.deck && r.threads == 1 &&
                 r.scheme == "particles" && r.layout == "aos";
        });
    if (ref == results.end()) {
      problems.push_back(row.key() +
                         ": deck has no 1-thread particles/aos row");
      continue;
    }
    // Tallies are exact integer sums, so every scheme, layout, tally mode,
    // schedule and thread count reads the deck's one answer.
    if (row.events != ref->events || row.population != ref->population ||
        row.checksum != ref->checksum) {
      problems.push_back(row.key() + ": events/population/checksum " +
                         std::to_string(row.events) + "/" +
                         std::to_string(row.population) + "/" +
                         json_number(row.checksum) + " differ from " +
                         ref->key() + "'s");
    }
  }
  return problems;
}

std::vector<std::string> validate_bench_record(const std::string& json_text) {
  JsonValue doc;
  try {
    doc = parse_json(json_text);
  } catch (const std::exception& e) {
    return {e.what()};
  }
  std::vector<std::string> problems = schema_problems(doc);
  if (problems.empty()) problems = to_document(doc).consistency_problems();
  return problems;
}

BenchDocument load_bench_record(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const std::vector<std::string> problems =
      validate_bench_record(text.str());
  std::string message = "'" + path + "' is not a valid bench record:";
  for (const std::string& p : problems) message += "\n  " + p;
  NEUTRAL_REQUIRE(problems.empty(), message);
  return to_document(parse_json(text.str()));
}

std::string BenchHostShape::describe() const {
  return std::to_string(logical_cpus) + " logical CPU(s), " +
         std::to_string(openmp_max_threads) + " OpenMP max thread(s)";
}

}  // namespace neutral::obs
