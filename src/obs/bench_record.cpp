#include "obs/bench_record.h"

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

void check_number(const JsonValue& obj, const char* key,
                  const std::string& where, bool allow_negative,
                  std::vector<std::string>& problems) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is(JsonValue::Type::kNumber)) {
    problems.push_back(where + ": missing or non-numeric field '" +
                       std::string(key) + "'");
    return;
  }
  if (!allow_negative && v->number < 0.0) {
    problems.push_back(where + ": field '" + std::string(key) +
                       "' is negative");
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

}  // namespace

std::string BenchDocument::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": " + quoted(schema) + ",\n";
  out += "  \"host\": {\n";
  out += "    \"cpu_model\": " + quoted(cpu_model) + ",\n";
  out += "    \"logical_cpus\": " + std::to_string(logical_cpus) + ",\n";
  out += "    \"openmp_max_threads\": " + std::to_string(openmp_max_threads) +
         "\n  },\n";
  out += "  \"run\": {\n";
  out += "    \"threads\": " + std::to_string(threads) + ",\n";
  out += "    \"repeats\": " + std::to_string(repeats) + ",\n";
  out += "    \"lookup\": " + quoted(lookup) + "\n  },\n";
  out += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out += "    {\n";
    out += "      \"deck\": " + quoted(r.deck) + ",\n";
    out += "      \"scheme\": " + quoted(r.scheme) + ",\n";
    out += "      \"layout\": " + quoted(r.layout) + ",\n";
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
    out += "      \"checksum\": " + json_number(r.checksum) + ",\n";
    out += "      \"population\": " + std::to_string(r.population) + ",\n";
    out += "      \"peak_mesh_bytes\": " + std::to_string(r.peak_mesh_bytes) +
           ",\n";
    out += "      \"peak_bank_bytes\": " + std::to_string(r.peak_bank_bytes) +
           ",\n";
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

std::vector<std::string> validate_bench_record(const std::string& json_text) {
  std::vector<std::string> problems;
  JsonValue doc;
  try {
    doc = parse_json(json_text);
  } catch (const std::exception& e) {
    problems.emplace_back(e.what());
    return problems;
  }
  if (!doc.is(JsonValue::Type::kObject)) {
    problems.emplace_back("document root is not an object");
    return problems;
  }
  const JsonValue* schema = doc.find("schema");
  bool v1 = false;
  if (schema == nullptr || !schema->is(JsonValue::Type::kString)) {
    problems.emplace_back("missing string field 'schema'");
  } else if (schema->string == kBenchTransportSchemaV1) {
    v1 = true;  // pre-config record: run-object knobs and stats optional
  } else if (schema->string != kBenchTransportSchema) {
    problems.push_back("unknown schema '" + schema->string + "' (expected " +
                       kBenchTransportSchema + " or " +
                       kBenchTransportSchemaV1 + ")");
  }
  const JsonValue* host = doc.find("host");
  if (host == nullptr || !host->is(JsonValue::Type::kObject)) {
    problems.emplace_back("missing object field 'host'");
  } else {
    check_string(*host, "cpu_model", "host", problems);
    check_number(*host, "logical_cpus", "host", false, problems);
    check_number(*host, "openmp_max_threads", "host", false, problems);
  }
  const JsonValue* run = doc.find("run");
  if (run == nullptr || !run->is(JsonValue::Type::kObject)) {
    problems.emplace_back("missing object field 'run'");
  } else {
    check_number(*run, "threads", "run", false, problems);
    check_number(*run, "repeats", "run", false, problems);
    if (!v1) check_string(*run, "lookup", "run", problems);
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
    check_string(r, "deck", where, problems);
    check_string(r, "scheme", where, problems);
    check_string(r, "layout", where, problems);
    check_number(r, "particles", where, false, problems);
    check_number(r, "timesteps", where, false, problems);
    check_number(r, "events", where, false, problems);
    check_number(r, "seconds", where, false, problems);
    if (!v1) {
      check_number(r, "seconds_median", where, false, problems);
      check_number(r, "seconds_stddev", where, false, problems);
    }
    check_number(r, "events_per_second", where, false, problems);
    check_number(r, "checksum", where, true, problems);
    check_number(r, "population", where, false, problems);
    check_number(r, "peak_mesh_bytes", where, false, problems);
    check_number(r, "peak_bank_bytes", where, false, problems);
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
      check_number(ph, "ns_per_event", pwhere, false, problems);
      check_number(ph, "fraction", pwhere, false, problems);
    }
  }
  return problems;
}

std::string BenchHostShape::describe() const {
  return std::to_string(logical_cpus) + " logical CPU(s), " +
         std::to_string(openmp_max_threads) + " OpenMP max thread(s), run at " +
         std::to_string(threads) + " thread(s)";
}

BenchHostShape read_host_shape(const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  const JsonValue* host = doc.find("host");
  const JsonValue* run = doc.find("run");
  NEUTRAL_REQUIRE(host != nullptr && host->is(JsonValue::Type::kObject) &&
                      run != nullptr && run->is(JsonValue::Type::kObject),
                  "bench record has no host/run objects");
  BenchHostShape shape;
  auto number = [](const JsonValue& obj, const char* key) {
    const JsonValue* v = obj.find(key);
    NEUTRAL_REQUIRE(v != nullptr && v->is(JsonValue::Type::kNumber),
                    "bench record missing numeric field '" +
                        std::string(key) + "'");
    return static_cast<std::int32_t>(v->number);
  };
  shape.logical_cpus = number(*host, "logical_cpus");
  shape.openmp_max_threads = number(*host, "openmp_max_threads");
  shape.threads = number(*run, "threads");
  return shape;
}

}  // namespace neutral::obs
