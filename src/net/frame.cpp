#include "net/frame.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "obs/json.h"
#include "util/error.h"

namespace neutral::net {

std::string encode_frame(const Fields& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += obs::json_escape(key);
    out += "\":\"";
    out += obs::json_escape(value);
    out += '"';
  }
  out += "}\n";
  return out;
}

Fields decode_frame(const std::string& line) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(line);
  } catch (const Error& e) {
    throw Error(std::string("malformed frame: ") + e.what());
  }
  NEUTRAL_REQUIRE(doc.is(obs::JsonValue::Type::kObject),
                  "malformed frame: not a JSON object");
  Fields fields;
  for (auto& [key, value] : doc.object) {
    NEUTRAL_REQUIRE(value.is(obs::JsonValue::Type::kString),
                    "malformed frame: values must be strings (no nested "
                    "objects, arrays or numbers)");
    NEUTRAL_REQUIRE(fields.emplace(key, std::move(value.string)).second,
                    "malformed frame: duplicate key");
  }
  return fields;
}

const std::string& require_field(const Fields& fields,
                                 const std::string& key) {
  const auto it = fields.find(key);
  NEUTRAL_REQUIRE(it != fields.end(), "frame missing field '" + key + "'");
  return it->second;
}

std::int64_t field_int(const Fields& fields, const std::string& key,
                       std::int64_t def) {
  const std::int64_t v = field_int_signed(fields, key, def);
  NEUTRAL_REQUIRE(v >= 0, "field '" + key + "' must be non-negative, got " +
                              std::to_string(v));
  return v;
}

std::int64_t field_int_signed(const Fields& fields, const std::string& key,
                              std::int64_t def) {
  const auto it = fields.find(key);
  if (it == fields.end()) return def;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  NEUTRAL_REQUIRE(errno == 0 && end != it->second.c_str() && *end == '\0',
                  "field '" + key + "' is not an integer: '" + it->second +
                      "'");
  return static_cast<std::int64_t>(v);
}

double field_double(const Fields& fields, const std::string& key,
                    double def) {
  const auto it = fields.find(key);
  if (it == fields.end()) return def;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  NEUTRAL_REQUIRE(end != it->second.c_str() && *end == '\0',
                  "field '" + key + "' is not a number: '" + it->second +
                      "'");
  return v;
}

}  // namespace neutral::net
