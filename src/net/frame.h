// Wire framing for the neutrald protocol: one flat JSON object per line.
//
// Every protocol message — request, reply, streamed event — is a single
// '\n'-terminated line holding a flat JSON object whose keys and values
// are both strings: {"op":"submit","deck":"...","domains":"2x2"}.  Multi-line
// payloads (deck text, sweep specs) ride inside a value with '\n' escaped,
// so the framing layer never needs a length prefix and a human can drive
// the daemon with netcat.  Numbers travel as strings too: a checksum is
// printed with %.17g (round-trips IEEE doubles exactly) and re-parsed with
// strtod, which is what makes loopback results bit-comparable.
//
// decode_frame is deliberately strict — no nested objects, arrays,
// numbers, booleans, duplicate keys, or trailing bytes — because a served
// queue must reject garbage at the boundary instead of guessing.  Any
// deviation throws neutral::Error with a reason; the server answers with
// an error frame and drops the connection (a desynced stream cannot be
// re-framed reliably).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace neutral::net {

/// One frame's key-value pairs.  std::map keeps emission order sorted and
/// therefore deterministic — frames diff cleanly in tests and logs.
using Fields = std::map<std::string, std::string>;

/// Serialise one frame: a single line ending in '\n'.
std::string encode_frame(const Fields& fields);

/// Parse one line (with or without its trailing '\n').  Throws
/// neutral::Error describing the first violation.
Fields decode_frame(const std::string& line);

/// Fetch `key` or throw Error("frame missing field 'key'").
const std::string& require_field(const Fields& fields,
                                 const std::string& key);

/// Fetch `key` parsed as a non-negative integer; `def` when absent.
/// Throws on unparseable or negative values.
std::int64_t field_int(const Fields& fields, const std::string& key,
                       std::int64_t def);

/// Same, but negative values are legal — for fields like a worker index
/// where -1 means "never ran".
std::int64_t field_int_signed(const Fields& fields, const std::string& key,
                              std::int64_t def);

/// Fetch `key` parsed with strtod (full %.17g round-trip); `def` when
/// absent.  Throws on unparseable values.
double field_double(const Fields& fields, const std::string& key, double def);

}  // namespace neutral::net
