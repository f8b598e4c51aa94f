#include "net/client.h"

#include <utility>

#include "util/error.h"

namespace neutral::net {

NeutralClient::NeutralClient(const std::string& host, std::uint16_t port)
    : stream_(TcpStream::connect(host, port)),
      max_frame_bytes_(ServerOptions{}.max_frame_bytes) {}

std::pair<std::string, std::uint16_t> NeutralClient::parse_endpoint(
    const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  NEUTRAL_REQUIRE(colon != std::string::npos && colon > 0 &&
                      colon + 1 < endpoint.size(),
                  "bad endpoint '" + endpoint +
                      "' (expected host:port, e.g. 127.0.0.1:4817)");
  const std::string host = endpoint.substr(0, colon);
  long port = 0;
  try {
    std::size_t used = 0;
    port = std::stol(endpoint.substr(colon + 1), &used);
    NEUTRAL_REQUIRE(colon + 1 + used == endpoint.size() && port > 0 &&
                        port <= 65535,
                    "bad port in '" + endpoint + "'");
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error("bad port in '" + endpoint + "'");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

Fields NeutralClient::read_frame() {
  std::string line;
  const ReadStatus status = stream_.read_line(line, max_frame_bytes_);
  NEUTRAL_REQUIRE(status == ReadStatus::kLine,
                  "connection closed by server");
  return decode_frame(line);
}

Fields NeutralClient::call(const Fields& request) {
  stream_.write_all(encode_frame(request));
  Fields reply = read_frame();
  if (require_field(reply, "ok") != "1") {
    throw Error("server error: " + require_field(reply, "error"));
  }
  return reply;
}

void NeutralClient::ping() { (void)call(Fields{{"op", "ping"}}); }

std::uint64_t NeutralClient::submit(const SubmitRequest& request) {
  NEUTRAL_REQUIRE(request.deck_text.empty() != request.spec_text.empty(),
                  "submit needs exactly one of deck_text or spec_text");
  Fields fields{{"op", "submit"}};
  if (!request.deck_text.empty()) fields["deck"] = request.deck_text;
  if (!request.spec_text.empty()) fields["spec"] = request.spec_text;
  const auto put = [&](const char* key, const std::string& value) {
    if (!value.empty()) fields[key] = value;
  };
  put("label", request.label);
  put("scheme", request.scheme);
  put("layout", request.layout);
  put("tally", request.tally);
  put("schedule", request.schedule);
  if (request.threads > 0) {
    fields["threads"] = std::to_string(request.threads);
  }
  const Fields reply = call(fields);
  return static_cast<std::uint64_t>(field_int(reply, "id", 0));
}

RemoteResult NeutralClient::read_result_frames(
    const std::function<void(const RemoteEvent&)>& on_event) {
  // Event frames stream first (watch op); the header frame carries "rows"
  // and is followed by exactly that many row frames.
  Fields frame = read_frame();
  while (frame.count("event") != 0) {
    if (on_event) {
      RemoteEvent event;
      event.label = frame["label"];
      event.status = frame["status"];
      event.seconds = field_double(frame, "seconds", 0.0);
      event.worker = static_cast<std::int32_t>(
          field_int_signed(frame, "worker", -1));
      on_event(event);
    }
    frame = read_frame();
  }
  if (require_field(frame, "ok") != "1") {
    throw Error("server error: " + require_field(frame, "error"));
  }
  return read_rows_after_header(std::move(frame));
}

RemoteResult NeutralClient::read_rows_after_header(Fields header) {
  RemoteResult result;
  result.id = static_cast<std::uint64_t>(field_int(header, "id", 0));
  result.status = require_field(header, "status");
  const auto error_it = header.find("error");
  if (error_it != header.end()) result.error = error_it->second;
  const std::int64_t rows = field_int(header, "rows", 0);
  result.rows.reserve(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    Fields row_frame = read_frame();
    RemoteRow row;
    row.label = row_frame["label"];
    row.particles = field_int(row_frame, "particles", 0);
    row.tally = row_frame["tally"];
    row.scheme = row_frame["scheme"];
    row.layout = row_frame["layout"];
    row.events =
        static_cast<std::uint64_t>(field_int(row_frame, "events", 0));
    row.seconds = field_double(row_frame, "seconds", 0.0);
    row.checksum = field_double(row_frame, "checksum", 0.0);
    row.population = field_int(row_frame, "population", 0);
    row.status = require_field(row_frame, "status");
    const auto row_error = row_frame.find("error");
    if (row_error != row_frame.end()) row.error = row_error->second;
    result.rows.push_back(std::move(row));
  }
  return result;
}

RemoteResult NeutralClient::wait(
    std::uint64_t id,
    const std::function<void(const RemoteEvent&)>& on_event) {
  stream_.write_all(encode_frame(
      Fields{{"op", on_event ? "watch" : "result"},
             {"id", std::to_string(id)}}));
  return read_result_frames(on_event);
}

std::optional<RemoteResult> NeutralClient::try_result(
    std::uint64_t id, std::int64_t timeout_ms) {
  stream_.write_all(
      encode_frame(Fields{{"op", "result"},
                          {"id", std::to_string(id)},
                          {"timeout_ms", std::to_string(timeout_ms)}}));
  Fields frame = read_frame();
  if (require_field(frame, "ok") != "1") {
    const std::string& error = require_field(frame, "error");
    if (error.rfind("pending:", 0) == 0) return std::nullopt;
    throw Error("server error: " + error);
  }
  return read_rows_after_header(std::move(frame));
}

Fields NeutralClient::status(std::optional<std::uint64_t> id) {
  Fields request{{"op", "status"}};
  if (id.has_value()) request["id"] = std::to_string(*id);
  return call(request);
}

Fields NeutralClient::metrics() { return call(Fields{{"op", "metrics"}}); }

void NeutralClient::cancel(std::uint64_t id) {
  (void)call(Fields{{"op", "cancel"}, {"id", std::to_string(id)}});
}

void NeutralClient::shutdown_server() {
  (void)call(Fields{{"op", "shutdown"}});
}

}  // namespace neutral::net
