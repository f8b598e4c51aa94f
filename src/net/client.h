// Client side of the neutrald protocol (net/server.h documents the wire
// format).  One NeutralClient wraps one connection; the daemon serves any
// number concurrently.  `neutral_batch --connect` and test_net both drive
// the daemon through this class, so the protocol has exactly two
// implementations to keep honest — the server's and this one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace neutral::net {

/// What to run.  Exactly one of deck_text / spec_text must be set; the
/// remaining knobs mirror the `neutral_batch` flags of the same names and
/// are forwarded verbatim for the server to parse.  scheme/layout/tally/
/// schedule/threads apply to DECK submissions only (a sweep spec names
/// its own base knobs; the server refuses the overlap); domains is an
/// execution option and applies to both.
struct SubmitRequest {
  std::string deck_text;  ///< one .params deck (io/deck_io.h format)
  std::string spec_text;  ///< a sweep spec (batch/sweep.h format)
  std::string label;      ///< row label override (single-job submits)
  std::string scheme, layout, tally, schedule;
  std::int32_t threads = 0;
  std::string domains;  ///< "RxC" or empty
};

/// Final state of one submission: the server's status plus its result rows
/// (RemoteRow is shared with the server so the two sides cannot drift).
struct RemoteResult {
  std::uint64_t id = 0;
  std::string status;  ///< "ok" | "failed" | "timed_out" | "cancelled"
  std::string error;
  std::vector<RemoteRow> rows;

  [[nodiscard]] bool ok() const { return status == "ok"; }
};

/// One streamed completion event (a job finishing server-side).
struct RemoteEvent {
  std::string label;
  std::string status;
  double seconds = 0.0;
  std::int32_t worker = -1;
};

class NeutralClient {
 public:
  /// Connect to a running neutrald; throws neutral::Error on failure.
  NeutralClient(const std::string& host, std::uint16_t port);

  /// Parse "host:port"; throws on anything else.
  static std::pair<std::string, std::uint16_t> parse_endpoint(
      const std::string& endpoint);

  /// One request frame -> one reply frame.  Throws Error when the server
  /// answers ok=0 (carrying its error message) or on transport failure.
  Fields call(const Fields& request);

  void ping();

  /// Returns the new submission id.
  std::uint64_t submit(const SubmitRequest& request);

  /// Block until the submission finishes and return its result rows.
  /// When `on_event` is set, uses the streaming `watch` op and invokes it
  /// for every completion event the engine reports.
  RemoteResult wait(std::uint64_t id,
                    const std::function<void(const RemoteEvent&)>& on_event =
                        {});

  /// Non-streaming `result` with a bounded wait; nullopt when the
  /// submission is still pending after timeout_ms.
  std::optional<RemoteResult> try_result(std::uint64_t id,
                                         std::int64_t timeout_ms);

  /// Server-level or per-submission status fields, verbatim.
  Fields status(std::optional<std::uint64_t> id = std::nullopt);

  /// Flat snapshot of the daemon's metrics registry (ok + one field per
  /// series; histograms appear as name_count / name_sum).
  Fields metrics();

  void cancel(std::uint64_t id);

  /// Ask the daemon to drain and exit.
  void shutdown_server();

 private:
  Fields read_frame();
  RemoteResult read_result_frames(
      const std::function<void(const RemoteEvent&)>& on_event);
  /// Parse the result header + its row frames (header already read).
  RemoteResult read_rows_after_header(Fields header);

  TcpStream stream_;
  std::size_t max_frame_bytes_;
};

}  // namespace neutral::net
