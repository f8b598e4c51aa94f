#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "batch/executor.h"
#include "batch/sweep.h"
#include "io/deck_io.h"
#include "obs/exporter.h"
#include "obs/trace.h"
#include "runtime/host_info.h"
#include "util/errno_string.h"
#include "util/error.h"

namespace neutral::net {

using batch::BatchReport;
using batch::Job;
using batch::JobOutcome;
using batch::SweepSpec;

namespace {

std::string format_double(double v, const char* fmt = "%.17g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

const char* state_name(bool queued, bool running) {
  return queued ? "queued" : running ? "running" : "done";
}

Fields error_reply(const std::string& message) {
  return Fields{{"ok", "0"}, {"error", message}};
}

/// Overload answers carry refused=1 so clients can tell "back off and
/// retry" apart from a hard failure.
Fields refused_reply(const std::string& message) {
  return Fields{{"ok", "0"}, {"refused", "1"}, {"error", message}};
}

/// The protocol's row status vocabulary for one run_sweep row or engine
/// job (the engine labels the aborts a client cancel caused as cancelled).
std::string outcome_status(const JobOutcome& outcome) {
  if (outcome.ok) return "ok";
  if (outcome.timed_out) return "timed_out";
  if (outcome.cancelled) return "cancelled";
  return "failed";
}

/// The engine options the server runs with: pointed at the server's
/// registry/trace, and with the automatic team size one logical cpu short
/// of the host.
///
/// The daemon always meters itself — the cost is nullptr-guarded counters,
/// and `metrics` is how operators see a headless process at all.
///
/// The event loop answers every submit and result on the cpus the jobs'
/// OpenMP teams run on; a team on every cpu is preempted at each reply and
/// stalls at its barriers.  Measured on one workload only: perfbench
/// serve-small's closed loop (480 submissions, 4-vCPU Xeon) took 7.6-9.5 s
/// with 4-thread teams and 3.3-3.7 s with 3.  On a 2-vCPU host the rule
/// halves a lone job's team, which has not been measured.  An explicit
/// threads_per_job is kept as given.
batch::EngineOptions served(batch::EngineOptions engine,
                            obs::MetricsRegistry* metrics,
                            obs::TraceLog* trace) {
  engine.metrics = metrics;
  engine.trace = trace;
  if (engine.threads_per_job <= 0) {
    engine.threads_per_job = std::max(1, probe_host().logical_cpus - 1);
  }
  return engine;
}

}  // namespace

NeutralServer::NeutralServer(ServerOptions options)
    : options_(std::move(options)),
      trace_(options_.trace_path.empty()
                 ? nullptr
                 : std::make_unique<obs::TraceLog>(options_.trace_path)),
      engine_(served(options_.engine, &metrics_, trace_.get())) {
  submissions_total_ = &metrics_.counter(
      "neutral_submissions_total", "submissions accepted by the daemon");
  submissions_refused_ = &metrics_.counter(
      "neutral_submissions_refused_total",
      "submissions refused by admission control (daemon or per-connection "
      "in-flight bound)");
  conn_total_ = &metrics_.counter("neutral_connections_total",
                                  "TCP connections accepted");
  conn_refused_ = &metrics_.counter(
      "neutral_connections_refused_total",
      "connections refused at the max_connections bound");
  slow_reader_disconnects_ = &metrics_.counter(
      "neutral_slow_reader_disconnects_total",
      "connections dropped by the slow-reader policy (outbound buffer "
      "overflow or write stall)");
  conn_open_ =
      &metrics_.gauge("neutral_connections_open", "TCP connections open");
}

NeutralServer::~NeutralServer() {
  request_shutdown();
  if (exporter_ != nullptr) exporter_->stop();
  if (executor_.joinable()) executor_.join();
}

std::uint16_t NeutralServer::start() {
  NEUTRAL_REQUIRE(listener_ == nullptr, "server already started");
  listener_ =
      std::make_unique<TcpListener>(options_.host, options_.port);
  port_ = listener_->port();
  if (options_.metrics_port != 0) {
    exporter_ = std::make_unique<obs::MetricsExporter>(
        &metrics_, options_.host, options_.metrics_port);
    metrics_port_ = exporter_->start();
    log("metrics on http://" + options_.host + ":" +
        std::to_string(metrics_port_) + "/metrics");
  }
  executor_ = std::thread(&NeutralServer::executor_loop, this);
  return port_;
}

void NeutralServer::request_shutdown() {
  {
    // Set under the mutex: executor_loop tests stopping_ and then waits
    // under it, so a notify can never land between its test and its wait.
    MutexLock lock(mutex_);
    stopping_.store(true);
  }
  cv_.notify_all();
  wake_.signal();  // pull serve() out of epoll_wait
}

void NeutralServer::log(const std::string& line) {
  if (!options_.verbose) return;
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void NeutralServer::trace_connection(const char* event,
                                     const Connection& conn,
                                     const std::string& detail) {
  if (trace_ == nullptr) return;
  obs::TraceEvent span;
  span.event = event;
  span.job_id = conn.id;
  span.label = "connection";
  span.detail = detail;
  trace_->record(span);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void NeutralServer::serve() {
  NEUTRAL_REQUIRE(listener_ != nullptr, "call start() before serve()");
  // A hard loop error converts into a shutdown instead of propagating past
  // the teardown: every connection must be closed and the executor joined
  // before serve() returns, whatever happened.
  try {
    set_nonblocking(listener_->fd());
    poller_.add(listener_->fd(), /*read=*/true, /*write=*/false);
    poller_.add(wake_.fd(), /*read=*/true, /*write=*/false);
    event_loop();
    poller_.remove(listener_->fd());
    poller_.remove(wake_.fd());
  } catch (const std::exception& e) {
    log(std::string("event loop failed: ") + e.what());
    request_shutdown();
  }
  listener_->close();
  teardown_connections();
  if (executor_.joinable()) executor_.join();
  if (exporter_ != nullptr) exporter_->stop();
  log("neutrald stopped");
}

void NeutralServer::event_loop() {
  std::vector<PollEvent> events;
  while (!stopping_.load()) {
    poller_.wait(events, next_timeout_ms());
    for (const PollEvent& ev : events) {
      if (ev.fd == wake_.fd()) {
        wake_.drain();
        continue;
      }
      if (ev.fd == listener_->fd()) {
        accept_ready();
        continue;
      }
      const auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;  // closed earlier this pass
      Connection& conn = *it->second;
      // Readable data (a final request, or the EOF itself) is drained
      // before honouring an error flag: EPOLLHUP arrives together with the
      // peer's last bytes.
      if (ev.writable && !conn.closed) flush(conn);
      if (ev.readable && !conn.closed) drain_readable(conn);
      if (ev.error && !conn.closed && !ev.readable) {
        close_connection(conn, "socket error/hangup");
      }
    }
    // Executor progress (wake_) and watcher/stall deadlines (timeout) both
    // land here: pump every live watcher, then enforce the write-stall
    // bound, then release memory for connections closed this pass.
    pump_watchers();
    check_stalls();
    graveyard_.clear();
  }
}

int NeutralServer::next_timeout_ms() const {
  auto nearest = std::chrono::steady_clock::time_point::max();
  for (const auto& [fd, conn] : connections_) {
    (void)fd;
    if (conn->watcher.has_value() && conn->watcher->has_deadline) {
      nearest = std::min(nearest, conn->watcher->deadline);
    }
    if (conn->stalled) {
      nearest =
          std::min(nearest, conn->stall_since + options_.write_stall_timeout);
    }
  }
  if (nearest == std::chrono::steady_clock::time_point::max()) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (nearest <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      nearest - now)
                      .count() +
                  1;
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

void NeutralServer::note_connections_open() {
  conn_open_->set(static_cast<std::int64_t>(connections_.size()));
}

void NeutralServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listener_->fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE and friends: transient resource pressure — log and
      // retry on the next readiness instead of killing the loop.
      log("accept failed: " + errno_string(errno));
      break;
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    if (connections_.size() >= options_.max_connections) {
      // Best-effort structured refusal (the socket is fresh, so the tiny
      // frame virtually always fits the send buffer), then close.
      const std::string frame = encode_frame(refused_reply(
          "refused: server at max connections (" +
          std::to_string(options_.max_connections) + ")"));
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      conn_refused_->add();
      log("connection refused (max_connections)");
      continue;
    }
    if (options_.sndbuf_bytes > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                         sizeof options_.sndbuf_bytes);
    }
    // Replies are small request/response frames: without this, Nagle holds
    // a reply's tail until the client's delayed ACK (~40 ms).
    const int nodelay = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       sizeof nodelay);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->inflight = std::make_shared<std::atomic<std::int64_t>>(0);
    poller_.add(fd, /*read=*/true, /*write=*/false);
    conn_total_->add();
    trace_connection("conn_open", *conn, "");
    log("connection #" + std::to_string(conn->id) + " open");
    connections_.emplace(fd, std::move(conn));
    note_connections_open();
  }
}

void NeutralServer::close_connection(Connection& conn,
                                     const std::string& reason) {
  if (conn.closed) return;
  conn.closed = true;
  conn.watcher.reset();
  poller_.remove(conn.fd);
  const auto it = connections_.find(conn.fd);
  ::close(conn.fd);
  trace_connection("conn_close", conn, reason);
  log("connection #" + std::to_string(conn.id) + " closed (" + reason + ")");
  // Park the object until the end of the loop pass: callers up the stack
  // still hold a reference to it.
  graveyard_.push_back(std::move(it->second));
  connections_.erase(it);
  note_connections_open();
}

void NeutralServer::disconnect_slow_reader(Connection& conn,
                                           const std::string& why) {
  slow_reader_disconnects_->add();
  close_connection(conn, "slow reader: " + why);
}

void NeutralServer::flush(Connection& conn) {
  if (conn.closed) return;
  while (!conn.outbuf.empty()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
      conn.stalled = false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: arm EPOLLOUT and start the stall clock — a
      // peer that never drains trips check_stalls().
      if (!conn.want_write) {
        poller_.modify(conn.fd, /*read=*/!conn.read_eof, /*write=*/true);
        conn.want_write = true;
      }
      if (!conn.stalled) {
        conn.stalled = true;
        conn.stall_since = std::chrono::steady_clock::now();
      }
      return;
    }
    close_connection(conn, "send failed");  // peer vanished mid-reply
    return;
  }
  conn.stalled = false;
  if (conn.want_write) {
    poller_.modify(conn.fd, /*read=*/!conn.read_eof, /*write=*/false);
    conn.want_write = false;
  }
  if (conn.close_after_flush) close_connection(conn, "flushed and done");
}

void NeutralServer::send_frame(Connection& conn, const Fields& frame) {
  if (conn.closed) return;
  conn.outbuf += encode_frame(frame);
  send_queued(conn);
}

void NeutralServer::send_queued(Connection& conn) {
  if (conn.closed) return;
  flush(conn);
  if (!conn.closed && conn.outbuf.size() > options_.max_outbound_bytes) {
    disconnect_slow_reader(conn, "outbound buffer over " +
                                     std::to_string(
                                         options_.max_outbound_bytes) +
                                     " bytes");
  }
}

void NeutralServer::check_stalls() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> expired;
  for (const auto& [fd, conn] : connections_) {
    if (conn->stalled &&
        now - conn->stall_since >= options_.write_stall_timeout) {
      expired.push_back(fd);
    }
  }
  for (const int fd : expired) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    disconnect_slow_reader(*it->second, "write stalled");
  }
}

void NeutralServer::drain_readable(Connection& conn) {
  if (conn.read_eof) return;  // read interest already dropped
  char chunk[4096];
  while (!conn.closed) {
    if (conn.inbuf.size() > options_.max_frame_bytes) {
      // Consume complete frames before buffering more.  If the buffer is
      // still over the bound afterwards the peer is abusing the stream:
      // either one giant line (process_input answered and is closing) or
      // pipelining past a streaming watcher faster than we will ever
      // consume.
      process_input(conn);
      if (conn.closed) return;
      if (conn.inbuf.size() > options_.max_frame_bytes) {
        if (conn.watcher.has_value()) {
          close_connection(conn, "inbound buffer overflow while streaming");
        }
        return;
      }
    }
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      // A connection already winding down (close_after_flush) has nothing
      // left to answer; drop the bytes instead of buffering them.
      if (!conn.close_after_flush) {
        conn.inbuf.append(chunk, static_cast<std::size_t>(n));
      }
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      // Drop read interest, or level-triggered epoll would report the EOF
      // forever while a watcher keeps the connection open.
      poller_.modify(conn.fd, /*read=*/false, conn.want_write);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(conn, "recv failed");
    return;
  }
  process_input(conn);
}

void NeutralServer::maybe_close_after_eof(Connection& conn) {
  if (!conn.read_eof || conn.closed || conn.watcher.has_value() ||
      conn.close_after_flush) {
    return;
  }
  if (!conn.inbuf.empty() && conn.inbuf.find('\n') == std::string::npos) {
    // Mirror the blocking stream's contract: dying mid-frame is reported.
    send_frame(conn, error_reply("connection closed mid-frame (partial "
                                 "line)"));
  }
  if (conn.closed) return;
  conn.close_after_flush = true;
  if (conn.outbuf.empty()) close_connection(conn, "eof");
}

void NeutralServer::process_input(Connection& conn) {
  // One request at a time, in arrival order.  While a watcher streams, the
  // rest of the input stays buffered — the protocol is serial per
  // connection, exactly as the thread-per-connection design was.
  while (!conn.closed && !conn.close_after_flush &&
         !conn.watcher.has_value()) {
    const std::size_t nl = conn.inbuf.find('\n');
    if (nl == std::string::npos) {
      if (conn.inbuf.size() > options_.max_frame_bytes) {
        send_frame(conn, error_reply(
                             "frame exceeds " +
                             std::to_string(options_.max_frame_bytes) +
                             " bytes"));
        if (!conn.closed) conn.close_after_flush = true;
      }
      break;
    }
    std::string line = conn.inbuf.substr(0, nl);
    conn.inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // tolerate blank keep-alive lines
    if (line.size() > options_.max_frame_bytes) {
      send_frame(conn, error_reply("frame exceeds " +
                                   std::to_string(options_.max_frame_bytes) +
                                   " bytes"));
      if (!conn.closed) conn.close_after_flush = true;
      break;
    }
    Fields request;
    try {
      request = decode_frame(line);
    } catch (const Error& e) {
      // A stream that does not decode cannot be re-framed: report, close.
      send_frame(conn, error_reply(e.what()));
      if (!conn.closed) conn.close_after_flush = true;
      break;
    }
    if (!dispatch_line(conn, request)) break;
  }
  if (!conn.closed && conn.close_after_flush && conn.outbuf.empty()) {
    close_connection(conn, "request asked to close");
    return;
  }
  maybe_close_after_eof(conn);
}

bool NeutralServer::dispatch_line(Connection& conn, const Fields& request) {
  // Every well-framed request gets a reply, whatever goes wrong inside —
  // a missing "op", a bad knob, or an unexpected exception all answer
  // ok=0 and keep the connection.
  Fields reply;
  bool keep = true;
  try {
    const std::string& op = require_field(request, "op");
    if (op == "result" || op == "watch") {
      start_watch(conn, request, /*stream_events=*/op == "watch");
      return true;
    }
    if (op == "ping") {
      reply = Fields{{"ok", "1"}, {"server", "neutrald"}};
    } else if (op == "submit") {
      reply = handle_submit(conn, request);
    } else if (op == "status") {
      reply = handle_status(request);
    } else if (op == "cancel") {
      reply = handle_cancel(request);
    } else if (op == "metrics") {
      reply = handle_metrics();
    } else if (op == "shutdown") {
      reply = Fields{{"ok", "1"}};
      keep = false;
      request_shutdown();
    } else {
      reply = error_reply("unknown op '" + op + "'");
    }
  } catch (const std::exception& e) {
    reply = error_reply(e.what());
  }
  send_frame(conn, reply);
  if (!keep && !conn.closed) conn.close_after_flush = true;
  return keep;
}

void NeutralServer::start_watch(Connection& conn, const Fields& request,
                                bool stream_events) {
  std::shared_ptr<Submission> sub;
  try {
    const std::uint64_t id =
        static_cast<std::uint64_t>(field_int(request, "id", 0));
    MutexLock lock(mutex_);
    const auto it = submissions_.find(id);
    NEUTRAL_REQUIRE(it != submissions_.end(),
                    "unknown submission id " + std::to_string(id));
    sub = it->second;
  } catch (const Error& e) {
    send_frame(conn, error_reply(e.what()));
    return;  // semantic mistake: keep the connection
  }
  Watcher watcher;
  watcher.sub = std::move(sub);
  watcher.stream_events = stream_events;
  const std::int64_t timeout_ms = field_int(request, "timeout_ms", 0);
  if (timeout_ms > 0) {
    watcher.has_deadline = true;
    watcher.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  }
  conn.watcher = std::move(watcher);
  pump_watcher(conn);
}

void NeutralServer::pump_watchers() {
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) {
    if (conn->watcher.has_value()) fds.push_back(fd);
  }
  for (const int fd : fds) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    pump_watcher(*it->second);
  }
}

void NeutralServer::pump_watcher(Connection& conn) {
  if (conn.closed || !conn.watcher.has_value()) return;
  Watcher& watcher = *conn.watcher;
  std::vector<Event> fresh;
  bool done = false;
  Fields header;
  std::vector<RemoteRow> rows;
  {
    MutexLock lock(mutex_);
    const Submission& sub = *watcher.sub;
    if (watcher.stream_events && sub.events.size() > watcher.next_event) {
      fresh.assign(sub.events.begin() +
                       static_cast<std::ptrdiff_t>(watcher.next_event),
                   sub.events.end());
      watcher.next_event = sub.events.size();
    }
    done = sub.state == State::kDone;
    if (done) {
      rows = sub.rows;
      header = Fields{{"ok", "1"},
                      {"id", std::to_string(sub.id)},
                      {"status", sub.status}};
      if (!sub.error.empty()) header["error"] = sub.error;
    }
  }
  // Queue this pump's frames and send them together (send_queued).
  for (const Event& e : fresh) {
    conn.outbuf += encode_frame(
        Fields{{"event", "job"},
               {"label", e.label},
               {"status", e.status},
               {"seconds", format_double(e.seconds, "%.6g")},
               {"worker", std::to_string(e.worker)}});
  }
  if (done) {
    header["rows"] = std::to_string(rows.size());
    conn.outbuf += encode_frame(header);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const RemoteRow& r = rows[i];
      Fields frame{{"row", std::to_string(i)},
                   {"label", r.label},
                   {"particles", std::to_string(r.particles)},
                   {"tally", r.tally},
                   {"scheme", r.scheme},
                   {"layout", r.layout},
                   {"events", std::to_string(r.events)},
                   {"seconds", format_double(r.seconds, "%.6g")},
                   {"checksum", format_double(r.checksum)},
                   {"population", std::to_string(r.population)},
                   {"status", r.status}};
      if (!r.error.empty()) frame["error"] = r.error;
      conn.outbuf += encode_frame(frame);
    }
  }
  if (!conn.outbuf.empty()) send_queued(conn);
  if (conn.closed) return;
  if (done) {
    conn.watcher.reset();
    process_input(conn);  // pipelined requests buffered behind the watch
    return;
  }
  if (stopping_.load()) {
    send_frame(conn, error_reply("server is shutting down"));
    conn.watcher.reset();
    if (!conn.closed) {
      conn.close_after_flush = true;
      if (conn.outbuf.empty()) close_connection(conn, "shutdown");
    }
    return;
  }
  if (watcher.has_deadline &&
      std::chrono::steady_clock::now() >= watcher.deadline) {
    const std::uint64_t id = watcher.sub->id;
    send_frame(conn, error_reply("pending: submission " + std::to_string(id) +
                                 " not finished within timeout_ms"));
    if (conn.closed) return;
    conn.watcher.reset();
    process_input(conn);
  }
}

void NeutralServer::teardown_connections() {
  for (const auto& [fd, conn] : connections_) {
    (void)fd;
    if (conn->watcher.has_value()) {
      conn->watcher.reset();
      conn->outbuf +=
          encode_frame(error_reply("server is shutting down"));
    }
    if (!conn->outbuf.empty()) {
      // One best-effort non-blocking push; a peer that cannot take it now
      // loses the tail, exactly like the old write-timeout did.
      (void)::send(conn->fd, conn->outbuf.data(), conn->outbuf.size(),
                   MSG_NOSIGNAL);
    }
    ::close(conn->fd);
    trace_connection("conn_close", *conn, "server shutdown");
  }
  connections_.clear();
  graveyard_.clear();
  note_connections_open();
}

// ---------------------------------------------------------------------------
// Request handlers
// ---------------------------------------------------------------------------

Fields NeutralServer::handle_submit(Connection& conn, const Fields& request) {
  // Per-connection admission: a single client cannot monopolise the
  // daemon-wide submission budget.
  if (conn.inflight->load() >=
      static_cast<std::int64_t>(options_.max_inflight_per_connection)) {
    submissions_refused_->add();
    return refused_reply(
        "refused: connection has " +
        std::to_string(options_.max_inflight_per_connection) +
        " submissions in flight (per-connection bound)");
  }

  // A key this handler does not read would otherwise be dropped without a
  // word — a misspelt "layot" or a removed option such as "domains" would
  // run with the default — so refuse it by name.
  static const std::set<std::string> kSubmitKeys = {
      "op",     "deck",  "spec",     "label",  "scheme",
      "layout", "tally", "schedule", "threads"};
  for (const auto& field : request) {
    NEUTRAL_REQUIRE(kSubmitKeys.count(field.first) != 0,
                    "submit does not accept the field '" + field.first + "'");
  }

  auto sub = std::make_shared<Submission>();
  const auto deck_it = request.find("deck");
  const auto spec_it = request.find("spec");
  NEUTRAL_REQUIRE((deck_it != request.end()) != (spec_it != request.end()),
                  "submit needs exactly one of 'deck' or 'spec'");
  const auto copy = [&](const char* key, std::string& into) {
    const auto it = request.find(key);
    if (it != request.end()) into = it->second;
  };
  copy("label", sub->label);
  copy("scheme", sub->scheme);
  copy("layout", sub->layout);
  copy("tally", sub->tally);
  copy("schedule", sub->schedule);
  sub->threads = static_cast<std::int32_t>(field_int(request, "threads", 0));

  // Validate everything parseable up front so the client hears about a
  // bad deck/spec/knob now, not from a failed row later.  The executor
  // re-parses from text; decks are tiny and this keeps one code path.
  std::size_t jobs = 1;
  if (deck_it != request.end()) {
    sub->deck_text = deck_it->second;
    (void)parse_deck(sub->deck_text);
  } else {
    sub->spec_text = spec_it->second;
    jobs = batch::sweep_size(batch::parse_sweep(sub->spec_text));
    // A sweep spec names its own base knobs; per-request overrides would
    // be silently ignored, so refuse them.
    NEUTRAL_REQUIRE(sub->scheme.empty() && sub->layout.empty() &&
                        sub->tally.empty() && sub->schedule.empty() &&
                        sub->threads == 0,
                    "spec submissions carry scheme/layout/tally/schedule/"
                    "threads inside the spec text, not as request fields");
  }
  if (!sub->scheme.empty()) (void)scheme_from_string(sub->scheme);
  if (!sub->layout.empty()) (void)layout_from_string(sub->layout);
  if (!sub->tally.empty()) (void)tally_mode_from_string(sub->tally);
  if (!sub->schedule.empty()) (void)schedule_from_string(sub->schedule);

  {
    MutexLock lock(mutex_);
    NEUTRAL_REQUIRE(!stopping_.load(), "server is shutting down");
    std::size_t active = pending_.size();
    for (const auto& [id, existing] : submissions_) {
      active += existing->state == State::kRunning ? 1 : 0;
    }
    if (active >= options_.max_pending_submissions) {
      // Daemon-wide backpressure: a structured refusal, not an error — the
      // client should back off and retry, not debug its deck.
      submissions_refused_->add();
      return refused_reply(
          "refused: submission queue full (" +
          std::to_string(options_.max_pending_submissions) + " in flight)");
    }
    sub->id = next_id_++;
    sub->accepted = std::chrono::steady_clock::now();
    sub->owner_inflight = conn.inflight;
    conn.inflight->fetch_add(1);
    submissions_.emplace(sub->id, sub);
    pending_.push_back(sub);
    submissions_total_->add();
    note_submissions_locked();
  }
  cv_.notify_all();
  log("submit #" + std::to_string(sub->id) + " (" +
      (sub->deck_text.empty() ? "spec" : "deck") + ", " +
      std::to_string(jobs) + " jobs)");
  return Fields{{"ok", "1"},
                {"id", std::to_string(sub->id)},
                {"jobs", std::to_string(jobs)}};
}

Fields NeutralServer::handle_metrics() {
  Fields reply{{"ok", "1"}};
  for (const auto& [name, value] : metrics_.snapshot().flat()) {
    reply.emplace(name, value);
  }
  return reply;
}

void NeutralServer::note_submissions_locked() {
  std::size_t active = pending_.size();
  for (const auto& [id, sub] : submissions_) {
    (void)id;
    active += sub->state == State::kRunning ? 1 : 0;
  }
  metrics_
      .gauge("neutral_submissions_pending",
             "submissions queued or running")
      .set(static_cast<std::int64_t>(active));
}

void NeutralServer::finish_locked(Submission& sub) {
  sub.state = State::kDone;
  if (sub.owner_inflight != nullptr) {
    sub.owner_inflight->fetch_sub(1);
    sub.owner_inflight.reset();
  }
}

Fields NeutralServer::handle_status(const Fields& request) {
  MutexLock lock(mutex_);
  const auto id_it = request.find("id");
  if (id_it == request.end()) {
    std::size_t queued = 0, running = 0, done = 0;
    for (const auto& [id, sub] : submissions_) {
      queued += sub->state == State::kQueued ? 1 : 0;
      running += sub->state == State::kRunning ? 1 : 0;
      done += sub->state == State::kDone ? 1 : 0;
    }
    const batch::WorldCache::Stats cache = engine_.cache().stats();
    return Fields{{"ok", "1"},
                  {"queued", std::to_string(queued)},
                  {"running", std::to_string(running)},
                  {"done", std::to_string(done)},
                  {"cache_hits", std::to_string(cache.hits)},
                  {"cache_misses", std::to_string(cache.misses)},
                  {"cache_evictions", std::to_string(cache.evictions)},
                  {"cache_resident_worlds",
                   std::to_string(cache.resident_worlds)},
                  {"cache_resident_bytes",
                   std::to_string(cache.resident_bytes)}};
  }
  const std::uint64_t id =
      static_cast<std::uint64_t>(field_int(request, "id", 0));
  const auto it = submissions_.find(id);
  NEUTRAL_REQUIRE(it != submissions_.end(),
                  "unknown submission id " + std::to_string(id));
  const Submission& sub = *it->second;
  Fields reply{{"ok", "1"},
               {"id", std::to_string(id)},
               {"state", state_name(sub.state == State::kQueued,
                                    sub.state == State::kRunning)},
               {"jobs", std::to_string(sub.jobs_total)},
               {"events", std::to_string(sub.events.size())}};
  if (sub.state == State::kDone) {
    reply["status"] = sub.status;
    if (!sub.error.empty()) reply["error"] = sub.error;
  }
  return reply;
}

Fields NeutralServer::handle_cancel(const Fields& request) {
  const std::uint64_t id =
      static_cast<std::uint64_t>(field_int(request, "id", 0));
  const char* state = nullptr;
  {
    MutexLock lock(mutex_);
    const auto it = submissions_.find(id);
    NEUTRAL_REQUIRE(it != submissions_.end(),
                    "unknown submission id " + std::to_string(id));
    Submission& sub = *it->second;
    if (sub.state != State::kDone) sub.cancel->store(true);
    state = state_name(sub.state == State::kQueued,
                       sub.state == State::kRunning);
  }
  cv_.notify_all();
  log("cancel #" + std::to_string(id));
  return Fields{
      {"ok", "1"}, {"id", std::to_string(id)}, {"state", state}};
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void NeutralServer::evict_done_locked() {
  std::size_t done = 0;
  for (const auto& [id, sub] : submissions_) {
    done += sub->state == State::kDone ? 1 : 0;
  }
  // Ids are monotonic and std::map iterates in id order, so the first
  // finished entries seen are the oldest results.
  for (auto it = submissions_.begin();
       done > options_.max_retained_results &&
       it != submissions_.end();) {
    if (it->second->state == State::kDone) {
      it = submissions_.erase(it);
      --done;
    } else {
      ++it;
    }
  }
}

void NeutralServer::executor_loop() {
  while (true) {
    std::shared_ptr<Submission> sub;
    {
      MutexLock lock(mutex_);
      while (!stopping_.load() && pending_.empty()) cv_.wait(lock);
      if (pending_.empty()) break;  // stopping and drained
      sub = pending_.front();
      pending_.pop_front();
      if (stopping_.load() || sub->cancel->load()) {
        sub->status = "cancelled";
        sub->error = stopping_.load() ? "server shutting down"
                                      : "cancelled before it started";
        finish_locked(*sub);
        evict_done_locked();
        note_submissions_locked();
        cv_.notify_all();
        wake_.signal();
        continue;
      }
      sub->state = State::kRunning;
    }
    cv_.notify_all();
    execute(sub);
    {
      MutexLock lock(mutex_);
      finish_locked(*sub);
      evict_done_locked();
      note_submissions_locked();
    }
    cv_.notify_all();
    wake_.signal();  // watchers of this submission live in the event loop
    log("done #" + std::to_string(sub->id) + " (" + sub->status + ")");
  }
}

void NeutralServer::execute(const std::shared_ptr<Submission>& sub) {
  std::vector<RemoteRow> rows;
  std::string status = "ok";
  std::string error;
  try {
    SweepSpec spec;
    if (!sub->spec_text.empty()) {
      spec = batch::parse_sweep(sub->spec_text);
    } else {
      spec.base.deck = parse_deck(sub->deck_text);
      if (!sub->scheme.empty()) {
        spec.base.scheme = scheme_from_string(sub->scheme);
      }
      if (!sub->layout.empty()) {
        spec.base.layout = layout_from_string(sub->layout);
      }
      if (!sub->tally.empty()) {
        spec.base.tally_mode = tally_mode_from_string(sub->tally);
        spec.tally_mode_named = true;
      }
      if (!sub->schedule.empty()) {
        spec.base.schedule = schedule_from_string(sub->schedule);
      }
      spec.base.threads = sub->threads;
    }
    std::vector<Job> sweep_jobs = batch::expand_sweep(spec);
    if (!sub->label.empty() && sweep_jobs.size() == 1) {
      sweep_jobs.front().label = sub->label;
    }
    const auto max_queue_wait = engine_.options().policy.max_queue_wait;
    if (max_queue_wait.count() > 0) {
      for (Job& job : sweep_jobs) job.deadline = sub->accepted + max_queue_wait;
    }
    {
      MutexLock lock(mutex_);
      sub->jobs_total = sweep_jobs.size();
    }

    // Every job of the submission shares one cooperative cancel flag, so a
    // client `cancel` stops in-flight work at the next timestep boundary.
    const BatchReport report = batch::run_sweep(
        engine_, std::move(sweep_jobs), sub->cancel.get(),
        [&](const JobOutcome& outcome) {
          {
            MutexLock lock(mutex_);
            sub->events.push_back(Event{outcome.label,
                                        outcome_status(outcome),
                                        outcome.seconds, outcome.worker});
          }
          cv_.notify_all();
          wake_.signal();  // stream the event to any watcher promptly
        });
    rows.reserve(report.jobs.size());
    for (const JobOutcome& outcome : report.jobs) {
      RemoteRow row;
      row.label = outcome.label;
      row.particles = outcome.config.deck.n_particles;
      row.tally = to_string(outcome.config.tally_mode);
      row.scheme = to_string(outcome.config.scheme);
      row.layout = to_string(outcome.config.layout);
      row.events = outcome.result.counters.total_events();
      row.seconds = outcome.seconds;
      row.checksum = outcome.result.tally_checksum;
      row.population = outcome.result.population;
      row.status = outcome_status(outcome);
      row.error = outcome.error;
      rows.push_back(std::move(row));
    }

    for (const RemoteRow& row : rows) {
      if (row.status != "ok") {
        status = row.status;
        error = row.label + ": " + row.error;
        break;
      }
    }
  } catch (const std::exception& e) {
    status = "failed";
    error = e.what();
  }

  {
    MutexLock lock(mutex_);
    sub->rows = std::move(rows);
    sub->status = status;
    sub->error = error;
  }
}

}  // namespace neutral::net
