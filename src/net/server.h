// neutrald's serving core: an event-loop TCP front-end for the batch engine.
//
// The batch runtime (engine × domains × schemes × layouts) is a
// fork-join library: a caller builds jobs, blocks in BatchEngine::run, and
// exits.  NeutralServer turns it into a long-lived service: clients
// connect over TCP, submit decks or whole sweep specs, and the daemon runs
// them through ONE shared engine — so every connection hits the same
// WorldCache, and a thousand submissions of one geometry build its World
// once.  Physics is untouched: a loopback-submitted deck returns the same
// bit-identical checksum/population as an in-process run of the same
// configuration, for every scheme × layout × domain combination
// (test_net pins this).
//
// Protocol (see net/frame.h for the framing): one flat JSON object per
// line, request → one or more reply frames on the same connection.
//
//   {"op":"ping"}                      -> {"ok":"1",...}
//   {"op":"submit","deck":<.params text>,
//    "scheme":..,"layout":..,"tally":..,"schedule":..,"threads":..,
//    "domains":"RxC","label":..}
//                                      -> {"ok":"1","id":N,"jobs":K}
//   {"op":"submit","spec":<sweep spec text>,"domains":..}
//                                      -> same; the spec expands server-side
//   (a submit carrying any other key is refused with an error naming it)
//   {"op":"status"}                    -> server totals + world-cache stats
//   {"op":"status","id":N}             -> submission state + progress
//   {"op":"watch","id":N}              -> {"event":"job",...} per completed
//                                         job, then the result frames
//   {"op":"result","id":N[,"timeout_ms":T]}
//                                      -> {"ok":"1","id","status","rows":R}
//                                         followed by R {"row":i,...} frames
//   {"op":"cancel","id":N}             -> {"ok":"1","state":...}
//   {"op":"shutdown"}                  -> {"ok":"1"} and the daemon drains
//
// Errors answer {"ok":"0","error":...}.  A frame that does not decode at
// all gets that error reply and the connection is closed (a desynced
// byte stream cannot be re-framed); well-framed semantic mistakes keep
// the connection.  Overload answers {"ok":"0","refused":"1","error":...}
// — a structured refusal a client can tell apart from a hard failure and
// retry with backoff (see "overload semantics" in the README).
//
// Concurrency model: ONE epoll event loop (net/poller.h) owns every
// connection — non-blocking sockets, per-connection bounded in/out
// buffers, no thread per connection and nothing detached, so shutdown is
// deterministic: the loop closes every registered fd and serve() joins
// the executor before returning.  Slow readers cannot wedge the daemon:
// replies buffer up to ServerOptions::max_outbound_bytes and then the
// connection is dropped (likewise when a non-empty buffer makes no
// progress for write_stall_timeout).  Admission control refuses work
// early — max_connections at accept, per-connection in-flight caps and
// the max_pending_submissions bound at submit — instead of queueing
// towards a timeout.
//
// Execution model: submissions queue FIFO and one executor thread drains
// them, so concurrent clients share the node the same way one CLI sweep
// does (the engine's worker pool parallelises; the executor serialises).
// Deadlines come from EngineOptions::policy: max_queue_wait bounds the
// wait from the daemon accepting a submission to a worker starting each of
// its jobs (time spent behind earlier submissions included), max_run_wall
// bounds each run — an expired job completes as `timed_out`, its group
// cancels like a failure, and the daemon keeps serving.  A client `cancel`
// flips the submission's cooperative flag (SimulationConfig::cancel),
// stopping in-flight work at the next timestep/round boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

#include "batch/engine.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace neutral::obs {
class TraceLog;
class MetricsExporter;
}  // namespace neutral::obs

namespace neutral::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back from start().
  std::uint16_t port = 0;
  /// Engine shared by every connection (QueuePolicy deadlines ride
  /// here).  threads_per_job 0 leaves one logical cpu to the event loop.
  batch::EngineOptions engine;
  /// Reject frames longer than this (deck/spec payload bound); also the
  /// per-connection inbound buffer bound.
  std::size_t max_frame_bytes = 4u << 20;
  /// Refuse new submissions while this many are queued or running
  /// (structured `refused` reply — the daemon-wide admission bound).
  std::size_t max_pending_submissions = 64;
  /// Keep at most this many FINISHED submissions queryable; older results
  /// are evicted oldest-first.  The registry stays bounded no matter how
  /// long the daemon runs.
  std::size_t max_retained_results = 256;
  /// Refuse connections beyond this many open at once (a best-effort
  /// `refused` frame is sent before the close).
  std::size_t max_connections = 1024;
  /// Refuse a connection's next submit while it already has this many
  /// submissions queued or running (structured `refused` reply).
  std::size_t max_inflight_per_connection = 16;
  /// Slow-reader policy: per-connection outbound buffer bound.  A peer
  /// that lets buffered replies exceed this is disconnected instead of
  /// wedging the event loop's memory.
  std::size_t max_outbound_bytes = 4u << 20;
  /// Slow-reader policy: disconnect when a non-empty outbound buffer
  /// makes zero progress for this long.
  std::chrono::milliseconds write_stall_timeout{10000};
  /// Test hook: when > 0, set SO_SNDBUF on accepted sockets so the
  /// kernel's share of the outbound path is small and deterministic.
  int sndbuf_bytes = 0;
  /// Per-request log lines on stdout.
  bool verbose = false;
  /// When non-zero, start() also binds a plain-HTTP Prometheus
  /// text-exposition listener on (host, metrics_port) serving GET /metrics
  /// from the server's registry.  0 = no exporter (the `metrics` frame op
  /// still works).
  std::uint16_t metrics_port = 0;
  /// When non-empty, open a JSONL TraceLog there and record every job's
  /// lifecycle spans plus connection open/close spans (src/obs/trace.h).
  std::string trace_path;
};

/// One finished row of a submission — one sweep job (plain) or one
/// decomposed solve (--domains).
struct RemoteRow {
  std::string label;
  std::int64_t particles = 0;
  std::string tally;
  std::string scheme;
  std::string layout;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double checksum = 0.0;
  std::int64_t population = 0;
  std::string status;  ///< "ok" | "failed" | "timed_out" | "cancelled"
  std::string error;
};

class NeutralServer {
 public:
  explicit NeutralServer(ServerOptions options = {});
  ~NeutralServer();

  /// Bind + listen and spawn the executor; returns the bound port.
  std::uint16_t start();

  /// Run the event loop; blocks until a shutdown request, then closes
  /// every connection and joins the executor before returning.  Call
  /// start() first.
  void serve();

  /// Ask serve() to wind down (idempotent; callable from any thread).
  void request_shutdown() NEUTRAL_EXCLUDES(mutex_);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] batch::BatchEngine& engine() { return engine_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  /// The daemon-lifetime registry every layer publishes into.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Bound Prometheus port (0 when no exporter was requested).  Valid
  /// after start().
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics_port_; }

 private:
  enum class State : std::uint8_t { kQueued, kRunning, kDone };

  struct Event {
    std::string label;
    std::string status;
    double seconds = 0.0;
    std::int32_t worker = -1;
  };

  /// Mutable fields (state, status, error, jobs_total, events, rows) are
  /// guarded by the owning server's mutex_.  Stated as a comment rather
  /// than NEUTRAL_GUARDED_BY because a nested struct cannot name the outer
  /// instance's capability; every access site sits inside a MutexLock
  /// scope in server.cpp, which the analysis does check via the locked
  /// helpers that touch these fields.
  struct Submission {
    std::uint64_t id = 0;
    std::string label;
    std::string deck_text;  ///< exclusive with spec_text
    std::string spec_text;
    std::string scheme, layout, tally, schedule;
    std::int32_t threads = 0;
    std::string domains;  ///< "RxC" or empty
    /// When the daemon accepted the submission: its jobs' max_queue_wait
    /// deadlines count from here, not from when the executor reaches it.
    std::chrono::steady_clock::time_point accepted{};
    State state = State::kQueued;
    std::string status;  ///< final submission status once kDone
    std::string error;
    std::size_t jobs_total = 0;  ///< expanded sweep jobs (0 until running)
    std::vector<Event> events;
    std::vector<RemoteRow> rows;
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    /// The submitting connection's in-flight count; decremented exactly
    /// once when the submission reaches kDone.  Shared so it outlives the
    /// connection (a client may disconnect with work still queued).
    std::shared_ptr<std::atomic<std::int64_t>> owner_inflight;
  };

  /// A `result`/`watch` in progress: the loop pumps frames to the client
  /// as the executor publishes events, and processes no further input on
  /// the connection until the submission finishes (requests stay buffered,
  /// preserving the serial request/reply order of the protocol).
  struct Watcher {
    std::shared_ptr<Submission> sub;
    std::size_t next_event = 0;
    bool stream_events = false;
    bool has_deadline = false;  ///< from timeout_ms
    std::chrono::steady_clock::time_point deadline{};
  };

  /// One event-loop-owned connection.  Touched only by the loop thread.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string inbuf;
    std::string outbuf;
    bool want_write = false;       ///< EPOLLOUT currently armed
    bool close_after_flush = false;
    bool read_eof = false;         ///< peer half-closed; close once done
    bool closed = false;           ///< fd released, entry awaiting reap
    bool stalled = false;          ///< outbuf non-empty and kernel full
    std::chrono::steady_clock::time_point stall_since{};
    std::optional<Watcher> watcher;
    /// Shared with each of this connection's submissions (see
    /// Submission::owner_inflight).
    std::shared_ptr<std::atomic<std::int64_t>> inflight;
  };

  // --- event loop (loop thread only) ---
  void event_loop();
  void accept_ready();
  void drain_readable(Connection& conn);
  void process_input(Connection& conn);
  /// Dispatch one decoded request; returns false when the connection is
  /// winding down (shutdown op).
  bool dispatch_line(Connection& conn, const Fields& request);
  void start_watch(Connection& conn, const Fields& request,
                   bool stream_events) NEUTRAL_EXCLUDES(mutex_);
  /// Send any fresh watcher output; completes/aborts the watcher when the
  /// submission is done, the deadline passed, or the server is stopping.
  void pump_watcher(Connection& conn) NEUTRAL_EXCLUDES(mutex_);
  void pump_watchers();
  void check_stalls();
  /// Queue `frame` on the connection and send what is queued.
  void send_frame(Connection& conn, const Fields& frame);
  /// Flush the outbound buffer opportunistically; applies the slow-reader
  /// bound.  A multi-frame reply queues every frame first and sends once,
  /// so it leaves in as few segments as the socket allows.
  void send_queued(Connection& conn);
  void flush(Connection& conn);
  void disconnect_slow_reader(Connection& conn, const std::string& why);
  void close_connection(Connection& conn, const std::string& reason);
  void maybe_close_after_eof(Connection& conn);
  /// epoll timeout to the nearest watcher/stall deadline (-1 = none).
  [[nodiscard]] int next_timeout_ms() const;
  void teardown_connections();
  void note_connections_open();

  // --- request handlers ---
  Fields handle_submit(Connection& conn, const Fields& request)
      NEUTRAL_EXCLUDES(mutex_);
  Fields handle_status(const Fields& request) NEUTRAL_EXCLUDES(mutex_);
  Fields handle_cancel(const Fields& request) NEUTRAL_EXCLUDES(mutex_);
  Fields handle_metrics();
  /// Refresh the submission gauges after any state change.
  void note_submissions_locked() NEUTRAL_REQUIRES(mutex_);
  /// Transition to kDone and release the owner's in-flight slot exactly
  /// once.
  void finish_locked(Submission& sub) NEUTRAL_REQUIRES(mutex_);

  // --- executor ---
  void executor_loop() NEUTRAL_EXCLUDES(mutex_);
  void execute(const std::shared_ptr<Submission>& sub)
      NEUTRAL_EXCLUDES(mutex_);
  /// Drop the oldest finished submissions beyond max_retained_results.
  void evict_done_locked() NEUTRAL_REQUIRES(mutex_);

  void log(const std::string& line);
  void trace_connection(const char* event, const Connection& conn,
                        const std::string& detail);

  ServerOptions options_;
  // Observability state precedes engine_: the ctor patches the engine
  // options with pointers into these members, so they must already exist
  // when engine_ constructs.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceLog> trace_;
  batch::BatchEngine engine_;
  std::uint16_t port_ = 0;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<obs::MetricsExporter> exporter_;
  std::uint16_t metrics_port_ = 0;

  // Event-loop state (loop thread only, between start() and serve() end).
  Poller poller_;
  WakeupFd wake_;
  std::map<int, std::unique_ptr<Connection>> connections_;
  /// Connections closed mid-iteration park here until the end of the loop
  /// pass, so references held by in-flight handlers stay valid.
  std::vector<std::unique_ptr<Connection>> graveyard_;
  std::uint64_t next_conn_id_ = 1;

  /// Guards the submission registry shared between the event loop and the
  /// executor thread.  Never held across a solve: execute() copies what it
  /// needs out, runs unlocked, and locks again to publish results.
  Mutex mutex_;
  CondVar cv_;
  std::map<std::uint64_t, std::shared_ptr<Submission>> submissions_
      NEUTRAL_GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<Submission>> pending_
      NEUTRAL_GUARDED_BY(mutex_);
  std::uint64_t next_id_ NEUTRAL_GUARDED_BY(mutex_) = 1;
  std::atomic<bool> stopping_{false};

  std::thread executor_;

  // Resolved once in the ctor so every series exists (at zero) from the
  // first scrape and the hot paths never look anything up by name.
  obs::Counter* submissions_total_ = nullptr;
  obs::Counter* submissions_refused_ = nullptr;
  obs::Counter* conn_total_ = nullptr;
  obs::Counter* conn_refused_ = nullptr;
  obs::Counter* slow_reader_disconnects_ = nullptr;
  obs::Gauge* conn_open_ = nullptr;
};

}  // namespace neutral::net
