// Tests for the TCP front-end (src/net/): frame codec strictness, loopback
// round-trips that must be bit-identical to in-process runs for every
// scheme x layout combination, deadline expiry under a
// QueuePolicy, malformed-frame rejection, cooperative cancellation, and
// concurrent clients sharing one world cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/engine.h"
#include "batch/executor.h"
#include "core/simulation.h"
#include "io/deck_io.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/error.h"

namespace neutral {
namespace {

using net::Fields;
using net::NeutralClient;
using net::NeutralServer;
using net::RemoteResult;
using net::ServerOptions;
using net::SubmitRequest;

ProblemDeck tiny_deck(std::int64_t particles = 400,
                      std::int32_t timesteps = 1) {
  ProblemDeck deck = csp_deck(/*mesh_scale=*/0.02, /*particle_scale=*/1.0);
  deck.n_particles = particles;
  deck.n_timesteps = timesteps;
  return deck;
}

/// A NeutralServer on an ephemeral loopback port with its serve() thread,
/// torn down (drained and joined) on scope exit.
class TestServer {
 public:
  explicit TestServer(ServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    options.verbose = false;
    server_ = std::make_unique<NeutralServer>(std::move(options));
    port_ = server_->start();
    thread_ = std::thread([this] { server_->serve(); });
  }
  ~TestServer() {
    server_->request_shutdown();
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] NeutralClient connect() const {
    return NeutralClient("127.0.0.1", port_);
  }

 private:
  std::unique_ptr<NeutralServer> server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripsPayloadsWithEscapes) {
  Fields fields{{"op", "submit"},
                {"deck", "line one\nline \"two\"\r\n\tend\\"},
                {"label", "csp/n=100"}};
  const std::string wire = net::encode_frame(fields);
  // One line: the only '\n' is the terminator.
  EXPECT_EQ(wire.find('\n'), wire.size() - 1);
  EXPECT_EQ(net::decode_frame(wire), fields);
  // Control bytes survive via \u escapes.
  Fields control{{"k", std::string("a\x01b", 3)}};
  EXPECT_EQ(net::decode_frame(net::encode_frame(control)), control);
}

TEST(Frame, RejectsMalformedInput) {
  EXPECT_THROW(net::decode_frame("not json"), Error);
  EXPECT_THROW(net::decode_frame(""), Error);
  EXPECT_THROW(net::decode_frame("{\"a\":\"b\"} trailing"), Error);
  EXPECT_THROW(net::decode_frame("{\"a\":1}"), Error);          // number
  EXPECT_THROW(net::decode_frame("{\"a\":{\"b\":\"c\"}}"), Error);  // nested
  EXPECT_THROW(net::decode_frame("{\"a\":[\"b\"]}"), Error);    // array
  EXPECT_THROW(net::decode_frame("{\"a\":\"b\",\"a\":\"c\"}"), Error);
  EXPECT_THROW(net::decode_frame("{\"a\":\"unterminated}"), Error);
  EXPECT_THROW(net::decode_frame("{\"a\":\"bad \\x escape\"}"), Error);
  EXPECT_THROW(net::decode_frame("{\"a\":\"\\ud800\"}"), Error);
  EXPECT_NO_THROW(net::decode_frame("{}"));
  EXPECT_NO_THROW(net::decode_frame("  {\"a\":\"b\"}  "));
}

// ---------------------------------------------------------------------------
// Loopback round-trips: served physics == in-process physics, bit for bit
// ---------------------------------------------------------------------------

TEST(NetServer, LoopbackDeckMatchesInProcessRunExactly) {
  TestServer server;
  NeutralClient client = server.connect();

  const ProblemDeck deck = tiny_deck(400);
  SubmitRequest request;
  request.deck_text = format_deck(deck);
  request.threads = 1;
  request.label = "roundtrip";
  const std::uint64_t id = client.submit(request);
  const RemoteResult result = client.wait(id);
  ASSERT_EQ(result.status, "ok") << result.error;
  ASSERT_EQ(result.rows.size(), 1u);

  SimulationConfig config;
  config.deck = deck;
  config.threads = 1;
  Simulation sim(config);
  const RunResult reference = sim.run();

  EXPECT_EQ(result.rows[0].checksum, reference.tally_checksum);
  EXPECT_EQ(result.rows[0].population, reference.population);
  EXPECT_EQ(result.rows[0].events, reference.counters.total_events());
  EXPECT_EQ(result.rows[0].status, "ok");
  EXPECT_EQ(result.rows[0].label, "roundtrip");
}

TEST(NetServer, MatrixSchemesLayoutsAllBitIdentical) {
  // Every scheme x layout combination submitted over loopback must return
  // the same checksum/population/tally as the executor's in-process row
  // (batch::run_sweep).  The tally mode is NAMED atomic so it is never
  // defaulted, and the rows must agree on it.
  TestServer server;
  NeutralClient client = server.connect();
  batch::BatchEngine local_engine;

  const ProblemDeck deck = tiny_deck(300, 2);
  for (const Scheme scheme : {Scheme::kOverParticles, Scheme::kOverEvents}) {
    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      SimulationConfig config;
      config.deck = deck;
      config.scheme = scheme;
      config.layout = layout;
      config.tally_mode = TallyMode::kAtomic;
      config.threads = 1;
      const batch::BatchReport local =
          batch::run_sweep(local_engine, {batch::make_job(0, config)});
      const batch::JobOutcome& want = local.jobs.front();
      ASSERT_TRUE(want.ok) << want.error;

      SubmitRequest request;
      request.deck_text = format_deck(deck);
      request.scheme = to_string(scheme);
      request.layout = to_string(layout);
      request.tally = "atomic";
      request.threads = 1;
      // Streamed wait (the watch op).
      std::size_t events_seen = 0;
      const RemoteResult result = client.wait(
          client.submit(request),
          [&events_seen](const net::RemoteEvent&) { ++events_seen; });
      const std::string cell =
          std::string(to_string(scheme)) + "/" + to_string(layout);
      EXPECT_EQ(events_seen, 1u) << cell;
      ASSERT_EQ(result.status, "ok") << cell << ": " << result.error;
      ASSERT_EQ(result.rows.size(), 1u) << cell;
      EXPECT_EQ(result.rows[0].checksum, want.result.tally_checksum) << cell;
      EXPECT_EQ(result.rows[0].population, want.result.population) << cell;
      EXPECT_EQ(result.rows[0].tally, to_string(want.config.tally_mode))
          << cell;
    }
  }
}

TEST(NetServer, SweepSpecExpandsServerSide) {
  TestServer server;
  NeutralClient client = server.connect();
  SubmitRequest request;
  request.spec_text =
      "deck csp\n"
      "mesh_scale 0.02\n"
      "timesteps 1\n"
      "particles 200\n"
      "threads 1\n"
      "axis particles 100 200\n"
      "axis layout aos soa\n";
  const std::uint64_t id = client.submit(request);
  std::vector<std::string> seen;
  const RemoteResult result = client.wait(
      id, [&](const net::RemoteEvent& event) { seen.push_back(event.label); });
  ASSERT_EQ(result.status, "ok") << result.error;
  ASSERT_EQ(result.rows.size(), 4u);
  // The watch op streamed one completion event per job.
  EXPECT_EQ(seen.size(), 4u);
  // Same geometry throughout: the shared cache built one world.
  const Fields status = client.status();
  EXPECT_EQ(status.at("cache_misses"), "1");
}

// ---------------------------------------------------------------------------
// Deadlines, cancellation, malformed frames, concurrency
// ---------------------------------------------------------------------------

TEST(NetServer, RunWallDeadlineTimesOutAndServerKeepsServing) {
  ServerOptions options;
  options.engine.policy.max_run_wall = std::chrono::milliseconds(60);
  TestServer server(options);
  NeutralClient client = server.connect();

  // Many timesteps: the cooperative deadline check fires at a step
  // boundary long before the run finishes.
  SubmitRequest slow;
  slow.deck_text = format_deck(tiny_deck(2000, 500));
  slow.threads = 1;
  const RemoteResult timed_out = client.wait(client.submit(slow));
  EXPECT_EQ(timed_out.status, "timed_out") << timed_out.error;
  ASSERT_EQ(timed_out.rows.size(), 1u);
  EXPECT_EQ(timed_out.rows[0].status, "timed_out");

  // The daemon shrugs it off: the next submission completes normally.
  SubmitRequest quick;
  quick.deck_text = format_deck(tiny_deck(100, 1));
  quick.threads = 1;
  const RemoteResult ok = client.wait(client.submit(quick));
  EXPECT_EQ(ok.status, "ok") << ok.error;
}

TEST(NetServer, CancelStopsARunningSubmission) {
  TestServer server;
  NeutralClient client = server.connect();

  SubmitRequest slow;
  slow.deck_text = format_deck(tiny_deck(2000, 2000));
  slow.threads = 1;
  const std::uint64_t id = client.submit(slow);
  // Wait for it to actually start, then cancel mid-run.
  while (client.status(id).at("state") == "queued") {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  client.cancel(id);
  const RemoteResult result = client.wait(id);
  EXPECT_EQ(result.status, "cancelled") << result.error;

  SubmitRequest quick;
  quick.deck_text = format_deck(tiny_deck(100, 1));
  quick.threads = 1;
  EXPECT_EQ(client.wait(client.submit(quick)).status, "ok");
}

TEST(NetServer, CancelledJobIsCancelledInReplyScrapeAndTrace) {
  const std::string trace_path = "test_net_cancel_trace.jsonl";
  {
    ServerOptions options;
    options.trace_path = trace_path;
    TestServer server(options);
    NeutralClient client = server.connect();

    SubmitRequest slow;
    slow.deck_text = format_deck(tiny_deck(2000, 2000));
    slow.threads = 1;
    const std::uint64_t id = client.submit(slow);
    while (client.status(id).at("state") == "queued") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    client.cancel(id);
    const RemoteResult result = client.wait(id);
    EXPECT_EQ(result.status, "cancelled") << result.error;
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0].status, "cancelled");

    const Fields metrics = client.metrics();
    EXPECT_EQ(metrics.at("neutral_jobs_cancelled_total"), "1");
    EXPECT_EQ(metrics.at("neutral_jobs_failed_total"), "0");
  }
  std::ifstream trace(trace_path);
  std::size_t cancelled = 0, failed = 0;
  for (std::string line; std::getline(trace, line);) {
    cancelled += line.find("\"event\":\"cancelled\"") != std::string::npos;
    failed += line.find("\"event\":\"failed\"") != std::string::npos;
  }
  EXPECT_EQ(cancelled, 1u);
  EXPECT_EQ(failed, 0u);
  std::remove(trace_path.c_str());
}

TEST(NetServer, CancelBeforeStartSkipsExecution) {
  TestServer server;
  NeutralClient client = server.connect();

  SubmitRequest slow;
  slow.deck_text = format_deck(tiny_deck(2000, 2000));
  slow.threads = 1;
  const std::uint64_t first = client.submit(slow);
  SubmitRequest queued;
  queued.deck_text = format_deck(tiny_deck(100, 1));
  queued.threads = 1;
  const std::uint64_t second = client.submit(queued);
  client.cancel(second);  // still queued behind `first`
  client.cancel(first);   // then unblock the executor quickly
  const RemoteResult result = client.wait(second);
  EXPECT_EQ(result.status, "cancelled");
  EXPECT_TRUE(result.rows.empty());  // never expanded, never ran
}

TEST(NetServer, QueueWaitCountsTimeSpentBehindEarlierSubmissions) {
  // max_queue_wait counts from the daemon accepting a submission: quick
  // submissions stuck behind a slow one past the bound come back
  // timed_out without running, even though their own engine runs start
  // only when the slow one is gone.
  ServerOptions options;
  options.engine.workers = 1;
  options.engine.policy.max_queue_wait = std::chrono::milliseconds(100);
  TestServer server(options);
  NeutralClient client = server.connect();

  SubmitRequest slow;
  slow.deck_text = format_deck(tiny_deck(2000, 2000));
  slow.threads = 1;
  const std::uint64_t first = client.submit(slow);
  while (client.status(first).at("state") == "queued") {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  SubmitRequest quick;
  quick.deck_text = format_deck(tiny_deck(100, 1));
  quick.threads = 1;
  const std::uint64_t second = client.submit(quick);
  quick.layout = "soa";
  const std::uint64_t third = client.submit(quick);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  client.cancel(first);

  for (const std::uint64_t id : {second, third}) {
    const RemoteResult late = client.wait(id);
    EXPECT_EQ(late.status, "timed_out") << id << ": " << late.error;
    ASSERT_EQ(late.rows.size(), 1u);
    EXPECT_EQ(late.rows[0].status, "timed_out");
    EXPECT_EQ(late.rows[0].events, 0u);  // never ran
  }
  EXPECT_EQ(client.wait(first).status, "cancelled");
}

TEST(NetServer, MalformedFramesAreRejectedWithoutKillingTheServer) {
  TestServer server;

  net::TcpStream raw =
      net::TcpStream::connect("127.0.0.1", server.port());
  raw.write_all("this is not a frame\n");
  std::string line;
  ASSERT_EQ(raw.read_line(line, 1 << 20), net::ReadStatus::kLine);
  const Fields reply = net::decode_frame(line);
  EXPECT_EQ(reply.at("ok"), "0");
  EXPECT_NE(reply.at("error").find("malformed"), std::string::npos);
  // The connection is closed after a framing error...
  EXPECT_EQ(raw.read_line(line, 1 << 20), net::ReadStatus::kEof);

  // ...but well-framed semantic mistakes keep their connection, and the
  // server keeps serving new ones.
  NeutralClient client = server.connect();
  EXPECT_THROW((void)client.call(Fields{{"op", "bogus"}}), Error);
  EXPECT_THROW((void)client.call(Fields{{"id", "1"}}), Error);  // no op
  EXPECT_NO_THROW(client.ping());
}

TEST(NetServer, ConcurrentClientsShareOneWorldCache) {
  TestServer server;

  // Two clients, same geometry, different run-control knobs: correct
  // results for both, one world build between them.
  std::vector<RemoteResult> results(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      NeutralClient client = server.connect();
      SubmitRequest request;
      request.deck_text = format_deck(tiny_deck(c == 0 ? 200 : 400));
      request.threads = 1;
      results[static_cast<std::size_t>(c)] =
          client.wait(client.submit(request));
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(results[static_cast<std::size_t>(c)].status, "ok")
        << results[static_cast<std::size_t>(c)].error;
    SimulationConfig config;
    config.deck = tiny_deck(c == 0 ? 200 : 400);
    config.threads = 1;
    Simulation sim(config);
    EXPECT_EQ(results[static_cast<std::size_t>(c)].rows[0].checksum,
              sim.run().tally_checksum);
  }

  NeutralClient client = server.connect();
  const Fields status = client.status();
  EXPECT_EQ(status.at("cache_misses"), "1");  // one geometry, built once
  EXPECT_EQ(status.at("done"), "2");
}

TEST(NetServer, SubmitRejectsBadDecksSpecsAndKnobs) {
  TestServer server;
  NeutralClient client = server.connect();

  SubmitRequest bad_deck;
  bad_deck.deck_text = "nx not-a-number\n";
  EXPECT_THROW((void)client.submit(bad_deck), Error);

  SubmitRequest bad_spec;
  bad_spec.spec_text = "bogus_key 1\n";
  EXPECT_THROW((void)client.submit(bad_spec), Error);

  SubmitRequest bad_knob;
  bad_knob.deck_text = format_deck(tiny_deck(100));
  bad_knob.scheme = "over-quantum";
  EXPECT_THROW((void)client.submit(bad_knob), Error);

  // Rejections left nothing queued; a good submission still works.
  SubmitRequest good;
  good.deck_text = format_deck(tiny_deck(100));
  good.threads = 1;
  EXPECT_EQ(client.wait(client.submit(good)).status, "ok");
}

TEST(NetServer, SubmitRefusesFieldsItDoesNotRead) {
  // A key the daemon does not read is refused by name, not dropped: the
  // retired bank-shard and mesh-decomposition fields would otherwise run
  // plain without a word.
  TestServer server;
  NeutralClient client = server.connect();
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"shards", "2"},
        std::pair<std::string, std::string>{"domains", "2x2"}}) {
    const Fields request{{"op", "submit"},
                         {"deck", format_deck(tiny_deck(100))},
                         {key, value}};
    try {
      (void)client.call(request);
      ADD_FAILURE() << "submit accepted the unknown field '" << key << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // Every field NeutralClient::submit sends is accepted.
  SubmitRequest full;
  full.deck_text = format_deck(tiny_deck(100));
  full.label = "all fields";
  full.scheme = "events";
  full.layout = "soa";
  full.tally = "atomic";
  full.schedule = "static";
  full.threads = 1;
  EXPECT_EQ(client.wait(client.submit(full)).status, "ok");
}

// ---------------------------------------------------------------------------
// Event-loop hardening: shutdown under churn, admission control, slow readers
// ---------------------------------------------------------------------------

TEST(NetServer, ShutdownUnderConnectChurnIsDeterministic) {
  // Regression for the detached handler-thread lifetime hazard: the old
  // front-end detached a thread per connection, so destroying the server
  // while clients were connecting raced handler threads against dead
  // server state (ASan catches the use-after-free).  The event loop owns
  // every connection, so construct/destroy under concurrent connect churn
  // must be clean every round.
  for (int round = 0; round < 6; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<std::uint16_t> port{0};
    std::vector<std::thread> churn;
    for (int t = 0; t < 4; ++t) {
      churn.emplace_back([&, t] {
        while (!stop.load()) {
          try {
            net::TcpStream raw =
                net::TcpStream::connect("127.0.0.1", port.load());
            if (t % 2 == 0) {
              raw.write_all(net::encode_frame(Fields{{"op", "ping"}}));
              std::string line;
              (void)raw.read_line(line, 1 << 16);
            }
            // else: connect and vanish without a single byte.
          } catch (const std::exception&) {
            // Refusals/resets mid-shutdown (or before start) are expected;
            // keep churning.
          }
        }
      });
    }
    {
      TestServer server;
      port.store(server.port());
      // Let the churn overlap the server's whole lifetime...
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      // ...then ~TestServer tears it down WHILE churn threads connect.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true);
    for (std::thread& t : churn) t.join();
  }
}

TEST(NetServer, ShutdownAlwaysReturnsFromServe) {
  // request_shutdown must set the stop flag under the executor's mutex: a
  // notify landing between executor_loop's "nothing pending" check and its
  // wait would otherwise be lost, leaving serve() blocked in
  // executor_.join() for good.  The window is narrow, so cycle many times.
  for (int round = 0; round < 200; ++round) {
    ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.verbose = false;
    auto server = std::make_unique<NeutralServer>(std::move(options));
    const std::uint16_t port = server->start();
    std::promise<void> served;
    std::future<void> returned = served.get_future();
    std::thread loop([&server, &served] {
      server->serve();
      served.set_value();
    });
    NeutralClient client("127.0.0.1", port);
    client.ping();
    client.shutdown_server();
    if (returned.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      // Leak the wedged server rather than destroy it under its thread.
      loop.detach();
      (void)server.release();
      FAIL() << "serve() did not return within 5 s of shutdown (round "
             << round << ")";
    }
    loop.join();
  }
}

TEST(NetServer, ResultRepliesDoNotWaitForADelayedAck) {
  // A `result` reply is a header frame plus a row frame.  Sent with one
  // send() each and no TCP_NODELAY, Nagle holds the row until the
  // client's delayed ACK (40 ms on Linux), so every round trip took at
  // least that long.  The reply now leaves in one write on a no-delay
  // socket.
  TestServer server;
  NeutralClient client = server.connect();
  SubmitRequest request;
  request.deck_text = format_deck(tiny_deck(20));
  request.threads = 1;
  std::vector<double> round_trip_ms;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const RemoteResult result = client.wait(client.submit(request));
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    ASSERT_EQ(result.status, "ok") << result.error;
  }
  const auto median = round_trip_ms.begin() + 10;
  std::nth_element(round_trip_ms.begin(), median, round_trip_ms.end());
  EXPECT_LT(*median, 20.0);
}

TEST(NetServer, MaxConnectionsRefusesWithAStructuredFrame) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer server(options);

  NeutralClient first = server.connect();
  first.ping();  // the loop has registered connection #1

  // Connection #2 is refused with a parseable frame, then closed.
  net::TcpStream second = net::TcpStream::connect("127.0.0.1", server.port());
  std::string line;
  ASSERT_EQ(second.read_line(line, 1 << 16), net::ReadStatus::kLine);
  const Fields reply = net::decode_frame(line);
  EXPECT_EQ(reply.at("ok"), "0");
  EXPECT_EQ(reply.at("refused"), "1");
  EXPECT_NE(reply.at("error").find("max connections"), std::string::npos);
  EXPECT_EQ(second.read_line(line, 1 << 16), net::ReadStatus::kEof);

  // The admitted connection is unharmed, and the freed slot is reusable.
  first.ping();
  const Fields metrics = first.metrics();
  EXPECT_EQ(metrics.at("neutral_connections_refused_total"), "1");
}

TEST(NetServer, SubmitBackpressureAnswersRefusedNotError) {
  ServerOptions options;
  options.max_pending_submissions = 1;
  TestServer server(options);
  NeutralClient client = server.connect();

  SubmitRequest slow;
  slow.deck_text = format_deck(tiny_deck(2000, 2000));
  slow.threads = 1;
  const std::uint64_t id = client.submit(slow);

  // A second submission over a raw connection sees the structured refusal
  // frame — refused=1 distinguishes "back off and retry" from "your deck
  // is broken".
  net::TcpStream raw = net::TcpStream::connect("127.0.0.1", server.port());
  raw.write_all(net::encode_frame(Fields{{"op", "submit"},
                                         {"deck", format_deck(tiny_deck(100))},
                                         {"threads", "1"}}));
  std::string line;
  ASSERT_EQ(raw.read_line(line, 1 << 20), net::ReadStatus::kLine);
  const Fields reply = net::decode_frame(line);
  EXPECT_EQ(reply.at("ok"), "0");
  EXPECT_EQ(reply.at("refused"), "1");
  EXPECT_NE(reply.at("error").find("queue full"), std::string::npos);

  // The refusal did not poison anything: cancel the hog and the same
  // connection's next submit is accepted.
  client.cancel(id);
  ASSERT_EQ(client.wait(id).status, "cancelled");
  raw.write_all(net::encode_frame(Fields{{"op", "submit"},
                                         {"deck", format_deck(tiny_deck(100))},
                                         {"threads", "1"}}));
  ASSERT_EQ(raw.read_line(line, 1 << 20), net::ReadStatus::kLine);
  EXPECT_EQ(net::decode_frame(line).at("ok"), "1");
}

TEST(NetServer, PerConnectionInflightCapRefusesOnlyTheHog) {
  ServerOptions options;
  options.max_inflight_per_connection = 1;
  TestServer server(options);

  // One raw connection so both submits share an in-flight counter.
  net::TcpStream hog = net::TcpStream::connect("127.0.0.1", server.port());
  std::string line;
  hog.write_all(net::encode_frame(Fields{{"op", "submit"},
                                         {"deck",
                                          format_deck(tiny_deck(2000, 2000))},
                                         {"threads", "1"}}));
  ASSERT_EQ(hog.read_line(line, 1 << 20), net::ReadStatus::kLine);
  const Fields accepted = net::decode_frame(line);
  ASSERT_EQ(accepted.at("ok"), "1");
  const std::string id = accepted.at("id");

  hog.write_all(net::encode_frame(Fields{{"op", "submit"},
                                         {"deck", format_deck(tiny_deck(100))},
                                         {"threads", "1"}}));
  ASSERT_EQ(hog.read_line(line, 1 << 20), net::ReadStatus::kLine);
  const Fields refused = net::decode_frame(line);
  EXPECT_EQ(refused.at("ok"), "0");
  EXPECT_EQ(refused.at("refused"), "1");
  EXPECT_NE(refused.at("error").find("in flight"), std::string::npos);

  // The cap is per connection: a different client is admitted while the
  // hog is still at its bound.
  NeutralClient other = server.connect();
  SubmitRequest quick;
  quick.deck_text = format_deck(tiny_deck(100));
  quick.threads = 1;
  EXPECT_EQ(other.wait(other.submit(quick)).status, "ok");

  // Finishing (here: cancelling) the hog's submission releases its slot.
  hog.write_all(net::encode_frame(Fields{{"op", "cancel"}, {"id", id}}));
  ASSERT_EQ(hog.read_line(line, 1 << 20), net::ReadStatus::kLine);
  ASSERT_EQ(net::decode_frame(line).at("ok"), "1");
  hog.write_all(
      net::encode_frame(Fields{{"op", "result"}, {"id", id}}));
  // Drain the result header + any row frames for the cancelled submission.
  ASSERT_EQ(hog.read_line(line, 1 << 20), net::ReadStatus::kLine);
  const Fields header = net::decode_frame(line);
  ASSERT_EQ(header.at("ok"), "1");
  for (int rows = std::stoi(header.at("rows")); rows > 0; --rows) {
    ASSERT_EQ(hog.read_line(line, 1 << 20), net::ReadStatus::kLine);
  }
  hog.write_all(net::encode_frame(Fields{{"op", "submit"},
                                         {"deck", format_deck(tiny_deck(100))},
                                         {"threads", "1"}}));
  ASSERT_EQ(hog.read_line(line, 1 << 20), net::ReadStatus::kLine);
  EXPECT_EQ(net::decode_frame(line).at("ok"), "1");
}

TEST(NetServer, SlowReaderIsDroppedWhileOtherClientsStayBitIdentical) {
  // Slow-reader policy: a client that submits, asks to watch, and then
  // stops reading must be disconnected once its buffered replies pass
  // max_outbound_bytes — it cannot wedge the loop or hold memory forever.
  ServerOptions options;
  options.sndbuf_bytes = 4096;          // shrink the kernel's share
  options.max_outbound_bytes = 32768;   // the policy under test
  TestServer server(options);

  // A reply far larger than everything the kernel+client can buffer with
  // a 4 KiB server send buffer: the label is echoed into the event and
  // row frames, so this submission's watch output cannot fit and MUST
  // strand >32 KiB in the server-side outbound buffer.
  net::TcpStream slow = net::TcpStream::connect("127.0.0.1", server.port());
  Fields submit{{"op", "submit"},
                {"deck", format_deck(tiny_deck(100))},
                {"threads", "1"},
                {"label", std::string(512 * 1024, 'x')}};
  slow.write_all(net::encode_frame(submit));
  std::string line;
  ASSERT_EQ(slow.read_line(line, 4u << 20), net::ReadStatus::kLine);
  const Fields accepted = net::decode_frame(line);
  ASSERT_EQ(accepted.at("ok"), "1");
  slow.write_all(net::encode_frame(
      Fields{{"op", "watch"}, {"id", accepted.at("id")}}));
  // ... and never read another byte.

  // Meanwhile a well-behaved client gets its result, bit-identical to an
  // in-process run of the same configuration.
  NeutralClient good = server.connect();
  SubmitRequest request;
  request.deck_text = format_deck(tiny_deck(400));
  request.threads = 1;
  const RemoteResult result = good.wait(good.submit(request));
  ASSERT_EQ(result.status, "ok") << result.error;
  SimulationConfig config;
  config.deck = tiny_deck(400);
  config.threads = 1;
  Simulation sim(config);
  EXPECT_EQ(result.rows[0].checksum, sim.run().tally_checksum);

  // The slow reader is gone within the bound: blank keep-alive lines
  // (skipped by the framing layer) start failing once the server has
  // closed the connection.
  bool disconnected = false;
  for (int i = 0; i < 160 && !disconnected; ++i) {
    try {
      slow.write_all("\n");
    } catch (const Error&) {
      disconnected = true;
    }
    if (!disconnected) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(disconnected) << "slow reader was never disconnected";
  const Fields metrics = good.metrics();
  EXPECT_GE(std::stoull(metrics.at("neutral_slow_reader_disconnects_total")),
            1ull);
  EXPECT_EQ(metrics.at("neutral_connections_open"), "1");  // slow one reaped
}

TEST(NetServer, MetricsOpReportsQueueCacheAndOutcomeSeries) {
  TestServer server;
  NeutralClient client = server.connect();

  // Before any work: cache series register with the engine's cache at
  // construction and read zero (queue/engine series appear on first run).
  const auto field_u64 = [](const Fields& fields, const std::string& name) {
    const auto it = fields.find(name);
    EXPECT_NE(it, fields.end()) << "missing metric field " << name;
    return it == fields.end() ? 0ull : std::stoull(it->second);
  };
  Fields before = client.metrics();
  EXPECT_EQ(before.at("ok"), "1");
  EXPECT_EQ(field_u64(before, "neutral_world_cache_misses_total"), 0u);

  SubmitRequest request;
  request.deck_text = format_deck(tiny_deck(200));
  request.threads = 1;
  ASSERT_EQ(client.wait(client.submit(request)).status, "ok");

  // After a completed submission every layer has moved: submissions,
  // queue, engine outcomes, per-event counters, world cache.
  Fields after = client.metrics();
  EXPECT_EQ(after.at("ok"), "1");
  EXPECT_EQ(field_u64(after, "neutral_submissions_total"), 1u);
  EXPECT_EQ(field_u64(after, "neutral_submissions_pending"), 0u);
  EXPECT_EQ(field_u64(after, "neutral_jobs_ok_total"), 1u);
  EXPECT_EQ(field_u64(after, "neutral_queue_pop_wait_seconds_count"), 1u);
  EXPECT_EQ(field_u64(after, "neutral_job_wall_seconds_count"), 1u);
  EXPECT_EQ(field_u64(after, "neutral_world_cache_misses_total"), 1u);
  EXPECT_EQ(field_u64(after, "neutral_world_cache_resident_worlds"), 1u);
  EXPECT_GT(field_u64(after, "neutral_events_collisions_total") +
                field_u64(after, "neutral_events_facets_total") +
                field_u64(after, "neutral_events_censuses_total"),
            0u);

  // A second identical submission hits the cache.
  ASSERT_EQ(client.wait(client.submit(request)).status, "ok");
  Fields cached = client.metrics();
  EXPECT_EQ(field_u64(cached, "neutral_world_cache_hits_total"), 1u);
  EXPECT_EQ(field_u64(cached, "neutral_jobs_ok_total"), 2u);
}

}  // namespace
}  // namespace neutral
