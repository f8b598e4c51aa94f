// Tests for the observability layer (src/obs/): metrics primitives under
// real concurrency, the JSON writer/parser pair, trace-log lines, the
// Prometheus exporter over a real loopback socket, the bench-record schema
// check, and the no-perturbation contract — profiling a golden deck must
// not move its checksum by a single bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "io/deck_io.h"
#include "net/socket.h"
#include "obs/bench_record.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/profiler.h"
#include "util/error.h"

namespace neutral {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(Counter, ConcurrentIncrementsAreExact) {
  // The headline contract: N threads x M increments == N*M, no lost
  // updates across the padded shards.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  Counter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, AddN) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add(3);
  counter.add();
  EXPECT_EQ(counter.value(), 4u);
}

TEST(Gauge, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.set(42);
  gauge.add(-2);
  EXPECT_EQ(gauge.value(), 40);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  // bounds = 1, 2, 4 (+Inf overflow).  A value exactly on a bound bins
  // into that bucket (Prometheus `le` semantics).
  Histogram hist(Histogram::Options{1.0, 3});
  ASSERT_EQ(hist.bounds(), (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(hist.bucket_of(0.5), 0u);
  EXPECT_EQ(hist.bucket_of(1.0), 0u);
  EXPECT_EQ(hist.bucket_of(1.001), 1u);
  EXPECT_EQ(hist.bucket_of(2.0), 1u);
  EXPECT_EQ(hist.bucket_of(4.0), 2u);
  EXPECT_EQ(hist.bucket_of(4.001), 3u);  // +Inf

  hist.observe(0.5);
  hist.observe(1.0);
  hist.observe(2.0);
  hist.observe(4.0);
  hist.observe(100.0);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 107.5);
  EXPECT_EQ(hist.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram hist(Histogram::Options{1.0, 4});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(static_cast<double>(i % 8));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t in_buckets = 0;
  for (const std::uint64_t b : hist.bucket_counts()) in_buckets += b;
  EXPECT_EQ(in_buckets, hist.count());
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, LookupIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.counter("neutral_test_total", "help text");
  Counter& b = registry.counter("neutral_test_total");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.gauge("neutral_test_gauge");
  Gauge& g2 = registry.gauge("neutral_test_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.histogram("neutral_test_seconds");
  Histogram& h2 = registry.histogram("neutral_test_seconds");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("neutral_test_total");
  EXPECT_THROW(registry.gauge("neutral_test_total"), Error);
  EXPECT_THROW(registry.histogram("neutral_test_total"), Error);
}

TEST(MetricsRegistry, SnapshotUnderLoadNeverTears) {
  // Writers hammer a counter and a histogram while the main thread
  // snapshots: every snapshot must be internally sane (counter monotone,
  // bucket total never exceeding the committed observation count's final
  // value) — ASan/TSan-class failures surface as crashes under the
  // sanitizer CI job.
  MetricsRegistry registry;
  Counter& counter = registry.counter("neutral_load_total");
  Histogram& hist = registry.histogram("neutral_load_seconds");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.observe(1e-4 * static_cast<double>(i % 1000));
      }
    });
  }
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  std::uint64_t last_count = 0;
  for (int s = 0; s < 200; ++s) {
    const MetricsSnapshot snap = registry.snapshot();
    const obs::MetricValue* c = snap.find("neutral_load_total");
    ASSERT_NE(c, nullptr);
    EXPECT_GE(c->counter, last_count);  // monotone across snapshots
    EXPECT_LE(c->counter, kTotal);
    last_count = c->counter;
    const obs::MetricValue* h = snap.find("neutral_load_seconds");
    ASSERT_NE(h, nullptr);
    EXPECT_LE(h->histogram.count, kTotal);
    std::uint64_t in_buckets = 0;
    for (const std::uint64_t b : h->histogram.buckets) in_buckets += b;
    EXPECT_LE(in_buckets, kTotal);
  }
  for (auto& thread : threads) thread.join();
  const MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_EQ(final_snap.find("neutral_load_total")->counter, kTotal);
  EXPECT_EQ(final_snap.find("neutral_load_seconds")->histogram.count, kTotal);
}

TEST(MetricsSnapshot, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("neutral_jobs_total", "jobs run").add(3);
  registry.gauge("neutral_depth", "queue depth").set(-2);
  Histogram& hist =
      registry.histogram("neutral_wait_seconds", "waits",
                         Histogram::Options{1.0, 2});  // bounds 1, 2
  hist.observe(0.5);
  hist.observe(1.5);
  hist.observe(10.0);
  const std::string text = registry.snapshot().prometheus_text();
  EXPECT_NE(text.find("# HELP neutral_jobs_total jobs run"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE neutral_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("neutral_jobs_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE neutral_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("neutral_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE neutral_wait_seconds histogram"),
            std::string::npos);
  // Cumulative `le` buckets: 1 at le="1", 2 at le="2", 3 at +Inf.
  EXPECT_NE(text.find("neutral_wait_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("neutral_wait_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("neutral_wait_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("neutral_wait_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("neutral_wait_seconds_sum 12"), std::string::npos);
}

TEST(MetricsSnapshot, FlatRendering) {
  MetricsRegistry registry;
  registry.counter("neutral_a_total").add(7);
  registry.gauge("neutral_b").set(9);
  registry.histogram("neutral_c_seconds").observe(2.0);
  const auto flat = registry.snapshot().flat();
  const auto get = [&flat](const std::string& name) -> std::string {
    for (const auto& [key, value] : flat) {
      if (key == name) return value;
    }
    return "<missing>";
  };
  EXPECT_EQ(get("neutral_a_total"), "7");
  EXPECT_EQ(get("neutral_b"), "9");
  EXPECT_EQ(get("neutral_c_seconds_count"), "1");
  EXPECT_EQ(get("neutral_c_seconds_sum"), "2");
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, EscapeAndNumber) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(0.0), "0");
}

TEST(Json, ParseRoundTrip) {
  const obs::JsonValue doc = obs::parse_json(
      R"({"s":"aA\nb","n":-1.5e2,"t":true,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})");
  ASSERT_TRUE(doc.is(obs::JsonValue::Type::kObject));
  EXPECT_EQ(doc.find("s")->string, "aA\nb");
  EXPECT_DOUBLE_EQ(doc.find("n")->number, -150.0);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_TRUE(doc.find("z")->is(obs::JsonValue::Type::kNull));
  ASSERT_EQ(doc.find("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("arr")->array[2].number, 3.0);
  EXPECT_EQ(doc.find("obj")->find("k")->string, "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, MalformedInputThrowsWithPosition) {
  EXPECT_THROW(obs::parse_json("{"), Error);
  EXPECT_THROW(obs::parse_json("[1,]"), Error);
  EXPECT_THROW(obs::parse_json("{} trailing"), Error);
  try {
    obs::parse_json("{\"a\": nope}");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// TraceLog
// ---------------------------------------------------------------------------

TEST(TraceLog, LinesAreSelfContainedJson) {
  const std::string path = "test_obs_trace.jsonl";
  {
    obs::TraceLog trace(path);
    obs::TraceEvent submitted;
    submitted.event = "submitted";
    submitted.job_id = 7;
    submitted.label = "deck \"a\"";
    trace.record(submitted);
    obs::TraceEvent completed;
    completed.event = "completed";
    completed.job_id = 7;
    completed.group = 2;
    completed.worker = 3;
    completed.queue_wait_s = 0.25;
    completed.run_wall_s = 1.5;
    trace.record(completed);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<obs::JsonValue> lines;
  while (std::getline(in, line)) lines.push_back(obs::parse_json(line));
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);

  EXPECT_EQ(lines[0].find("event")->string, "submitted");
  EXPECT_DOUBLE_EQ(lines[0].find("job")->number, 7.0);
  EXPECT_EQ(lines[0].find("label")->string, "deck \"a\"");
  // Unset fields are omitted, not emitted as sentinels.
  EXPECT_EQ(lines[0].find("worker"), nullptr);
  EXPECT_EQ(lines[0].find("queue_wait_s"), nullptr);
  ASSERT_NE(lines[0].find("ts_ns"), nullptr);

  EXPECT_EQ(lines[1].find("event")->string, "completed");
  EXPECT_DOUBLE_EQ(lines[1].find("group")->number, 2.0);
  EXPECT_DOUBLE_EQ(lines[1].find("worker")->number, 3.0);
  EXPECT_DOUBLE_EQ(lines[1].find("queue_wait_s")->number, 0.25);
  EXPECT_DOUBLE_EQ(lines[1].find("run_wall_s")->number, 1.5);
  // Timestamps are monotonic within one log.
  EXPECT_GE(lines[1].find("ts_ns")->number, lines[0].find("ts_ns")->number);
}

// ---------------------------------------------------------------------------
// MetricsExporter (real loopback HTTP)
// ---------------------------------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& request) {
  net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port);
  stream.set_read_timeout(std::chrono::milliseconds(5000));
  stream.write_all(request);
  std::string response;
  std::string line;
  while (stream.read_line(line, 1u << 20) == net::ReadStatus::kLine) {
    response += line;
    response += "\n";
  }
  return response;
}

TEST(MetricsExporter, ServesPrometheusTextOverHttp) {
  MetricsRegistry registry;
  registry.counter("neutral_scraped_total", "scrapes").add(5);
  obs::MetricsExporter exporter(&registry, "127.0.0.1", 0);
  const std::uint16_t port = exporter.start();
  ASSERT_GT(port, 0);

  const std::string ok =
      http_get(port, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("neutral_scraped_total 5"), std::string::npos);

  const std::string missing =
      http_get(port, "GET /bogus HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string wrong_method =
      http_get(port, "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(wrong_method.find("405"), std::string::npos);

  exporter.stop();
  exporter.stop();  // idempotent
}

TEST(MetricsExporter, OversizedRequestsGet413And431NotUnboundedReads) {
  // Regression for the unbounded-read bug: a request line or header block
  // longer than the 8 KiB cap used to be buffered without limit.  Now the
  // request line answers 413 and the header block 431, and the exporter
  // keeps serving afterwards.
  MetricsRegistry registry;
  registry.counter("neutral_scraped_total", "scrapes").add(1);
  obs::MetricsExporter exporter(&registry, "127.0.0.1", 0);
  const std::uint16_t port = exporter.start();

  // The server answers and then closes with part of our oversized request
  // still unread, which surfaces client-side as a reset once the status
  // line is through — keep whatever arrived before the reset.
  const auto lossy_get = [port](const std::string& request) {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", port);
    stream.set_read_timeout(std::chrono::milliseconds(5000));
    std::string response;
    try {
      stream.write_all(request);
      std::string line;
      while (stream.read_line(line, 1u << 20) == net::ReadStatus::kLine) {
        response += line;
        response += "\n";
      }
    } catch (const Error&) {
    }
    return response;
  };

  const std::string long_line =
      "GET /" + std::string(16 * 1024, 'a') + " HTTP/1.0\r\n\r\n";
  const std::string too_long = lossy_get(long_line);
  EXPECT_NE(too_long.find("413 Payload Too Large"), std::string::npos);

  const std::string big_header =
      "GET /metrics HTTP/1.0\r\nX-Junk: " + std::string(16 * 1024, 'b') +
      "\r\n\r\n";
  const std::string oversized_header = lossy_get(big_header);
  EXPECT_NE(oversized_header.find("431 Request Header Fields Too Large"),
            std::string::npos);

  std::string many_headers = "GET /metrics HTTP/1.0\r\n";
  for (int i = 0; i < 200; ++i) {
    many_headers += "X-H" + std::to_string(i) + ": v\r\n";
  }
  many_headers += "\r\n";
  const std::string endless = lossy_get(many_headers);
  EXPECT_NE(endless.find("431 Request Header Fields Too Large"),
            std::string::npos);

  // None of that wedged the exporter: a clean scrape still works.
  const std::string ok =
      http_get(port, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("neutral_scraped_total 1"), std::string::npos);
  exporter.stop();
}

// ---------------------------------------------------------------------------
// Bench record schema
// ---------------------------------------------------------------------------

obs::BenchDocument sample_document() {
  obs::BenchDocument doc;
  doc.cpu_model = "test cpu";
  doc.logical_cpus = 4;
  doc.openmp_max_threads = 4;
  doc.repeats = 2;
  obs::BenchResult result;
  result.deck = "golden_csp";
  result.scheme = "particles";
  result.layout = "aos";
  result.threads = 1;
  result.tally = "atomic";
  result.schedule = "static";
  result.particles = 400;
  result.timesteps = 2;
  result.events = 12345;
  result.seconds = 0.5;
  result.events_per_second = 24690.0;
  result.checksum = -3.25;
  result.population = 100;
  result.peak_mesh_bytes = 1 << 20;
  result.peak_bank_bytes = 1 << 16;
  result.tally_bytes = 1 << 12;
  result.scaling_eff = 1.0;
  obs::BenchPhase phase;
  phase.phase = "collision";
  phase.ns_per_event = 18.0;
  phase.fraction = 0.5;
  result.phases.push_back(phase);
  doc.results.push_back(result);
  return doc;
}

TEST(BenchRecord, GeneratedDocumentValidates) {
  const std::string json = sample_document().to_json();
  const std::vector<std::string> problems =
      obs::validate_bench_record(json);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  // And the emitted values survive the round trip.
  const obs::JsonValue doc = obs::parse_json(json);
  EXPECT_DOUBLE_EQ(
      doc.find("results")->array[0].find("checksum")->number, -3.25);
  EXPECT_EQ(doc.find("schema")->string, obs::kBenchTransportSchema);
}

TEST(BenchRecord, CorruptionIsDetected) {
  EXPECT_FALSE(obs::validate_bench_record("not json at all").empty());

  obs::BenchDocument wrong_schema = sample_document();
  wrong_schema.schema = "something/else";
  EXPECT_FALSE(obs::validate_bench_record(wrong_schema.to_json()).empty());

  obs::BenchDocument no_results = sample_document();
  no_results.results.clear();
  EXPECT_FALSE(obs::validate_bench_record(no_results.to_json()).empty());

  obs::BenchDocument bad_phase = sample_document();
  bad_phase.results[0].phases[0].phase.clear();
  EXPECT_FALSE(obs::validate_bench_record(bad_phase.to_json()).empty());

  // Field deletion at the text level (a truncated artifact).
  std::string json = sample_document().to_json();
  const std::string needle = "\"events_per_second\":";
  const std::size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, needle.size(), "\"events_per_sec\":");
  EXPECT_FALSE(obs::validate_bench_record(json).empty());
}

TEST(BenchRecord, RowsWithoutTheStudyAxesAreRejected) {
  const std::string json = sample_document().to_json();
  for (const char* key : {"threads", "tally", "schedule"}) {
    std::string missing = json;
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = missing.find(needle);
    ASSERT_NE(at, std::string::npos) << key;
    missing.replace(at, needle.size(), "\"renamed\":");
    EXPECT_FALSE(obs::validate_bench_record(missing).empty()) << key;
  }
  obs::BenchDocument no_threads = sample_document();
  no_threads.results[0].threads = 0;
  EXPECT_FALSE(obs::validate_bench_record(no_threads.to_json()).empty());
}

TEST(BenchRecord, OlderSchemasAreRejected) {
  for (const int version : {1, 2}) {
    obs::BenchDocument old = sample_document();
    old.schema = "neutral.bench_transport/v" + std::to_string(version);
    EXPECT_FALSE(obs::validate_bench_record(old.to_json()).empty())
        << old.schema;
  }
}

TEST(BenchRecord, RowsThatDisagreeOnPhysicsAreRejected) {
  // A second layout and a 4-thread row of the same deck: consistent as
  // generated, then broken one invariant at a time.
  obs::BenchDocument doc = sample_document();
  obs::BenchResult soa = doc.results[0];
  soa.layout = "soa";
  obs::BenchResult threaded = doc.results[0];
  threaded.threads = 4;
  doc.results.push_back(soa);
  doc.results.push_back(threaded);
  EXPECT_TRUE(doc.consistency_problems().empty());
  EXPECT_TRUE(obs::validate_bench_record(doc.to_json()).empty());

  obs::BenchDocument layout_drift = doc;
  layout_drift.results[1].checksum *= 1.0 + 1e-15;  // not bit-identical
  EXPECT_FALSE(obs::validate_bench_record(layout_drift.to_json()).empty());

  obs::BenchDocument thread_drift = doc;
  thread_drift.results[2].checksum *= 1.0 + 1e-15;  // exact at any team
  EXPECT_FALSE(obs::validate_bench_record(thread_drift.to_json()).empty());

  obs::BenchDocument event_drift = doc;
  event_drift.results[2].events += 1;
  EXPECT_FALSE(obs::validate_bench_record(event_drift.to_json()).empty());

  obs::BenchDocument no_reference = doc;
  no_reference.results.erase(no_reference.results.begin());
  EXPECT_FALSE(obs::validate_bench_record(no_reference.to_json()).empty());
}

// ---------------------------------------------------------------------------
// Profiler satellite: portable cycle source + grind table
// ---------------------------------------------------------------------------

TEST(Profiler, PortableCycleSourceAdvances) {
  const std::uint64_t a = read_cycles_portable();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t b = read_cycles_portable();
  EXPECT_GT(b, a);
}

TEST(Profiler, GrindTableFormatsReport) {
  PhaseProfiler::Report empty;
  EXPECT_NE(format_grind_table(empty, 2.0).find("no phase probes"),
            std::string::npos);

  PhaseProfiler profiler(2);
  profiler.add(0, Phase::kCollision, 3600);
  profiler.add(0, Phase::kCollision, 3600);
  profiler.add(1, Phase::kFacet, 600);
  const std::string table = format_grind_table(profiler.report(), 2.0);
  EXPECT_NE(table.find("§VI-A"), std::string::npos);
  EXPECT_NE(table.find("collision"), std::string::npos);
  EXPECT_NE(table.find("facet"), std::string::npos);
  // 3600 cycles/visit at 2 GHz = 1800 ns/visit.
  EXPECT_NE(table.find("1800.0"), std::string::npos);
  // Zero-visit phases are skipped.
  EXPECT_EQ(table.find("census"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The no-perturbation contract
// ---------------------------------------------------------------------------

TEST(Profiler, ProfilingNeverMovesGoldenChecksums) {
  // Acceptance criterion: with profiling enabled, golden-deck checksums
  // stay bit-identical — probes read the TSC and nothing else.
  SimulationConfig config;
  config.deck = load_deck(std::string(NEUTRAL_GOLDEN_DIR) +
                          "/golden_csp.params");
  config.threads = 1;

  config.profile = false;
  Simulation plain(config);
  const RunResult baseline = plain.run();
  EXPECT_EQ(baseline.phases.total_visits(), 0u);

  config.profile = true;
  Simulation profiled(config);
  const RunResult observed = profiled.run();

  EXPECT_EQ(baseline.tally_checksum, observed.tally_checksum);
  EXPECT_EQ(baseline.population, observed.population);
  EXPECT_EQ(baseline.counters.total_events(),
            observed.counters.total_events());
  // And the profiled run actually collected phase data.
  EXPECT_GT(observed.phases.total_visits(), 0u);
}

}  // namespace
}  // namespace neutral
