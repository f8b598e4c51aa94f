// `neutrald` — the batch engine served over TCP.
//
// Runs the NeutralServer (src/net/server.h): clients connect, submit decks
// or sweep specs (optionally domain-decomposed), stream
// completion events, and fetch bit-identical results — all against ONE
// shared engine and world cache, so repeated geometries build once no
// matter which connection sends them.
//
//   $ neutrald --port 4817                      # serve on 127.0.0.1:4817
//   $ neutrald --port 0 --quiet                 # ephemeral port, no logs
//   $ neutrald --max-run-wall-ms 60000
//              --max-queue-wait-ms 10000    (one command; serving deadlines)
//   $ neutral_batch --connect 127.0.0.1:4817    # run a sweep against it
//
// The deadline flags are what make the daemon safe to leave running: a job
// that exceeds --max-run-wall-ms completes as `timed_out` (cancelling its
// fork-join group) instead of holding a worker forever, and a job that
// waits past --max-queue-wait-ms — counted from the daemon accepting its
// submission, so time spent behind earlier submissions counts — is
// answered `timed_out` without running.
// A clean stop is a client `shutdown` op (the daemon drains and exits 0).
#include <cstdio>
#include <string>

#include "net/server.h"
#include "runtime/host_info.h"
#include "util/cli.h"
#include "util/error.h"

int main(int argc, char** argv) {
  using namespace neutral;
  try {
    CliParser cli(argc, argv);
    net::ServerOptions options;
    options.host = cli.option("host", "127.0.0.1",
                              "interface to bind (default loopback)");
    const long port_raw =
        cli.option_int("port", 4817, "TCP port (0 = ephemeral)");
    options.engine.workers = static_cast<std::int32_t>(
        cli.option_int("workers", 0, "engine worker threads (0 = auto)"));
    options.engine.threads_per_job = static_cast<std::int32_t>(cli.option_int(
        "threads-per-job", 0,
        "OpenMP threads per job (0 = auto: one logical cpu is left to the "
        "event loop)"));
    const long queue_wait_ms = cli.option_int(
        "max-queue-wait-ms", 0,
        "max time from the daemon accepting a submission until a worker "
        "starts each of its jobs (earlier submissions' run time counts); a "
        "job past it completes as timed_out unrun (0 = unbounded)");
    const long run_wall_ms = cli.option_int(
        "max-run-wall-ms", 0,
        "max running wall clock per job before it completes as "
        "timed_out (0 = unbounded)");
    const auto cache_mb = cli.option_int(
        "cache-mb", 0, "world cache byte budget in MiB (0 = unbounded)");
    options.max_pending_submissions = static_cast<std::size_t>(cli.option_int(
        "max-pending", 64, "refuse submits beyond this many in flight"));
    options.max_retained_results = static_cast<std::size_t>(cli.option_int(
        "max-retained", 256, "finished submissions kept queryable"));
    const long max_connections = cli.option_int(
        "max-connections", 1024,
        "refuse TCP connections beyond this many open at once");
    const long max_inflight = cli.option_int(
        "max-inflight", 16,
        "refuse a connection's submits beyond this many of its submissions "
        "queued or running");
    const long metrics_port_raw = cli.option_int(
        "metrics-port", 0,
        "serve Prometheus text exposition over plain HTTP on this port "
        "(GET /metrics; 0 = disabled — the `metrics` frame op always works)");
    options.trace_path = cli.option(
        "trace-log", "",
        "append one JSON line per job lifecycle event here (src/obs/trace.h)");
    options.verbose = !cli.flag("quiet", "suppress per-request log lines");
    if (!cli.finish()) return 0;
    // Validate flags at startup: a daemon that limps along failing every
    // submission is worse than one that refuses to start.
    NEUTRAL_REQUIRE(port_raw >= 0 && port_raw <= 65535,
                    "--port must be 0..65535");
    NEUTRAL_REQUIRE(metrics_port_raw >= 0 && metrics_port_raw <= 65535,
                    "--metrics-port must be 0..65535");
    options.metrics_port = static_cast<std::uint16_t>(metrics_port_raw);
    NEUTRAL_REQUIRE(queue_wait_ms >= 0 && run_wall_ms >= 0,
                    "--max-queue-wait-ms / --max-run-wall-ms must be >= 0");
    NEUTRAL_REQUIRE(max_connections > 0, "--max-connections must be > 0");
    NEUTRAL_REQUIRE(max_inflight > 0, "--max-inflight must be > 0");
    options.port = static_cast<std::uint16_t>(port_raw);
    options.engine.policy.max_queue_wait =
        std::chrono::milliseconds(queue_wait_ms);
    options.engine.policy.max_run_wall =
        std::chrono::milliseconds(run_wall_ms);
    options.max_connections = static_cast<std::size_t>(max_connections);
    options.max_inflight_per_connection =
        static_cast<std::size_t>(max_inflight);
    options.engine.cache.max_bytes =
        static_cast<std::uint64_t>(cache_mb > 0 ? cache_mb : 0) << 20;

    net::NeutralServer server(options);
    const std::uint16_t port = server.start();
    // The "listening" line always prints (even with --quiet) and is
    // flushed: scripts and CI wait for it to know the port is live.
    std::printf("neutrald listening on %s:%u (%s)\n", options.host.c_str(),
                static_cast<unsigned>(port), host_banner().c_str());
    std::fflush(stdout);
    server.serve();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neutrald: %s\n", e.what());
    return 2;
  }
}
