// perfbench_harness — the timed half of the repository benchmark.
//
// run.py generates every input from the workload seed, spawns neutrald,
// and checks and summarises what this binary prints.  The harness itself
// only calls the program's public functions and times each call from the
// outside; it prints one JSON object per line.
//
//   perfbench_harness solve --deck D --threads 4 --seconds 10
//       Repeat parse_deck -> build_world -> Simulation ctor -> run() on one
//       deck for at least --seconds, one "solve" line per solve.
//       --step-timing times each step() and summary() instead of run();
//       --profile turns on the §VI-A phase probes; --warmup N solves N
//       times first without reporting (first touch, thread-pool start).
//   perfbench_harness solve --list L --threads 1
//       Solve every deck path listed in L once (the reference solves).
//   perfbench_harness serve --port P --plan F --connections 4
//       Drive a running neutrald with the plan's paced and saturation
//       submissions, one "request" line per submission plus metrics
//       snapshots of the daemon around each phase.  Plan lines read
//       `paced|sat <due seconds> <deck file> [scheme layout]`, the deck
//       file named relative to the plan's directory.
//       --no-split times each submission as one span (no separate submit
//       and result times, no metrics snapshots): the untraced baseline.
//
// A final "process" line carries the host shape and the process's peak
// resident memory (VmHWM).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "core/world.h"
#include "io/deck_io.h"
#include "net/client.h"
#include "obs/json.h"
#include "perf/profiler.h"
#include "runtime/host_info.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

using namespace neutral;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One flat JSON object, built field by field.
class JsonLine {
 public:
  /// Non-finite values print as null, so run.py cannot mistake them for 0.
  JsonLine& num(const std::string& key, double v) {
    return raw(key, std::isfinite(v) ? obs::json_number(v) : "null");
  }
  JsonLine& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& num(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    out += obs::json_escape(s);
    out += '"';
    return out;
  }
  JsonLine& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

/// Line sink shared by worker threads.
class Output {
 public:
  explicit Output(const std::string& path) {
    if (!path.empty()) {
      file_ = std::fopen(path.c_str(), "w");
      NEUTRAL_REQUIRE(file_ != nullptr, "cannot open " + path);
    }
  }
  ~Output() {
    if (file_ != nullptr) std::fclose(file_);
  }
  Output(const Output&) = delete;
  Output& operator=(const Output&) = delete;

  void write(const JsonLine& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = file_ != nullptr ? file_ : stdout;
    std::fprintf(f, "%s\n", line.text().c_str());
    std::fflush(f);
  }

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  NEUTRAL_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::int64_t vmhwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

void write_process_line(Output& out) {
  const HostInfo host = probe_host();
  out.write(JsonLine()
                .str("kind", "process")
                .num("vmhwm_kb", vmhwm_kb())
                .num("logical_cpus", static_cast<std::int64_t>(host.logical_cpus))
                .num("openmp_max_threads",
                     static_cast<std::int64_t>(host.openmp_max_threads))
                .str("cpu_model", host.cpu_model));
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

struct SolveOptions {
  std::int32_t threads = 1;
  Scheme scheme = Scheme::kOverParticles;
  Layout layout = Layout::kAoS;
  bool step_timing = false;
  bool profile = false;
};

/// One full solve of `deck_text`, each public call timed separately.
JsonLine solve_once(const std::string& deck_text, const SolveOptions& opt) {
  const auto t0 = Clock::now();
  SimulationConfig config;
  config.deck = parse_deck(deck_text);
  const auto t1 = Clock::now();
  config.scheme = opt.scheme;
  config.layout = opt.layout;
  config.threads = opt.threads;
  config.profile = opt.profile;
  // The CLI's Over Events default: atomics hoisted into the tally loop.
  if (config.scheme == Scheme::kOverEvents) {
    config.tally_mode = TallyMode::kDeferredAtomic;
  }
  std::shared_ptr<const World> world = build_world(config.deck);
  const auto t2 = Clock::now();
  Simulation sim(config, world);
  const auto t3 = Clock::now();

  RunResult result;
  double step_s = 0.0;
  double summary_s = 0.0;
  if (opt.step_timing) {
    for (std::int32_t s = 0; s < config.deck.n_timesteps; ++s) {
      const auto a = Clock::now();
      (void)sim.step();
      step_s += seconds_between(a, Clock::now());
    }
    const auto a = Clock::now();
    result = sim.summary();
    summary_s = seconds_between(a, Clock::now());
  } else {
    const auto a = Clock::now();
    result = sim.run();
    step_s = seconds_between(a, Clock::now());
  }

  const EventCounters& c = result.counters;
  JsonLine line;
  line.str("kind", "solve")
      .num("parse_s", seconds_between(t0, t1))
      .num("build_world_s", seconds_between(t1, t2))
      .num("ctor_s", seconds_between(t2, t3))
      .num("run_s", step_s)
      .num("summary_s", summary_s)
      .num("threads", static_cast<std::int64_t>(opt.threads))
      .num("events", c.total_events())
      .num("facets", c.facets)
      .num("collisions", c.collisions)
      .num("censuses", c.censuses)
      .num("tally_flushes", c.tally_flushes)
      .num("xs_lookups", c.xs_lookups)
      .num("rng_draws", c.rng_draws)
      .num("population", result.population)
      .num("checksum", result.tally_checksum)
      .num("conservation_error", result.budget.conservation_error())
      .num("tally_consistency_error", result.budget.tally_consistency_error())
      .boolean("conserved", result.budget.conserved(1.0e-9))
      .num("tally_bytes", result.tally_footprint_bytes)
      .num("peak_mesh_bytes", result.peak_mesh_bytes)
      .num("peak_bank_bytes", result.peak_bank_bytes)
      .num("kernel_search_s", result.kernel_times.event_search)
      .num("kernel_collision_s", result.kernel_times.collisions)
      .num("kernel_facet_s", result.kernel_times.facets)
      .num("kernel_census_s", result.kernel_times.census)
      .num("kernel_tally_s", result.kernel_times.tally);
  if (opt.profile) {
    const double ghz = PhaseProfiler::tsc_ghz();
    const std::pair<const char*, Phase> phases[] = {
        {"event_search", Phase::kEventSearch},
        {"facet", Phase::kFacet},
        {"collision", Phase::kCollision},
        {"tally", Phase::kTally},
        {"census", Phase::kCensus}};
    for (const auto& [name, phase] : phases) {
      line.num(std::string("phase_") + name + "_ns",
               ghz > 0.0 ? result.phases.cycles_per_visit(phase) / ghz : 0.0);
    }
  }
  return line;
}

int cmd_solve(int argc, char** argv) {
  CliParser cli(argc, argv);
  const std::string deck = cli.option("deck", "", "deck file to solve repeatedly");
  const std::string list =
      cli.option("list", "", "file listing deck paths, each solved once");
  SolveOptions opt;
  opt.threads = static_cast<std::int32_t>(
      cli.option_int("threads", 1, "OpenMP threads per solve"));
  opt.scheme = scheme_from_string(
      cli.option("scheme", "particles", "particles|events"));
  opt.layout = layout_from_string(cli.option("layout", "aos", "aos|soa"));
  opt.step_timing =
      cli.flag("step-timing", "time step() and summary() instead of run()");
  opt.profile = cli.flag("profile", "enable the §VI-A phase probes");
  const double seconds =
      cli.option_double("seconds", 0.0, "keep solving at least this long");
  const long min_solves = cli.option_int("min-solves", 1, "solve at least N times");
  const long max_solves =
      cli.option_int("max-solves", 0, "solve at most N times (0 = no cap)");
  const long warmup = cli.option_int("warmup", 0, "unreported solves first");
  const std::string out_path = cli.option("out", "", "JSONL output (default stdout)");
  if (!cli.finish()) return 0;
  NEUTRAL_REQUIRE(deck.empty() != list.empty(), "give exactly one of --deck / --list");
  NEUTRAL_REQUIRE(opt.threads >= 1, "--threads must be >= 1");

  Output out(out_path);
  if (!list.empty()) {
    std::istringstream paths(read_file(list));
    std::string path;
    while (std::getline(paths, path)) {
      if (path.empty()) continue;
      JsonLine line = solve_once(read_file(path), opt);
      out.write(line.str("deck", path));
    }
  } else {
    const std::string text = read_file(deck);
    for (long n = 0; n < warmup; ++n) (void)solve_once(text, opt);
    const auto start = Clock::now();
    for (long n = 0;; ++n) {
      const bool enough = n >= min_solves &&
                          seconds_between(start, Clock::now()) >= seconds;
      if (enough || (max_solves > 0 && n >= max_solves)) break;
      out.write(solve_once(text, opt).str("deck", deck));
    }
  }
  write_process_line(out);
  return 0;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct PlannedRequest {
  std::string phase;    ///< "paced" | "sat"
  double due_s = 0.0;   ///< paced: offset from the phase start
  std::string deck_path;
  std::string deck_text;
  std::string scheme, layout;  ///< empty = the daemon's defaults
};

struct Plan {
  std::vector<PlannedRequest> paced;
  std::vector<PlannedRequest> saturation;
};

Plan load_plan(const std::string& path) {
  Plan plan;
  // Deck names are relative to the plan's directory, so a checkout path
  // with spaces in it cannot split a plan line.
  const std::string dir = path.substr(0, path.find_last_of('/') + 1);
  std::istringstream lines(read_file(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    PlannedRequest r;
    fields >> r.phase >> r.due_s >> r.deck_path;
    NEUTRAL_REQUIRE(!fields.fail(), "bad plan line: " + line);
    fields >> r.scheme >> r.layout;
    r.deck_path = dir + r.deck_path;
    r.deck_text = read_file(r.deck_path);
    if (r.phase == "paced") {
      plan.paced.push_back(std::move(r));
    } else if (r.phase == "sat") {
      plan.saturation.push_back(std::move(r));
    } else {
      throw Error("bad plan phase: " + r.phase);
    }
  }
  return plan;
}

JsonLine metrics_line(net::NeutralClient& client, const std::string& when) {
  JsonLine line;
  line.str("kind", "metrics").str("when", when);
  for (const auto& [key, value] : client.metrics()) {
    if (key.rfind("neutral_", 0) == 0) line.str(key, value);
  }
  return line;
}

/// Run one phase over `requests` with one client per connection.  Paced
/// requests wait for their due time (open loop: a busy connection makes
/// the next request late, and its latency counts from when it was due);
/// saturation requests go out as soon as a connection is free.
void run_phase(std::vector<std::unique_ptr<net::NeutralClient>>& clients,
               const std::vector<PlannedRequest>& requests, bool paced,
               bool split, Output& out) {
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  auto worker = [&](net::NeutralClient& client) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      const PlannedRequest& r = requests[i];
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(paced ? r.due_s : 0.0));
      if (paced) std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      JsonLine line;
      line.str("kind", "request")
          .str("phase", r.phase)
          .num("index", static_cast<std::int64_t>(i))
          .str("deck", r.deck_path)
          .num("due_s", seconds_between(start, due))
          .num("lag_s", paced ? seconds_between(due, sent) : 0.0);
      try {
        net::SubmitRequest req;
        req.deck_text = r.deck_text;
        req.scheme = r.scheme;
        req.layout = r.layout;
        const std::uint64_t id = client.submit(req);
        const auto acked = split ? Clock::now() : sent;
        const net::RemoteResult result = client.wait(id);
        const auto done = Clock::now();
        if (split) {
          line.num("submit_s", seconds_between(sent, acked))
              .num("result_s", seconds_between(acked, done));
        }
        line.num("latency_s", seconds_between(paced ? due : sent, done))
            .num("done_s", seconds_between(start, done))
            .str("status", result.status)
            .str("error", result.error)
            .num("rows", static_cast<std::int64_t>(result.rows.size()));
        if (!result.rows.empty()) {
          const net::RemoteRow& row = result.rows.front();
          line.str("row_status", row.status)
              .num("events", row.events)
              .num("job_s", row.seconds)
              .num("checksum", row.checksum)
              .num("population", row.population);
        }
      } catch (const std::exception& e) {
        line.num("done_s", seconds_between(start, Clock::now()))
            .str("status", "error")
            .str("error", e.what());
      }
      out.write(line);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (auto& client : clients) threads.emplace_back(worker, std::ref(*client));
  for (std::thread& t : threads) t.join();
  out.write(JsonLine()
                .str("kind", "phase")
                .str("phase", paced ? "paced" : "sat")
                .num("requests", static_cast<std::int64_t>(requests.size()))
                .num("wall_s", seconds_between(start, Clock::now())));
}

int cmd_serve(int argc, char** argv) {
  CliParser cli(argc, argv);
  const std::string host = cli.option("host", "127.0.0.1", "daemon address");
  const long port = cli.option_int("port", 0, "daemon port");
  const std::string plan_path = cli.option("plan", "", "request plan file");
  const long connections =
      cli.option_int("connections", 4, "client connections (one thread each)");
  const bool split = !cli.flag(
      "no-split", "one span per submission, no metrics snapshots");
  const std::string out_path = cli.option("out", "", "JSONL output (default stdout)");
  if (!cli.finish()) return 0;
  NEUTRAL_REQUIRE(port > 0 && port <= 65535, "--port must be 1..65535");
  NEUTRAL_REQUIRE(connections >= 1, "--connections must be >= 1");

  const Plan plan = load_plan(plan_path);
  Output out(out_path);
  std::vector<std::unique_ptr<net::NeutralClient>> clients;
  for (long i = 0; i < connections; ++i) {
    clients.push_back(std::make_unique<net::NeutralClient>(
        host, static_cast<std::uint16_t>(port)));
  }
  net::NeutralClient& probe = *clients.front();
  if (split) out.write(metrics_line(probe, "start"));
  if (!plan.paced.empty()) {
    run_phase(clients, plan.paced, true, split, out);
    if (split) out.write(metrics_line(probe, "paced"));
  }
  if (!plan.saturation.empty()) {
    run_phase(clients, plan.saturation, false, split, out);
    if (split) out.write(metrics_line(probe, "sat"));
  }
  write_process_line(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "solve") return cmd_solve(argc - 1, argv + 1);
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
    std::fprintf(stderr, "usage: perfbench_harness solve|serve [options]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
