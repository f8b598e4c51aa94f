#include "batch/domain.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "core/init.h"
#include "obs/trace.h"
#include "runtime/timer.h"
#include "util/error.h"

namespace neutral::batch {

namespace {

/// Split `cells` into `parts` contiguous extents, remainder leading.
std::vector<std::int32_t> split_axis(std::int32_t cells, std::int32_t parts) {
  std::vector<std::int32_t> starts;
  starts.reserve(static_cast<std::size_t>(parts) + 1);
  const std::int32_t base = cells / parts;
  const std::int32_t remainder = cells % parts;
  std::int32_t at = 0;
  for (std::int32_t p = 0; p < parts; ++p) {
    starts.push_back(at);
    at += base + (p < remainder ? 1 : 0);
  }
  starts.push_back(cells);
  return starts;
}

std::int32_t find_extent(const std::vector<std::int32_t>& starts,
                         std::int32_t v) {
  // starts is sorted; the owning extent is the last start <= v.
  const auto it = std::upper_bound(starts.begin(), starts.end(), v);
  return static_cast<std::int32_t>(it - starts.begin()) - 1;
}

/// The config every partial solve runs with (DomainRunReport::config):
/// `base`, pinned to `threads`.
SimulationConfig part_config(SimulationConfig base, std::int32_t threads) {
  base.threads = threads;
  return base;
}

/// Merge the subdomains' results into one: extensive sums via
/// RunResult::operator+= (which max-merges peak_mesh_bytes, so the merged
/// result reports the largest slab: the per-node memory bound), then copy
/// the disjoint integer tally slabs into the full nx x ny grid and read
/// checksum and tally total off it.  Each cell lives in exactly one slab,
/// so its words are the undecomposed run's.
RunResult stitch(const std::vector<std::unique_ptr<Simulation>>& sims,
                 std::int32_t nx, std::int32_t ny) {
  TallyImage stitched;
  stitched.cells.resize(static_cast<std::size_t>(nx) *
                        static_cast<std::size_t>(ny));
  RunResult merged;
  for (const auto& sim : sims) {
    const RunResult part = sim->summary();
    NEUTRAL_REQUIRE(part.tally != nullptr,
                    "subdomain result must carry a tally image");
    merged += part;
    stitched.quantum = part.tally->quantum;
    const DomainWindow& w = sim->window();
    for (std::int32_t j = 0; j < w.ny; ++j) {
      const auto src = static_cast<std::ptrdiff_t>(j) * w.nx;
      const auto dst = static_cast<std::ptrdiff_t>(w.y0 + j) * nx + w.x0;
      std::copy_n(part.tally->cells.begin() + src, w.nx,
                  stitched.cells.begin() + dst);
    }
  }
  merged.tally_checksum = stitched.checksum();
  merged.budget.tally_total = stitched.total();
  merged.tally = std::make_shared<const TallyImage>(std::move(stitched));
  return merged;
}

}  // namespace

DomainWindow DomainGrid::window(std::int32_t r, std::int32_t c) const {
  return DomainWindow{col_start[static_cast<std::size_t>(c)],
                      row_start[static_cast<std::size_t>(r)],
                      col_start[static_cast<std::size_t>(c) + 1] -
                          col_start[static_cast<std::size_t>(c)],
                      row_start[static_cast<std::size_t>(r) + 1] -
                          row_start[static_cast<std::size_t>(r)]};
}

std::size_t DomainGrid::owner(CellIndex cell) const {
  const std::int32_t r = find_extent(row_start, cell.y);
  const std::int32_t c = find_extent(col_start, cell.x);
  return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
         static_cast<std::size_t>(c);
}

DomainGrid plan_domains(std::int32_t nx, std::int32_t ny, std::int32_t rows,
                        std::int32_t cols) {
  NEUTRAL_REQUIRE(nx >= 1 && ny >= 1, "cannot tile an empty mesh");
  NEUTRAL_REQUIRE(rows >= 1 && cols >= 1,
                  "domain grid must have at least one row and column");
  DomainGrid grid;
  grid.rows = std::min(rows, ny);
  grid.cols = std::min(cols, nx);
  grid.row_start = split_axis(ny, grid.rows);
  grid.col_start = split_axis(nx, grid.cols);
  return grid;
}

std::pair<std::int32_t, std::int32_t> parse_domain_grid(
    const std::string& spec) {
  const auto x = spec.find('x');
  bool ok = x != std::string::npos && x > 0 && x + 1 < spec.size();
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  if (ok) {
    try {
      std::size_t used = 0;
      rows = std::stoi(spec, &used);
      ok = used == x;
      std::size_t used2 = 0;
      cols = std::stoi(spec.substr(x + 1), &used2);
      ok = ok && x + 1 + used2 == spec.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  NEUTRAL_REQUIRE(ok && rows >= 1 && cols >= 1,
                  "bad domain grid '" + spec + "' (expected RxC, e.g. 2x2)");
  return {rows, cols};
}

DomainRunReport run_domains(BatchEngine& engine, const Job& job,
                            const DomainOptions& opt) {
  const SimulationConfig& base = job.config;
  NEUTRAL_REQUIRE(!base.window.active(),
                  "cannot domain-decompose a config that already has a "
                  "window");
  WallTimer wall;
  DomainRunReport report;
  report.grid = plan_domains(base.deck.nx, base.deck.ny, opt.rows, opt.cols);
  const std::size_t n = report.grid.count();
  report.config = part_config(
      base, base.threads > 0 ? base.threads : engine.thread_budget(n).second);

  // Slab worlds, through the engine's cache so domain runs of sweep jobs
  // sharing geometry reuse one world per window instead of rebuilding
  // mesh + XS tables per job.
  std::vector<std::shared_ptr<const World>> worlds;
  worlds.reserve(n);
  for (std::int32_t r = 0; r < report.grid.rows; ++r) {
    for (std::int32_t c = 0; c < report.grid.cols; ++c) {
      const DomainWindow window = report.grid.window(r, c);
      worlds.push_back(engine.options().reuse_worlds
                           ? engine.cache().acquire(base.deck, window)
                           : build_world(base.deck, window));
    }
  }

  // One pass over the id space routes every birth to its owning
  // subdomain: G banks cost one scan, not G.  route_births owns the
  // id-order invariant.  (Every slab world carries the full edge arrays,
  // so any of them can locate births.)
  std::vector<std::vector<Particle>> banks = route_births(
      base.deck, worlds.front()->mesh, n,
      [&grid = report.grid](const Particle& p) {
        return grid.owner({p.cellx, p.celly});
      });

  // Per-subdomain Simulations.  Round jobs are custom work, so the engine
  // cannot stamp its profile flag or run-wall deadline on them; apply both
  // here instead (the rounds' transport_round checks the deadline between
  // kernels).
  SimulationConfig root = report.config;
  if (engine.options().profile) root.profile = true;
  if (engine.options().policy.max_run_wall.count() > 0) {
    root.deadline =
        std::min(root.deadline, std::chrono::steady_clock::now() +
                                    engine.options().policy.max_run_wall);
  }
  std::vector<std::unique_ptr<Simulation>> sims;
  sims.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    SimulationConfig cfg = root;
    cfg.window = worlds[d]->window;
    sims.push_back(std::make_unique<Simulation>(cfg, worlds[d],
                                                std::move(banks[d])));
    report.sourced.push_back(sims.back()->sourced_count());
  }

  // Fork-join one transport round for the `active` subdomains.  Returns
  // false (with report.error set) when a round job failed, reporting the
  // root cause — a failed subdomain, not a sibling cancelled after it.
  std::uint64_t next_job_id = 0;
  auto run_round = [&](const std::vector<std::size_t>& active,
                       bool wake) -> bool {
    std::vector<Job> jobs;
    jobs.reserve(active.size());
    for (std::size_t d : active) {
      Job part = make_part_job(job, next_job_id++,
                               "domain " + std::to_string(d) + "/" +
                                   std::to_string(n) +
                                   (wake ? " wake" : " resume"));
      part.work = [sim = sims[d].get(), wake] {
        sim->transport_round(wake);
        return RunResult{};
      };
      jobs.push_back(std::move(part));
    }
    const std::uint64_t group = jobs.front().group;
    const BatchReport round = engine.run(std::move(jobs));
    const JobOutcome* failure = nullptr;
    for (const JobOutcome& outcome : round.jobs) {
      if (outcome.ok) continue;
      if (failure == nullptr || (failure->cancelled && !outcome.cancelled)) {
        failure = &outcome;
      }
    }
    if (failure != nullptr) {
      report.error = failure->label +
                     (failure->cancelled   ? " cancelled: "
                      : failure->timed_out ? " timed out: "
                                           : " failed: ") +
                     failure->error;
      report.timed_out = failure->timed_out;
      return false;
    }
    ++report.rounds;
    if (obs::TraceLog* trace = engine.options().trace; trace != nullptr) {
      obs::TraceEvent event;
      event.event = "round";
      event.job_id = static_cast<std::uint64_t>(report.rounds);
      event.group = group;
      event.run_wall_s = round.wall_seconds;
      event.detail = std::to_string(active.size()) + " of " +
                     std::to_string(n) + " subdomains " +
                     (wake ? "woken" : "resumed");
      trace->record(event);
    }
    return true;
  };

  // Transport: per timestep, one wake round for every subdomain, then
  // resume rounds for whoever received migrants, until the buffers drain.
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::vector<Particle>> inbox(n);
  std::vector<Particle> outbound;
  for (std::int32_t t = 0; t < base.deck.n_timesteps; ++t) {
    std::vector<std::size_t> active = all;
    bool wake = true;
    while (!active.empty()) {
      if (!run_round(active, wake)) return report;
      wake = false;

      outbound.clear();
      for (std::size_t d = 0; d < n; ++d) {
        sims[d]->extract_migrants(outbound);
      }
      report.migrations += static_cast<std::int64_t>(outbound.size());
      for (const Particle& p : outbound) {
        inbox[report.grid.owner({p.cellx, p.celly})].push_back(p);
      }
      active.clear();
      for (std::size_t d = 0; d < n; ++d) {
        if (inbox[d].empty()) continue;
        // Deterministic drain order: immigrants re-bank sorted by id, so
        // the bank contents are invariant to extraction/worker order.
        std::sort(inbox[d].begin(), inbox[d].end(),
                  [](const Particle& a, const Particle& b) {
                    return a.id < b.id;
                  });
        sims[d]->inject_migrants(inbox[d].data(), inbox[d].size());
        inbox[d].clear();
        active.push_back(d);
      }
    }
  }

  report.merged = stitch(sims, base.deck.nx, base.deck.ny);
  report.ok = true;
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace neutral::batch
