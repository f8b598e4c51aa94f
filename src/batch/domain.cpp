#include "batch/domain.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "batch/shard.h"
#include "core/init.h"
#include "core/validation.h"
#include "obs/trace.h"
#include "runtime/timer.h"
#include "util/error.h"

namespace neutral::batch {

namespace {

/// Split `cells` into `parts` contiguous extents, remainder leading —
/// the same balancing rule plan_shards applies to particle ids.
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

/// Index of the span owning particle id `id` (spans are the contiguous,
/// ascending partition plan_shards produces).
std::size_t span_of(const std::vector<ParticleSpan>& spans,
                    std::uint64_t id) {
  const auto sid = static_cast<std::int64_t>(id);
  const auto it = std::upper_bound(
      spans.begin(), spans.end(), sid,
      [](std::int64_t v, const ParticleSpan& s) { return v < s.first_id; });
  return static_cast<std::size_t>(it - spans.begin()) - 1;
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
  NEUTRAL_REQUIRE(base.span.whole_bank(),
                  "cannot domain-decompose a config with a particle span");
  NEUTRAL_REQUIRE(!base.window.active(),
                  "cannot domain-decompose a config that already has a "
                  "window");
  NEUTRAL_REQUIRE(opt.shards >= 1,
                  "domain runs need at least one bank shard per subdomain");
  WallTimer wall;
  DomainRunReport report;
  report.grid = plan_domains(base.deck.nx, base.deck.ny, opt.rows, opt.cols);
  const std::size_t n_domains = report.grid.count();
  // Bank shards nested inside every subdomain: partial solve (d, s) holds
  // the births in window d whose ids fall in span s, index d * S + s.
  const std::vector<ParticleSpan> spans =
      plan_shards(base.deck.n_particles, opt.shards);
  const std::size_t n_spans = spans.size();
  report.shards = static_cast<std::int32_t>(n_spans);
  const std::size_t n = n_domains * n_spans;
  report.threads = base.threads > 0 ? base.threads
                                    : engine.thread_budget(n).second;

  // Slab worlds (one per window, shared by that window's shard sims),
  // through the engine's cache so domain runs of sweep jobs sharing
  // geometry reuse one world per window instead of rebuilding mesh + XS
  // tables per job.
  std::vector<std::shared_ptr<const World>> worlds;
  worlds.reserve(n_domains);
  for (std::int32_t r = 0; r < report.grid.rows; ++r) {
    for (std::int32_t c = 0; c < report.grid.cols; ++c) {
      const DomainWindow window = report.grid.window(r, c);
      worlds.push_back(engine.options().reuse_worlds
                           ? engine.cache().acquire(base.deck, window)
                           : build_world(base.deck, window));
    }
  }

  // One pass over the id space routes every birth to its owning partial
  // solve: G x S banks cost one scan, not G x S.  route_births owns the
  // id-order invariant.  (Every slab world carries the full edge arrays,
  // so any of them can locate births.)
  std::vector<std::vector<Particle>> banks = route_births(
      base.deck, worlds.front()->mesh, n,
      [&grid = report.grid, &spans, n_spans](const Particle& p) {
        return grid.owner({p.cellx, p.celly}) * n_spans +
               span_of(spans, p.id);
      });

  // Per-(subdomain, span) Simulations: the shard jobs' part_config
  // (compensated, atomic promoted to privatized for a wider team).  Round
  // jobs are custom work, so the engine cannot stamp its profile flag or
  // run-wall deadline on them; apply both here instead (the rounds'
  // transport_round checks the deadline between kernels).
  SimulationConfig root = part_config(base, report.threads);
  if (engine.options().profile) root.profile = true;
  if (engine.options().policy.max_run_wall.count() > 0) {
    root.deadline =
        std::min(root.deadline, std::chrono::steady_clock::now() +
                                    engine.options().policy.max_run_wall);
  }
  std::vector<std::unique_ptr<Simulation>> sims;
  sims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t d = i / n_spans;
    SimulationConfig cfg = root;
    cfg.window = worlds[d]->window;
    cfg.span = spans[i % n_spans];
    sims.push_back(std::make_unique<Simulation>(cfg, worlds[d],
                                                std::move(banks[i])));
    report.sourced.push_back(sims.back()->sourced_count());
  }

  // Fork-join one transport round for the `active` subdomains.  Returns
  // false (with report.error set) on the first failed round job.
  std::uint64_t next_job_id = 0;
  auto run_round = [&](const std::vector<std::size_t>& active,
                       bool wake) -> bool {
    std::vector<Job> jobs;
    jobs.reserve(active.size());
    for (std::size_t i : active) {
      Job part = make_part_job(
          job, next_job_id++,
          "domain " + std::to_string(i / n_spans) + "/" +
              std::to_string(n_domains) +
              (n_spans > 1 ? " shard " + std::to_string(i % n_spans) + "/" +
                                 std::to_string(n_spans)
                           : std::string()) +
              (wake ? " wake" : " resume"));
      part.work = [sim = sims[i].get(), wake] {
        sim->transport_round(wake);
        return RunResult{};
      };
      jobs.push_back(std::move(part));
    }
    const std::uint64_t group = jobs.front().group;
    const BatchReport round = engine.run(std::move(jobs));
    for (const JobOutcome& outcome : round.jobs) {
      if (!outcome.ok) {
        report.error = outcome.label + " failed: " + outcome.error;
        report.timed_out = outcome.timed_out;
        return false;
      }
    }
    ++report.rounds;
    if (obs::TraceLog* trace = engine.options().trace; trace != nullptr) {
      obs::TraceEvent event;
      event.event = "round";
      event.job_id = static_cast<std::uint64_t>(report.rounds);
      event.group = group;
      event.run_wall_s = round.wall_seconds;
      event.detail = std::to_string(active.size()) + " of " +
                     std::to_string(n) + " partial solves " +
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
      for (std::size_t i = 0; i < n; ++i) {
        sims[i]->extract_migrants(outbound);
      }
      report.migrations += static_cast<std::int64_t>(outbound.size());
      for (const Particle& p : outbound) {
        // The owner of a checkpoint is the (window, id-span) pair — the
        // subdomain whose slab holds its cell AND the shard whose span
        // holds its id.
        inbox[report.grid.owner({p.cellx, p.celly}) * n_spans +
              span_of(spans, p.id)]
            .push_back(p);
      }
      active.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (inbox[i].empty()) continue;
        // Deterministic drain order: immigrants re-bank sorted by id, so
        // the bank contents are invariant to extraction/worker order.
        std::sort(inbox[i].begin(), inbox[i].end(),
                  [](const Particle& a, const Particle& b) {
                    return a.id < b.id;
                  });
        sims[i]->inject_migrants(inbox[i].data(), inbox[i].size());
        inbox[i].clear();
        active.push_back(i);
      }
    }
  }

  // Reduce: extensive sums via RunResult::operator+=, then stitch the
  // disjoint tally slabs into the full grid and fold through a compensated
  // tally (the PR 2 machinery) to recompute checksum/total/image.  With
  // nested bank shards a window owns several slab images; they fold first
  // through a window-sized compensated tally in shard order — exact
  // double-double addition, so the stitched (sum, comp) pairs carry each
  // cell's full deposit multiset no matter how it was partitioned.
  const std::int64_t full_cells =
      static_cast<std::int64_t>(base.deck.nx) * base.deck.ny;
  TallyImage stitched;
  stitched.hi.assign(static_cast<std::size_t>(full_cells), 0.0);
  stitched.lo.assign(static_cast<std::size_t>(full_cells), 0.0);
  // RunResult::operator+= max-merges peak_mesh_bytes, so the merged
  // result reports the largest slab: the per-node memory bound.
  RunResult merged;
  for (std::size_t d = 0; d < n_domains; ++d) {
    const DomainWindow& w = worlds[d]->window;
    std::shared_ptr<const TallyImage> slab;
    if (n_spans == 1) {
      // One image per window: stitch it directly (the fold below would
      // reproduce it bit-for-bit at the cost of an extra tally pass).
      const RunResult part = sims[d]->summary();
      NEUTRAL_REQUIRE(part.tally != nullptr,
                      "subdomain result must carry a tally image");
      merged += part;
      slab = part.tally;
    } else {
      EnergyTally window_fold(w.num_cells(), TallyMode::kAtomic,
                              /*threads=*/1, /*compensated=*/true);
      for (std::size_t s = 0; s < n_spans; ++s) {
        const RunResult part = sims[d * n_spans + s]->summary();
        NEUTRAL_REQUIRE(part.tally != nullptr,
                        "subdomain result must carry a tally image");
        merged += part;
        window_fold.accumulate(*part.tally);
      }
      // Normalise per the accumulate() contract; a fixed point for the
      // (sum, comp) pairs, so the stitched values are unchanged.
      window_fold.merge();
      slab = std::make_shared<const TallyImage>(window_fold.image());
    }

    for (std::int32_t j = 0; j < w.ny; ++j) {
      const std::size_t src = static_cast<std::size_t>(j) *
                              static_cast<std::size_t>(w.nx);
      const std::size_t dst =
          static_cast<std::size_t>(w.y0 + j) *
              static_cast<std::size_t>(base.deck.nx) +
          static_cast<std::size_t>(w.x0);
      std::copy_n(slab->hi.begin() + static_cast<std::ptrdiff_t>(src), w.nx,
                  stitched.hi.begin() + static_cast<std::ptrdiff_t>(dst));
      std::copy_n(slab->lo.begin() + static_cast<std::ptrdiff_t>(src), w.nx,
                  stitched.lo.begin() + static_cast<std::ptrdiff_t>(dst));
    }
  }
  EnergyTally reduced(full_cells, TallyMode::kAtomic, /*threads=*/1,
                      /*compensated=*/true);
  reduced.accumulate(stitched);
  reduced.merge();
  merged.tally_checksum = positional_checksum(reduced.data(), full_cells);
  merged.budget.tally_total = reduced.total();
  merged.tally = std::make_shared<const TallyImage>(reduced.image());

  report.merged = std::move(merged);
  report.ok = true;
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace neutral::batch
