// Domain (spatial) decomposition: tile the mesh into an R x C grid of
// slabs, give each subdomain a Simulation that materialises only its slab's
// mesh-resident state, and migrate particles between subdomains at facet
// crossings.
//
// A plain run spreads one deck over the node with OpenMP threads, but every
// thread still shares (or, privatized, copies) the FULL tally and density
// field — the mini-app's memory floor, O(nx*ny).  Domain decomposition, the
// model of the paper's MPI mesh decomposition, splits that floor: each
// subdomain holds an (nx/C) x (ny/R) slab of tally + density (the cheap
// O(nx+ny) edge arrays stay replicated, so cell indices remain global and
// the facet arithmetic is bit-identical to the undecomposed run).  A particle
// whose crossing leaves its slab is parked as a kMigrating checkpoint (the
// Particle record itself: position at the facet, decayed clocks, current
// RNG counter) and re-banked on the owning subdomain in deterministic id
// order; transport rounds repeat until every migration buffer drains.
//
// Determinism: per-particle physics depends only on edge coordinates, the
// (windowed but value-identical) density, and the id-keyed counter RNG —
// none of which the decomposition touches — so every cell receives exactly
// the undecomposed run's deposit multiset.  Tally cells are exact integer
// sums of that multiset (core/tally.h), and the stitch copies each
// subdomain's slab of cells into the full grid, so the merged checksum and
// population are bit-identical to the plain run for ANY grid at ANY worker
// or thread count.  (OpenMC's distributed tally offloading and MC/DC's
// mesh-partitioned transport take the same architectural shape, without
// the bit-identical guarantee.)
//
// Execution: each transport round is a fork-join batch of custom-work jobs
// (Job::work) over the shared BatchEngine — subdomain state persists
// across rounds while the pool load-balances whichever subdomains are
// active.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/engine.h"
#include "core/simulation.h"
#include "mesh/window.h"

namespace neutral::batch {

/// An R x C tiling of an nx x ny cell grid, row-major subdomain order
/// (index = row * cols + col).  Per-axis extents differ by at most one
/// cell; the remainder goes to the leading rows/columns.
struct DomainGrid {
  std::int32_t rows = 1;
  std::int32_t cols = 1;
  std::vector<std::int32_t> row_start;  ///< size rows + 1 (cell y edges)
  std::vector<std::int32_t> col_start;  ///< size cols + 1 (cell x edges)

  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }
  /// Window of subdomain (r, c).
  [[nodiscard]] DomainWindow window(std::int32_t r, std::int32_t c) const;
  /// Subdomain index owning cell `cell`.
  [[nodiscard]] std::size_t owner(CellIndex cell) const;
};

/// Plan the tiling; rows/cols are clamped to ny/nx so no slab is empty.
DomainGrid plan_domains(std::int32_t nx, std::int32_t ny, std::int32_t rows,
                        std::int32_t cols);

/// Parse a "RxC" grid spec ("2x3" -> rows 2, cols 3); throws on anything
/// else.  Read through batch::Decomposition::parse, which every --domains
/// flag and the daemon's `domains` field share.
std::pair<std::int32_t, std::int32_t> parse_domain_grid(
    const std::string& spec);

struct DomainOptions {
  std::int32_t rows = 1;
  std::int32_t cols = 1;
};

/// Outcome of one domain-decomposed solve.
struct DomainRunReport {
  bool ok = false;
  std::string error;       ///< first failed round job when !ok
  bool timed_out = false;  ///< that failure hit a QueuePolicy deadline
  /// Stitched full-grid result; valid when ok.  Its peak_mesh_bytes is
  /// the largest subdomain slab (tally + density) — the per-node memory
  /// bound.
  RunResult merged;
  DomainGrid grid;
  /// The config every partial solve ran with, window unset: the job's,
  /// pinned to its OpenMP team (`threads`).
  SimulationConfig config;
  /// Initial bank size of each subdomain (particles born in its slab).
  std::vector<std::int64_t> sourced;
  std::int64_t migrations = 0;  ///< checkpoints exchanged over the run
  std::int32_t rounds = 0;      ///< transport rounds over all timesteps
  double wall_seconds = 0.0;
};

/// Decompose sweep job `job` over an R x C grid and run it on `engine`.
/// Every scheme × layout composes: the ParticleBank converts migrant
/// checkpoints at layout boundaries and Over Events rounds re-stream their
/// workspace.  The merged tally checksum and population are bit-identical
/// to the plain run for any grid at any worker or thread count.  The job's
/// config must carry no window (the decomposition owns it); its `threads`
/// pins each partial solve's team, and 0 takes the engine's thread_budget
/// over the subdomains.  Round jobs are make_part_job parts of `job`.
DomainRunReport run_domains(BatchEngine& engine, const Job& job,
                            const DomainOptions& opt = {});

}  // namespace neutral::batch
