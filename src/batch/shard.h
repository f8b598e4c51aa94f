// Single-deck sharding: fork–join bank decomposition over the batch engine.
//
// One large deck cannot keep a node busy — the paper's load-imbalance
// result caps Over Particles scaling well below the core count — but its
// particle bank *can* be split: the counter-based RNG is keyed by stable
// particle ids, so a Simulation restricted to a contiguous id span
// (core/simulation.h: ParticleSpan) replays exactly the histories those
// ids have in the unsharded run.  N disjoint spans are therefore N
// independent batch jobs that share one cached World, run on the worker
// pool in any order, and reduce to the unsharded answer.
//
// Determinism: integer outputs (event counters, population) reduce
// exactly.  The tally reduces bit-identically because shard jobs run with
// compensated tallies (core/tally.h): each cell's (sum, comp) pair carries
// its deposits to ~2x working precision, so folding shard pairs — in id
// order here, though the double-double fold makes even that immaterial —
// rounds each cell once.  The merged checksum is invariant to shard count,
// worker count, and completion order.
//
// Failure: shard jobs share a Job::group (batch::make_part_job), so the
// engine cancels pending siblings as soon as one shard fails
// (batch/queue.h) — a lost shard means a lost fork-join result, and
// finishing the rest would waste the pool.
//
// batch::run_sweep (batch/executor.h) builds, runs and reduces the shard
// jobs; this header holds the planning and reduction pieces it shares
// with the domain decomposition.
#pragma once

#include <cstdint>
#include <vector>

#include "core/simulation.h"

namespace neutral::batch {

/// Split ids [0, n_particles) into `shards` contiguous spans.  Sizes
/// differ by at most one (the remainder goes to the leading shards), the
/// spans are in id order, and their union is exactly the bank.  `shards`
/// is clamped to n_particles so no span is empty.
std::vector<ParticleSpan> plan_shards(std::int64_t n_particles,
                                      std::int32_t shards);

/// The config one decomposed part (a shard job or a partial domain solve)
/// runs with, before its span/window is set: `base`, compensated (so the
/// parts reduce exactly) and pinned to `threads` OpenMP threads.  Compensated
/// atomic updates are single-thread only, so a part wider than one thread
/// moves an atomic tally to the privatized one — compensation makes its
/// merge exact, so the reduced result is unchanged.
SimulationConfig part_config(SimulationConfig base, std::int32_t threads);

/// Deterministic ordered reduction: fold shard results (given in shard
/// order, each carrying a tally image) into one RunResult.  Counters,
/// budget, population and per-step data merge as sums; the tally is folded
/// through a compensated EnergyTally (EnergyTally::accumulate) and the
/// checksum, tally total and merged image are recomputed from it.
RunResult reduce_shards(const std::vector<const RunResult*>& shard_results);

}  // namespace neutral::batch
