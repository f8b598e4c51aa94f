// Parameter-sweep expansion: one base configuration + axis lists -> a job
// list for the batch engine.
//
// Benchmarks and studies in this repo all share the same shape — nested
// loops over (problem size, scheme, layout, schedule, seed) around one
// solve — previously hand-rolled in every bench/ binary.  A SweepSpec
// declares the base SimulationConfig and the axes to vary; expand_sweep()
// emits the full cross product with stable job ids (row-major in the axis
// order below), so the same spec always yields the same jobs.
//
// Seeding: an explicit `axis seed` lists master seeds as sweep points
// (replicate studies).  Otherwise, a non-zero batch_seed gives every job
// an independent substream via rng::derive_stream_seed(batch_seed, job id)
// — statistically independent jobs whose results still depend only on
// their own config, never on batch composition.  With neither, all jobs
// keep the base deck's seed (cross-scheme comparisons want identical
// histories).
//
// Text format (parse_sweep; `#` comments, `key value...` lines):
//
//   deck <stream|scatter|csp>   named base deck, or:
//   deck_file <path.params>     load a custom deck
//   mesh_scale <f>              base mesh scale for named decks
//   particle_scale <f>          base particle scale for named decks
//   scheme/layout/tally/lookup/schedule <name>   base config knobs
//   threads <n>                 per-job OpenMP threads (0 = engine budget)
//   timesteps/particles/seed <n>  deck overrides
//   batch_seed <n>              per-job substream derivation (see above)
//   priority <n>                queue priority for every expanded job
//   axis particles <n...>       sweep axes (cross product):
//   axis mesh_scale <f...>        regenerates named decks per scale
//   axis nx <n...>                raw nx=ny override (custom decks)
//   axis scheme <s...>
//   axis layout <l...>
//   axis schedule <s...>
//   axis seed <n...>
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "batch/job.h"
#include "core/simulation.h"

namespace neutral::batch {

struct SweepAxes {
  std::vector<double> mesh_scales;        ///< named decks only
  std::vector<std::int32_t> nx;           ///< sets nx = ny directly
  std::vector<std::int64_t> particles;
  std::vector<Scheme> schemes;
  std::vector<Layout> layouts;
  std::vector<SchedulePolicy> schedules;
  std::vector<std::uint64_t> seeds;
};

struct SweepSpec {
  /// Base configuration every job starts from (deck included).
  SimulationConfig base;
  /// True when the spec named a tally mode (`tally <mode>`).  Otherwise
  /// expand_sweep picks each job's mode with resolve_tally_mode — an
  /// explicit choice is never rewritten.  The effective mode is recorded
  /// per row in the neutral_batch CSV either way, so sweep rows are
  /// self-describing.
  bool tally_mode_named = false;
  /// Name passed to deck_by_name for the mesh_scale axis; empty for custom
  /// decks (then `axis mesh_scale` is an error).
  std::string deck_name;
  /// Base particle scale forwarded to deck_by_name on the mesh_scale axis.
  double particle_scale = 1.0;
  SweepAxes axes;
  /// Non-zero: derive each job's deck seed from (batch_seed, job id).
  std::uint64_t batch_seed = 0;
  /// Priority stamped on every expanded job.
  std::int32_t priority = 0;
};

/// The tally mode a job runs with — the one rule every front-end shares
/// (neutral, neutral_batch, neutrald).  A named mode is never rewritten.
/// Unnamed, Over Events hoists its atomics into the separate tally loop
/// (§VI-G: deferred) for plain runs; domain runs and Over
/// Particles stay atomic — deferred per-thread deposit buffers grow with
/// the bank, the footprint domain decomposition exists to cap.
TallyMode resolve_tally_mode(Scheme scheme, std::optional<TallyMode> named,
                             bool domain_run);

/// Number of jobs expand_sweep will emit (product of non-empty axes).
std::size_t sweep_size(const SweepSpec& spec);

/// Expand the cross product.  Job ids are 0..sweep_size-1 in a fixed
/// row-major axis order, so expansion is deterministic.  `domain_run`
/// says the jobs will run domain-decomposed (resolve_tally_mode).
std::vector<Job> expand_sweep(const SweepSpec& spec, bool domain_run = false);

/// Parse / load the text spec format documented above.
SweepSpec parse_sweep(const std::string& text);
SweepSpec load_sweep(const std::string& path);

}  // namespace neutral::batch
