#include "batch/shard.h"

#include <algorithm>

#include "core/validation.h"
#include "util/error.h"

namespace neutral::batch {

std::vector<ParticleSpan> plan_shards(std::int64_t n_particles,
                                      std::int32_t shards) {
  NEUTRAL_REQUIRE(n_particles > 0, "cannot shard an empty particle bank");
  NEUTRAL_REQUIRE(shards >= 1, "shard count must be at least 1");
  const std::int64_t n_shards =
      std::min<std::int64_t>(shards, n_particles);
  const std::int64_t base = n_particles / n_shards;
  const std::int64_t remainder = n_particles % n_shards;

  std::vector<ParticleSpan> spans;
  spans.reserve(static_cast<std::size_t>(n_shards));
  std::int64_t first = 0;
  for (std::int64_t s = 0; s < n_shards; ++s) {
    const std::int64_t count = base + (s < remainder ? 1 : 0);
    spans.push_back(ParticleSpan{first, count});
    first += count;
  }
  return spans;
}

SimulationConfig part_config(SimulationConfig base, std::int32_t threads) {
  base.compensated_tally = true;
  base.threads = threads;
  if (base.tally_mode == TallyMode::kAtomic && threads > 1) {
    base.tally_mode = TallyMode::kPrivatized;
  }
  return base;
}

RunResult reduce_shards(const std::vector<const RunResult*>& shard_results) {
  NEUTRAL_REQUIRE(!shard_results.empty(), "nothing to reduce");
  for (const RunResult* r : shard_results) {
    NEUTRAL_REQUIRE(r != nullptr && r->tally != nullptr,
                    "every shard result must carry a tally image "
                    "(SimulationConfig::compensated_tally)");
  }
  const std::int64_t cells = shard_results.front()->tally->cells();

  RunResult merged;
  EnergyTally reduced(cells, TallyMode::kAtomic, /*threads=*/1,
                      /*compensated=*/true);
  for (const RunResult* r : shard_results) {
    merged += *r;
    reduced.accumulate(*r->tally);
  }
  reduced.merge();  // normalise: each cell is now its once-rounded total

  merged.tally_checksum = positional_checksum(reduced.data(), cells);
  merged.budget.tally_total = reduced.total();
  merged.tally = std::make_shared<const TallyImage>(reduced.image());
  return merged;
}

}  // namespace neutral::batch
