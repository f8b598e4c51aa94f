#include "batch/job.h"

namespace neutral::batch {

std::string describe(const SimulationConfig& config) {
  return config.deck.name + "/" + to_string(config.scheme) + "/" +
         to_string(config.layout) + "/" + config.schedule.name() + "/nx=" +
         std::to_string(config.deck.nx) + "/n=" +
         std::to_string(config.deck.n_particles);
}

Job make_job(std::uint64_t id, SimulationConfig config, std::int32_t priority,
             std::string label) {
  Job job;
  job.id = id;
  job.priority = priority;
  job.fingerprint = world_fingerprint(config.deck);
  job.label = label.empty() ? describe(config) : std::move(label);
  job.config = std::move(config);
  return job;
}

Job make_part_job(const Job& parent, std::uint64_t id, std::string label) {
  Job part;
  part.id = id;
  part.group = parent.id + 1;
  part.priority = parent.priority;
  part.label = std::move(label);
  return part;
}

}  // namespace neutral::batch
