#include "batch/job.h"

namespace neutral::batch {

std::string describe(const SimulationConfig& config) {
  return config.deck.name + "/" + to_string(config.scheme) + "/" +
         to_string(config.layout) + "/" + config.schedule.name() + "/nx=" +
         std::to_string(config.deck.nx) + "/n=" +
         std::to_string(config.deck.n_particles);
}

Job make_job(std::uint64_t id, SimulationConfig config, std::string label) {
  Job job;
  job.id = id;
  job.fingerprint = world_fingerprint(config.deck);
  job.label = label.empty() ? describe(config) : std::move(label);
  job.config = std::move(config);
  return job;
}

}  // namespace neutral::batch
