#include "xs/material.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <map>
#include <tuple>

#include "core/constants.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace neutral {

namespace {

double max_capture_rate(const CrossSectionTable& capture) {
  double rate = 0.0;
  for (std::int32_t i = 0; i < capture.size(); ++i) {
    const double e = capture.energy(i);
    rate = std::max(rate, e * kSpeedPerSqrtEv * std::sqrt(e) *
                              capture.value(i));
  }
  return rate;
}

/// Every field of a SyntheticXsConfig.  Energies enter by bit pattern, so
/// the order is strict even for values no table accepts (NaN).
using MaterialKey = std::tuple<std::int32_t, std::uint64_t, std::uint64_t,
                               std::int32_t, std::uint64_t>;

MaterialKey key_of(const SyntheticXsConfig& cfg) {
  return {cfg.points, std::bit_cast<std::uint64_t>(cfg.min_energy_ev),
          std::bit_cast<std::uint64_t>(cfg.max_energy_ev), cfg.resonances,
          cfg.seed};
}

/// Weak interning of materials.  A config's first caller builds outside
/// the lock (a 30 000-point pair takes ~10 ms, and unrelated configs must
/// not queue behind it); callers that arrive meanwhile wait on its future.
/// Once built, the entry keeps only a weak_ptr.
class MaterialRegistry {
 public:
  std::shared_ptr<const MaterialXs> get(const SyntheticXsConfig& cfg)
      NEUTRAL_EXCLUDES(mutex_) {
    const MaterialKey key = key_of(cfg);
    std::promise<std::shared_ptr<const MaterialXs>> promise;
    Future building;
    {
      MutexLock lock(mutex_);
      Entry& entry = entries_[key];
      if (std::shared_ptr<const MaterialXs> live = entry.live.lock()) {
        return live;
      }
      if (entry.building.valid()) {
        building = entry.building;
      } else {
        entry.building = promise.get_future().share();
        drop_expired_locked();
      }
    }
    if (building.valid()) return building.get();  // rethrows a failed build
    try {
      auto material = std::make_shared<const MaterialXs>(cfg);
      promise.set_value(material);
      MutexLock lock(mutex_);
      Entry& entry = entries_[key];
      entry.live = material;
      entry.building = Future();
      return material;
    } catch (...) {
      promise.set_exception(std::current_exception());
      MutexLock lock(mutex_);
      entries_.erase(key);
      throw;
    }
  }

 private:
  using Future = std::shared_future<std::shared_ptr<const MaterialXs>>;
  struct Entry {
    std::weak_ptr<const MaterialXs> live;
    Future building;  ///< valid while the first caller builds
  };

  /// Forget materials nobody holds, so distinct configs seen once do not
  /// pile up entries.
  void drop_expired_locked() NEUTRAL_REQUIRES(mutex_) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      const bool idle =
          !it->second.building.valid() && it->second.live.expired();
      it = idle ? entries_.erase(it) : std::next(it);
    }
  }

  Mutex mutex_;
  std::map<MaterialKey, Entry> entries_ NEUTRAL_GUARDED_BY(mutex_);
};

}  // namespace

MaterialXs::MaterialXs(const SyntheticXsConfig& cfg)
    : MaterialXs(cfg, synthetic_energy_grid(cfg)) {}

MaterialXs::MaterialXs(const SyntheticXsConfig& cfg,
                       aligned_vector<double> grid)
    : capture(make_capture_table(cfg, grid)),
      scatter(make_scatter_table(cfg, std::move(grid))),
      capture_rate(max_capture_rate(capture)) {
  NEUTRAL_REQUIRE(same_energy_grid(capture, scatter),
                  "capture/scatter tables must share an energy grid");
}

std::uint64_t MaterialXs::footprint_bytes() const {
  const auto table_bytes = [](const CrossSectionTable& t) {
    return static_cast<std::uint64_t>(t.size()) * 2 * sizeof(double) +
           t.slot_count() * sizeof(std::int32_t);
  };
  return sizeof(MaterialXs) + table_bytes(capture) + table_bytes(scatter);
}

std::shared_ptr<const MaterialXs> shared_material_xs(
    const SyntheticXsConfig& cfg) {
  static MaterialRegistry registry;
  return registry.get(cfg);
}

}  // namespace neutral
