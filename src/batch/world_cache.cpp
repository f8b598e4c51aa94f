#include "batch/world_cache.h"

#include "obs/metrics.h"

namespace neutral::batch {

WorldCache::WorldCache(WorldCacheOptions options) : options_(options) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.metrics;
    hits_ = &m.counter("neutral_world_cache_hits_total",
                       "world acquisitions served from the cache");
    misses_ = &m.counter("neutral_world_cache_misses_total",
                         "world acquisitions that built");
    evictions_ = &m.counter("neutral_world_cache_evictions_total",
                            "cached worlds dropped (failed builds + LRU)");
    resident_bytes_gauge_ = &m.gauge("neutral_world_cache_resident_bytes",
                                     "estimated bytes of cached worlds");
    resident_worlds_gauge_ = &m.gauge("neutral_world_cache_resident_worlds",
                                      "built worlds currently cached");
  }
}

void WorldCache::note_residency_locked() {
  if (resident_bytes_gauge_ == nullptr) return;
  resident_bytes_gauge_->set(static_cast<std::int64_t>(resident_bytes_));
  std::int64_t built = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (entry.built) ++built;
  }
  resident_worlds_gauge_->set(built);
}

std::shared_ptr<const World> WorldCache::acquire(const ProblemDeck& deck,
                                                 bool* hit) {
  return acquire(deck, world_fingerprint(deck), hit);
}

std::shared_ptr<const World> WorldCache::acquire(const ProblemDeck& deck,
                                                 std::uint64_t fingerprint,
                                                 bool* hit) {
  Future future;
  std::promise<std::shared_ptr<const World>> promise;
  bool builder = false;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (hits_ != nullptr) hits_->add();
      it->second.last_use = ++tick_;
      future = it->second.future;
    } else {
      ++stats_.misses;
      if (misses_ != nullptr) misses_->add();
      builder = true;
      future = promise.get_future().share();
      entries_.emplace(fingerprint, Entry{future, ++tick_, 0, false});
    }
  }
  if (hit != nullptr) *hit = !builder;

  if (builder) {
    try {
      std::shared_ptr<const World> world = build_world(deck);
      const std::uint64_t bytes = world->footprint_bytes();
      promise.set_value(std::move(world));
      MutexLock lock(mutex_);
      auto it = entries_.find(fingerprint);
      if (it != entries_.end()) {  // clear() may have raced us
        it->second.bytes = bytes;
        it->second.built = true;
        resident_bytes_ += bytes;
        evict_over_budget_locked(fingerprint);
        note_residency_locked();
      }
    } catch (...) {
      promise.set_exception(std::current_exception());
      MutexLock lock(mutex_);
      entries_.erase(fingerprint);
      ++stats_.evictions;
      if (evictions_ != nullptr) evictions_->add();
      note_residency_locked();
    }
  }
  return future.get();  // rethrows a failed build for every waiter
}

void WorldCache::evict_over_budget_locked(std::uint64_t protect) {
  if (options_.max_bytes == 0) return;
  while (resident_bytes_ > options_.max_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.built || it->first == protect) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // only in-flight/protected left
    resident_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++stats_.evictions;
    if (evictions_ != nullptr) evictions_->add();
  }
}

WorldCache::Stats WorldCache::stats() const {
  MutexLock lock(mutex_);
  Stats snapshot = stats_;
  snapshot.resident_bytes = resident_bytes_;
  snapshot.resident_worlds = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (entry.built) ++snapshot.resident_worlds;
  }
  return snapshot;
}

std::size_t WorldCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void WorldCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  resident_bytes_ = 0;
  note_residency_locked();
}

}  // namespace neutral::batch
