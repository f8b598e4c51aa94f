// Shared world cache: one immutable World per distinct deck geometry.
//
// Jobs in a sweep typically differ in run-control knobs (particle count,
// scheme, layout, seed) while sharing mesh + density + cross-section
// tables; rebuilding those per job is the dominant setup cost and pure
// waste.  The cache keys Worlds by world_fingerprint(deck) and hands out
// shared_ptr<const World> — read-only by type, so any number of concurrent
// Simulations can execute against one copy.
//
// Concurrency: each fingerprint maps to a shared_future.  The first
// acquirer installs a promise and builds *outside* the cache lock (a 4000^2
// build takes seconds — holding the lock would serialise unrelated builds);
// later acquirers wait on the future.  A build that throws evicts its entry
// so a subsequent acquire can retry.
//
// Capacity: an optional byte budget (WorldCacheOptions::max_bytes) bounds
// the resident set for many-geometry batches.  When a finished build tips
// the total over budget, least-recently-acquired *built* entries are
// dropped until it fits (the entry just built is never its own victim, so
// a single over-budget world still caches).  Eviction only releases the
// cache's reference — outstanding shared_ptrs stay valid.
//
// Worlds share their cross-section material (World::xs), so the resident
// figure is each cached world's own bytes plus each distinct material's
// bytes once: charged when the first cached world using it enters, and
// credited back when the last such world leaves.  Charging it per world
// would over-count and evict needlessly; charging nothing would let decks
// with distinct xs configs grow memory outside the budget.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <unordered_map>

#include "core/deck.h"
#include "core/world.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace neutral::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace neutral::obs

namespace neutral::batch {

struct WorldCacheOptions {
  /// Resident-byte budget for cached worlds; 0 = unbounded.
  std::uint64_t max_bytes = 0;
  /// Optional registry: the cache publishes hit/miss/eviction counters and
  /// resident-bytes/worlds gauges there.  Null = unobserved.
  obs::MetricsRegistry* metrics = nullptr;
};

class WorldCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< acquire() found an entry (built or building)
    std::uint64_t misses = 0;  ///< acquire() had to build
    std::uint64_t evictions = 0;  ///< entries dropped (failed builds + LRU)
    std::uint64_t resident_worlds = 0;  ///< entries currently cached
    /// Estimated bytes currently cached: every cached world's own bytes
    /// plus each distinct material's once.
    std::uint64_t resident_bytes = 0;

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };

  explicit WorldCache(WorldCacheOptions options = {});

  /// Return the world for `deck`, building it on first sight.  If `hit` is
  /// non-null it reports whether this call reused an existing entry.
  std::shared_ptr<const World> acquire(const ProblemDeck& deck,
                                       bool* hit = nullptr)
      NEUTRAL_EXCLUDES(mutex_);

  /// Same, keyed by a precomputed world_fingerprint(deck) — the engine
  /// uses the fingerprint Jobs carry from submission time so the hash
  /// (which walks every deck region) is paid once per job, not per run.
  std::shared_ptr<const World> acquire(const ProblemDeck& deck,
                                       std::uint64_t fingerprint, bool* hit)
      NEUTRAL_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const NEUTRAL_EXCLUDES(mutex_);
  [[nodiscard]] const WorldCacheOptions& options() const { return options_; }

  /// Number of cached (or in-flight) worlds.
  [[nodiscard]] std::size_t size() const NEUTRAL_EXCLUDES(mutex_);

  /// Drop every entry; outstanding shared_ptrs stay valid.
  void clear() NEUTRAL_EXCLUDES(mutex_);

 private:
  using Future = std::shared_future<std::shared_ptr<const World>>;
  struct Entry {
    Future future;
    std::uint64_t last_use = 0;  ///< monotonic acquire tick (LRU order)
    std::uint64_t bytes = 0;     ///< the world's own; 0 while in flight
    /// The built world's material (kept alive by the world); null while
    /// the build is in flight.
    const MaterialXs* material = nullptr;
    bool built = false;
  };

  /// Drop LRU built entries until the budget holds; `protect` (the entry
  /// that just finished building) is never evicted.  Caller holds mutex_.
  void evict_over_budget_locked(std::uint64_t protect)
      NEUTRAL_REQUIRES(mutex_);
  /// Charge a newly cached built entry's world, and its material if no
  /// other cached world uses it.
  void charge_locked(const Entry& entry) NEUTRAL_REQUIRES(mutex_);
  /// Credit back what charge_locked charged for an entry about to leave.
  void credit_locked(const Entry& entry) NEUTRAL_REQUIRES(mutex_);
  /// Refresh the resident gauges after any entries_ mutation (lock held).
  void note_residency_locked() NEUTRAL_REQUIRES(mutex_);

  WorldCacheOptions options_;
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_
      NEUTRAL_GUARDED_BY(mutex_);
  std::uint64_t tick_ NEUTRAL_GUARDED_BY(mutex_) = 0;
  /// Cached built worlds per material.
  std::unordered_map<const MaterialXs*, std::uint64_t> material_users_
      NEUTRAL_GUARDED_BY(mutex_);
  std::uint64_t resident_bytes_ NEUTRAL_GUARDED_BY(mutex_) = 0;
  Stats stats_ NEUTRAL_GUARDED_BY(mutex_);

  // Resolved once in the ctor from options_.metrics; null = unobserved.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* resident_bytes_gauge_ = nullptr;
  obs::Gauge* resident_worlds_gauge_ = nullptr;
};

}  // namespace neutral::batch
