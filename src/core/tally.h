// Energy-deposition tally mesh (paper §V-C, §VI-F).
//
// Every facet encounter flushes a register-accumulated energy deposit onto
// the mesh — an atomic read-modify-write that the paper measures at ~50% of
// Over Particles runtime.  Four thread-safety strategies are provided:
//
//   * kAtomic — one shared mesh, `omp atomic` adds (the baseline).
//   * kPrivatized — one mesh copy per thread, merged after the solve
//     (§VI-F: removes the atomic but multiplies the footprint by the thread
//     count — 0.3 GB -> 31 GB on a 256-thread KNL).
//   * kPrivatizedMergeEveryStep — per-thread copies merged every timestep,
//     the realistic coupling mode the paper found slower than atomics.
//   * kDeferredAtomic — deposits append to per-thread buffers that a
//     separate drain loop applies atomically; this is the §VI-G workaround
//     that moves the atomics out of the (vectorisable) event kernels, used
//     by the Over Events scheme.
//
// Exact accumulation: each cell is a 128-bit integer count of a per-tally
// quantum q = 2^(ceil(log2 B) - 63), B bounding one flush
// (max_flush_energy, core/world.h; q = 2^-43 eV when a deck can absorb a
// whole 1 MeV source particle in one timestep's flight).  A deposit is
// truncated to whole quanta once; after that only integer adds touch the
// cell, and integer addition is associative, so a cell's words
// depend only on the multiset of its deposits: every mode, thread count,
// schedule and scheme yields the same tally bit for bit, in
// the style of Demmel & Nguyen's ReproBLAS.  The strategies differ in
// contention and memory only.  The price is resolution: a deposit below
// one quantum truncates to zero, so on a deck whose dense material sets B
// (csp), cells in its near-vacuum part read exactly 0.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/aligned.h"
#include "util/error.h"

namespace neutral {

enum class TallyMode : std::uint8_t {
  kAtomic = 0,
  kPrivatized = 1,
  kPrivatizedMergeEveryStep = 2,
  kDeferredAtomic = 3,
};

const char* to_string(TallyMode mode);

/// One tally cell: a 128-bit count of the tally's quantum, split into an
/// unsigned low and a signed high word.
struct TallyCell {
  std::uint64_t lo = 0;
  std::int64_t hi = 0;

  friend bool operator==(const TallyCell&, const TallyCell&) = default;

  /// 128-bit add: the carry out of `lo` goes into `hi`.
  TallyCell& operator+=(const TallyCell& o) {
    lo += o.lo;
    hi += o.hi + static_cast<std::int64_t>(lo < o.lo);
    return *this;
  }
};

/// One buffered deposit (kDeferredAtomic): the flat cell index and the
/// amount.
struct PendingDeposit {
  std::int64_t cell;
  double amount;
};

/// A tally's cells and the quantum they count.  Read-out takes the nearest
/// double to a cell's count times the quantum, and throws once a cell's
/// high word reaches 2^62.
struct TallyImage {
  aligned_vector<TallyCell> cells;
  double quantum = 0.0;  ///< energy of one count [eV]

  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(cells.size());
  }
  /// Cell `flat` in eV.
  [[nodiscard]] double value(std::int64_t flat) const;
  /// Every cell in eV, row-major (heatmaps, dose maps).
  [[nodiscard]] std::vector<double> values() const;
  /// The exact sum of every cell, converted once.
  [[nodiscard]] double total() const;
  /// positional_checksum (core/validation.h) over value().
  [[nodiscard]] double checksum() const;
};

class EnergyTally {
 public:
  /// `flush_bound` bounds one deposit (max_flush_energy); it sets the
  /// quantum (see the file comment).
  ///
  /// A tally built for exactly one thread deposits directly: with nothing
  /// to be atomic against, a kAtomic deposit is a plain add-with-carry
  /// instead of a `lock xadd`.  As with the per-thread privatized and
  /// deferred slots, `threads` bounds the OpenMP team that may deposit
  /// into the tally.
  EnergyTally(std::int64_t cells, TallyMode mode, std::int32_t threads,
              double flush_bound);

  /// Hot path: deposit `e` into flat cell index `flat` from `thread`.
  void deposit(std::int64_t flat, double e, std::int32_t thread) {
    const auto f = static_cast<std::size_t>(flat);
    switch (mode_) {
      case TallyMode::kAtomic:
        if (direct_) {
          assert(thread == 0 && "team wider than the tally was built for");
          global_.cells[f] += units(e);
        } else {
          add_atomic(global_.cells[f], units(e));
        }
        break;
      case TallyMode::kDeferredAtomic:
        deferred_[static_cast<std::size_t>(thread)].value.push_back({flat, e});
        break;
      default:
        privates_[static_cast<std::size_t>(thread)][f] += units(e);
    }
  }

  /// Apply and clear all deferred deposits (kDeferredAtomic only); the
  /// driver calls this as its separate tally loop.  Safe to call in any
  /// mode (no-op otherwise).
  void drain_deferred();

  /// Fold the per-thread copies into the global mesh (no-op for kAtomic).
  /// Called once after the solve (kPrivatized) or after every timestep
  /// (kPrivatizedMergeEveryStep) by the drivers; idempotent.
  void merge();

  /// Whether the driver must merge at the end of each timestep.
  [[nodiscard]] bool merge_each_step() const {
    return mode_ == TallyMode::kPrivatizedMergeEveryStep;
  }

  [[nodiscard]] TallyMode mode() const { return mode_; }
  [[nodiscard]] std::int64_t cells() const { return global_.size(); }

  /// Every deposit so far: merges (drains and folds the per-thread
  /// copies), then returns the cells; throws if any deposit was negative,
  /// non-finite or out of range.
  [[nodiscard]] const TallyImage& merged();

  /// Zero everything.
  void reset();

  /// Total bytes held — reports the §VI-F footprint blow-up.
  [[nodiscard]] std::uint64_t footprint_bytes() const;

 private:
  /// `e` in whole quanta, truncated.  Deposits below 2^63 quanta (the
  /// flush bound) take one multiply and one signed cast; the rest go out
  /// of line.
  TallyCell units(double e) {
    const double x = e * scale_;  // scale_ is a power of two: exact
    if (x >= 0.0 && x < 0x1p63) {
      return {static_cast<std::uint64_t>(static_cast<std::int64_t>(x)), 0};
    }
    return wide_units(x);
  }
  TallyCell wide_units(double x);

  /// One integer `lock xadd` on the low word; the high word is touched
  /// only on a carry or a deposit of 2^64 quanta or more.  However the
  /// adds interleave, the carries out of `lo` sum to the same count, so
  /// the cell ends exactly where the sequential sum would.
  static void add_atomic(TallyCell& cell, TallyCell add) {
    std::uint64_t before;
#pragma omp atomic capture
    {
      before = cell.lo;
      cell.lo += add.lo;
    }
    const std::int64_t hi =
        add.hi + static_cast<std::int64_t>(before + add.lo < add.lo);
    if (hi != 0) {
#pragma omp atomic update
      cell.hi += hi;
    }
  }

  TallyMode mode_;
  bool direct_ = false;  ///< single-thread plain deposits (see ctor)
  double scale_ = 0.0;   ///< 1 / quantum
  TallyImage global_;
  std::vector<aligned_vector<TallyCell>> privates_;
  std::vector<Padded<std::vector<PendingDeposit>>> deferred_;
  std::int64_t invalid_deposits_ = 0;  ///< see merged()
};

}  // namespace neutral
