// Energy-deposition tally mesh (paper §V-C, §VI-F).
//
// Every facet encounter flushes a register-accumulated energy deposit onto
// the mesh — an atomic read-modify-write that the paper measures at ~50% of
// Over Particles runtime.  Three thread-safety strategies are provided:
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
// Compensated accumulation (domain-decomposition support): any mode can
// additionally be constructed `compensated`, which keeps a Neumaier error
// term alongside every sum so each cell carries its deposits to roughly
// twice working precision.  After merge() the stored cell value is the
// once-rounded sum of the cell's deposit *multiset* — independent of
// deposit order, thread count and OpenMP schedule.  That invariance is what
// lets a domain-decomposed run stitch to a tally bit-identical to the
// undecomposed compensated run at any thread count (src/batch/domain.h);
// the plain modes keep the paper's measured accumulation behaviour.
#pragma once

#include <cassert>
#include <cmath>
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

/// One buffered deposit (kDeferredAtomic): the flat cell index and the
/// amount.
struct PendingDeposit {
  std::int64_t cell;
  double amount;
};

/// A detached copy of a merged tally: the per-cell sums plus (for
/// compensated tallies) the per-cell error terms.  This is the value a
/// subdomain's partial solve hands to the stitch (batch::run_domains).
struct TallyImage {
  aligned_vector<double> hi;  ///< per-cell sums (what data() exposes)
  aligned_vector<double> lo;  ///< per-cell compensation; empty if plain

  [[nodiscard]] std::int64_t cells() const {
    return static_cast<std::int64_t>(hi.size());
  }
};

class EnergyTally {
 public:
  /// `compensated` enables the Neumaier error tracking described above.
  /// Compensated kAtomic is only meaningful single-threaded (a two-double
  /// update cannot be a single atomic), so that combination requires
  /// `threads == 1`; use a privatized mode for compensated multi-threading.
  ///
  /// A plain tally built for exactly one thread deposits directly: with
  /// nothing to be atomic against, a kAtomic deposit is a plain
  /// load/add/store instead of a `lock cmpxchg` retry loop (x86 has no
  /// atomic double add, so the `omp atomic` form costs tens of cycles per
  /// flush).  The deposits, their values and their per-cell order are
  /// unchanged, so the result is bit-identical to the atomic form.  As
  /// with the per-thread privatized and deferred slots, `threads` bounds
  /// the OpenMP team that may deposit into the tally.
  EnergyTally(std::int64_t cells, TallyMode mode, std::int32_t threads,
              bool compensated = false);

  /// Hot path: deposit `e` into flat cell index `flat` from `thread`.
  void deposit(std::int64_t flat, double e, std::int32_t thread) {
    const auto f = static_cast<std::size_t>(flat);
    switch (mode_) {
      case TallyMode::kAtomic: {
        if (compensated_) {
          two_sum_add(global_[f], comp_[f], e);  // single-thread only
        } else if (direct_) {
          assert(thread == 0 && "team wider than the tally was built for");
          global_[f] += e;  // single-thread fast path: no lock prefix
        } else {
          double& slot = global_[f];
#pragma omp atomic update
          slot += e;
        }
        break;
      }
      case TallyMode::kDeferredAtomic:
        deferred_[static_cast<std::size_t>(thread)].value.push_back({flat, e});
        break;
      default: {
        const auto t = static_cast<std::size_t>(thread);
        if (compensated_) {
          two_sum_add(privates_[t][f], privates_comp_[t][f], e);
        } else {
          privates_[t][f] += e;
        }
      }
    }
  }

  /// Apply and clear all deferred deposits (kDeferredAtomic only); the
  /// driver calls this as its separate tally loop.  Safe to call in any
  /// mode (no-op otherwise).  Compensated tallies drain the per-thread
  /// buffers sequentially in thread order — no atomics, deterministic.
  void drain_deferred();

  /// Fold the per-thread copies into the global mesh (no-op for kAtomic).
  /// Called once after the solve (kPrivatized) or after every timestep
  /// (kPrivatizedMergeEveryStep) by the drivers.  For compensated tallies
  /// this also normalises each (sum, comp) pair so data()[c] is the
  /// once-rounded cell total; idempotent in every mode.
  void merge();

  /// Fold another merged tally into this one, cell by cell, carrying both
  /// words of each pair (double-double addition).  This tally must be
  /// compensated and share the cell count; call merge() on `other` first,
  /// and on this tally after the last accumulate().  Folding partial
  /// tallies of one deposit multiset in any order reproduces the single
  /// compensated tally bit-for-bit (the domain stitch folds through it).
  void accumulate(const EnergyTally& other);
  void accumulate(const TallyImage& image);

  /// Detached copy of the merged (sum, comp) arrays; call merge() first.
  [[nodiscard]] TallyImage image() const;

  /// Whether the driver must merge at the end of each timestep.
  [[nodiscard]] bool merge_each_step() const {
    return mode_ == TallyMode::kPrivatizedMergeEveryStep;
  }

  [[nodiscard]] TallyMode mode() const { return mode_; }
  [[nodiscard]] bool compensated() const { return compensated_; }
  [[nodiscard]] std::int64_t cells() const {
    return static_cast<std::int64_t>(global_.size());
  }

  /// Merged tally data (call merge() first for privatized modes).
  [[nodiscard]] const double* data() const { return global_.data(); }
  [[nodiscard]] double at(std::int64_t flat) const {
    return global_[static_cast<std::size_t>(flat)];
  }
  /// Per-cell compensation terms (nullptr unless compensated).
  [[nodiscard]] const double* compensation_data() const {
    return compensated_ ? comp_.data() : nullptr;
  }

  /// Sum over all cells (compensated; stable across schemes).
  [[nodiscard]] double total() const;

  /// Zero everything.
  void reset();

  /// Total bytes held — reports the §VI-F footprint blow-up.
  [[nodiscard]] std::uint64_t footprint_bytes() const;

 private:
  /// Neumaier running sum: sum += x with the rounding error folded into
  /// comp.  (sum + comp) tracks the exact sum to ~2x working precision.
  static void two_sum_add(double& sum, double& comp, double x) {
    const double t = sum + x;
    if (std::abs(sum) >= std::abs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
  }

  /// Double-double accumulate: (hi, lo) += (bhi, blo).
  static void dd_add(double& hi, double& lo, double bhi, double blo) {
    const double s = hi + bhi;
    const double err =
        std::abs(hi) >= std::abs(bhi) ? (hi - s) + bhi : (bhi - s) + hi;
    lo += err + blo;
    hi = s;
  }

  void accumulate(const double* hi, const double* lo, std::int64_t cells);
  void normalise();

  TallyMode mode_;
  bool compensated_ = false;
  bool direct_ = false;  ///< single-thread plain deposits (see ctor)
  aligned_vector<double> global_;
  aligned_vector<double> comp_;  ///< per-cell error terms (compensated only)
  std::vector<aligned_vector<double>> privates_;
  std::vector<aligned_vector<double>> privates_comp_;
  std::vector<Padded<std::vector<PendingDeposit>>> deferred_;
};

}  // namespace neutral
