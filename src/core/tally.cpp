#include "core/tally.h"

#include "util/numeric.h"

namespace neutral {

const char* to_string(TallyMode mode) {
  switch (mode) {
    case TallyMode::kAtomic: return "atomic";
    case TallyMode::kPrivatized: return "privatized";
    case TallyMode::kPrivatizedMergeEveryStep: return "privatized-merge-step";
    case TallyMode::kDeferredAtomic: return "deferred-atomic";
  }
  return "?";
}

EnergyTally::EnergyTally(std::int64_t cells, TallyMode mode,
                         std::int32_t threads, bool compensated)
    : mode_(mode),
      compensated_(compensated),
      direct_(threads == 1 && !compensated) {
  NEUTRAL_REQUIRE(cells > 0, "tally needs at least one cell");
  NEUTRAL_REQUIRE(threads >= 1, "tally needs at least one thread slot");
  NEUTRAL_REQUIRE(!(compensated && mode == TallyMode::kAtomic && threads > 1),
                  "compensated atomic tallies are single-threaded only "
                  "(use a privatized mode for compensated multi-threading)");
  global_.assign(static_cast<std::size_t>(cells), 0.0);
  if (compensated_) comp_.assign(static_cast<std::size_t>(cells), 0.0);
  if (mode == TallyMode::kPrivatized ||
      mode == TallyMode::kPrivatizedMergeEveryStep) {
    privates_.resize(static_cast<std::size_t>(threads));
    for (auto& p : privates_) p.assign(static_cast<std::size_t>(cells), 0.0);
    if (compensated_) {
      privates_comp_.resize(static_cast<std::size_t>(threads));
      for (auto& p : privates_comp_) {
        p.assign(static_cast<std::size_t>(cells), 0.0);
      }
    }
  } else if (mode == TallyMode::kDeferredAtomic) {
    deferred_.resize(static_cast<std::size_t>(threads));
  }
}

void EnergyTally::drain_deferred() {
  if (mode_ != TallyMode::kDeferredAtomic) return;
  if (compensated_) {
    // Sequential drain in thread order: every deposit lands in its cell's
    // (sum, comp) pair exactly, so the final cell values do not depend on
    // this order anyway — but keeping it fixed makes the intermediate
    // state reproducible too.
    for (auto& padded : deferred_) {
      for (const PendingDeposit& d : padded.value) {
        const auto f = static_cast<std::size_t>(d.cell);
        two_sum_add(global_[f], comp_[f], d.amount);
      }
      padded.value.clear();
    }
    return;
  }
  // Each thread drains its own buffer; cells can collide across buffers so
  // the adds stay atomic — but they now live in one tight loop instead of
  // being interleaved with event handling (the paper's §VI-G workaround).
#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(deferred_.size());
       ++t) {
    auto& buffer = deferred_[static_cast<std::size_t>(t)].value;
    for (const PendingDeposit& d : buffer) {
      double& slot = global_[static_cast<std::size_t>(d.cell)];
#pragma omp atomic update
      slot += d.amount;
    }
    buffer.clear();
  }
}

void EnergyTally::merge() {
  drain_deferred();
  const auto cells = static_cast<std::int64_t>(global_.size());
  if (!privates_.empty()) {
    // Parallel over cells: each thread owns a cell range, reading all
    // private copies — no synchronisation needed.
    if (compensated_) {
#pragma omp parallel for schedule(static)
      for (std::int64_t c = 0; c < cells; ++c) {
        const auto u = static_cast<std::size_t>(c);
        double hi = global_[u];
        double lo = comp_[u];
        for (std::size_t t = 0; t < privates_.size(); ++t) {
          dd_add(hi, lo, privates_[t][u], privates_comp_[t][u]);
          privates_[t][u] = 0.0;
          privates_comp_[t][u] = 0.0;
        }
        global_[u] = hi;
        comp_[u] = lo;
      }
    } else {
#pragma omp parallel for schedule(static)
      for (std::int64_t c = 0; c < cells; ++c) {
        double sum = 0.0;
        for (auto& p : privates_) {
          sum += p[static_cast<std::size_t>(c)];
          p[static_cast<std::size_t>(c)] = 0.0;
        }
        global_[static_cast<std::size_t>(c)] += sum;
      }
    }
  }
  if (compensated_) normalise();
}

void EnergyTally::normalise() {
  // Re-balance each (sum, comp) pair so the stored sum is the rounded value
  // of the pair: data()[c] == fl(hi + lo).  TwoSum keeps the residual, so
  // repeated normalisation is a fixed point and further accumulation stays
  // exact.
  const auto cells = static_cast<std::int64_t>(global_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < cells; ++c) {
    const auto u = static_cast<std::size_t>(c);
    const double hi = global_[u];
    const double lo = comp_[u];
    const double s = hi + lo;
    global_[u] = s;
    comp_[u] = std::abs(hi) >= std::abs(lo) ? (hi - s) + lo : (lo - s) + hi;
  }
}

void EnergyTally::accumulate(const double* hi, const double* lo,
                             std::int64_t cells) {
  NEUTRAL_REQUIRE(compensated_,
                  "accumulate() target must be a compensated tally");
  NEUTRAL_REQUIRE(cells == this->cells(),
                  "accumulate() requires matching cell counts");
  for (std::int64_t c = 0; c < cells; ++c) {
    const auto u = static_cast<std::size_t>(c);
    dd_add(global_[u], comp_[u], hi[u], lo != nullptr ? lo[u] : 0.0);
  }
}

void EnergyTally::accumulate(const EnergyTally& other) {
  accumulate(other.global_.data(), other.compensation_data(), other.cells());
}

void EnergyTally::accumulate(const TallyImage& image) {
  accumulate(image.hi.data(), image.lo.empty() ? nullptr : image.lo.data(),
             image.cells());
}

TallyImage EnergyTally::image() const {
  TallyImage img;
  img.hi = global_;
  if (compensated_) img.lo = comp_;
  return img;
}

double EnergyTally::total() const {
  KahanSum sum;
  for (double v : global_) sum.add(v);
  for (double v : comp_) sum.add(v);
  // Include unmerged private contributions so total() is correct even when
  // called mid-solve.
  for (const auto& p : privates_) {
    for (double v : p) sum.add(v);
  }
  for (const auto& p : privates_comp_) {
    for (double v : p) sum.add(v);
  }
  return sum.value();
}

void EnergyTally::reset() {
  std::fill(global_.begin(), global_.end(), 0.0);
  std::fill(comp_.begin(), comp_.end(), 0.0);
  for (auto& p : privates_) std::fill(p.begin(), p.end(), 0.0);
  for (auto& p : privates_comp_) std::fill(p.begin(), p.end(), 0.0);
  for (auto& d : deferred_) d.value.clear();
}

std::uint64_t EnergyTally::footprint_bytes() const {
  std::uint64_t bytes = (global_.size() + comp_.size()) * sizeof(double);
  for (const auto& p : privates_) bytes += p.size() * sizeof(double);
  for (const auto& p : privates_comp_) bytes += p.size() * sizeof(double);
  for (const auto& d : deferred_) {
    bytes += d.value.capacity() * sizeof(PendingDeposit);
  }
  return bytes;
}

}  // namespace neutral
