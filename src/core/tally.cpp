#include "core/tally.h"

#include <algorithm>
#include <cmath>

#include "core/validation.h"

namespace neutral {

namespace {

__extension__ using Int128 = __int128;

constexpr std::int64_t kHiLimit = std::int64_t{1} << 62;

/// A cell's 128-bit count; refuses one whose high word reached 2^62 (the
/// sums would be one step from wrapping).
Int128 count(const TallyCell& c) {
  NEUTRAL_REQUIRE(c.hi < kHiLimit,
                  "tally cell overflowed its range (high word >= 2^62)");
  return static_cast<Int128>(c.hi) * (static_cast<Int128>(1) << 64) +
         static_cast<Int128>(c.lo);
}

/// The one read-out rule: nearest double to the count, times the quantum.
double energy(Int128 n, double quantum) {
  return static_cast<double>(n) * quantum;
}

}  // namespace

const char* to_string(TallyMode mode) {
  switch (mode) {
    case TallyMode::kAtomic: return "atomic";
    case TallyMode::kPrivatized: return "privatized";
    case TallyMode::kPrivatizedMergeEveryStep: return "privatized-merge-step";
    case TallyMode::kDeferredAtomic: return "deferred-atomic";
  }
  return "?";
}

double TallyImage::value(std::int64_t flat) const {
  const TallyCell& c = cells[static_cast<std::size_t>(flat)];
  // A count below 2^64 converts straight from its low word, to the same
  // nearest double.
  if (c.hi == 0) return static_cast<double>(c.lo) * quantum;
  return energy(count(c), quantum);
}

std::vector<double> TallyImage::values() const {
  std::vector<double> out(cells.size());
  for (std::int64_t c = 0; c < size(); ++c) {
    out[static_cast<std::size_t>(c)] = value(c);
  }
  return out;
}

double TallyImage::total() const {
  Int128 sum = 0;
  for (const TallyCell& c : cells) {
    NEUTRAL_REQUIRE(!__builtin_add_overflow(sum, count(c), &sum),
                    "tally total overflowed 128 bits");
  }
  return energy(sum, quantum);
}

double TallyImage::checksum() const {
  return positional_checksum(size(),
                             [this](std::int64_t c) { return value(c); });
}

EnergyTally::EnergyTally(std::int64_t cells, TallyMode mode,
                         std::int32_t threads, double flush_bound)
    : mode_(mode), direct_(threads == 1) {
  NEUTRAL_REQUIRE(cells > 0, "tally needs at least one cell");
  NEUTRAL_REQUIRE(threads >= 1, "tally needs at least one thread slot");
  NEUTRAL_REQUIRE(std::isnormal(flush_bound) && flush_bound > 0.0,
                  "tally needs a positive flush bound");
  // flush_bound = m * 2^e with m in [0.5, 1): ceil(log2) is e, or e - 1
  // for an exact power of two.
  int e = 0;
  const double m = std::frexp(flush_bound, &e);
  const int ceil_log2 = m == 0.5 ? e - 1 : e;
  global_.quantum = std::ldexp(1.0, ceil_log2 - 63);
  scale_ = std::ldexp(1.0, 63 - ceil_log2);
  NEUTRAL_REQUIRE(std::isnormal(global_.quantum) && std::isnormal(scale_),
                  "flush bound is outside the tally's range");
  global_.cells.assign(static_cast<std::size_t>(cells), TallyCell{});
  if (mode == TallyMode::kPrivatized ||
      mode == TallyMode::kPrivatizedMergeEveryStep) {
    privates_.resize(static_cast<std::size_t>(threads));
    for (auto& p : privates_) {
      p.assign(static_cast<std::size_t>(cells), TallyCell{});
    }
  } else if (mode == TallyMode::kDeferredAtomic) {
    deferred_.resize(static_cast<std::size_t>(threads));
  }
}

TallyCell EnergyTally::wide_units(double x) {
  // Energy deposits are never negative; a negative, non-finite or
  // out-of-range one is a fault the read-out reports.
  if (!(x >= 0.0 && x < 0x1p126)) {
#pragma omp atomic update
    ++invalid_deposits_;
    return {};
  }
  // x = hi * 2^64 + lo; the subtraction is exact (both terms are
  // multiples of x's ulp whenever hi != 0) and the cast truncates.
  const double hi = std::floor(x * 0x1p-64);
  return {static_cast<std::uint64_t>(x - hi * 0x1p64),
          static_cast<std::int64_t>(hi)};
}

void EnergyTally::drain_deferred() {
  if (mode_ != TallyMode::kDeferredAtomic) return;
  // Each thread drains its own buffer; cells can collide across buffers so
  // the adds stay atomic — but they now live in one tight loop instead of
  // being interleaved with event handling (the paper's §VI-G workaround).
#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(deferred_.size());
       ++t) {
    auto& buffer = deferred_[static_cast<std::size_t>(t)].value;
    for (const PendingDeposit& d : buffer) {
      add_atomic(global_.cells[static_cast<std::size_t>(d.cell)],
                 units(d.amount));
    }
    buffer.clear();
  }
}

void EnergyTally::merge() {
  drain_deferred();
  if (privates_.empty()) return;
  // Parallel over cells: each thread owns a cell range, reading all
  // private copies — no synchronisation needed.
  const std::int64_t cells = global_.size();
#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < cells; ++c) {
    const auto u = static_cast<std::size_t>(c);
    for (auto& p : privates_) {
      global_.cells[u] += p[u];
      p[u] = TallyCell{};
    }
  }
}

const TallyImage& EnergyTally::merged() {
  merge();
  NEUTRAL_REQUIRE(invalid_deposits_ == 0,
                  "tally received a negative, non-finite or out-of-range "
                  "deposit");
  return global_;
}

void EnergyTally::reset() {
  std::fill(global_.cells.begin(), global_.cells.end(), TallyCell{});
  for (auto& p : privates_) std::fill(p.begin(), p.end(), TallyCell{});
  for (auto& d : deferred_) d.value.clear();
  invalid_deposits_ = 0;
}

std::uint64_t EnergyTally::footprint_bytes() const {
  std::uint64_t bytes = global_.cells.size() * sizeof(TallyCell);
  for (const auto& p : privates_) bytes += p.size() * sizeof(TallyCell);
  for (const auto& d : deferred_) {
    bytes += d.value.capacity() * sizeof(PendingDeposit);
  }
  return bytes;
}

}  // namespace neutral
