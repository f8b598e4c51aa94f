#include "xs/table.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/numeric.h"

namespace neutral {

namespace {
/// Avogadro's number [1/mol].
constexpr double kAvogadro = 6.02214076e23;
/// One barn in cm^2.
constexpr double kBarn = 1.0e-24;
}  // namespace

const char* to_string(XsLookup mode) {
  switch (mode) {
    case XsLookup::kBinarySearch: return "binary";
    case XsLookup::kCachedLinear: return "cached-linear";
  }
  return "?";
}

CrossSectionTable::CrossSectionTable(aligned_vector<double> energy_ev,
                                     aligned_vector<double> barns)
    : energy_(std::move(energy_ev)), barns_(std::move(barns)) {
  NEUTRAL_REQUIRE(energy_.size() >= 2, "table needs at least two points");
  NEUTRAL_REQUIRE(energy_.size() == barns_.size(),
                  "energy/value arrays must have equal length");
  NEUTRAL_REQUIRE(energy_.front() > 0.0, "energies must be positive");
  for (std::size_t i = 1; i < energy_.size(); ++i) {
    NEUTRAL_REQUIRE(energy_[i] > energy_[i - 1],
                    "energies must be strictly increasing");
  }
  for (double v : barns_) {
    NEUTRAL_REQUIRE(v >= 0.0, "cross sections must be non-negative");
  }
  build_buckets();
}

void CrossSectionTable::build_buckets() {
  // ~4 table points per bucket keeps the post-bucket walk short while the
  // index stays small relative to the table itself.
  const auto n_buckets =
      std::max<std::int32_t>(8, static_cast<std::int32_t>(energy_.size() / 4));
  log_min_ = std::log(energy_.front());
  const double log_max = std::log(energy_.back());
  inv_log_bucket_width_ = n_buckets / (log_max - log_min_);

  bucket_start_.assign(static_cast<std::size_t>(n_buckets) + 1, 0);
  std::int32_t idx = 0;
  for (std::int32_t b = 0; b <= n_buckets; ++b) {
    const double e_lo = std::exp(log_min_ + b / inv_log_bucket_width_);
    while (idx + 2 < static_cast<std::int32_t>(energy_.size()) &&
           energy_[idx + 1] <= e_lo) {
      ++idx;
    }
    bucket_start_[b] = idx;
  }
}

std::int32_t CrossSectionTable::find_binary(double ev) const {
  const auto it = std::upper_bound(energy_.begin(), energy_.end(), ev);
  auto idx = static_cast<std::int64_t>(std::distance(energy_.begin(), it)) - 1;
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(energy_.size()) - 2);
  return static_cast<std::int32_t>(idx);
}

std::int32_t CrossSectionTable::find_cached(double ev, std::int32_t hint) const {
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;
  std::int32_t i = std::clamp(hint, 0, last);
  // Walk toward the target bin.  Collisions move energy by modest factors,
  // so this loop usually executes 0-2 iterations and touches cache-resident
  // lines — the §VI-A optimisation worth 1.3x.  Large energy jumps (a cold
  // hint at history start, or a hard down-scatter) would degrade the walk
  // to O(n) — the failure mode §VI-A anticipates — so after a bounded
  // number of steps the search reseeds from the O(1) bucketed index.
  constexpr std::int32_t kMaxWalk = 16;
  for (std::int32_t step = 0; i < last && energy_[i + 1] <= ev; ++i) {
    if (++step > kMaxWalk) return find_bucketed(ev);
  }
  for (std::int32_t step = 0; i > 0 && energy_[i] > ev; --i) {
    if (++step > kMaxWalk) return find_bucketed(ev);
  }
  return i;
}

std::int32_t CrossSectionTable::find_bucketed(double ev) const {
  const double e = clamp(ev, energy_.front(), energy_.back());
  auto b = static_cast<std::int32_t>((std::log(e) - log_min_) *
                                     inv_log_bucket_width_);
  b = std::clamp(b, 0, static_cast<std::int32_t>(bucket_start_.size()) - 2);
  std::int32_t i = bucket_start_[b];
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;
  while (i < last && energy_[i + 1] <= e) ++i;
  return i;
}

std::int32_t CrossSectionTable::find_bin(double ev, XsLookup mode,
                                         std::int32_t& cached_index) const {
  std::int32_t i = 0;
  switch (mode) {
    case XsLookup::kBinarySearch: i = find_binary(ev); break;
    case XsLookup::kCachedLinear: i = find_cached(ev, cached_index); break;
  }
  cached_index = i;
  return i;
}

std::int32_t CrossSectionTable::find_bin_counted(double ev, XsLookup mode,
                                                 std::int32_t& cached_index,
                                                 std::int64_t& steps) const {
  const double e = clamp(ev, energy_.front(), energy_.back());
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;

  // Mirrors find_bucketed, counting post-index walk advances.
  const auto bucketed_counted = [&]() {
    auto b = static_cast<std::int32_t>((std::log(e) - log_min_) *
                                       inv_log_bucket_width_);
    b = std::clamp(b, 0, static_cast<std::int32_t>(bucket_start_.size()) - 2);
    std::int32_t i = bucket_start_[b];
    while (i < last && energy_[i + 1] <= e) {
      ++i;
      ++steps;
    }
    return i;
  };

  std::int32_t i = 0;
  switch (mode) {
    case XsLookup::kBinarySearch: {
      // Count the halving probes an explicit binary search performs.
      std::int32_t lo = 0;
      std::int32_t hi = static_cast<std::int32_t>(energy_.size());
      while (hi - lo > 1) {
        const std::int32_t mid = lo + (hi - lo) / 2;
        ++steps;
        if (energy_[mid] <= e) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      i = std::clamp(lo, 0, last);
      break;
    }
    case XsLookup::kCachedLinear: {
      // Mirrors find_cached, including the bounded-walk reseed through
      // the bucketed index.
      constexpr std::int32_t kMaxWalk = 16;
      i = std::clamp(cached_index, 0, last);
      std::int32_t walked = 0;
      bool reseeded = false;
      while (i < last && energy_[i + 1] <= e) {
        ++i;
        ++steps;
        if (++walked > kMaxWalk) {
          reseeded = true;
          break;
        }
      }
      if (!reseeded) {
        while (i > 0 && energy_[i] > e) {
          --i;
          ++steps;
          if (++walked > kMaxWalk) {
            reseeded = true;
            break;
          }
        }
      }
      if (reseeded) i = bucketed_counted();
      break;
    }
  }
  cached_index = i;
  return i;
}

double CrossSectionTable::microscopic(double ev, XsLookup mode,
                                      std::int32_t& cached_index) const {
  const double e = clamp(ev, energy_.front(), energy_.back());
  const std::int32_t i = find_bin(e, mode, cached_index);
  const double e0 = energy_[i];
  const double e1 = energy_[i + 1];
  const double t = (e - e0) / (e1 - e0);
  return barns_[i] + t * (barns_[i + 1] - barns_[i]);
}

double number_density(double rho_g_cm3, double molar_mass_g_mol) {
  NEUTRAL_REQUIRE(molar_mass_g_mol > 0.0, "molar mass must be positive");
  return rho_g_cm3 * kAvogadro / molar_mass_g_mol;
}

double macroscopic(double micro_barns, double n_per_cm3) {
  return micro_barns * kBarn * n_per_cm3;
}

}  // namespace neutral
