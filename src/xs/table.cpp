#include "xs/table.h"

#include <algorithm>

#include "util/error.h"

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
  build_slots();
}

void CrossSectionTable::build_slots() {
  // The smallest shift that keeps at most max(8, size()/4) slots past the
  // first: ~4-8 table points per slot keeps the post-slot walk short while
  // the index stays a fraction of the table.  For positive doubles the bit
  // pattern orders like the value, so every slot boundary below is itself
  // a representable energy inside the table range.
  const auto last = static_cast<std::int32_t>(energy_.size()) - 2;
  const std::uint64_t max_slot =
      std::max<std::uint64_t>(8, energy_.size() / 4);
  min_bits_ = bits(energy_.front());
  const std::uint64_t span = bits(energy_.back()) - min_bits_;
  shift_ = 0;
  while ((span >> shift_) > max_slot) ++shift_;

  slot_start_.assign((span >> shift_) + 1, 0);
  std::int32_t i = 0;
  for (std::size_t s = 0; s < slot_start_.size(); ++s) {
    const std::uint64_t first =
        min_bits_ + (static_cast<std::uint64_t>(s) << shift_);
    while (i < last && bits(energy_[i + 1]) <= first) ++i;
    slot_start_[s] = i;
  }
}

bool same_energy_grid(const CrossSectionTable& a, const CrossSectionTable& b) {
  return a.size() == b.size() &&
         std::equal(a.energies_data(), a.energies_data() + a.size(),
                    b.energies_data());
}

double number_density(double rho_g_cm3, double molar_mass_g_mol) {
  NEUTRAL_REQUIRE(molar_mass_g_mol > 0.0, "molar mass must be positive");
  return rho_g_cm3 * kAvogadro / molar_mass_g_mol;
}

double macroscopic(double micro_barns, double n_per_cm3) {
  return micro_barns * kBarn * n_per_cm3;
}

}  // namespace neutral
