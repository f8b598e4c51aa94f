#include "xs/synthetic.h"

#include <cmath>
#include <vector>

#include "rng/stream.h"
#include "util/error.h"
#include "util/numeric.h"

namespace neutral {
namespace {

struct Resonance {
  double energy_ev;
  double amplitude_barns;
  double width_ev;
};

/// Deterministically place resonances log-uniformly across [1 eV, 10 keV].
std::vector<Resonance> place_resonances(std::int32_t count, std::uint64_t seed,
                                        double amp_scale) {
  std::vector<Resonance> out;
  out.reserve(count);
  rng::BulkStream rng(seed, /*stream_id=*/7);
  const double log_lo = std::log(1.0);
  const double log_hi = std::log(1.0e4);
  for (std::int32_t i = 0; i < count; ++i) {
    Resonance r;
    r.energy_ev = std::exp(log_lo + (log_hi - log_lo) * rng.next());
    r.amplitude_barns = amp_scale * (0.5 + 4.5 * rng.next());
    // Widths grow with resonance energy, as in real data.
    r.width_ev = r.energy_ev * (0.002 + 0.01 * rng.next());
    out.push_back(r);
  }
  return out;
}

double lorentzian_sum(const std::vector<Resonance>& rs, double e) {
  double v = 0.0;
  for (const auto& r : rs) {
    const double d = (e - r.energy_ev) / r.width_ev;
    v += r.amplitude_barns / (1.0 + d * d);
  }
  return v;
}

}  // namespace

aligned_vector<double> synthetic_energy_grid(const SyntheticXsConfig& cfg) {
  NEUTRAL_REQUIRE(cfg.points >= 2, "need at least two table points");
  NEUTRAL_REQUIRE(cfg.min_energy_ev > 0.0 &&
                      cfg.max_energy_ev > cfg.min_energy_ev,
                  "bad energy range");
  aligned_vector<double> e(static_cast<std::size_t>(cfg.points));
  const double log_lo = std::log(cfg.min_energy_ev);
  const double log_hi = std::log(cfg.max_energy_ev);
  for (std::int32_t i = 0; i < cfg.points; ++i) {
    e[i] = std::exp(log_lo + (log_hi - log_lo) * i / (cfg.points - 1));
  }
  return e;
}

CrossSectionTable make_capture_table(const SyntheticXsConfig& cfg,
                                     aligned_vector<double> grid) {
  const auto resonances =
      place_resonances(cfg.resonances, cfg.seed, /*amp_scale=*/30.0);
  aligned_vector<double> barns(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double e = grid[i];
    // 1/v capture: sigma ~ 1/sqrt(E), normalised to ~10 barns at 0.025 eV.
    const double one_over_v = 10.0 * std::sqrt(0.025 / e);
    barns[i] = one_over_v + lorentzian_sum(resonances, e);
  }
  return CrossSectionTable(std::move(grid), std::move(barns));
}

CrossSectionTable make_scatter_table(const SyntheticXsConfig& cfg,
                                     aligned_vector<double> grid) {
  // Shallower, sparser resonances on a different deterministic layout.
  SyntheticXsConfig shifted = cfg;
  shifted.seed = cfg.seed ^ 0x5ca77e5u;
  const auto resonances =
      place_resonances(cfg.resonances / 2, shifted.seed, /*amp_scale=*/4.0);
  aligned_vector<double> barns(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double e = grid[i];
    // Broad potential-scattering level rolling off log-linearly from 170
    // barns (thermal) to 90 barns (20 MeV).  The magnitude is part of the
    // dummy-material calibration: at the paper's 1e3 kg/m^3 it puts the
    // mean free path at ~0.5 cells of the 4000^2 mesh, which is what makes
    // the scatter problem collision-dominated and confines particles near
    // their birth cells (§IV-B) — see DESIGN.md §5.
    const double level =
        170.0 - 80.0 * clamp(std::log10(e / 1.0e4) / 3.3, 0.0, 1.0);
    barns[i] = level + lorentzian_sum(resonances, e);
  }
  return CrossSectionTable(std::move(grid), std::move(barns));
}

CrossSectionTable make_capture_table(const SyntheticXsConfig& cfg) {
  return make_capture_table(cfg, synthetic_energy_grid(cfg));
}

CrossSectionTable make_scatter_table(const SyntheticXsConfig& cfg) {
  return make_scatter_table(cfg, synthetic_energy_grid(cfg));
}

}  // namespace neutral
