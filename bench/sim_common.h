// Shared plumbing for the machine-model (simulator) figure benches.
//
// Figures 9-14 compare architectures this reproduction does not have
// (Broadwell node, KNL, POWER8, K20X, P100).  The simulator replays the
// real transport physics under per-device cost models (src/simt) on a
// shrunken deck, then extrapolates per-particle cost to the paper's
// particle count.  Reported seconds are therefore *estimates for the
// paper-scale problem*; their ratios are the reproduced result.
#pragma once

#include <string>

#include "bench_common.h"
#include "simt/device.h"
#include "simt/transport_sim.h"

namespace neutral::bench {

struct SimScale {
  double mesh_scale = 0.064;        ///< 4000 -> 256 cells per axis
  std::int64_t particles = 2048;    ///< simulated histories per config
  /// XS lookup to model (default: the paper's cached walk).  The replayed
  /// physics is bit-identical either way; only the cost charging changes.
  XsLookup lookup = XsLookup::kCachedLinear;

  static bool parse(CliParser& cli, SimScale* out) {
    out->mesh_scale = cli.option_double(
        "mesh-scale", env_or_double("NEUTRAL_BENCH_SCALE", out->mesh_scale),
        "mesh resolution as a fraction of the paper's 4000^2");
    out->particles = cli.option_int("particles", out->particles,
                                    "histories to replay per configuration");
    out->lookup = lookup_from_string(
        cli.option("lookup", "cached",
                   "XS lookup to model (binary|cached)"));
    return cli.finish();
  }
};

/// Paper particle counts per deck (§IV-B).
inline std::int64_t paper_particles(const std::string& deck_name) {
  return deck_name == "scatter" ? 10000000 : 1000000;
}

/// Build a simulator config for (device, scheme, deck).
inline simt::SimtConfig sim_config(const simt::DeviceModel& device,
                                   Scheme scheme, const std::string& deck_name,
                                   const SimScale& scale) {
  simt::SimtConfig cfg;
  cfg.device = device;
  cfg.scheme = scheme;
  cfg.deck = deck_by_name(deck_name, scale.mesh_scale, 1.0);
  cfg.deck.n_particles = scale.particles;
  cfg.deck.n_timesteps = 1;
  // The modelled cache shrinks with the mesh (simt::SimtConfig); the XS
  // tables must shrink alongside or they thrash a cache they would be
  // resident in at paper scale (240 KB table vs 32-110 MB CPU caches).
  cfg.deck.xs.points = std::max<std::int32_t>(
      256, static_cast<std::int32_t>(30000 * scale.mesh_scale));
  cfg.lookup = scale.lookup;
  cfg.amortize_to_particles = paper_particles(deck_name);
  return cfg;
}

/// Run and extrapolate to the paper's particle count.
inline simt::SimtEstimate estimate_paper_scale(const simt::SimtConfig& cfg,
                                               const std::string& deck_name,
                                               const SimScale& scale) {
  simt::SimtEstimate est = simt::simulate_transport(cfg);
  est.seconds =
      simt::scale_seconds(est, scale.particles, paper_particles(deck_name));
  return est;
}

inline std::string sim_banner(const std::string& binary_name,
                              const std::string& figure,
                              const SimScale& scale) {
  std::printf("# %s — reproduces %s (machine-model estimates)\n",
              binary_name.c_str(), figure.c_str());
  std::printf(
      "# replayed %lld histories on a %.3g-scale mesh; seconds are\n"
      "# extrapolated to the paper's particle counts (hardware-gated\n"
      "# experiment — see DESIGN.md section 2)\n",
      static_cast<long long>(scale.particles), scale.mesh_scale);
  if (scale.lookup != XsLookup::kCachedLinear) {
    std::printf("# modelled lookup: %s\n", to_string(scale.lookup));
  }
  return binary_name + ".csv";
}

}  // namespace neutral::bench
