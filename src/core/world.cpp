#include "core/world.h"

#include <algorithm>

#include "core/constants.h"

namespace neutral {

namespace {

StructuredMesh2D make_mesh(const ProblemDeck& d) {
  return StructuredMesh2D(d.nx, d.ny, d.width_cm, d.height_cm);
}

DensityField make_density(const StructuredMesh2D& mesh,
                          const ProblemDeck& d) {
  DensityField field(mesh, d.base_density_kg_m3);
  for (const RegionSpec& r : d.regions) {
    field.fill_rect(r.x0, r.y0, r.x1, r.y1, r.density_kg_m3);
  }
  return field;
}

// splitmix64 finaliser: the same mixer validation.h uses for positional
// checksums — cheap, well-distributed, and dependency-free.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class FingerprintHasher {
 public:
  void add_u64(std::uint64_t v) { state_ = mix(state_ ^ v); }
  void add_i64(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add_double(double v) {
    // Hash the bit pattern: fingerprints must distinguish -0.0-style edge
    // cases consistently, not by numeric comparison.
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x6e65757472616c00ull;  // "neutral\0"
};

}  // namespace

World::World(const ProblemDeck& deck)
    : mesh(make_mesh(deck)),
      density(make_density(mesh, deck)),
      xs(shared_material_xs(deck.xs)),
      fingerprint(world_fingerprint(deck)) {}

std::uint64_t World::footprint_bytes() const {
  const auto doubles = [](std::uint64_t n) { return n * sizeof(double); };
  const std::uint64_t mesh_bytes =
      doubles(static_cast<std::uint64_t>(mesh.nx()) + 1 +
              static_cast<std::uint64_t>(mesh.ny()) + 1);
  const std::uint64_t density_bytes =
      doubles(static_cast<std::uint64_t>(density.size()));
  return sizeof(World) + mesh_bytes + density_bytes;
}

double max_flush_energy(const ProblemDeck& deck, double capture_rate) {
  // A flight of one timestep scores at most w0 * n_max * dt * rate of
  // track-length heating (the capture table's knots bound sigma_a between
  // them).
  double rho_max = deck.base_density_kg_m3;
  for (const RegionSpec& r : deck.regions) {
    rho_max = std::max(rho_max, r.density_kg_m3);
  }
  const double heating =
      deck.initial_weight * deck.dt_s *
      macroscopic(capture_rate, number_density(rho_max * kKgM3ToGCm3,
                                               deck.molar_mass_g_mol));
  // Floor well above underflow: a vacuum deck deposits nothing.
  return std::clamp(heating, 0x1p-800,
                    deck.initial_weight * deck.initial_energy_ev);
}

std::shared_ptr<const World> build_world(const ProblemDeck& deck) {
  return std::make_shared<const World>(deck);
}

std::uint64_t world_fingerprint(const ProblemDeck& deck) {
  FingerprintHasher h;
  h.add_i64(deck.nx);
  h.add_i64(deck.ny);
  h.add_double(deck.width_cm);
  h.add_double(deck.height_cm);
  h.add_double(deck.base_density_kg_m3);
  h.add_u64(static_cast<std::uint64_t>(deck.regions.size()));
  for (const RegionSpec& r : deck.regions) {
    h.add_double(r.x0);
    h.add_double(r.y0);
    h.add_double(r.x1);
    h.add_double(r.y1);
    h.add_double(r.density_kg_m3);
  }
  h.add_i64(deck.xs.points);
  h.add_double(deck.xs.min_energy_ev);
  h.add_double(deck.xs.max_energy_ev);
  h.add_i64(deck.xs.resonances);
  h.add_u64(deck.xs.seed);
  return h.value();
}

}  // namespace neutral
