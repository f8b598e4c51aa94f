#include "batch/sweep.h"

#include <fstream>
#include <sstream>

#include "io/deck_io.h"
#include "rng/stream.h"
#include "util/error.h"

namespace neutral::batch {

namespace {

std::size_t axis_extent(std::size_t n) { return n > 0 ? n : 1; }

[[noreturn]] void sweep_error(int line, const std::string& msg) {
  throw Error("sweep parse error at line " + std::to_string(line) + ": " +
              msg);
}

double parse_number(const std::string& token, int line) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    sweep_error(line, "expected a number, got '" + token + "'");
  }
  return v;
}

std::int64_t parse_int(const std::string& token, int line) {
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    sweep_error(line, "expected an integer, got '" + token + "'");
  }
  return v;
}

std::uint64_t parse_uint(const std::string& token, int line) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    sweep_error(line, "expected an unsigned integer, got '" + token + "'");
  }
  return v;
}

}  // namespace

TallyMode resolve_tally_mode(Scheme scheme, std::optional<TallyMode> named,
                             bool domain_run) {
  if (named) return *named;
  return scheme == Scheme::kOverEvents && !domain_run
             ? TallyMode::kDeferredAtomic
             : TallyMode::kAtomic;
}

std::size_t sweep_size(const SweepSpec& spec) {
  const SweepAxes& a = spec.axes;
  NEUTRAL_REQUIRE(a.mesh_scales.empty() || a.nx.empty(),
                  "mesh_scale and nx axes are mutually exclusive");
  const std::size_t sizes =
      axis_extent(a.mesh_scales.empty() ? a.nx.size() : a.mesh_scales.size());
  return sizes * axis_extent(a.particles.size()) *
         axis_extent(a.schemes.size()) * axis_extent(a.layouts.size()) *
         axis_extent(a.schedules.size()) * axis_extent(a.seeds.size());
}

std::vector<Job> expand_sweep(const SweepSpec& spec, bool domain_run) {
  const SweepAxes& a = spec.axes;
  std::vector<Job> jobs;
  jobs.reserve(sweep_size(spec));  // also validates axis exclusivity

  const std::size_t n_size =
      axis_extent(a.mesh_scales.empty() ? a.nx.size() : a.mesh_scales.size());
  std::uint64_t id = 0;
  for (std::size_t i_size = 0; i_size < n_size; ++i_size) {
    // Regenerating a named deck per mesh scale keeps the paper's invariant
    // that density scales with resolution (constant cells per mean free
    // path); a raw nx override leaves the density field alone.
    SimulationConfig size_base = spec.base;
    if (!a.mesh_scales.empty()) {
      NEUTRAL_REQUIRE(!spec.deck_name.empty(),
                      "axis mesh_scale requires a named base deck");
      ProblemDeck scaled = deck_by_name(spec.deck_name, a.mesh_scales[i_size],
                                        spec.particle_scale);
      scaled.n_timesteps = spec.base.deck.n_timesteps;
      scaled.seed = spec.base.deck.seed;
      size_base.deck = std::move(scaled);
    } else if (!a.nx.empty()) {
      size_base.deck.nx = a.nx[i_size];
      size_base.deck.ny = a.nx[i_size];
    }

    for (std::size_t i_n = 0; i_n < axis_extent(a.particles.size()); ++i_n) {
      for (std::size_t i_sc = 0; i_sc < axis_extent(a.schemes.size());
           ++i_sc) {
        for (std::size_t i_l = 0; i_l < axis_extent(a.layouts.size());
             ++i_l) {
          for (std::size_t i_sd = 0; i_sd < axis_extent(a.schedules.size());
               ++i_sd) {
            for (std::size_t i_seed = 0;
                 i_seed < axis_extent(a.seeds.size()); ++i_seed) {
              SimulationConfig cfg = size_base;
              if (!a.particles.empty()) cfg.deck.n_particles = a.particles[i_n];
              if (!a.schemes.empty()) cfg.scheme = a.schemes[i_sc];
              if (!a.layouts.empty()) cfg.layout = a.layouts[i_l];
              if (!a.schedules.empty()) cfg.schedule = a.schedules[i_sd];
              if (!a.seeds.empty()) {
                cfg.deck.seed = a.seeds[i_seed];
              } else if (spec.batch_seed != 0) {
                cfg.deck.seed =
                    rng::derive_stream_seed(spec.batch_seed, id);
              }
              cfg.tally_mode = resolve_tally_mode(
                  cfg.scheme,
                  spec.tally_mode_named
                      ? std::optional<TallyMode>(spec.base.tally_mode)
                      : std::nullopt,
                  domain_run);
              jobs.push_back(make_job(id, std::move(cfg), spec.priority));
              ++id;
            }
          }
        }
      }
    }
  }
  return jobs;
}

SweepSpec parse_sweep(const std::string& text) {
  SweepSpec spec;
  std::string deck_file;
  double mesh_scale = 0.08;
  double particle_scale = 0.02;
  std::int64_t timesteps = 0;
  std::int64_t particles = 0;
  bool have_seed = false;
  std::uint64_t seed = 0;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line.erase(comment);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;

    std::vector<std::string> args;
    std::string tok;
    while (ls >> tok) args.push_back(tok);
    auto need = [&](std::size_t n) {
      if (args.size() != n) {
        sweep_error(line_no, "key '" + key + "' expects " +
                                 std::to_string(n) + " argument(s), got " +
                                 std::to_string(args.size()));
      }
    };
    auto need_at_least = [&](std::size_t n) {
      if (args.size() < n) {
        sweep_error(line_no, "key '" + key + "' expects at least " +
                                 std::to_string(n) + " argument(s)");
      }
    };

    if (key == "deck") {
      need(1);
      spec.deck_name = args[0];
    } else if (key == "deck_file") {
      need(1);
      deck_file = args[0];
    } else if (key == "mesh_scale") {
      need(1);
      mesh_scale = parse_number(args[0], line_no);
    } else if (key == "particle_scale") {
      need(1);
      particle_scale = parse_number(args[0], line_no);
    } else if (key == "scheme") {
      need(1);
      spec.base.scheme = scheme_from_string(args[0]);
    } else if (key == "layout") {
      need(1);
      spec.base.layout = layout_from_string(args[0]);
    } else if (key == "tally") {
      need(1);
      spec.base.tally_mode = tally_mode_from_string(args[0]);
      spec.tally_mode_named = true;
    } else if (key == "lookup") {
      need(1);
      spec.base.lookup = lookup_from_string(args[0]);
    } else if (key == "schedule") {
      need(1);
      spec.base.schedule = schedule_from_string(args[0]);
    } else if (key == "threads") {
      need(1);
      spec.base.threads =
          static_cast<std::int32_t>(parse_int(args[0], line_no));
    } else if (key == "timesteps") {
      need(1);
      timesteps = parse_int(args[0], line_no);
    } else if (key == "particles") {
      need(1);
      particles = parse_int(args[0], line_no);
    } else if (key == "seed") {
      need(1);
      seed = parse_uint(args[0], line_no);
      have_seed = true;
    } else if (key == "batch_seed") {
      need(1);
      spec.batch_seed = parse_uint(args[0], line_no);
    } else if (key == "priority") {
      need(1);
      spec.priority = static_cast<std::int32_t>(parse_int(args[0], line_no));
    } else if (key == "axis") {
      need_at_least(2);
      const std::string& axis = args[0];
      for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& v = args[i];
        if (axis == "particles") {
          spec.axes.particles.push_back(parse_int(v, line_no));
        } else if (axis == "mesh_scale") {
          spec.axes.mesh_scales.push_back(parse_number(v, line_no));
        } else if (axis == "nx") {
          spec.axes.nx.push_back(
              static_cast<std::int32_t>(parse_int(v, line_no)));
        } else if (axis == "scheme") {
          spec.axes.schemes.push_back(scheme_from_string(v));
        } else if (axis == "layout") {
          spec.axes.layouts.push_back(layout_from_string(v));
        } else if (axis == "schedule") {
          spec.axes.schedules.push_back(schedule_from_string(v));
        } else if (axis == "seed") {
          spec.axes.seeds.push_back(parse_uint(v, line_no));
        } else {
          sweep_error(line_no, "unknown axis '" + axis + "'");
        }
      }
    } else {
      sweep_error(line_no, "unknown key '" + key + "'");
    }
  }

  NEUTRAL_REQUIRE(spec.deck_name.empty() || deck_file.empty(),
                  "sweep spec: 'deck' and 'deck_file' are mutually exclusive");
  if (!deck_file.empty()) {
    spec.base.deck = load_deck(deck_file);
  } else {
    const std::string name = spec.deck_name.empty() ? "csp" : spec.deck_name;
    spec.base.deck = deck_by_name(name, mesh_scale, particle_scale);
    spec.deck_name = name;
  }
  spec.particle_scale = particle_scale;
  if (timesteps > 0) {
    spec.base.deck.n_timesteps = static_cast<std::int32_t>(timesteps);
  }
  if (particles > 0) spec.base.deck.n_particles = particles;
  if (have_seed) spec.base.deck.seed = seed;
  return spec;
}

SweepSpec load_sweep(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot open sweep spec '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_sweep(text.str());
}

}  // namespace neutral::batch
