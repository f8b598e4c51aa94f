// Expected-results files: the mini-app regression workflow.
//
// The original mini-app validates runs against `.results` files holding the
// expected tally checksum per problem.  This module provides the same
// workflow: record a run's invariant outputs (tally total + positional
// checksum + event counts) and later verify a fresh run against them —
// catching physics regressions that unit tests on components would miss.
//
// Format (text, one `key value` per line):
//
//   problem <name>
//   particles <n>
//   timesteps <n>
//   seed <n>
//   tally_total <float>
//   tally_checksum <float>
//   facets <n>
//   collisions <n>
//   censuses <n>
//
// Floating-point comparisons take a relative tolerance; tallies are exact
// integer sums, so any run configuration of the deck matches at 0.
#pragma once

#include <cstdint>
#include <string>

#include "core/simulation.h"

namespace neutral {

/// The run outputs a regression record pins down.
struct ExpectedResults {
  std::string problem = "custom";
  std::int64_t particles = 0;
  std::int32_t timesteps = 0;
  std::uint64_t seed = 0;
  double tally_total = 0.0;
  double tally_checksum = 0.0;
  std::uint64_t facets = 0;
  std::uint64_t collisions = 0;
  std::uint64_t censuses = 0;
};

/// Snapshot a finished run.
ExpectedResults make_expected(const SimulationConfig& config,
                              const RunResult& result);

/// Serialise / parse the text format (round-trips exactly).
std::string format_results(const ExpectedResults& expected);
ExpectedResults parse_results(const std::string& text);

/// File I/O.
void save_results(const ExpectedResults& expected, const std::string& path);
ExpectedResults load_results(const std::string& path);

/// Outcome of a verification.
struct ResultsCheck {
  bool passed = false;
  std::string detail;  ///< human-readable mismatch description (empty if ok)
};

/// Compare a fresh run against a record.  Event counts must match exactly
/// (they are integers and scheme-invariant); tallies compare to `rel_tol`.
ResultsCheck verify_results(const ExpectedResults& expected,
                            const SimulationConfig& config,
                            const RunResult& result, double rel_tol = 1e-9);

}  // namespace neutral
