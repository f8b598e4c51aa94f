// Per-event-phase profiler (paper §VI-A).
//
// The paper reports grind times (18 ns per collision, 3 ns per facet) and
// the fraction of runtime spent tallying (50% Over Particles, 22% Over
// Events).  Events are too fine for call-graph profilers, so the drivers
// optionally timestamp phase boundaries with the TSC — a ~20-cycle probe —
// and accumulate cycles per phase per thread (padded; no sharing).
//
// Profiling is a runtime choice: drivers take a `PhaseProfiler*` and skip
// all probes when it is null, so production runs pay a single predictable
// branch per phase.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "util/aligned.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace neutral {

enum class Phase : std::uint8_t {
  kEventSearch = 0,  ///< time-to-event calculation + event selection
  kCollision = 1,    ///< collision handling incl. XS lookup
  kFacet = 2,        ///< facet crossing (geometry + density reload)
  kTally = 3,        ///< energy-deposition flush (the atomic)
  kCensus = 4,       ///< census handling
  kOther = 5,        ///< gather/scatter & bookkeeping outside phases
};
inline constexpr int kNumPhases = 6;

const char* to_string(Phase p);

/// Portable cycle source: steady_clock ticks (nanoseconds on the platforms
/// we build for).  Always compiled so non-x86 builds cannot rot unseen; the
/// compile-only check forces `read_cycles()` through it on x86 too.
inline std::uint64_t read_cycles_portable() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

/// Raw cycle counter.  Falls back to `read_cycles_portable()` on non-x86
/// (or when NEUTRAL_FORCE_PORTABLE_CYCLES is defined, for the compile-only
/// fallback test — an OBJECT-library TU that is never linked, so the forced
/// definition cannot ODR-clash with the rest of the build).
inline std::uint64_t read_cycles() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(NEUTRAL_FORCE_PORTABLE_CYCLES)
  return __rdtsc();
#else
  return read_cycles_portable();
#endif
}

class PhaseProfiler {
 public:
  /// `max_threads` sizes the per-thread slots (use omp_get_max_threads()).
  explicit PhaseProfiler(std::int32_t max_threads);

  /// Accumulate `cycles` and one visit into (thread, phase).
  void add(std::int32_t thread, Phase phase, std::uint64_t cycles) {
    auto& slot = slots_[static_cast<std::size_t>(thread)].value;
    slot.cycles[static_cast<int>(phase)] += cycles;
    slot.visits[static_cast<int>(phase)] += 1;
  }

  /// Aggregated results across threads.  Extensive: summing the reports of
  /// several runs yields their combined profile.
  struct Report {
    std::array<std::uint64_t, kNumPhases> cycles{};
    std::array<std::uint64_t, kNumPhases> visits{};
    [[nodiscard]] std::uint64_t total_cycles() const;
    [[nodiscard]] std::uint64_t total_visits() const;
    /// Fraction of profiled cycles spent in `p`.
    [[nodiscard]] double fraction(Phase p) const;
    /// Mean cycles per visit of `p` (0 when never visited).
    [[nodiscard]] double cycles_per_visit(Phase p) const;
    Report& operator+=(const Report& o);
  };
  [[nodiscard]] Report report() const;

  void reset();

  /// Calibrated TSC frequency in GHz (measured once, cached); converts
  /// cycles to nanoseconds for the grind-time table.
  static double tsc_ghz();

 private:
  struct Slot {
    std::array<std::uint64_t, kNumPhases> cycles{};
    std::array<std::uint64_t, kNumPhases> visits{};
  };
  aligned_vector<Padded<Slot>> slots_;
};

/// RAII phase probe: measures from construction to destruction.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, std::int32_t thread, Phase phase)
      : profiler_(profiler), thread_(thread), phase_(phase),
        start_(profiler ? read_cycles() : 0) {}
  ~ScopedPhase() {
    if (profiler_ != nullptr) {
      profiler_->add(thread_, phase_, read_cycles() - start_);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
  std::int32_t thread_;
  Phase phase_;
  std::uint64_t start_;
};

/// The paper's §VI-A grind-time table: per-phase visits, ns/visit
/// (cycles_per_visit / ghz) and share of profiled cycles.  `ghz` is usually
/// PhaseProfiler::tsc_ghz().  Shared by `neutral --profile`, the batch
/// sweep table and bench_transport so all three agree.  Returns a
/// one-line note instead when the report holds no visits (profiling off)
/// or the TSC rate is unknown.
std::string format_grind_table(const PhaseProfiler::Report& report,
                               double ghz);

}  // namespace neutral
