// Micro-benchmark: the atomic read-modify-write at the heart of the tally
// (§V-C, §VI-F).  Measures the uncontended cost, the contention penalty as
// threads pile onto fewer cells, and the deferred-drain alternative.
#include <benchmark/benchmark.h>
#include <omp.h>

#include "core/tally.h"
#include "util/aligned.h"

namespace {

using neutral::EnergyTally;
using neutral::TallyMode;

/// Plain add: the no-thread-safety baseline.
void BM_PlainAdd(benchmark::State& state) {
  neutral::aligned_vector<double> cells(1024, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    cells[i] += 1.0;
    i = (i + 1) & 1023;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PlainAdd);

/// omp atomic on a walking index — the tally's hot operation, uncontended.
void BM_OmpAtomicAdd(benchmark::State& state) {
  neutral::aligned_vector<double> cells(1024, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    double& slot = cells[i];
#pragma omp atomic update
    slot += 1.0;
    i = (i + 1) & 1023;
  }
}
BENCHMARK(BM_OmpAtomicAdd);

/// Tally deposit through each mode (single-threaded cost of the interface).
template <TallyMode Mode>
void BM_TallyDeposit(benchmark::State& state) {
  EnergyTally tally(1024, Mode, omp_get_max_threads(), 1.0e6);
  std::int64_t i = 0;
  for (auto _ : state) {
    tally.deposit(i, 1.0, 0);
    i = (i + 1) & 1023;
  }
  benchmark::DoNotOptimize(tally.merged().total());
}
BENCHMARK(BM_TallyDeposit<TallyMode::kAtomic>);
BENCHMARK(BM_TallyDeposit<TallyMode::kPrivatized>);
BENCHMARK(BM_TallyDeposit<TallyMode::kDeferredAtomic>);

/// Contention sweep: all threads hammer `range` cells (arg).  Smaller range
/// = more same-line conflicts, the §VII-A.1 effect.
void BM_ContendedAtomics(benchmark::State& state) {
  const auto range = static_cast<std::size_t>(state.range(0));
  static neutral::aligned_vector<double> cells;
  if (state.thread_index() == 0) cells.assign(1024, 0.0);
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    double& slot = cells[i % range];
#pragma omp atomic update
    slot += 1.0;
    ++i;
  }
}
BENCHMARK(BM_ContendedAtomics)->Arg(1)->Arg(16)->Arg(1024)->ThreadRange(1, 4);

/// Deferred mode end-to-end: buffer then drain (the §VI-G workaround).
void BM_DeferredDrain(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  EnergyTally tally(1024, TallyMode::kDeferredAtomic, 1, 1.0e6);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < n; ++i) tally.deposit(i & 1023, 1.0, 0);
    tally.drain_deferred();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DeferredDrain)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
