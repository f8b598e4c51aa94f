// Micro-benchmark: random-number generation cost (§IV-F).
//
// The paper chose Random123's Threefry so the RNG cost measured on every
// architecture is representative of production Monte Carlo codes.  This
// compares the counter-based generator against std::mt19937_64 and
// measures the per-draw samplers the transport loop actually uses.
#include <benchmark/benchmark.h>

#include <random>

#include "rng/stream.h"
#include "rng/threefry.h"

namespace {

using neutral::rng::ParticleStream;
using neutral::rng::threefry2x64;
using neutral::rng::u64x2;

void BM_Threefry2x64(benchmark::State& state) {
  u64x2 counter{0, 0};
  const u64x2 key{42, 7};
  for (auto _ : state) {
    ++counter[0];
    benchmark::DoNotOptimize(threefry2x64(counter, key));
  }
  state.SetItemsProcessed(state.iterations() * 2);  // 2x64 bits per block
}
BENCHMARK(BM_Threefry2x64);

void BM_Threefry2x64Reference(benchmark::State& state) {
  u64x2 counter{0, 0};
  const u64x2 key{42, 7};
  for (auto _ : state) {
    ++counter[0];
    benchmark::DoNotOptimize(neutral::rng::threefry2x64_reference(counter, key));
  }
}
BENCHMARK(BM_Threefry2x64Reference);

void BM_Mt19937_64(benchmark::State& state) {
  std::mt19937_64 gen(42);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_Mt19937_64);

void BM_ParticleStreamUniform(benchmark::State& state) {
  ParticleStream stream(42, 7);
  for (auto _ : state) benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_ParticleStreamUniform);

void BM_ParticleStreamExponential(benchmark::State& state) {
  ParticleStream stream(42, 7);
  for (auto _ : state) benchmark::DoNotOptimize(stream.next_exponential());
}
BENCHMARK(BM_ParticleStreamExponential);

// Stream re-keying cost: the Over Events scheme reconstructs the stream
// from (seed, id, counter) at every collision kernel visit.
void BM_StreamRekeyAndDraw(benchmark::State& state) {
  std::uint64_t counter = 0;
  for (auto _ : state) {
    ParticleStream stream(42, 7, counter);
    benchmark::DoNotOptimize(stream.next());
    counter = stream.counter();
  }
}
BENCHMARK(BM_StreamRekeyAndDraw);

}  // namespace

BENCHMARK_MAIN();
