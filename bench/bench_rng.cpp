// RNG substrate microbenchmarks: scalar draws vs the batched block APIs the
// CJZ core leans on (fill() on a CounterRng or a Stream: paired Philox blocks),
// beside the sequential generator's scalar loop. Run by hand; the
// bit-exactness of every batched call against its scalar loop is asserted in
// tests/test_rng.cpp — this file only tracks the throughput gap that
// justifies the batching.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"

namespace {

using namespace cr;

void BM_RngScalarLoop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) out[i] = rng.next_u64();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngScalarLoop)->Arg(64)->Arg(4096);

void BM_CounterAt(benchmark::State& state) {
  const CounterRng rng(1);
  std::uint64_t index = 0;
  for (auto _ : state) benchmark::DoNotOptimize(rng.at(7, index++));
}
BENCHMARK(BM_CounterAt);

void BM_CounterFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CounterRng rng(1);
  std::vector<std::uint64_t> out(n);
  std::uint64_t start = 0;
  for (auto _ : state) {
    rng.fill(7, start, out.data(), n);
    start += n;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CounterFill)->Arg(64)->Arg(4096);

void BM_StreamFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto stream = CounterRng(1).stream(7);
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    stream.fill(out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StreamFill)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
