// E11 "engine performance" — google-benchmark microbenchmarks for what no
// work counter and no perfbench metric shows: the hot RNG and backoff paths,
// the cohort-vs-per-node scaling with a large live batch, and fast_batch.
// Engine throughput on the workloads that matter is perfbench's
// engine.<name>.slots_per_s; the engine's work is pinned by the work gate
// (tests/test_work_gate.cpp).
#include <benchmark/benchmark.h>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "common/rng.hpp"
#include "engine/fast_batch.hpp"
#include "engine/fast_cjz.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "protocols/backoff.hpp"
#include "protocols/batch.hpp"
#include "protocols/cjz_node.hpp"

namespace {

using namespace cr;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngBinomialSmall(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.binomial(32, 0.1));
}
BENCHMARK(BM_RngBinomialSmall);

void BM_RngBinomialInversion(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.binomial(10000, 0.001));
}
BENCHMARK(BM_RngBinomialInversion);

void BM_RngBinomialNormalApprox(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.binomial(1 << 20, 0.01));
}
BENCHMARK(BM_RngBinomialNormalApprox);

void BM_BackoffStep(benchmark::State& state) {
  const FunctionSet fs = functions_constant_g(4.0);
  Rng rng(1);
  BackoffProcess bp(&fs);
  for (auto _ : state) benchmark::DoNotOptimize(bp.step(rng));
}
BENCHMARK(BM_BackoffStep);

/// The engines' scaling difference shows with a large live population: the
/// generic engine is O(live nodes) per slot, the cohort engine O(1).
void BM_FastCjzBigBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  slot_t slots = 16 * n;
  for (auto _ : state) {
    FunctionSet fs = functions_constant_g(4.0);
    ComposedAdversary adv(batch_arrival(n, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = slots;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(run_fast_cjz(fs, adv, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FastCjzBigBatch)->Arg(1 << 12)->Arg(1 << 15);

void BM_GenericCjzBigBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  slot_t slots = 16 * n;
  for (auto _ : state) {
    CjzFactory factory(functions_constant_g(4.0));
    ComposedAdversary adv(batch_arrival(n, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = slots;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(run_generic(factory, adv, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_GenericCjzBigBatch)->Arg(1 << 12);

/// Slots/second of the fast batch engine draining a large cohort.
void BM_FastBatchEngine(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ComposedAdversary adv(batch_arrival(n, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = 16 * n;
    cfg.seed = seed++;
    benchmark::DoNotOptimize(run_fast_batch(profiles::h_data(), adv, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(16 * n));
}
BENCHMARK(BM_FastBatchEngine)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
