/// \file
/// Experiment harness: multi-seed replication and aggregation.
///
/// All Monte-Carlo results in the benches flow through replicate(): a run
/// factory is invoked with seeds base, base+1, ..., and per-metric
/// Accumulators are extracted with collect(). This keeps every reported
/// number a (mean ± stddev) over independent seeds, which is how the paper's
/// "with high probability" statements are made observable.
///
/// Replication parallelises for free: seeds are independent by construction
/// (splitmix64-seeded xoshiro256** gives well-separated streams for adjacent
/// seeds), so replicate(..., threads) fans the seed range across a thread
/// pool and stores each result at its seed's index — the output vector is
/// seed-ordered and bit-identical to the serial path for every thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "engine/sim_result.hpp"

namespace cr {

using RunFn = std::function<SimResult(std::uint64_t seed)>;

namespace detail {
/// Runs body(r) for r in [0, reps) on up to `threads` workers. Each index is
/// executed exactly once; with threads <= 1 this is a plain serial loop.
void parallel_for_reps(int reps, int threads, const std::function<void(int)>& body);
}  // namespace detail

/// Run `reps` independent replications with seeds base_seed .. base_seed+reps-1
/// and collect `run`'s results in seed order. With threads > 1 the seeds are
/// fanned across a thread pool; `run` must then be safe to invoke
/// concurrently (build all per-run state — adversary, config, observer —
/// inside the callback). The result is identical for every thread count.
template <typename Fn>
auto replicate_map(int reps, std::uint64_t base_seed, Fn&& run, int threads = 1)
    -> std::vector<std::decay_t<decltype(run(std::uint64_t{}))>> {
  using Result = std::decay_t<decltype(run(std::uint64_t{}))>;
  // std::vector<bool> packs adjacent elements into shared bytes, so
  // concurrent writes to distinct indices would race. Return a struct or an
  // int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "replicate_map cannot return bool (vector<bool> is not thread-safe "
                "per-element)");
  CR_CHECK(reps > 0);
  std::vector<Result> results(static_cast<std::size_t>(reps));
  detail::parallel_for_reps(reps, threads, [&](int r) {
    results[static_cast<std::size_t>(r)] = run(base_seed + static_cast<std::uint64_t>(r));
  });
  return results;
}

/// SimResult-typed replicate (the common case; see replicate_map).
std::vector<SimResult> replicate(int reps, std::uint64_t base_seed, const RunFn& run,
                                 int threads = 1);

/// Fold one scalar metric across replications.
Accumulator collect(const std::vector<SimResult>& results,
                    const std::function<double(const SimResult&)>& metric);

/// Fraction of replications satisfying a predicate (empirical probability).
double fraction(const std::vector<SimResult>& results,
                const std::function<bool(const SimResult&)>& pred);

/// Formats "mean±sd" compactly for tables.
std::string mean_sd(const Accumulator& acc, int precision = 3);

}  // namespace cr
