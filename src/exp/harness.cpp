#include "exp/harness.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.hpp"
#include "common/table.hpp"

namespace cr {

namespace detail {

void parallel_for_reps(int reps, int threads, const std::function<void(int)>& body) {
  CR_CHECK(reps > 0);
  if (threads > reps) threads = reps;
  if (threads <= 1) {
    for (int r = 0; r < reps; ++r) body(r);
    return;
  }
  // Work-stealing by atomic counter: replications have uneven cost (early
  // stopping, adversary-dependent horizons), so static striping would leave
  // workers idle. Indices are handed out in contiguous blocks rather than
  // one at a time — callers write results[r] for the indices they ran, and
  // interleaved single-index stealing puts adjacent workers' stores on the
  // same cache line (false sharing measurably throttles short runs, where
  // the store traffic is a visible fraction of the work). Each index still
  // runs exactly once and the output does not depend on which worker ran it
  // (results are stored by index). Blocks shrink for few-rep sweeps so every
  // worker gets a claim once reps >= threads; a block as large as reps
  // would run the whole sweep on the first worker.
  const int block = std::clamp(reps / (2 * threads), 1, 8);
  std::atomic<int> next_block{0};
  auto worker = [&] {
    for (;;) {
      const int lo = next_block.fetch_add(block);
      if (lo >= reps) return;
      const int hi = lo + block < reps ? lo + block : reps;
      for (int r = lo; r < hi; ++r) body(r);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

}  // namespace detail

std::vector<SimResult> replicate(int reps, std::uint64_t base_seed, const RunFn& run,
                                 int threads) {
  return replicate_map(reps, base_seed, run, threads);
}

Accumulator collect(const std::vector<SimResult>& results,
                    const std::function<double(const SimResult&)>& metric) {
  Accumulator acc;
  for (const auto& res : results) acc.add(metric(res));
  return acc;
}

double fraction(const std::vector<SimResult>& results,
                const std::function<bool(const SimResult&)>& pred) {
  if (results.empty()) return 0.0;
  std::uint64_t hits = 0;
  for (const auto& res : results)
    if (pred(res)) ++hits;
  return static_cast<double>(hits) / static_cast<double>(results.size());
}

std::string mean_sd(const Accumulator& acc, int precision) {
  return format_double(acc.mean(), precision) + "±" + format_double(acc.stddev(), precision);
}

}  // namespace cr
