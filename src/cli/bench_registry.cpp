#include "cli/bench_registry.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cli/benches/benches.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"

namespace cr {

BenchRegistry::BenchRegistry() {
  register_bench(benches::tradeoff());
  register_bench(benches::worstcase());
  register_bench(benches::batch_completion());
  register_bench(benches::batch_robustness());
  register_bench(benches::nonadaptive());
  register_bench(benches::lowerbound());
  register_bench(benches::baselines());
  register_bench(benches::first_success());
  register_bench(benches::latency());
  register_bench(benches::energy());
  register_bench(benches::ablation());
  register_bench(benches::cd_contrast());
  register_bench(benches::scenario());
  register_bench(benches::workload());
  register_bench(benches::stream());
}

BenchRegistry& BenchRegistry::instance() {
  static BenchRegistry registry;
  return registry;
}

const BenchSpec* BenchRegistry::find(const std::string& name) const {
  for (const BenchSpec& spec : entries_)
    if (spec.name == name) return &spec;
  return nullptr;
}

const BenchSpec& BenchRegistry::at(const std::string& name) const {
  const BenchSpec* spec = find(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown bench \"%s\"", name.c_str());
    const std::string hint = closest_match(name, names());
    if (!hint.empty()) std::fprintf(stderr, " (did you mean \"%s\"?)", hint.c_str());
    std::fprintf(stderr, "; known benches:");
    for (const BenchSpec& entry : entries_) std::fprintf(stderr, " %s", entry.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return *spec;
}

std::vector<std::string> BenchRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const BenchSpec& spec : entries_) out.push_back(spec.name);
  return out;
}

void BenchRegistry::register_bench(BenchSpec spec) {
  CR_CHECK(!spec.name.empty());
  CR_CHECK(spec.run != nullptr);
  CR_CHECK(find(spec.name) == nullptr);
  entries_.push_back(std::move(spec));
}

int BenchRegistry::run(const std::string& name, const std::vector<std::string>& args) const {
  const BenchSpec& spec = at(name);
  const std::string argv0 = "cr bench " + name;
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(argv0.c_str());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return spec.run(static_cast<int>(argv.size()), argv.data());
}

}  // namespace cr
