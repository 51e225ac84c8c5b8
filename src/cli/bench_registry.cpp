#include "cli/bench_registry.hpp"

#include <cstdio>

#include "cli/benches/benches.hpp"

namespace cr {

BenchRegistry::BenchRegistry() : Registry("bench", "benches") {
  add(benches::tradeoff());
  add(benches::worstcase());
  add(benches::batch_completion());
  add(benches::batch_robustness());
  add(benches::nonadaptive());
  add(benches::lowerbound());
  add(benches::baselines());
  add(benches::first_success());
  add(benches::latency());
  add(benches::energy());
  add(benches::ablation());
  add(benches::cd_contrast());
  add(benches::scenario());
  add(benches::workload());
  add(benches::stream());
}

BenchRegistry& BenchRegistry::instance() {
  static BenchRegistry registry;
  return registry;
}

int BenchRegistry::run(const std::string& name, const std::vector<std::string>& args) const {
  const BenchSpec* spec = find(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "%s\n", unknown(name).c_str());
    return 2;
  }
  const std::string argv0 = "cr bench " + name;
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(argv0.c_str());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const BenchDriver driver(*spec, static_cast<int>(argv.size()), argv.data());
  return spec->run(driver);
}

}  // namespace cr
