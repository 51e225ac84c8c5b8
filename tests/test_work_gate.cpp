// The work gate: CjzCore's work counts (CjzCoreWork, engine/cjz_core.hpp)
// and node-table footprint on a fixed set of rows, pinned in
// tests/golden/work_gate.json. The counts are bit-reproducible, so the gate
// has no noise band and gives the same verdict on any host and at any thread
// count. Wall time is perfbench's job, measured on one host.
//
// Every row runs on CountingEngine, which forwards to FastCjzSimulator and
// keeps each seed's counts. Sweep rows go through replicate_workload, so the
// gate also sees whether a sweep attaches its plan, at 1, 2 and 4 threads,
// which must agree exactly. Single-run rows run the same presets through
// run_scenario, the E-benches' per-slot path. A row's counts are summed over
// its seeds; peaks take the maximum.
//
// On a mismatch the test names the row and the counter, writes the
// regenerated golden file next to the test binary and prints its path. A
// change that alters the work on purpose copies that file over the golden
// and says why in CHANGES.md.
//
// Requires CR_SOURCE_DIR and CR_BINARY_DIR (set in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "engine/engine.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr {
namespace {

constexpr const char* kSchema = "cr-work-gate/1";
constexpr int kSeeds = 3;
constexpr std::uint64_t kBaseSeed = 9100;

struct Counts {
  CjzCoreWork work;
  CjzCoreMemoryStats memory;
};

/// fast_cjz that keeps each seed's counts, the way perfbench's TimedEngine
/// keeps each run's time.
class CountingEngine final : public Engine {
 public:
  std::string name() const override { return "fast_cjz"; }
  bool supports(const ProtocolSpec& spec) const override {
    return spec.kind == ProtocolSpec::Kind::kCjz;
  }
  int speed_rank() const override { return 100; }
  SimResult run(const ProtocolSpec& spec, Adversary& adversary, const SimConfig& config,
                SlotObserver* observer) const override {
    FastCjzSimulator sim(spec.fs, adversary, config, spec.cjz_options);
    sim.set_observer(observer);
    SimResult result = sim.run();
    const std::lock_guard<std::mutex> lock(mu_);
    EXPECT_TRUE(by_seed_.emplace(config.seed, Counts{sim.work(), sim.memory_stats()}).second)
        << "seed " << config.seed << " ran twice";
    return result;
  }

  const std::map<std::uint64_t, Counts>& by_seed() const { return by_seed_; }

 private:
  mutable std::mutex mu_;
  mutable std::map<std::uint64_t, Counts> by_seed_;
};

/// One gated counter: how to read it from a seed's counts and whether the
/// row keeps the sum over seeds or the maximum.
struct CounterDef {
  const char* name;
  bool peak;
  std::uint64_t (*get)(const Counts&);
};

const CounterDef kCounters[] = {
    {"slots_stepped", false, [](const Counts& c) { return c.work.slots_stepped; }},
    {"slots_silent", false, [](const Counts& c) { return c.work.slots_silent; }},
    {"slots_skipped", false, [](const Counts& c) { return c.work.slots_skipped; }},
    {"calendar_pushes", false, [](const Counts& c) { return c.work.calendar_pushes; }},
    {"calendar_stale", false, [](const Counts& c) { return c.work.calendar_stale; }},
    {"calendar_peak", true, [](const Counts& c) { return c.work.calendar_peak; }},
    {"cohort_draws", false, [](const Counts& c) { return c.work.cohort_draws; }},
    {"rng_words", false, [](const Counts& c) { return c.work.rng_words; }},
    {"peak_live_nodes", true, [](const Counts& c) { return c.memory.peak_live_nodes; }},
    {"node_table_slots", true, [](const Counts& c) { return c.memory.node_table_slots; }},
};

/// One row's folded counts, as the golden file holds them.
struct RowCounts {
  std::string row;
  std::string path;  ///< "plan", "per_slot", or "mixed" when seeds disagree
  std::vector<std::uint64_t> values;  ///< in kCounters order
};

RowCounts fold(const std::string& row, const std::map<std::uint64_t, Counts>& by_seed) {
  RowCounts out;
  out.row = row;
  out.values.assign(std::size(kCounters), 0);
  std::size_t plan_runs = 0;
  for (const auto& [seed, counts] : by_seed) {
    if (counts.work.plan_path) ++plan_runs;
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      const std::uint64_t v = kCounters[i].get(counts);
      out.values[i] = kCounters[i].peak ? std::max(out.values[i], v) : out.values[i] + v;
    }
  }
  out.path = plan_runs == by_seed.size() ? "plan" : plan_runs == 0 ? "per_slot" : "mixed";
  return out;
}

struct RowDef {
  std::string row;
  WorkloadSpec spec;
  bool single = true;  ///< also run the preset as single runs, without a plan
};

WorkloadSpec preset(const std::string& scenario, slot_t horizon,
                    void (*tweak)(ScenarioParams&) = nullptr) {
  ScenarioParams p;
  p.horizon = horizon;
  if (tweak != nullptr) tweak(p);
  return scenario_preset_workload(scenario, p);
}

/// The traffic that matters: quiet_tail's and overload's shapes, E2's claim
/// regime, a long Bernoulli stream, the log-g and bursty presets, and one
/// composition the plan path cannot take.
std::vector<RowDef> row_defs() {
  WorkloadSpec reactive;
  reactive.arrival = {"bernoulli", {{"rate", "0.05"}}};
  reactive.jammer = {"reactive", {}};
  reactive.horizon = slot_t{1} << 14;
  return {
      {"batch n=256 jam=0.25 t=2^16", preset("batch", slot_t{1} << 16)},
      {"worst_case margin=4 jam=0 t=2^14", preset("worst_case", slot_t{1} << 14,
                                                  [](ScenarioParams& p) { p.jam = 0.0; })},
      {"worst_case margin=1 jam=0.4 t=2^14",
       preset("worst_case", slot_t{1} << 14,
              [](ScenarioParams& p) {
                p.arrival_margin = 1.0;
                p.jam = 0.4;
              })},
      {"worst_case margin=0.5 jam=0.4 t=2^14",
       preset("worst_case", slot_t{1} << 14,
              [](ScenarioParams& p) {
                p.arrival_margin = 0.5;
                p.jam = 0.4;
              })},
      {"bernoulli_stream rate=0.1 jam=0.25 t=2^16", preset("bernoulli_stream", slot_t{1} << 16)},
      {"smooth g=log t=2^14",
       preset("smooth", slot_t{1} << 14, [](ScenarioParams& p) { p.g_regime = "log"; })},
      {"bursty n=32 t=2^14",
       preset("bursty", slot_t{1} << 14, [](ScenarioParams& p) { p.n = 32; })},
      {"bernoulli x reactive t=2^14", reactive, false},
  };
}

RowCounts run_sweep(const RowDef& def, int threads) {
  const CountingEngine engine;
  replicate_workload(engine, def.spec, kSeeds, kBaseSeed, threads);
  EXPECT_EQ(engine.by_seed().size(), static_cast<std::size_t>(kSeeds)) << def.row;
  return fold("sweep " + def.row, engine.by_seed());
}

RowCounts run_single(const RowDef& def) {
  const CountingEngine engine;
  for (int i = 0; i < kSeeds; ++i) {
    WorkloadSpec per = def.spec;
    per.seed = kBaseSeed + static_cast<std::uint64_t>(i);
    Scenario sc = build_workload(per);
    run_scenario(engine, sc);
  }
  return fold("single " + def.row, engine.by_seed());
}

/// The golden file's bytes for `rows`: one row per line.
std::string render(const std::vector<RowCounts>& rows) {
  std::ostringstream os;
  os << "{\"schema\": " << json_quote(kSchema) << ", \"rows\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << "{\"row\": " << json_quote(rows[r].row) << ", \"path\": " << json_quote(rows[r].path);
    for (std::size_t i = 0; i < std::size(kCounters); ++i)
      os << ", \"" << kCounters[i].name << "\": " << rows[r].values[i];
    os << "}" << (r + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return os.str();
}

/// Every difference between the golden text and `rows`, each naming its row
/// and counter; empty when they agree.
std::vector<std::string> golden_diff(const std::string& golden_text,
                                     const std::vector<RowCounts>& rows) {
  std::vector<std::string> diffs;
  const JsonParseResult parsed = JsonValue::parse(golden_text);
  if (!parsed.ok()) return {"golden file does not parse: " + parsed.error};
  const JsonValue* schema = parsed.value->is_object() ? parsed.value->find("schema") : nullptr;
  if (schema == nullptr || !schema->is_string() || schema->as_string() != kSchema)
    return {std::string("golden file schema is not \"") + kSchema + "\""};
  const JsonValue* golden_rows = parsed.value->find("rows");
  if (golden_rows == nullptr || !golden_rows->is_array())
    return {"golden file has no \"rows\" array"};

  std::map<std::string, const JsonValue*> golden;
  for (const auto& item : golden_rows->items()) {
    const JsonValue* name = item->is_object() ? item->find("row") : nullptr;
    if (name == nullptr || !name->is_string()) {
      diffs.push_back("golden file has a row without a \"row\" name");
      continue;
    }
    if (!golden.emplace(name->as_string(), item.get()).second)
      diffs.push_back("row \"" + name->as_string() + "\": listed twice in the golden file");
  }
  for (const RowCounts& measured : rows) {
    const auto it = golden.find(measured.row);
    if (it == golden.end()) {
      diffs.push_back("row \"" + measured.row + "\": missing from the golden file");
      continue;
    }
    const JsonValue& want = *it->second;
    golden.erase(it);
    const JsonValue* path = want.find("path");
    const std::string golden_path = path != nullptr && path->is_string() ? path->as_string() : "";
    if (golden_path != measured.path)
      diffs.push_back("row \"" + measured.row + "\" path: golden " + golden_path + ", measured " +
                      measured.path);
    for (std::size_t i = 0; i < std::size(kCounters); ++i) {
      const std::string where = "row \"" + measured.row + "\" " + kCounters[i].name + ": ";
      const JsonValue* v = want.find(kCounters[i].name);
      std::uint64_t expected = 0;
      if (v == nullptr || !v->exact_u64(&expected))
        diffs.push_back(where + "no exact count in the golden file");
      else if (expected != measured.values[i])
        diffs.push_back(where + "golden " + std::to_string(expected) + ", measured " +
                        std::to_string(measured.values[i]));
    }
  }
  for (const auto& [name, value] : golden)
    diffs.push_back("row \"" + name + "\": extra row in the golden file, not measured");
  return diffs;
}

TEST(WorkGate, CountsMatchTheGoldenFileAtOneTwoAndFourThreads) {
  std::vector<RowCounts> rows;
  const std::vector<RowDef> defs = row_defs();
  for (const RowDef& def : defs) {
    const RowCounts one = run_sweep(def, 1);
    for (const int threads : {2, 4})
      EXPECT_EQ(render({run_sweep(def, threads)}), render({one})) << "at " << threads << " threads";
    rows.push_back(one);
  }
  for (const RowDef& def : defs)
    if (def.single) rows.push_back(run_single(def));

  const std::string golden_path = std::string(CR_SOURCE_DIR) + "/tests/golden/work_gate.json";
  std::string golden;
  if (!read_file(golden_path, &golden)) golden.clear();
  const std::vector<std::string> diffs = golden_diff(golden, rows);
  if (diffs.empty()) return;
  const std::string regenerated = std::string(CR_BINARY_DIR) + "/work_gate.json";
  std::string error;
  const bool wrote = write_file_atomic(regenerated, render(rows), &error);
  std::ostringstream msg;
  for (const std::string& d : diffs) msg << d << "\n";
  msg << (wrote ? "regenerated golden file: " + regenerated + " (copy it over " +
                      golden_path + " when the work changed on purpose)"
                : "cannot write the regenerated golden file: " + error);
  ADD_FAILURE() << msg.str();
}

std::vector<RowCounts> canned_rows() {
  RowCounts a;
  a.row = "sweep a";
  a.path = "plan";
  a.values.assign(std::size(kCounters), 7);
  RowCounts b = a;
  b.row = "single a";
  b.path = "per_slot";
  return {a, b};
}

TEST(WorkGate, RenderedGoldenHasOneRowPerLineAndMatchesItself) {
  const std::vector<RowCounts> rows = canned_rows();
  const std::string text = render(rows);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_TRUE(golden_diff(text, rows).empty());
}

TEST(WorkGate, DiffNamesAChangedCounter) {
  std::vector<RowCounts> rows = canned_rows();
  const std::string golden = render(rows);
  rows[1].values[3] = 8;  // calendar_pushes
  rows[0].path = "per_slot";
  const std::vector<std::string> diffs = golden_diff(golden, rows);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], "row \"sweep a\" path: golden plan, measured per_slot");
  EXPECT_EQ(diffs[1], "row \"single a\" calendar_pushes: golden 7, measured 8");
}

TEST(WorkGate, DiffNamesAMissingRowAndAnExtraRow) {
  std::vector<RowCounts> rows = canned_rows();
  const std::string golden = render({rows[0]});
  std::vector<std::string> diffs = golden_diff(golden, rows);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0], "row \"single a\": missing from the golden file");

  diffs = golden_diff(render(rows), {rows[1]});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0], "row \"sweep a\": extra row in the golden file, not measured");
}

TEST(WorkGate, DiffNamesAWrongSchemaAndANonExactCount) {
  const std::vector<RowCounts> rows = canned_rows();
  std::string golden = render(rows);
  std::string wrong = golden;
  wrong.replace(wrong.find("/1"), 2, "/2");
  EXPECT_EQ(golden_diff(wrong, rows),
            std::vector<std::string>{"golden file schema is not \"cr-work-gate/1\""});
  EXPECT_EQ(golden_diff("", rows).size(), 1u);

  golden.replace(golden.find("\"rng_words\": 7"), 14, "\"rng_words\": 7.5");
  EXPECT_EQ(golden_diff(golden, rows), std::vector<std::string>{
                                           "row \"sweep a\" rng_words: no exact count in the "
                                           "golden file"});
}

}  // namespace
}  // namespace cr
