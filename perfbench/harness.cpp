// Benchmark harness: drives one workload through the library's public entry
// points (run_suite + evaluate_claims, replicate_scenario, `cr stream`),
// checks the outputs, and prints the raw measurements as one JSON object on
// the last line of stdout. run.py builds this program, turns the raw record
// into the reported metrics and owns every statistic (medians, percentiles,
// self times, ratios), so the arithmetic lives in one tested place.
//
//   perfbench_harness evidence --root DIR --work DIR --threads N --seconds S --trace 0|1
//   perfbench_harness sweep    --scenario NAME ... --threads N --seconds S --trace 0|1
//   perfbench_harness stream   --cr PATH --work DIR --seed N --events N --seconds S --trace 0|1
//   perfbench_harness setup    <evidence|sweep> ...   (one set-up, then "ready")
//
// Spans are recorded here, around calls into each module's public functions;
// nothing under src/ is instrumented. A span's layer is the module it times.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/bench_registry.hpp"
#include "cli/suite.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/source_digest.hpp"
#include "dist/cell_cache.hpp"
#include "engine/engine.hpp"
#include "engine/stream.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"
#include "metrics/windowed.hpp"
#include "verify/claim_registry.hpp"
#include "verify/verify.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secs(std::int64_t from_ns, std::int64_t to_ns) { return (to_ns - from_ns) * 1e-9; }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Arguments: `--key value` pairs after the mode.

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) die("expected --key value, got " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) die("missing --" + key);
    return it->second;
  }
  double num(const std::string& key) const {
    const std::string text = str(key);
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') die("--" + key + " expects a number, got " + text);
    return v;
  }
  std::uint64_t u64(const std::string& key) const {
    const double v = num(key);
    if (v < 0 || v != std::floor(v)) die("--" + key + " expects a whole number");
    return static_cast<std::uint64_t>(v);
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out with the record. Traced passes run on one
// thread, so the open-span stack that supplies each span's parent is
// thread-local and the span list needs no ordering beyond its mutex.

struct SpanRec {
  int id = 0;
  int parent = 0;  ///< 0 = root
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  int open(const char* layer) {
    const std::lock_guard<std::mutex> lock(mu_);
    SpanRec rec;
    rec.id = static_cast<int>(spans_.size()) + 1;
    rec.parent = stack().empty() ? 0 : stack().back();
    rec.layer = layer;
    rec.start_ns = now_ns();
    spans_.push_back(rec);
    stack().push_back(rec.id);
    return rec.id;
  }
  void close(int id) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id - 1)].end_ns = t;
    stack().pop_back();
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  static std::vector<int>& stack() {
    thread_local std::vector<int> open_ids;
    return open_ids;
  }
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// Scoped span; a no-op when tracing is off (tracer == nullptr).
class Span {
 public:
  Span(Tracer* tracer, const char* layer)
      : tracer_(tracer), id_(tracer ? tracer->open(layer) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// The raw record: scalar values, sample series, output checks and spans.

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) die("non-finite measurement");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Record {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> series;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  /// One output check; counts toward attempted/failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }

  std::string to_json(const Tracer& tracer) const {
    std::string s = "{\"values\":{";
    const char* sep = "";
    for (const auto& [k, v] : values) {
      s.append(sep).append(json_string(k)).append(":").append(json_number(v));
      sep = ",";
    }
    s += "},\"series\":{";
    sep = "";
    for (const auto& [k, vs] : series) {
      s.append(sep).append(json_string(k)).append(":[");
      for (std::size_t i = 0; i < vs.size(); ++i) s.append(i ? "," : "").append(json_number(vs[i]));
      s += "]";
      sep = ",";
    }
    s.append("},\"attempted\":").append(std::to_string(attempted)).append(",\"failures\":[");
    for (std::size_t i = 0; i < failures.size(); ++i)
      s.append(i ? "," : "").append(json_string(failures[i]));
    s += "],\"spans\":[";
    sep = "";
    for (const SpanRec& r : tracer.spans()) {
      s.append(sep).append("[").append(std::to_string(r.id)).append(",");
      s.append(std::to_string(r.parent)).append(",").append(json_string(r.layer)).append(",");
      s.append(std::to_string(r.start_ns)).append(",").append(std::to_string(r.end_ns)).append("]");
      sep = ",";
    }
    s += "]}";
    return s;
  }

  void print(const Tracer& tracer) const { std::cout << to_json(tracer) << std::endl; }

  /// Adds a record that another process printed with to_json().
  void merge(const cr::JsonValue& other) {
    for (const auto& [k, v] : other.find("values")->members()) values[k] = v->as_number();
    for (const auto& [k, vs] : other.find("series")->members())
      for (const auto& v : vs->items()) series[k].push_back(v->as_number());
    attempted += static_cast<std::uint64_t>(other.find("attempted")->as_number());
    for (const auto& f : other.find("failures")->items()) failures.push_back(f->as_string());
  }
};

// ---------------------------------------------------------------------------
// Processes and memory.

/// Restart this process's peak-RSS count (VmHWM) from its current RSS.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) die("cannot reset VmHWM through /proc/self/clear_refs");
}

long self_peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  die("VmHWM missing from /proc/self/status");
}

std::string self_exe() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  if (ec) die("cannot resolve /proc/self/exe");
  return p.string();
}

struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;
};

/// Start `argv` with stdout on a pipe and stderr appended to `err_path`
/// (empty = inherited).
Child spawn(const std::vector<std::string>& argv, const std::string& err_path) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) die("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  if (!err_path.empty())
    posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  Child child;
  const int rc = posix_spawn(&child.pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) die("cannot start " + argv[0] + ": " + std::strerror(rc));
  child.stdout_fd = fds[0];
  return child;
}

/// Wait for `pid`; returns its exit code (128+signal when killed) and adds
/// its peak RSS to *maxrss_kb (max).
int reap(pid_t pid, long* maxrss_kb) {
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0)
    if (errno != EINTR) die("wait4 failed");
  if (maxrss_kb != nullptr) *maxrss_kb = std::max(*maxrss_kb, ru.ru_maxrss);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : 1;
}

/// Set-up time of a fresh process: spawn `argv` and wait until it writes its
/// first byte ("ready") to stdout.
double timed_setup_spawn(const std::vector<std::string>& argv) {
  const std::int64_t t0 = now_ns();
  const Child child = spawn(argv, "");
  char c = 0;
  ssize_t n = 0;
  do n = read(child.stdout_fd, &c, 1);
  while (n < 0 && errno == EINTR);
  const std::int64_t t1 = now_ns();
  close(child.stdout_fd);
  if (n != 1 || reap(child.pid, nullptr) != 0) die("set-up process failed: " + argv[1]);
  return secs(t0, t1);
}

/// Set-up samples are taken before every timed pass, so they spread over the
/// run like the passes do instead of landing in one burst.
constexpr int kSetupPerPass = 3;

/// Untraced/traced pass pairs per traced run; the overhead compares medians.
constexpr int kOverheadPairs = 3;

void sample_setup(std::vector<double>& samples, const std::vector<std::string>& argv) {
  for (int i = 0; i < kSetupPerPass; ++i) samples.push_back(timed_setup_spawn(argv));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Sweep results: per-seed fingerprints and conservation.

std::uint64_t fingerprint(const cr::SimResult& r) {
  const std::uint64_t fields[] = {r.slots,        r.arrivals,    r.successes,
                                  r.jammed_slots, r.active_slots, r.total_sends,
                                  r.live_at_end,  r.first_success, r.last_success};
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t f : fields)
    for (int b = 0; b < 8; ++b) h = (h ^ ((f >> (8 * b)) & 0xff)) * 1099511628211ull;
  return h;
}

std::vector<std::uint64_t> fingerprints(const std::vector<cr::SimResult>& results) {
  std::vector<std::uint64_t> out;
  for (const cr::SimResult& r : results) out.push_back(fingerprint(r));
  return out;
}

void check_conservation(Record& rec, const std::vector<cr::SimResult>& results,
                        std::uint64_t base_seed) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const cr::SimResult& r = results[i];
    rec.check(r.successes + r.live_at_end == r.arrivals,
              "seed " + std::to_string(base_seed + i) + ": successes + live_at_end != arrivals");
  }
}

void check_same_fingerprints(Record& rec, const std::vector<std::uint64_t>& want,
                             const std::vector<std::uint64_t>& got, std::uint64_t base_seed,
                             const std::string& what) {
  for (std::size_t i = 0; i < want.size(); ++i)
    rec.check(i < got.size() && got[i] == want[i],
              "seed " + std::to_string(base_seed + i) + ": SimResult fingerprint differs (" +
                  what + ")");
}

/// Forwards to a registered engine and times each Engine::run. The name is
/// the inner engine's, so replicate_workload dispatches exactly as it would
/// on the registered instance.
class TimedEngine final : public cr::Engine {
 public:
  TimedEngine(const cr::Engine& inner, Tracer* tracer, std::vector<double>* run_ms)
      : inner_(inner), tracer_(tracer), run_ms_(run_ms) {}
  std::string name() const override { return inner_.name(); }
  bool supports(const cr::ProtocolSpec& spec) const override { return inner_.supports(spec); }
  int speed_rank() const override { return inner_.speed_rank(); }
  cr::SimResult run(const cr::ProtocolSpec& spec, cr::Adversary& adversary,
                    const cr::SimConfig& config, cr::SlotObserver* observer) const override {
    const std::int64_t t0 = now_ns();
    cr::SimResult r;
    {
      const Span span(tracer_, "engine");
      r = inner_.run(spec, adversary, config, observer);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    run_ms_->push_back(secs(t0, now_ns()) * 1e3);
    return r;
  }

 private:
  const cr::Engine& inner_;
  Tracer* tracer_;
  std::vector<double>* run_ms_;
  mutable std::mutex mu_;
};

// ---------------------------------------------------------------------------
// Workload: sweep (overload, quiet_tail).

struct SweepConfig {
  std::string scenario;
  cr::ScenarioParams params;
  int seeds = 0;
  std::uint64_t base_seed = 0;
  int threads = 1;
  int generic_seeds = 0;
  cr::slot_t generic_horizon = 0;
};

constexpr const char* kSweepKeys[] = {"scenario", "jam",      "margin",        "n",
                                      "horizon",  "seeds",    "base_seed",     "threads",
                                      "generic_seeds", "generic_horizon"};

SweepConfig sweep_config(const Args& a) {
  SweepConfig c;
  c.scenario = a.str("scenario");
  c.params.jam = a.num("jam");
  c.params.arrival_margin = a.num("margin");
  c.params.n = a.u64("n");
  c.params.horizon = static_cast<cr::slot_t>(a.u64("horizon"));
  c.seeds = static_cast<int>(a.u64("seeds"));
  c.base_seed = a.u64("base_seed");
  c.threads = static_cast<int>(a.u64("threads"));
  c.generic_seeds = static_cast<int>(a.u64("generic_seeds"));
  c.generic_horizon = static_cast<cr::slot_t>(a.u64("generic_horizon"));
  if (c.seeds < 1 || c.threads < 1 || c.generic_seeds < 1) die("sweep sizes must be >= 1");
  return c;
}

/// The set-up a sweep pays before replicate_scenario: registry instantiation,
/// the preset's WorkloadSpec, one scenario construction and engine choice.
const cr::Engine& sweep_setup(const SweepConfig& c, cr::WorkloadSpec* spec_out) {
  if (cr::ScenarioRegistry::instance().find(c.scenario) == nullptr)
    die("unknown scenario " + c.scenario);
  cr::WorkloadSpec spec = cr::scenario_preset_workload(c.scenario, c.params);
  spec.seed = c.base_seed;
  const cr::Scenario probe = cr::build_workload(spec);
  if (spec_out != nullptr) *spec_out = spec;
  return cr::EngineRegistry::instance().preferred(probe.protocol);
}

std::vector<cr::SimResult> sweep_pass(const cr::Engine& engine, const SweepConfig& c, int seeds,
                                      std::uint64_t base_seed, int threads, double* wall_s) {
  const std::int64_t t0 = now_ns();
  auto results = cr::replicate_scenario(engine, c.scenario, c.params, seeds, base_seed, threads);
  *wall_s = secs(t0, now_ns());
  return results;
}

void run_sweep(const Args& a, bool traced, double seconds) {
  const SweepConfig c = sweep_config(a);
  Record rec;
  std::vector<std::string> setup_argv = {self_exe(), "setup", "--workload", "sweep"};
  for (const char* key : kSweepKeys) {
    setup_argv.push_back(std::string("--") + key);
    setup_argv.push_back(a.str(key));
  }
  cr::WorkloadSpec spec;
  const cr::Engine& engine = sweep_setup(c, &spec);
  const double slots_per_pass = static_cast<double>(c.seeds) * static_cast<double>(c.params.horizon);
  rec.values["threads"] = c.threads;

  Tracer tracer;
  if (!traced) {
    // An untimed warm-up pass fills the allocator. Pass k then sweeps the
    // next block of seeds, so a run's median spans many seeds rather than
    // one block's luck. Pass 0 reruns the warm-up's seeds and must reproduce
    // them bit for bit (rule 2).
    double wall = 0;
    const auto warmup = sweep_pass(engine, c, c.seeds, c.base_seed, c.threads, &wall);
    check_conservation(rec, warmup, c.base_seed);
    const std::int64_t t0 = now_ns();
    std::uint64_t base = c.base_seed;
    do {
      sample_setup(rec.series["setup_s"], setup_argv);
      reset_peak_rss();
      const auto results = sweep_pass(engine, c, c.seeds, base, c.threads, &wall);
      rec.series["pass_s"].push_back(wall);
      rec.series["peak_rss_kb"].push_back(static_cast<double>(self_peak_rss_kb()));
      check_conservation(rec, results, base);
      if (base == c.base_seed)
        check_same_fingerprints(rec, fingerprints(warmup), fingerprints(results), base, "rerun");
      base += static_cast<std::uint64_t>(c.seeds);
    } while (secs(t0, now_ns()) < seconds);
    rec.print(tracer);
    return;
  }

  // Traced run. An untraced pass at N threads gives T_N. Then untraced and
  // traced passes at 1 thread alternate; they give T_1, the tracing overhead
  // and a span per Engine::run. Every pass must reproduce the T_N results.
  double wall_n = 0;
  const auto ref = fingerprints(sweep_pass(engine, c, c.seeds, c.base_seed, c.threads, &wall_n));
  rec.values["pass_n_s"] = wall_n;
  std::vector<double> run_ms;
  const TimedEngine timed(engine, &tracer, &run_ms);
  double slots = 0, sends = 0, successes = 0, active = 0;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double wall_1 = 0, wall_traced = 0;
    const auto results_1 = sweep_pass(engine, c, c.seeds, c.base_seed, 1, &wall_1);
    std::vector<cr::SimResult> traced_results;
    {
      const Span root(&tracer, "exp");
      traced_results = sweep_pass(timed, c, c.seeds, c.base_seed, 1, &wall_traced);
    }
    rec.series["pass_1_s"].push_back(wall_1);
    rec.series["pass_traced_s"].push_back(wall_traced);
    check_same_fingerprints(rec, ref, fingerprints(results_1), c.base_seed, "threads=1");
    check_same_fingerprints(rec, ref, fingerprints(traced_results), c.base_seed, "traced");
    check_conservation(rec, traced_results, c.base_seed);
    for (const cr::SimResult& r : traced_results) {
      slots += static_cast<double>(r.slots);
      sends += static_cast<double>(r.total_sends);
      successes += static_cast<double>(r.successes);
      active += static_cast<double>(r.active_slots);
    }
  }
  rec.series["engine.run_ms"] = run_ms;
  rec.values["engine.slots"] = slots;
  rec.values["engine.sends"] = sends;
  rec.values["engine.successes"] = successes;
  rec.values["engine.active_slots"] = active;

  // build_workload per seed, alone.
  for (int i = 0; i < c.seeds; ++i) {
    cr::WorkloadSpec per = spec;
    per.seed = c.base_seed + static_cast<std::uint64_t>(i);
    const Span span(&tracer, "exp");
    const std::int64_t t0 = now_ns();
    const cr::Scenario sc = cr::build_workload(per);
    rec.series["exp.build_us"].push_back(secs(t0, now_ns()) * 1e6);
  }

  // A fresh scenario's Adversary::on_slot driven alone over the horizon,
  // against a history of silent slots (the composed adversaries read only
  // its counters).
  for (int i = 0; i < 2; ++i) {
    cr::WorkloadSpec per = spec;
    per.seed = c.base_seed + static_cast<std::uint64_t>(i);
    cr::Scenario sc = cr::build_workload(per);
    cr::Trace history_trace(cr::Trace::Storage::kCounting);
    const cr::PublicHistory history(history_trace);
    cr::Rng rng(per.seed);
    std::uint64_t injected = 0;
    const std::int64_t t0 = now_ns();
    {
      const Span span(&tracer, "adversary");
      for (cr::slot_t s = 1; s <= c.params.horizon; ++s) {
        const cr::AdversaryAction act = sc.adversary->on_slot(s, history, rng);
        injected += act.inject;
        cr::SlotOutcome out;
        out.slot = s;
        out.jammed = act.jam;
        history_trace.record(out);
      }
    }
    rec.series["adversary.ns_per_slot"].push_back(secs(t0, now_ns()) * 1e9 /
                                                  static_cast<double>(c.params.horizon));
    rec.check(injected > 0, "adversary alone injected no nodes");
  }

  // Every engine that can run the spec, at the workload's thread count. The
  // reference engine is quadratic in the backlog, so it runs a reduced sweep.
  const cr::Scenario probe = cr::build_workload(spec);
  for (const cr::Engine* e : cr::EngineRegistry::instance().compatible(probe.protocol)) {
    double wall = wall_n, slots_run = slots_per_pass;
    if (e != &engine) {
      SweepConfig reduced = c;
      int seeds = c.seeds;
      if (e->name() == "generic") {
        seeds = c.generic_seeds;
        reduced.params.horizon = c.generic_horizon;
      }
      const auto results = sweep_pass(*e, reduced, seeds, c.base_seed, c.threads, &wall);
      check_conservation(rec, results, c.base_seed);
      slots_run = static_cast<double>(seeds) * static_cast<double>(reduced.params.horizon);
    }
    rec.values["engine." + e->name() + ".slots_per_s"] = slots_run / wall;
  }
  rec.print(tracer);
}

// ---------------------------------------------------------------------------
// Workload: evidence.

cr::SuiteSpec evidence_setup(const std::string& root) {
  cr::BenchRegistry::instance();
  cr::verify::ClaimRegistry::instance();
  const cr::SuiteLoadResult loaded = cr::load_suite(root + "/suites/quick.json");
  if (!loaded.ok()) die(loaded.error);
  const std::vector<cr::SuiteCell> cells = cr::expand_suite(loaded.spec);
  if (cr::suite_config_hash(cells).empty()) die("empty suite config hash");
  return loaded.spec;
}

/// run_suite into `out_dir` against `cache_dir`, then evaluate_claims; returns
/// the wall time of both and records the checks.
double evidence_pass(Record& rec, Tracer* tracer, const cr::SuiteSpec& spec,
                     const std::string& out_dir, const std::string& cache_dir, int threads,
                     const std::string& label) {
  static std::ostream null_log(nullptr);
  cr::SuiteRunOptions opts;
  opts.output_dir = out_dir;
  opts.quick = true;
  opts.threads = threads;
  opts.cache_dir = cache_dir;
  const std::int64_t t0 = now_ns();
  int rc = 0;
  std::vector<cr::verify::ClaimOutcome> outcomes;
  {
    const Span span(tracer, "suite");
    rc = cr::run_suite(spec, opts, null_log);
  }
  const std::int64_t t1 = now_ns();
  {
    const Span span(tracer, "verify");
    outcomes = cr::verify::evaluate_claims(out_dir, true);
  }
  const std::int64_t t2 = now_ns();
  rec.series["verify.evaluate_ms"].push_back(secs(t1, t2) * 1e3);
  rec.check(rc == 0, label + ": run_suite reported failed cells");
  rec.check(outcomes.size() == cr::verify::ClaimRegistry::instance().entries().size(),
            label + ": evaluate_claims skipped claims");
  double passed = 0;
  for (const auto& o : outcomes) {
    rec.check(o.passed(), label + ": claim " + o.id + " " + o.verdict + ": " + o.detail);
    passed += o.passed() ? 1 : 0;
  }
  rec.values["verify.claims_passed"] = passed;
  return secs(t0, t2);
}

struct ManifestCell {
  std::string id, bench, status;
  double seconds = 0;
};

std::vector<ManifestCell> read_manifest(const std::string& out_dir) {
  const cr::JsonParseResult parsed = cr::JsonValue::parse_file(out_dir + "/manifest.json");
  if (!parsed.ok()) die("unreadable run manifest in " + out_dir);
  std::vector<ManifestCell> cells;
  const cr::JsonValue* list = parsed.value->find("cells");
  if (list == nullptr || !list->is_array()) die("run manifest without cells in " + out_dir);
  for (const auto& item : list->items()) {
    const auto field = [&](const char* key) {
      const cr::JsonValue* v = item->is_object() ? item->find(key) : nullptr;
      if (v == nullptr) die(std::string("run manifest cell without ") + key + " in " + out_dir);
      return v;
    };
    ManifestCell c;
    c.id = field("id")->as_string();
    c.bench = field("bench")->as_string();
    c.status = field("status")->as_string();
    c.seconds = field("seconds")->as_number();
    cells.push_back(c);
  }
  return cells;
}

/// Warm-pass CSVs must be byte-identical to the cold pass (rule 9).
void check_same_csvs(Record& rec, const std::vector<ManifestCell>& cells,
                     const std::string& cold, const std::string& warm) {
  for (const ManifestCell& c : cells) {
    const std::string a = read_file(cold + "/" + c.id + ".csv");
    rec.check(!a.empty() && a == read_file(warm + "/" + c.id + ".csv"),
              "warm CSV differs from cold: " + c.id);
  }
}

void run_evidence(const Args& a, bool traced, double seconds) {
  const std::string root = a.str("root");
  const std::string work = a.str("work");
  const int threads = static_cast<int>(a.u64("threads"));
  Record rec;
  const std::vector<std::string> setup_argv = {self_exe(), "setup", "--workload", "evidence",
                                               "--root", root};
  const cr::SuiteSpec spec = evidence_setup(root);
  rec.values["threads"] = threads;

  int round = 0;
  const auto dir = [&](const std::string& what) {
    return work + "/" + what + "-" + std::to_string(round);
  };
  Tracer tracer;
  if (!traced) {
    const std::int64_t t0 = now_ns();
    do {
      ++round;
      sample_setup(rec.series["setup_s"], setup_argv);
      // Each round runs in a forked child, so its peak RSS (the child and
      // every cell it forks, from wait4) is the round's own.
      int fds[2];
      if (pipe2(fds, O_CLOEXEC) != 0) die("pipe failed");
      const pid_t pid = fork();
      if (pid < 0) die("fork failed");
      if (pid == 0) {
        close(fds[0]);
        Record round_rec;
        round_rec.series["pass_s"].push_back(
            evidence_pass(round_rec, nullptr, spec, dir("cold"), dir("cache"), threads, "cold"));
        evidence_pass(round_rec, nullptr, spec, dir("warm"), dir("cache"), threads, "warm");
        check_same_csvs(round_rec, read_manifest(dir("cold")), dir("cold"), dir("warm"));
        const std::string json = round_rec.to_json(tracer);
        const bool sent = write(fds[1], json.data(), json.size()) == static_cast<ssize_t>(json.size());
        std::_Exit(sent ? 0 : 1);
      }
      close(fds[1]);
      std::string json;
      char buf[1 << 16];
      for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) die("reading an evidence round failed");
        json.append(buf, static_cast<std::size_t>(n));
      }
      close(fds[0]);
      long round_rss = 0;
      const int rc = reap(pid, &round_rss);
      const cr::JsonParseResult parsed = cr::JsonValue::parse(json);
      if (rc != 0 || !parsed.ok()) die("evidence round " + std::to_string(round) + " failed");
      rec.merge(*parsed.value);
      rec.series["peak_rss_kb"].push_back(static_cast<double>(round_rss));
      fs::remove_all(dir("cold"));
      fs::remove_all(dir("warm"));
      fs::remove_all(dir("cache"));
    } while (secs(t0, now_ns()) < seconds);
    rec.print(tracer);
    return;
  }

  // Traced run: untraced and traced cold passes alternate (the overhead
  // baseline), then warm passes run against the last traced pass's cache,
  // then the cache's lookup and store paths are driven alone over its cells.
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    ++round;
    rec.series["pass_untraced_s"].push_back(
        evidence_pass(rec, nullptr, spec, dir("cold"), dir("cache"), threads, "untraced"));
    ++round;
    rec.series["pass_traced_s"].push_back(
        evidence_pass(rec, &tracer, spec, dir("cold"), dir("cache"), threads, "traced cold"));
  }
  const std::string cold = dir("cold");
  const std::string cache_dir = dir("cache");
  const std::vector<ManifestCell> cells = read_manifest(cold);
  double csv_bytes = 0, failed = 0;
  for (const ManifestCell& c : cells) {
    rec.values["suite." + c.bench + "_s"] += c.seconds;
    failed += c.status == "failed" ? 1 : 0;
    csv_bytes += static_cast<double>(read_file(cold + "/" + c.id + ".csv").size());
  }
  rec.values["suite.cells_failed"] = failed;
  rec.values["suite.csv_bytes"] = csv_bytes;
  for (int i = 0; i < 5; ++i) {
    ++round;
    const std::string warm = dir("warm");
    rec.series["suite.warm_pass_s"].push_back(
        evidence_pass(rec, &tracer, spec, warm, cache_dir, threads, "traced warm"));
    check_same_csvs(rec, cells, cold, warm);
    double hits = 0;
    for (const ManifestCell& c : read_manifest(warm)) hits += c.status == "hit" ? 1 : 0;
    rec.values["dist.hits"] = hits;
    rec.values["dist.cells"] = static_cast<double>(cells.size());
    fs::remove_all(warm);
  }

  const cr::CellCache cache(cache_dir);
  const cr::CellCache scratch(work + "/store-cache");
  const std::string config_hash = cr::suite_config_hash(cr::expand_suite(spec));
  for (int rep = 0; rep < 8; ++rep) {
    for (const ManifestCell& c : cells) {
      const cr::CellKey key{config_hash, c.id, cr::source_digest(), true};
      const std::int64_t t0 = now_ns();
      cr::CacheLookup found;
      {
        const Span span(&tracer, "dist");
        found = cache.lookup(key);
      }
      rec.series["dist.lookup_ms"].push_back(secs(t0, now_ns()) * 1e3);
      rec.check(found.hit, "CellCache::lookup missed " + c.id);
      if (rep > 0) continue;
      // Store each cell once into a scratch cache (a second store of the same
      // key would time the already-present path instead).
      std::string error;
      const std::int64_t t1 = now_ns();
      bool stored = false;
      {
        const Span span(&tracer, "dist");
        stored = scratch.store(key, found.csv, "perfbench", 0.0, &error);
      }
      rec.series["dist.store_ms"].push_back(secs(t1, now_ns()) * 1e3);
      rec.check(stored, "CellCache::store failed for " + c.id + ": " + error);
    }
  }
  rec.values["dist.total_bytes"] = static_cast<double>(cache.stats().total_bytes);
  rec.print(tracer);
}

// ---------------------------------------------------------------------------
// Workload: stream.

/// Deterministic feed text from the benchmark's own generator (independent of
/// the program's RNG): single arrivals at geometric gaps (mean 10 slots), a
/// burst of kBurstNodes nodes every kBurstEvery events, and each event slot
/// jammed with probability 0.15.
std::string make_feed(std::uint64_t seed, std::uint64_t events) {
  constexpr std::uint64_t kBurstEvery = 50000;
  constexpr std::uint64_t kBurstNodes = 256;
  std::uint64_t state = seed;
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  const auto unit = [&next] {  // (0, 1]
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  };
  std::string text;
  text.reserve(events * 14);
  std::uint64_t slot = 0;
  char line[64];
  for (std::uint64_t i = 0; i < events; ++i) {
    slot += 1 + static_cast<std::uint64_t>(std::floor(std::log(unit()) / std::log(0.9)));
    const std::uint64_t inject = i % kBurstEvery == kBurstEvery - 1 ? kBurstNodes : 1;
    const int jam = unit() < 0.15 ? 1 : 0;
    const int n = std::snprintf(line, sizeof line, "%llu %llu %d\n",
                                static_cast<unsigned long long>(slot),
                                static_cast<unsigned long long>(inject), jam);
    text.append(line, static_cast<std::size_t>(n));
  }
  return text;
}

struct StreamRun {
  double setup_s = 0;  ///< spawn -> the process opened the feed
  double pass_s = 0;   ///< first byte fed -> done line read (0 without a done line)
  std::string out;     ///< everything the process wrote to stdout
  std::vector<std::int64_t> line_ns;  ///< arrival time of each line (when timed)
  std::string err;
  int exit_code = 0;
};

/// Run `cr stream --trace=<fifo> <args>` and feed it `feed` through the FIFO.
/// The process opens the FIFO once its set-up is done, so the open marks the
/// end of set-up and the first byte fed. A process that stops reading early
/// (--max_windows) ends the feed.
StreamRun run_cr_stream(const std::string& cr_path, const std::string& fifo,
                        const std::vector<std::string>& args, const std::string& feed,
                        const std::string& err_path, bool time_lines, long* maxrss_kb) {
  std::vector<std::string> argv = {cr_path, "stream", "--trace=" + fifo};
  argv.insert(argv.end(), args.begin(), args.end());
  fs::remove(err_path);
  StreamRun run;
  const std::int64_t t_spawn = now_ns();
  const Child child = spawn(argv, err_path);
  int fd = -1;
  while ((fd = open(fifo.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC)) < 0) {
    if (errno != ENXIO && errno != EINTR) die("cannot open feed FIFO: " + std::string(std::strerror(errno)));
    if (waitpid(child.pid, nullptr, WNOHANG) == child.pid) die("cr stream exited before reading its feed");
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const std::int64_t t_ready = now_ns();
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  run.setup_s = secs(t_spawn, t_ready);

  std::thread writer([fd, &feed] {
    std::size_t off = 0;
    while (off < feed.size()) {
      const ssize_t n = write(fd, feed.data() + off, std::min<std::size_t>(feed.size() - off, 1 << 16));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EPIPE: the reader stopped early
      off += static_cast<std::size_t>(n);
    }
    close(fd);
  });

  std::int64_t t_done = 0;
  char buf[1 << 16];
  std::size_t line_start = 0;
  for (;;) {
    const ssize_t n = read(child.stdout_fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const std::int64_t t = now_ns();
    const std::size_t before = run.out.size();
    run.out.append(buf, static_cast<std::size_t>(n));
    for (std::size_t i = before; i < run.out.size(); ++i) {
      if (run.out[i] != '\n') continue;
      if (time_lines) run.line_ns.push_back(t);
      if (run.out.compare(line_start, 8, "{\"done\":") == 0) t_done = t;
      line_start = i + 1;
    }
  }
  close(child.stdout_fd);
  writer.join();
  run.exit_code = reap(child.pid, maxrss_kb);
  run.err = read_file(err_path);
  if (t_done != 0) run.pass_s = secs(t_ready, t_done);
  return run;
}

/// The done line must apply every fed event, and the run must drop none.
void check_stream_run(Record& rec, const StreamRun& run, std::uint64_t events,
                      const std::string& label) {
  rec.check(run.exit_code == 0, label + ": cr stream exited " + std::to_string(run.exit_code));
  const std::size_t done = run.out.rfind("{\"done\":");
  rec.check(done != std::string::npos &&
                run.out.find("\"events\":" + std::to_string(events) + "}", done) !=
                    std::string::npos,
            label + ": done line does not apply every fed event");
  rec.check(run.err.find(", 0 dropped") != std::string::npos, label + ": events dropped");
}

/// StreamSim::run fed from `events` by a producer thread through an EventRing
/// of cr stream's default capacity; counts try_push calls and the full ones.
cr::StreamRunSummary feed_sim(cr::StreamSim& sim, const std::vector<cr::StreamEvent>& events,
                              std::ostream& out, std::uint64_t* attempts, std::uint64_t* full) {
  cr::EventRing ring(1024);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (const cr::StreamEvent& ev : events) {
      for (;;) {
        ++*attempts;
        if (ring.try_push(ev)) break;
        ++*full;
        if (stop.load(std::memory_order_acquire)) {
          ring.close();
          return;
        }
        std::this_thread::yield();
      }
    }
    ring.close();
  });
  const cr::StreamRunSummary summary = sim.run(ring, out);
  stop.store(true, std::memory_order_release);
  producer.join();
  return summary;
}

void run_stream(const Args& a, bool traced, double seconds) {
  const std::string cr_path = a.str("cr");
  const std::string work = a.str("work");
  const std::uint64_t seed = a.u64("seed");
  const std::uint64_t events = a.u64("events");
  constexpr cr::slot_t kWindow = 1024;
  const std::string fifo = work + "/feed.fifo";
  const std::string err = work + "/stream.err";
  if (mkfifo(fifo.c_str(), 0600) != 0) die("mkfifo failed: " + std::string(std::strerror(errno)));
  const std::string feed = make_feed(seed, events);
  const std::vector<std::string> base = {"--overflow=block",
                                         "--window=" + std::to_string(kWindow),
                                         "--seed=" + std::to_string(seed)};
  std::vector<std::string> flags = base;
  flags.push_back("--checkpoint=" + work + "/run.snap");
  flags.push_back("--checkpoint_every=" + std::to_string(1 << 20));
  Record rec;
  rec.values["threads"] = 2;  // cr stream: one producer, one consumer
  // cr stream's set-up ends when it opens its feed: each timed pass gives one
  // sample, and empty-feed runs before it give the rest.
  const auto sample_setup_and_pass = [&]() {
    for (int i = 1; i < kSetupPerPass; ++i) {
      const StreamRun empty = run_cr_stream(cr_path, fifo, flags, "", err, false, nullptr);
      check_stream_run(rec, empty, 0, "empty feed");
      rec.series["setup_s"].push_back(empty.setup_s);
    }
    long rss = 0;
    StreamRun run = run_cr_stream(cr_path, fifo, flags, feed, err, false, &rss);
    rec.series["setup_s"].push_back(run.setup_s);
    rec.series["peak_rss_kb"].push_back(static_cast<double>(rss));
    return run;
  };

  Tracer tracer;
  if (!traced) {
    std::string first_out;
    const std::int64_t t0 = now_ns();
    do {
      const StreamRun run = sample_setup_and_pass();
      check_stream_run(rec, run, events, "pass");
      rec.series["pass_s"].push_back(run.pass_s);
      if (first_out.empty())
        first_out = run.out;
      else
        rec.check(run.out == first_out, "pass: JSONL differs from the first pass");
    } while (secs(t0, now_ns()) < seconds);

    // Outside the timed passes: stop after half the windows, restore from the
    // checkpoint and finish; head + tail must equal the uninterrupted JSONL
    // (rule 8).
    const auto windows = std::count(first_out.begin(), first_out.end(), '\n') - 1;
    std::vector<std::string> head_flags = base;
    head_flags.push_back("--checkpoint=" + work + "/head.snap");
    head_flags.push_back("--max_windows=" + std::to_string(windows / 2));
    std::vector<std::string> tail_flags = base;
    tail_flags.push_back("--restore=" + work + "/head.snap");
    const StreamRun head = run_cr_stream(cr_path, fifo, head_flags, feed, err, false, nullptr);
    rec.check(head.exit_code == 0, "restore check: --max_windows run failed");
    const StreamRun tail = run_cr_stream(cr_path, fifo, tail_flags, feed, err, false, nullptr);
    check_stream_run(rec, tail, events, "restore check");
    rec.check(head.out + tail.out == first_out,
              "restore check: head + restored tail differs from the uninterrupted JSONL");
    rec.print(tracer);
    return;
  }

  // Traced run: untraced and line-timed passes of the real process
  // alternate, then the stream module's pieces are driven in-process on the
  // same feed.
  std::string jsonl;
  std::size_t lines = 0;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const StreamRun plain = run_cr_stream(cr_path, fifo, flags, feed, err, false, nullptr);
    check_stream_run(rec, plain, events, "untraced pass");
    StreamRun timed;
    {
      const Span span(&tracer, "stream");
      timed = run_cr_stream(cr_path, fifo, flags, feed, err, true, nullptr);
    }
    check_stream_run(rec, timed, events, "traced pass");
    rec.check(timed.out == plain.out, "traced pass: JSONL differs from the untraced pass");
    rec.series["pass_untraced_s"].push_back(plain.pass_s);
    rec.series["pass_traced_s"].push_back(timed.pass_s);
    // Every line but the last (the done line) is a window line.
    lines = timed.line_ns.size();
    for (std::size_t i = 1; i + 1 < lines; ++i)
      rec.series["metrics.window_us"].push_back(secs(timed.line_ns[i - 1], timed.line_ns[i]) * 1e6);
    jsonl = timed.out;
  }
  rec.values["metrics.window_bytes"] = static_cast<double>(jsonl.rfind("{\"done\":"));
  rec.values["metrics.windows"] = static_cast<double>(lines - 1);

  // parse_stream_event over the feed.
  std::vector<cr::StreamEvent> parsed;
  parsed.reserve(events);
  {
    std::istringstream in(feed);
    std::string line, error;
    cr::StreamEvent ev;
    const std::int64_t t0 = now_ns();
    {
      const Span span(&tracer, "stream");
      while (std::getline(in, line))
        if (cr::parse_stream_event(line, &ev, &error)) parsed.push_back(ev);
    }
    rec.values["stream.parse_ns_per_event"] =
        secs(t0, now_ns()) * 1e9 / static_cast<double>(events);
    rec.check(parsed.size() == events && error.empty(), "parse_stream_event rejected feed lines");
  }

  // StreamSim::run with the benchmark as the ring's producer.
  cr::StreamOptions opts;
  opts.seed = seed;
  opts.window = kWindow;
  {
    cr::StreamSim sim(opts);
    std::uint64_t attempts = 0, full = 0;
    std::ostringstream out;
    cr::StreamRunSummary summary;
    {
      const Span span(&tracer, "stream");
      summary = feed_sim(sim, parsed, out, &attempts, &full);
    }
    rec.check(summary.ok() && summary.events_applied == events, "StreamSim::run lost events");
    rec.check(out.str() == jsonl, "in-process StreamSim JSONL differs from cr stream");
    rec.values["stream.push_attempts"] = static_cast<double>(attempts);
    rec.values["stream.push_full"] = static_cast<double>(full);
    rec.values["stream.peak_live_nodes"] =
        static_cast<double>(sim.memory_stats().peak_live_nodes);
  }

  // snapshot()/restore() of a mid-run state (half the windows).
  {
    cr::StreamOptions half = opts;
    half.max_windows = static_cast<std::uint64_t>(lines / 2);
    cr::StreamSim sim(half);
    std::uint64_t attempts = 0, full = 0;
    std::ostringstream out;
    feed_sim(sim, parsed, out, &attempts, &full);
    std::vector<std::uint8_t> blob;
    for (int i = 0; i < 20; ++i) {
      const std::int64_t t0 = now_ns();
      {
        const Span span(&tracer, "stream");
        blob = sim.snapshot();
      }
      rec.series["stream.snapshot_us"].push_back(secs(t0, now_ns()) * 1e6);
      cr::StreamSim fresh(half);
      std::string error;
      const std::int64_t t1 = now_ns();
      bool ok = false;
      {
        const Span span(&tracer, "stream");
        ok = fresh.restore(blob, &error);
      }
      rec.series["stream.restore_us"].push_back(secs(t1, now_ns()) * 1e6);
      rec.check(ok && fresh.snapshot() == blob, "snapshot/restore round trip: " + error);
    }
    rec.values["stream.snapshot_bytes"] = static_cast<double>(blob.size());
  }

  // The windowed-metrics fold alone over the feed's slots.
  {
    cr::WindowedMetrics windowed(1024);
    std::uint64_t emitted = 0;
    windowed.set_sink([&emitted](const cr::WindowStats&) { ++emitted; });
    std::size_t next = 0;
    const cr::slot_t last = parsed.back().slot;
    const std::int64_t t0 = now_ns();
    {
      const Span span(&tracer, "metrics");
      for (cr::slot_t s = 1; s <= last; ++s) {
        cr::SlotOutcome out;
        out.slot = s;
        std::uint64_t injected = 0;
        if (next < parsed.size() && parsed[next].slot == s) {
          out.jammed = parsed[next].jam;
          injected = parsed[next].inject;
          ++next;
        }
        windowed.on_slot(out, injected, 0);
      }
    }
    rec.values["metrics.fold_ns_per_slot"] = secs(t0, now_ns()) * 1e9 / static_cast<double>(last);
    rec.check(emitted == last / 1024, "WindowedMetrics emitted the wrong window count");
  }
  rec.print(tracer);
}

// ---------------------------------------------------------------------------

int run_setup(const Args& a) {
  const std::string workload = a.str("workload");
  if (workload == "evidence") {
    evidence_setup(a.str("root"));
  } else if (workload == "sweep") {
    sweep_setup(sweep_config(a), nullptr);
  } else {
    die("unknown set-up workload " + workload);
  }
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_harness <evidence|sweep|stream|setup> --key value ...");
  const std::string mode = argv[1];
  const Args args(argc, argv, 2);
  if (mode == "setup") return run_setup(args);
  // A feed whose reader stopped early must surface as EPIPE, not a signal.
  signal(SIGPIPE, SIG_IGN);
  const bool traced = args.u64("trace") != 0;
  const double seconds = args.num("seconds");
  if (mode == "evidence")
    run_evidence(args, traced, seconds);
  else if (mode == "sweep")
    run_sweep(args, traced, seconds);
  else if (mode == "stream")
    run_stream(args, traced, seconds);
  else
    die("unknown mode " + mode);
  return 0;
}
