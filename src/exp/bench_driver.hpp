/// \file
/// BenchSpec, the one declaration of a CLI bench, and BenchDriver, the
/// shared driver `cr bench <name>` builds from it.
///
/// A bench is a BenchSpec row in the BenchRegistry (src/cli/): its name,
/// paper claim, flags, CSV schema and run function. BenchRegistry::run
/// builds a BenchDriver from the spec and hands it to the run function, so
/// the prologue every bench shares lives here:
///
///   * uniform flags: --reps, --seed, --threads, --quick, --csv, --quiet,
///     --help — declared once, plus the bench's own flags (each with a help
///     line for --help and `cr list`), with unknown flags rejected loudly
///     (a typo like --rep=10 exits with a did-you-mean message);
///   * quick-aware defaults: reps(6, 3) reads --reps with a default of 6,
///     or 3 under --quick;
///   * deterministic parallel replication: replicate() fans seeds across
///     --threads workers (default: all hardware threads) and returns
///     seed-ordered results bit-identical to a serial run;
///   * suite-friendly output: narrative tables go to out(), which --quiet
///     silences so `cr suite run` logs stay readable; --csv=PATH output is
///     never silenced, and a CSV that cannot be written fails the bench
///     (write_output) instead of leaving a short file behind.
///
/// Usage, inside a bench's run function:
///   int run(const BenchDriver& driver) {
///     const int reps = driver.reps(6, 3);
///     const auto results = driver.replicate(reps, driver.seed(11000), [&](std::uint64_t s) {
///       Scenario sc = ...; sc.config.seed = s;
///       return run_scenario(engine, sc);
///     });
///     ...
///     return driver.write_csv(table) ? 0 : 2;
///   }
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "exp/harness.hpp"

namespace cr {

class Table;  // common/table.hpp

/// One bench-specific flag: its name and the one-line help shown by
/// --help, `cr list --md` and docs/EXPERIMENTS.md (all generated from the
/// same declaration, so they cannot drift).
struct BenchFlag {
  std::string name;  ///< flag name without the leading "--"
  std::string help;  ///< one-line description
};

class BenchDriver;

/// Everything `cr` needs to run and document one experiment.
struct BenchSpec {
  std::string name;     ///< subcommand, e.g. "latency"
  std::string id;       ///< experiment number, e.g. "E9"
  std::string summary;  ///< one-line description (--help, `cr list`)
  std::string claim;    ///< paper claim / section the bench exercises
  std::string outcome;  ///< expected qualitative outcome (docs index table)
  /// Bench-specific flags beyond the uniform BenchDriver set.
  std::vector<BenchFlag> flags;
  /// Column schema of the --csv output (machine-readable names; the
  /// rendered table may use prettier display headers).
  std::vector<std::string> csv_columns;
  /// What one CSV row is (docs: e.g. "one (regime, t, burst) cell,
  /// means over reps").
  std::string csv_row_desc;
  /// Entry point, handed the driver built from this spec and the flags.
  /// Returns the process exit code.
  int (*run)(const BenchDriver& driver) = nullptr;

  /// Optional: accept flags whose names are dynamic (the workload bench's
  /// `arrival.<param>`/`jammer.<param>` keys). A passed flag matching the
  /// predicate counts as declared, in BenchDriver and in the suite
  /// validator; precise validation (is the parameter real for the chosen
  /// component?) stays with the bench.
  bool (*allows_flag)(const std::string& name) = nullptr;

  /// Optional: semantic validation of one fully-expanded suite cell (the
  /// flag list the cell would pass, minus runner-controlled flags). Returns
  /// "" when valid, else a message naming the offending key. Runs at
  /// manifest-parse time, so a bad cell fails BEFORE anything executes.
  std::string (*validate_cell)(const std::vector<std::pair<std::string, std::string>>& flags) =
      nullptr;
};

class BenchDriver {
 public:
  /// Parses `spec`'s flags, handles --help (prints usage, exits 0), rejects
  /// unknown flags (exits 2 with a did-you-mean message) and refuses an
  /// explicit --csv=PATH that check_publishable fails (exits 2 with
  /// write_output's "cannot write" report), so no run starts that could not
  /// publish. `spec` must outlive the driver; argv[0] names the bench in
  /// diagnostics.
  BenchDriver(const BenchSpec& spec, int argc, const char* const* argv);

  const Cli& cli() const { return cli_; }
  const BenchSpec& spec() const { return spec_; }

  bool quick() const { return quick_; }
  /// --quiet: narrative output is discarded (out() is a null sink), so
  /// benches skip narrative-ONLY sub-experiments (tables outside their CSV
  /// schema, e.g. baselines' E7b/E7c) — the suite runner would otherwise
  /// pay their full wall-clock for output that goes nowhere. The CSV is
  /// identical either way.
  bool quiet() const { return quiet_; }
  /// Worker count for replicate(): --threads, defaulting to the hardware
  /// concurrency (results do not depend on it).
  int threads() const { return threads_; }

  /// Narrative output stream: std::cout normally, a null sink under
  /// --quiet. CSV files are written regardless — --quiet only mutes the
  /// human-facing tables and commentary.
  std::ostream& out() const { return *out_; }

  /// --reps, defaulting to `full` (or `quick_def` under --quick); at least 1.
  int reps(int full, int quick_def) const;
  /// Any integer flag with quick-aware defaults, range-checked: a value
  /// outside [min, max] prints "<program>: --<name> must be >= <min>, got
  /// <value>" (or "<= <max>") to stderr and exits 2. A size flag's `min` is
  /// the first size its sweep runs, so no value leaves the CSV header-only.
  std::int64_t get_int(const std::string& name, std::int64_t full, std::int64_t quick_def,
                       std::int64_t min,
                       std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// The largest horizon exponent a bench accepts: slot_t{1} << 64 is
  /// undefined.
  static constexpr std::int64_t kMaxExponent = 62;
  /// --seed, defaulting to the bench's fixed base seed; range-checked to
  /// [0, 2^63 - 1] like get_int.
  std::uint64_t seed(std::uint64_t def) const;
  /// --csv=PATH; empty when not requested. Bare --csv selects `def`.
  std::string csv_path(const std::string& def) const;

  /// Publish an output file the bench was asked for (--csv):
  /// `emit` writes the bytes and write_file_atomic puts them at `path`, so a
  /// failed or short write never leaves a partial file there; out() notes
  /// the path. An empty `path` (not requested) writes nothing. Returns
  /// false, after printing "<bench>: cannot write <path>: <reason>" to
  /// stderr, when the file cannot be written; the bench then exits 2.
  bool write_output(const std::string& path,
                    const std::function<void(std::ostream&)>& emit) const;
  /// write_output of `table` (write_table_csv under the spec's
  /// csv_columns) at csv_path("<spec name>.csv").
  bool write_csv(const Table& table) const;

  /// Deterministic parallel replication over seeds base .. base+reps-1,
  /// honouring --threads. `run` must be safe to call concurrently (build all
  /// per-run state inside it); results come back in seed order, identical
  /// for every thread count. See replicate_map() in exp/harness.hpp.
  template <typename Fn>
  auto replicate(int n, std::uint64_t base_seed, Fn&& run) const {
    return replicate_map(n, base_seed, std::forward<Fn>(run), threads_);
  }

  /// The uniform flags every bench accepts, for docs generation.
  static const std::vector<BenchFlag>& standard_flags();

 private:
  const BenchSpec& spec_;
  Cli cli_;
  bool quick_ = false;
  bool quiet_ = false;
  int threads_ = 1;
  std::ostream* out_ = nullptr;
};

}  // namespace cr
