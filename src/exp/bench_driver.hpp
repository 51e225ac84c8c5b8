/// \file
/// BenchSpec, the one declaration of a CLI bench, and BenchDriver, the
/// shared driver `cr bench <name>` builds from it.
///
/// A bench is a BenchSpec row in the BenchRegistry (src/cli/): its name,
/// paper claim, flags, CSV schema and run function. BenchRegistry::run
/// builds a BenchDriver from the spec and hands it to the run function, so
/// the prologue every bench shares lives here:
///
///   * one declaration per flag: the bench's own flags are ParamSchema rows
///     (name, type, default, quick default, bound, help), `--reps` among
///     them for a bench that replicates (reps_flag). The driver checks the
///     passed flags once (check_bench_flags, which `cr suite` runs on every
///     manifest cell too) and hands the bench the validated values, flags();
///     `--help` and `cr list --md` render the rows;
///   * uniform flags: --seed, --threads, --quick, --csv (for a bench with
///     CSV columns), --quiet, --help, with unknown flags rejected loudly
///     (a typo like --rep=10 exits with a did-you-mean message);
///   * deterministic parallel replication: replicate() fans seeds across
///     --threads workers (default: all hardware threads) and returns
///     seed-ordered results bit-identical to a serial run;
///   * suite-friendly output: narrative tables go to out(), which --quiet
///     silences so `cr suite run` logs stay readable; --csv=PATH output is
///     never silenced, and a CSV that cannot be written fails the bench
///     (write_output) instead of leaving a short file behind.
///
/// Usage: a bench declares its rows and reads them in its run function.
///   spec.flags = {{"max_n", ParamType::kUint, "2048", "largest batch size", {.min = 64}, "256"},
///                 reps_flag(8, 3)};
///
///   int run(const BenchDriver& driver) {
///     const int reps = static_cast<int>(driver.flags().as_uint("reps"));
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
#include <string>
#include <utility>
#include <vector>

#include "adversary/param_schema.hpp"
#include "common/cli.hpp"
#include "exp/harness.hpp"

namespace cr {

class Table;  // common/table.hpp

struct BenchSpec;

/// One of the driver's uniform flags: its name and the one-line help shown
/// by --help and docs/EXPERIMENTS.md.
struct BenchFlag {
  std::string name;  ///< flag name without the leading "--"
  std::string help;  ///< one-line description
  /// The description a bench with no `reps` row shows instead (empty: the
  /// same as `help`).
  std::string single_run_help = {};

  /// The description `spec` shows.
  const std::string& help_for(const BenchSpec& spec) const;
};

/// Flag name and value pairs, in the order given.
using FlagList = std::vector<std::pair<std::string, std::string>>;

class BenchDriver;

/// Everything `cr` needs to run and document one experiment.
struct BenchSpec {
  std::string name;     ///< subcommand, e.g. "latency"
  std::string id;       ///< experiment number, e.g. "E9"
  std::string summary;  ///< one-line description (--help, `cr list`)
  std::string claim;    ///< paper claim / section the bench exercises
  std::string outcome;  ///< expected qualitative outcome (docs index table)
  /// The bench's own flags beyond the uniform BenchDriver set, one row each
  /// (`--reps` is one, for a bench that replicates: reps_flag).
  ParamSchema flags;
  /// Column schema of the --csv output (machine-readable names; the
  /// rendered table may use prettier display headers). A bench without
  /// columns takes no --csv and cannot be a suite cell.
  std::vector<std::string> csv_columns;
  /// What one CSV row is (docs: e.g. "one (regime, t, burst) cell,
  /// means over reps"); without columns, what the bench outputs instead.
  std::string csv_row_desc;
  /// Entry point, handed the driver built from this spec and the flags.
  /// Returns the process exit code.
  int (*run)(const BenchDriver& driver) = nullptr;

  /// Optional: accept flags whose names are dynamic (the workload bench's
  /// `arrival.<param>`/`jammer.<param>` keys). A passed flag matching the
  /// predicate counts as declared, in BenchDriver and in the suite
  /// validator, and skips the row check; precise validation (is the
  /// parameter real for the chosen component?) is validate_cell's.
  bool (*allows_flag)(const std::string& name) = nullptr;

  /// Optional: semantic validation of one invocation, a command line or a
  /// suite cell, after its flags passed the row check. `values` are the
  /// validated rows, `flags` every bench flag the invocation passes (dynamic
  /// ones included). Returns "" when valid, else a message naming the
  /// offending key. check_bench_flags runs it, so a bad suite cell fails at
  /// manifest-parse time, BEFORE anything executes.
  std::string (*validate_cell)(const ParamValues& values, const FlagList& flags) = nullptr;
};

/// The `--reps` row of a bench that replicates: replications per table
/// cell, `full` by default and `quick` under --quick, at least 1.
ParamDef reps_flag(int full, int quick);

/// Check one invocation's bench flags (every flag but the uniform ones) for
/// `spec`: the rows through ParamValidation::check, with quick defaults
/// under `quick`, then spec.validate_cell. Flags allows_flag accepts skip
/// the row check. Errors start with `subject`.
ParamValidation check_bench_flags(const BenchSpec& spec, const FlagList& flags, bool quick,
                                  const std::string& subject);

class BenchDriver {
 public:
  /// Parses `spec`'s flags, handles --help (prints usage, exits 0), rejects
  /// unknown flags (exits 2 with a did-you-mean message), refuses flags that
  /// fail check_bench_flags (exits 2 with its diagnostic) and refuses an
  /// explicit --csv=PATH that check_publishable fails (exits 2 with
  /// write_output's "cannot write" report), so no run starts that could not
  /// publish. `spec` must outlive the driver; argv[0] names the bench in
  /// diagnostics.
  BenchDriver(const BenchSpec& spec, int argc, const char* const* argv);

  const Cli& cli() const { return cli_; }
  const BenchSpec& spec() const { return spec_; }

  /// The validated value of every row of spec().flags: passed, or its
  /// default (its quick default under --quick).
  const ParamValues& flags() const { return flags_; }
  /// The bench flags as passed (every flag but the uniform ones), dynamic
  /// ones included.
  const FlagList& passed_flags() const { return passed_; }

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

  /// The largest horizon exponent a bench accepts: slot_t{1} << 64 is
  /// undefined.
  static constexpr int kMaxExponent = 62;
  /// --seed, defaulting to the bench's fixed base seed; a value outside
  /// [0, 2^63 - 1] prints "<program>: --seed must be >= 0, got <value>" to
  /// stderr and exits 2.
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

  /// The uniform flags every bench accepts (--csv only with CSV columns),
  /// for docs generation.
  static const std::vector<BenchFlag>& standard_flags();
  static bool is_standard_flag(const std::string& name);

 private:
  const BenchSpec& spec_;
  Cli cli_;
  FlagList passed_;
  ParamValues flags_;
  bool quick_ = false;
  bool quiet_ = false;
  int threads_ = 1;
  std::ostream* out_ = nullptr;
};

}  // namespace cr
