#include "exp/bench_driver.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <streambuf>
#include <thread>
#include <utility>

#include "common/file_io.hpp"
#include "common/table.hpp"

namespace cr {

namespace {

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// `value` of flag --`name` when it lies in [min, max]; otherwise names the
/// flag and the bound on stderr and exits 2.
std::int64_t in_range(const Cli& cli, const std::string& name, std::int64_t value,
                      std::int64_t min, std::int64_t max) {
  if (value >= min && value <= max) return value;
  std::fprintf(stderr, "%s: --%s must be %s %lld, got %lld\n", cli.program().c_str(),
               name.c_str(), value < min ? ">=" : "<=",
               static_cast<long long>(value < min ? min : max), static_cast<long long>(value));
  std::exit(2);
}

/// The one report of an output file a bench cannot write.
void report_unwritable(const Cli& cli, const std::string& path, const std::string& error) {
  std::fprintf(stderr, "%s: cannot write %s: %s\n", cli.program().c_str(), path.c_str(),
               error.c_str());
}

/// Discards everything written to it (--quiet).
std::ostream& null_stream() {
  struct NullBuf final : std::streambuf {
    int overflow(int c) override { return traits_type::not_eof(c); }
  };
  static NullBuf buf;
  static std::ostream os(&buf);
  return os;
}

}  // namespace

const std::vector<BenchFlag>& BenchDriver::standard_flags() {
  static const std::vector<BenchFlag> flags = {
      {"seed", "base seed; seeds S..S+reps-1 are used",
       "seed of the one run; this bench takes no --reps"},
      {"threads", "parallel replication workers (default: all cores; results identical)",
       "unused: this bench runs no replications"},
      {"quick", "smaller sizes/reps for smoke runs"},
      {"csv", "write the machine-readable result table to PATH (benches with a CSV)"},
      {"quiet", "suppress narrative output and skip narrative-only sub-tables; "
                "CSV unchanged"},
      {"help", "print usage and exit"},
  };
  return flags;
}

const std::string& BenchFlag::help_for(const BenchSpec& spec) const {
  return single_run_help.empty() || spec.flags.find("reps") != nullptr ? help : single_run_help;
}

bool BenchDriver::is_standard_flag(const std::string& name) {
  for (const BenchFlag& flag : standard_flags())
    if (flag.name == name) return true;
  return false;
}

ParamDef reps_flag(int full, int quick) {
  return {"reps", ParamType::kUint, std::to_string(full), "replications per table cell",
          {.min = 1, .max = std::numeric_limits<int>::max()}, std::to_string(quick)};
}

ParamValidation check_bench_flags(const BenchSpec& spec, const FlagList& flags, bool quick,
                                  const std::string& subject) {
  FlagList rows;
  for (const auto& flag : flags)
    if (spec.allows_flag == nullptr || !spec.allows_flag(flag.first)) rows.push_back(flag);
  ParamValidation checked = ParamValidation::check(spec.flags, rows, subject, quick);
  if (checked.ok() && spec.validate_cell != nullptr)
    if (const std::string error = spec.validate_cell(checked.values, flags); !error.empty())
      checked.error = subject + ": " + error;
  return checked;
}

BenchDriver::BenchDriver(const BenchSpec& spec, int argc, const char* const* argv)
    : spec_(spec), cli_(argc, argv) {
  const bool has_csv = !spec_.csv_columns.empty();
  for (const BenchFlag& flag : standard_flags())
    if (flag.name != "csv" || has_csv) cli_.declare({flag.name.c_str()});
  for (const ParamDef& def : spec_.flags.defs()) cli_.declare({def.name.c_str()});
  if (cli_.get_bool("help", false)) {
    std::printf("%s — %s\n\nflags:\n", spec_.id.c_str(), spec_.summary.c_str());
    for (const BenchFlag& flag : standard_flags())
      if (flag.name != "csv" || has_csv)
        std::printf("  --%-10s %s\n", flag.name.c_str(), flag.help_for(spec_).c_str());
    for (const ParamDef& def : spec_.flags.defs())
      std::printf("  --%-10s %s %s\n", def.name.c_str(), def.help.c_str(),
                  param_facts(def).c_str());
    std::exit(0);
  }
  for (const auto& [name, value] : cli_.raw_flags()) {
    if (is_standard_flag(name)) continue;
    if (spec_.allows_flag != nullptr && spec_.allows_flag(name)) cli_.declare({name.c_str()});
    passed_.emplace_back(name, value);
  }
  cli_.reject_unknown();
  quick_ = cli_.get_bool("quick", false);
  quiet_ = cli_.get_bool("quiet", false);
  out_ = quiet_ ? &null_stream() : &std::cout;
  threads_ = static_cast<int>(in_range(cli_, "threads", cli_.get_int("threads", default_threads()),
                                       1, std::numeric_limits<int>::max()));
  ParamValidation checked = check_bench_flags(spec_, passed_, quick_, cli_.program());
  if (!checked.ok()) {
    std::fprintf(stderr, "%s\n", checked.error.c_str());
    std::exit(2);
  }
  flags_ = std::move(checked.values);
  // An explicit --csv path that write_output would refuse fails the bench
  // now, before the run, not after it.
  std::string error;
  if (const std::string path = csv_path(""); !path.empty() && !check_publishable(path, &error)) {
    report_unwritable(cli_, path, error);
    std::exit(2);
  }
}

std::uint64_t BenchDriver::seed(std::uint64_t def) const {
  const auto value = static_cast<std::int64_t>(def);
  return static_cast<std::uint64_t>(in_range(cli_, "seed", cli_.get_int("seed", value), 0,
                                             std::numeric_limits<std::int64_t>::max()));
}

std::string BenchDriver::csv_path(const std::string& def) const {
  if (spec_.csv_columns.empty() || !cli_.has("csv")) return "";
  const std::string path = cli_.get_string("csv", def);
  return (path.empty() || path == "true") ? def : path;
}

bool BenchDriver::write_output(const std::string& path,
                               const std::function<void(std::ostream&)>& emit) const {
  if (path.empty()) return true;
  std::ostringstream bytes;
  emit(bytes);
  std::string error;
  if (!write_file_atomic(path, bytes.str(), &error)) {
    report_unwritable(cli_, path, error);
    return false;
  }
  out() << "\nwrote " << path << "\n";
  return true;
}

bool BenchDriver::write_csv(const Table& table) const {
  return write_output(csv_path(spec_.name + ".csv"), [&](std::ostream& os) {
    write_table_csv(table, spec_.csv_columns, os);
  });
}

}  // namespace cr
