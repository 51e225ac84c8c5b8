// Tiny command-line flag parser for the bench and example binaries.
//
// Accepts --name=value and --name value; bare --flag is boolean true.
// Booleans read true/1/yes and false/0/no; any other text exits 2.
// Unknown positional arguments are collected and retrievable.
//
// Binaries declare their known flags and call reject_unknown() so a typo
// (--rep=10 for --reps=10) fails loudly instead of silently running with
// the default. Every get_*/has call also registers its name, so declare()
// only needs the flags that are read conditionally after the check.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace cr {

/// Levenshtein distance, for did-you-mean suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidate closest to `name` (edit distance < 3), or "" when nothing
/// is close enough to suggest. Shared by flag parsing, `cr bench <unknown>`
/// and workload-parameter validation.
std::string closest_match(const std::string& name, const std::vector<std::string>& candidates);

/// The words a boolean flag takes: true/1/yes and false/0/no. False, with
/// `*out` untouched, for anything else.
bool parse_bool_text(const std::string& text, bool* out);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, const std::string& def) const;
  /// A value that does not parse as the type prints "<program>: --<name>
  /// expects an integer|a number, got "<text>"" and exits 2.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  /// A value parse_bool_text refuses prints "<program>: --<name> expects
  /// true or false, got "<text>"" and exits 2.
  bool get_bool(const std::string& name, bool def) const;

  /// Register flag names as known without reading them.
  void declare(std::initializer_list<const char*> names) const;

  /// Flags that were passed but never declared or read.
  std::vector<std::string> unknown_flags() const;

  /// Exit(2) with a clear message (including a did-you-mean suggestion)
  /// if any passed flag is unknown. Call after declaring/reading all flags.
  void reject_unknown() const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Every --name=value pair as parsed, in name order: what BenchDriver
  /// checks a bench's flags from, dynamic names (the workload bench's
  /// `arrival.*`/`jammer.*` keys) included. Callers remain responsible for
  /// declaring what they consume.
  const std::map<std::string, std::string>& raw_flags() const { return flags_; }

 private:
  /// Registers `name` as known; its value, or nullptr when not passed.
  const std::string* value_of(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  /// Names registered via declare() or any accessor; mutable (with a mutex)
  /// so the const accessors benches already use keep registering reads even
  /// when a shared Cli is read from parallel replication workers.
  mutable std::mutex known_mutex_;
  mutable std::set<std::string> known_;
};

}  // namespace cr
