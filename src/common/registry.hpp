/// \file
/// Registry<Entry> — the one shape of every name-keyed table: engines,
/// scenario presets, benches, claims, arrival processes, jammers, g regimes
/// and named protocols.
///
/// A registry owns its entries in registration order and looks them up by
/// name. An unknown name gets the same diagnostic from every table:
///
///     unknown bench "latncy" (did you mean "latency"?); known benches: tradeoff ...
///
/// CLI and manifest paths report unknown() and exit 2; internal paths whose
/// names were validated upstream call at(), which prints the same text and
/// aborts.
///
/// Reads are const and take no lock, so replication workers may look entries
/// up concurrently. add() is not thread-safe: a registry fills itself in its
/// constructor, and any later add() must happen before runs fan out.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/cli.hpp"

namespace cr {

/// `Name` reads an entry's name: a data member (by default `name`), or a
/// member function reached through a pointer entry (the engine registry's
/// `&Engine::name`).
template <typename Entry, auto Name = &Entry::name>
class Registry {
 public:
  /// `kind` and `kinds` name one entry and several in the unknown-name
  /// diagnostic ("bench", "benches"); `entries` are added in order.
  Registry(std::string kind, std::string kinds, std::vector<Entry> entries = {})
      : kind_(std::move(kind)), kinds_(std::move(kinds)) {
    for (Entry& entry : entries) add(std::move(entry));
  }

  /// Appends `entry`, whose name must be non-empty and not yet registered.
  void add(Entry entry) {
    const std::string name = name_of(entry);
    CR_CHECK(!name.empty());
    CR_CHECK(find(name) == nullptr);  // names are unique keys
    entries_.push_back(std::move(entry));
  }

  /// nullptr when unknown.
  const Entry* find(std::string_view name) const {
    for (const Entry& entry : entries_)
      if (std::invoke(Name, entry) == name) return &entry;
    return nullptr;
  }

  /// The entry named `name`; an unknown name prints unknown(name) and aborts
  /// (CR_CHECK).
  const Entry& at(std::string_view name) const {
    const Entry* entry = find(name);
    if (entry == nullptr) std::fprintf(stderr, "%s\n", unknown(name).c_str());
    CR_CHECK(entry != nullptr);
    return *entry;
  }

  /// `unknown <kind> "<name>" (did you mean "<hint>"?); known <kinds>:
  /// <names>`, with the hint only when a known name is close.
  std::string unknown(std::string_view name) const {
    std::string out = "unknown " + kind_ + " \"" + std::string(name) + "\"";
    if (const std::string hint = closest_match(std::string(name), names()); !hint.empty())
      out += " (did you mean \"" + hint + "\"?)";
    return out + "; known " + kinds_ + ": " + joined_names(" ");
  }

  /// Entry names in registration order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_) out.push_back(name_of(entry));
    return out;
  }

  /// names() joined by `separator`.
  std::string joined_names(const std::string& separator) const {
    std::string out;
    for (const Entry& entry : entries_) {
      if (!out.empty()) out += separator;
      out += name_of(entry);
    }
    return out;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  static std::string name_of(const Entry& entry) { return std::string(std::invoke(Name, entry)); }

  std::string kind_;
  std::string kinds_;
  std::vector<Entry> entries_;
};

}  // namespace cr
