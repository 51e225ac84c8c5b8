#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cr {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

const std::string* Cli::value_of(const std::string& name) const {
  {
    const std::lock_guard<std::mutex> lock(known_mutex_);
    known_.insert(name);
  }
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return value_of(name) != nullptr; }

std::string Cli::get_string(const std::string& name, const std::string& def) const {
  const std::string* text = value_of(name);
  return text == nullptr ? def : *text;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const std::string* found = value_of(name);
  if (found == nullptr) return def;
  const std::string& text = *found;
  char* end = nullptr;
  errno = 0;
  const std::int64_t value = std::strtoll(text.c_str(), &end, 10);
  const bool parsed =
      !text.empty() && end == text.c_str() + text.size() && errno != ERANGE;
  if (!parsed) {
    std::fprintf(stderr, "%s: --%s expects an integer, got \"%s\"\n", program_.c_str(),
                 name.c_str(), text.c_str());
    std::exit(2);
  }
  return value;
}

double Cli::get_double(const std::string& name, double def) const {
  const std::string* found = value_of(name);
  if (found == nullptr) return def;
  const std::string& text = *found;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  // ERANGE only counts as failure on overflow: glibc also sets it for
  // representable subnormals (underflow), which are legitimate inputs.
  const bool overflow =
      errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL);
  const bool parsed =
      !text.empty() && end == text.c_str() + text.size() && !overflow;
  if (!parsed) {
    std::fprintf(stderr, "%s: --%s expects a number, got \"%s\"\n", program_.c_str(),
                 name.c_str(), text.c_str());
    std::exit(2);
  }
  return value;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const std::string* text = value_of(name);
  bool value = def;
  if (text != nullptr && !parse_bool_text(*text, &value)) {
    std::fprintf(stderr, "%s: --%s expects true or false, got \"%s\"\n", program_.c_str(),
                 name.c_str(), text->c_str());
    std::exit(2);
  }
  return value;
}

bool parse_bool_text(const std::string& text, bool* out) {
  const bool yes = text == "true" || text == "1" || text == "yes";
  if (!yes && text != "false" && text != "0" && text != "no") return false;
  *out = yes;
  return true;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string closest_match(const std::string& name, const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_dist = 3;  // suggest only close matches
  for (const std::string& cand : candidates) {
    const std::size_t d = edit_distance(name, cand);
    if (d < best_dist) {
      best_dist = d;
      best = cand;
    }
  }
  return best;
}

void Cli::declare(std::initializer_list<const char*> names) const {
  const std::lock_guard<std::mutex> lock(known_mutex_);
  for (const char* name : names) known_.insert(name);
}

std::vector<std::string> Cli::unknown_flags() const {
  const std::lock_guard<std::mutex> lock(known_mutex_);
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_)
    if (known_.count(name) == 0) out.push_back(name);
  return out;
}

void Cli::reject_unknown() const {
  const auto unknown = unknown_flags();
  if (unknown.empty()) return;
  const std::lock_guard<std::mutex> lock(known_mutex_);
  const std::vector<std::string> candidates(known_.begin(), known_.end());
  for (const auto& name : unknown) {
    std::fprintf(stderr, "%s: unknown flag --%s", program_.c_str(), name.c_str());
    const std::string best = closest_match(name, candidates);
    if (!best.empty()) std::fprintf(stderr, " (did you mean --%s?)", best.c_str());
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "known flags:");
  for (const auto& name : known_) std::fprintf(stderr, " --%s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace cr
