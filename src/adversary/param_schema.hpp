/// \file
/// Typed parameter schemas for self-describing workload components and
/// bench flags.
///
/// Every registered arrival process and jammer declares a ParamSchema: the
/// full list of parameters it consumes, each with a type, a default and a
/// one-line help string. Every bench declares its own flags the same way
/// (BenchSpec::flags in src/exp/bench_driver.hpp), where a row may also
/// carry a quick default for `--quick` runs. Validation is structural and
/// total — a key the schema does not declare is a hard error naming the
/// offending key, and a value that does not parse as its declared type is a
/// hard error too. This is what kills the "silent no-op parameter" class of
/// bugs: there is no code path on which an unknown or unconsumed parameter
/// is quietly ignored.
///
/// The same declarations feed `cr list --md` (docs/EXPERIMENTS.md grows a
/// table per component and a flag list per bench) and every bench's
/// `--help`, so the docs cannot drift from what validation actually accepts.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace cr {

enum class ParamType {
  kUint,    ///< non-negative integer (fits std::uint64_t, decimal digits)
  kDouble,  ///< finite decimal number
  kText,    ///< any text (a name or a path); takes no bound
};

/// "uint" / "double" / "text", for docs and error messages.
std::string param_type_name(ParamType type);

/// The values a parameter accepts beyond its type: at least `min` (more than
/// `min` when `min_open`), at most `max`, and at most the value in force of
/// the parameter named `max_param`. The default bound accepts every value.
struct ParamBound {
  double min = -std::numeric_limits<double>::infinity();
  bool min_open = false;
  double max = std::numeric_limits<double>::infinity();
  std::string max_param{};
};

/// The bound as docs show it: ">= 0", "> 0, <= 1", "<= period"; "" when
/// every value is accepted.
std::string bound_text(const ParamBound& bound);

/// One declared parameter of a workload component or flag of a bench.
struct ParamDef {
  std::string name;          ///< key as written in flags/manifests
  ParamType type = ParamType::kDouble;
  std::string default_text;  ///< default value, in source text form
  std::string help;          ///< one-line description for docs/--help
  ParamBound bound{};        ///< values the component's constructor accepts
  std::string quick_text{};  ///< default under --quick; empty: default_text
};

/// How docs and --help show a row's facts: "(<type>[, <bound>], default
/// <d>[, quick <q>])", with a text default in quotes.
std::string param_facts(const ParamDef& def);

/// Ordered list of ParamDefs with unique names.
class ParamSchema {
 public:
  ParamSchema() = default;
  ParamSchema(std::initializer_list<ParamDef> defs)
      : ParamSchema(std::vector<ParamDef>(defs)) {}
  /// For a schema assembled from another's rows plus its own.
  explicit ParamSchema(std::vector<ParamDef> defs);

  /// nullptr when `name` is not declared.
  const ParamDef* find(const std::string& name) const;

  const std::vector<ParamDef>& defs() const { return defs_; }
  bool empty() const { return defs_.empty(); }

 private:
  std::vector<ParamDef> defs_;
};

/// Validated, typed parameter values for one component or bench: every
/// declared parameter resolves to either the supplied text or its default,
/// and the typed getters never fail (validation already proved the text
/// parses).
class ParamValues {
 public:
  std::uint64_t as_uint(const std::string& name) const;
  double as_double(const std::string& name) const;

  /// The raw text backing `name` (supplied or default); the value of a text
  /// parameter.
  const std::string& text(const std::string& name) const;

 private:
  friend struct ParamValidation;
  const ParamSchema* schema_ = nullptr;
  /// Parallel to schema_->defs(): resolved text per parameter.
  std::vector<std::string> texts_;
};

/// Outcome of validating a (key, value) list against a schema.
struct ParamValidation {
  ParamValues values;
  std::string error;  ///< empty on success; names the offending key otherwise

  bool ok() const { return error.empty(); }

  /// Validate `params` against `schema`. `subject` names the component in
  /// error messages (e.g. "arrival \"bernoulli\""). Parameters not given
  /// take their default, or under `quick` their quick default where they
  /// declare one. Errors: a key the schema does not declare (with a
  /// did-you-mean suggestion when one is close), a duplicated key, a value
  /// that does not parse as the declared type, or a value in force (given or
  /// default) outside its declared bound.
  static ParamValidation check(const ParamSchema& schema,
                               const std::vector<std::pair<std::string, std::string>>& params,
                               const std::string& subject, bool quick = false);
};

/// Strict scalar parses shared by the validator (and usable by callers that
/// pre-screen values): whole string must parse, no sign for uints, finite
/// doubles only.
bool parse_uint_text(const std::string& text, std::uint64_t* out);
bool parse_double_text(const std::string& text, double* out);

/// The shortest text that parse_double_text reads back bit-for-bit ("0.1",
/// not "0.10000000000000001"). Presets use it to serialize derived
/// parameter values, and bench rows to print a default held in a struct.
std::string double_param_text(double v);

}  // namespace cr
