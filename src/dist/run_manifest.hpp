/// \file
/// The run manifest: the provenance record next to a suite's CSVs, written
/// by `cr suite run`/`merge` and read by them, the resume scan and
/// `cr verify`. This is the one place the format is written and read.
///
/// to_json() keeps the layout perfbench and tests/golden/dist_smoke.cmake
/// read: "schema" first, then one header key per line in member order
/// ("merged_from" only when set), one cell per line, seconds as `%.3f`, and
/// `null` for a missing seed or csv_fnv. parse() requires "schema" to be
/// kSchema (so resume and merge refuse a manifest in another format), string
/// "suite" and "config_hash", boolean "quick" and a "cells" array whose
/// entries have string "id" and "status";
/// other fields may be absent but must have their kind when present, and
/// unknown keys are ignored. Seeds are exact uint64s (a double loses those
/// above 2^53). Bad input yields a named diagnostic, never a CR_CHECK abort.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cr {

struct ManifestParse;

struct RunManifest {
  /// The format this code writes and reads, the manifest's "schema" key.
  static constexpr const char* kSchema = "cr-run-manifest/1";

  /// One expanded suite cell and what became of it.
  struct Cell {
    std::string id;  ///< its CSV is `<id>.csv`
    std::string bench;
    std::optional<std::uint64_t> seed;  ///< empty: the bench's own default seeds
    /// "pending" | "ok" | "hit" (cache) | "cached" (resume) | "failed" |
    /// "shard" (another shard's) | "planned"
    std::string status;
    double seconds = 0.0;
    std::string csv_fnv;  ///< 16-hex FNV-1a of the CSV; empty when unknown
  };

  std::string suite;
  std::string description;
  std::string git_sha;
  std::string config_hash;  ///< suite_config_hash of the full expansion
  std::string shard = "1/1";
  bool quick = false;
  std::string started_utc;
  std::string finished_utc;
  double wall_seconds = 0.0;
  std::optional<std::vector<std::string>> merged_from;  ///< merge inputs' file names
  std::vector<Cell> cells;  ///< in expansion order

  std::string to_json() const;
  static ManifestParse parse(const std::string& text);
  /// Read and parse a file; diagnostics start with the path.
  static ManifestParse load(const std::string& path);
};

/// parse()/load() outcome: a manifest or a diagnostic naming the defect.
struct ManifestParse {
  RunManifest manifest;
  std::string error;  ///< empty on success

  bool ok() const { return error.empty(); }
};

}  // namespace cr
