/// \file
/// Manifest-driven experiment suites: `cr suite run suites/paper_repro.json`.
///
/// A suite manifest is a JSON file naming a grid of
/// (bench × params × seeds) cells:
///
///   {
///     "name": "paper_repro",
///     "description": "full reproduction of the paper tables",
///     "output_dir": "out/paper_repro",          // optional; default out/<name>
///     "defaults": {"reps": 8},                  // flags applied to every cell
///                                               // that declares them
///     "cells": [
///       {"bench": "latency",
///        "grid": {"max_exp": [16, 18]},         // cartesian product over axes
///        "seeds": [81000, 81100]},              // × per-cell base seeds
///       {"bench": "scenario",
///        "grid": {"scenario": ["batch", "worst_case"], "jam": [0.0, 0.25]}}
///     ]
///   }
///
/// The runner expands the grid in manifest order, validates every bench,
/// flag name and flag value against the BenchRegistry BEFORE running
/// anything (each cell's flags pass the check its bench's driver runs), and
/// executes each cell in a forked child (`--quiet --csv=<output_dir>/<cell
/// id>.csv`) — so a cell that exits or aborts at run time is recorded as
/// "failed" and the remaining cells still run — fanning the cell's
/// replications across the replication thread pool.
///
/// One cell loop serves `cr suite run` and `cr suite expand` (its plan, run
/// dry). Properties the tests pin down:
///
///   * deterministic sharding — `--shard i/n` partitions cells by
///     expansion index (index % n == i-1): the n shards are disjoint, cover
///     every cell, and together produce byte-identical CSVs to an unsharded
///     run; `cr suite merge` (dist/merge.hpp) unions their manifests;
///   * resume — a cell whose output CSV already exists is skipped
///     ("cached") unless a prior manifest recorded a different checksum for
///     it, so a killed run continues where it left off and a completed run
///     is a fast no-op (--force reruns everything);
///   * provenance — a run manifest (dist/run_manifest.hpp) is written
///     next to the CSVs with the git SHA, a config hash over the FULL
///     expansion (shard-independent, so shards of the same suite can be
///     matched up), wall-clock timings and the per-cell status and checksum.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cr {

/// One expanded grid point: a single bench invocation.
struct SuiteCell {
  std::size_t index = 0;  ///< position in the full expansion (sharding key)
  std::string bench;
  /// Flags in application order: block defaults first, then grid axes;
  /// values are raw manifest text (numbers are forwarded byte-for-byte).
  std::vector<std::pair<std::string, std::string>> flags;
  /// False when the block omitted "seeds": the cell runs WITHOUT --seed, at
  /// the bench's own canonical base seeds (a multi-table bench like
  /// batch_completion uses several internal bases, which a forced --seed
  /// would collapse to one value).
  bool has_seed = false;
  std::uint64_t seed = 0;  ///< meaningful only when has_seed
  std::string id;  ///< filesystem-safe unique name; CSV lands at <id>.csv
};

/// Parsed manifest, pre-expansion.
struct SuiteSpec {
  std::string name;
  std::string description;
  std::string output_dir;  ///< default "out/<name>"
  /// Directory the manifest file was loaded from (empty when parsed from
  /// memory); anchors the run manifest's git-SHA provenance lookup.
  std::string source_dir;
  std::vector<std::pair<std::string, std::string>> defaults;
  struct Block {
    std::string bench;
    /// Ordered axes; a scalar manifest value is a 1-element axis.
    std::vector<std::pair<std::string, std::vector<std::string>>> grid;
    /// Empty = one cell per grid point at the bench's canonical defaults
    /// (no --seed passed).
    std::vector<std::uint64_t> seeds;
  };
  std::vector<Block> blocks;
};

/// Manifest load outcome: spec or a human-readable error.
struct SuiteLoadResult {
  SuiteSpec spec;
  std::string error;  ///< empty on success

  bool ok() const { return error.empty(); }
};

/// Parse + validate a manifest against the BenchRegistry (bench names, a
/// bench that writes no CSV, flag names, and each expanded cell's flag
/// values through check_bench_flags — a typo or a bad value fails here,
/// naming the cell and the flag, before any cell runs).
/// `source` names the manifest in error messages.
SuiteLoadResult parse_suite(const JsonValue& root, const std::string& source);
/// Read + parse_suite a manifest file.
SuiteLoadResult load_suite(const std::string& path);

/// Expand all blocks into cells, in manifest order (block order, then
/// row-major over the grid axes as written, then seeds).
std::vector<SuiteCell> expand_suite(const SuiteSpec& spec);

/// `--shard i/n`, 1-based.
struct ShardSpec {
  int index = 1;
  int count = 1;
};

/// Parse "i/n"; false on malformed input (i<1, n<1, i>n, junk).
bool parse_shard(const std::string& text, ShardSpec* out);

/// Deterministic partition: cell k belongs to shard i/n iff k % n == i-1.
bool cell_in_shard(std::size_t cell_index, const ShardSpec& shard);

struct SuiteRunOptions {
  std::string output_dir;    ///< override; empty = spec's default
  bool quick = false;        ///< append --quick to every cell
  ShardSpec shard;           ///< run only this shard's cells
  bool force = false;        ///< rerun cells whose CSV already exists
  std::int64_t threads = 0;  ///< per-cell --threads; 0 = bench default (all cores)
  bool dry_run = false;      ///< print the plan, run nothing, write nothing
  std::string cache_dir;     ///< CellCache directory; empty = no cache
};

/// Execute (or, with dry_run, print) the suite. Progress goes to `log`.
/// Returns 0 when every cell succeeded, 1 when any failed or the output
/// directory cannot be created or holds incompatible prior outputs.
int run_suite(const SuiteSpec& spec, const SuiteRunOptions& opts, std::ostream& log);

/// What an output directory already contains, per its manifest*.json files.
struct PriorOutputs {
  /// false: a manifest is unreadable or records a different configuration
  bool compatible = true;
  std::string message;  ///< why, naming the manifest file, when !compatible
  /// Recorded per-cell CSV checksums (cell id -> 16-hex FNV-1a) from every
  /// compatible manifest — what resume validates same-named CSVs against.
  std::map<std::string, std::string> cell_csv_fnv;
};

/// Scan `out_dir` for manifest*.json files and compare their recorded
/// config_hash/--quick mode against this run's; collects recorded per-cell
/// CSV checksums from compatible manifests along the way. A manifest that
/// does not parse as a RunManifest is incompatible: the diagnostic names the
/// file and the parser error.
PriorOutputs scan_prior_outputs(const std::string& out_dir, const std::string& config_hash,
                                bool quick);

/// 16-hex FNV-1a 64 of a file's bytes; empty string when unreadable.
std::string file_fnv16(const std::string& path);

/// FNV-1a over the canonical full expansion (bench, flags, seed per cell) —
/// shard-independent, hex-formatted. Stored in the run manifest so outputs
/// can be matched to the exact suite configuration that produced them.
std::string suite_config_hash(const std::vector<SuiteCell>& cells);

/// Short SHA of the git repository containing `dir` (via `git -C`), or
/// "unknown" outside a repo / when `dir` is empty. Run manifests record the
/// manifest's own repo; `cr version` records the CWD's.
std::string git_head_sha(const std::string& dir);

}  // namespace cr
