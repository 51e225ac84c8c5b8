/// \file
/// `cr suite merge`: union per-shard run manifests into the single manifest
/// `cr verify` consumes.
///
/// Inputs are run manifests produced by `cr suite run --shard i/n` over the
/// SAME suite configuration. The merge is strict:
///
///   * every input must record the same suite name, config_hash and --quick
///     mode — mixing configurations is a hard error, never a best effort;
///   * every input must describe the same cell expansion (same id set);
///   * for each cell, all success entries ("ok"/"hit"/"cached") must
///     agree on csv_fnv. Two manifests claiming DIFFERENT bytes for one
///     cell is a conflict and a hard error — it means rule 9 was violated
///     (mismatched binaries, a corrupted file) and the evidence cannot be
///     trusted;
///   * by default the CSVs on disk next to the output manifest are
///     re-hashed against the merged record, so the manifest the verifier
///     reads provably describes the bytes it will load;
///   * a cell no input finished is "missing" and the merge fails — a
///     partial evidence set must not masquerade as a complete run.
///
/// The merged manifest keeps the run-manifest schema (shard "1/1", summed
/// wall_seconds, min started / max finished stamps) plus a "merged_from"
/// list naming the inputs, so provenance survives the union.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cr {

struct MergeOptions {
  std::vector<std::string> manifest_paths;  ///< >= 1 input run manifests
  /// Output path; empty = "<dir of first input>/manifest.json".
  std::string out_path;
  /// Re-hash each success cell's CSV on disk against the merged record.
  bool check_files = true;
};

/// Merge the manifests. Returns 0 on success, 1 on conflict / incomplete
/// coverage / failed cells, 2 on unreadable or malformed inputs.
int merge_manifests(const MergeOptions& opts, std::ostream& log);

}  // namespace cr
