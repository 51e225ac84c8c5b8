#include "dist/merge.hpp"

#include <filesystem>
#include <map>
#include <ostream>
#include <set>

#include "cli/suite.hpp"
#include "common/file_io.hpp"
#include "dist/run_manifest.hpp"

namespace cr {

namespace fs = std::filesystem;

namespace {

bool is_success_status(const std::string& status) {
  return status == "ok" || status == "hit" || status == "cached" || status == "peer";
}

}  // namespace

int merge_manifests(const MergeOptions& opts, std::ostream& log) {
  const std::vector<std::string>& paths = opts.manifest_paths;
  if (paths.empty()) {
    log << "cr suite merge: at least one manifest path is required\n";
    return 2;
  }
  std::vector<RunManifest> inputs;  // inputs[i] was read from paths[i]
  for (const std::string& path : paths) {
    ManifestParse loaded = RunManifest::load(path);
    if (!loaded.ok()) {
      log << "cr suite merge: " << loaded.error << "\n";
      return 2;
    }
    for (const RunManifest::Cell& cell : loaded.manifest.cells) {
      if (is_success_status(cell.status) && cell.csv_fnv.empty()) {
        // A pre-merge-era manifest (no checksums) cannot be safely unioned:
        // conflicts would be undetectable.
        log << "cr suite merge: " << path << ": cell \"" << cell.id << "\" has status \""
            << cell.status << "\" but no csv_fnv — regenerate the manifest with this cr "
            << "version\n";
        return 2;
      }
    }
    inputs.push_back(std::move(loaded.manifest));
  }

  const RunManifest& first = inputs.front();
  const auto cell_ids = [](const RunManifest& manifest) {
    std::set<std::string> ids;
    for (const RunManifest::Cell& cell : manifest.cells) ids.insert(cell.id);
    return ids;
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const RunManifest& input = inputs[i];
    if (input.suite != first.suite || input.config_hash != first.config_hash ||
        input.quick != first.quick) {
      log << "cr suite merge: " << paths[i] << " records a different configuration than "
          << paths[0] << " (suite \"" << input.suite << "\" vs \"" << first.suite
          << "\", config " << input.config_hash << " vs " << first.config_hash << ", quick "
          << (input.quick ? "true" : "false") << " vs " << (first.quick ? "true" : "false")
          << ") — shards of different suites cannot be unioned\n";
      return 1;
    }
    // Same configuration implies the same expansion; verify the cell id sets
    // anyway so a hand-edited manifest fails loudly.
    if (cell_ids(input) != cell_ids(first)) {
      log << "cr suite merge: " << paths[i] << " describes a different cell set than "
          << paths[0] << " despite matching config_hash — manifest is corrupt\n";
      return 1;
    }
  }

  const std::string out_path =
      !opts.out_path.empty()
          ? opts.out_path
          : (fs::path(paths[0]).parent_path() / "manifest.json").string();
  const std::string out_dir = fs::path(out_path).parent_path().string();

  // Union cell by cell, in the first manifest's (= expansion) order.
  struct Merged {
    const RunManifest::Cell* winner = nullptr;  ///< first non-peer success, else peer
    bool any_failed = false;
  };
  std::map<std::string, Merged> merged;
  int conflicts = 0;
  for (const RunManifest& input : inputs) {
    for (const RunManifest::Cell& cell : input.cells) {
      Merged& slot = merged[cell.id];
      if (cell.status == "failed") slot.any_failed = true;
      if (!is_success_status(cell.status)) continue;
      if (slot.winner == nullptr) {
        slot.winner = &cell;
        continue;
      }
      if (slot.winner->csv_fnv != cell.csv_fnv) {
        log << "cr suite merge: CONFLICT on cell \"" << cell.id << "\": csv_fnv "
            << slot.winner->csv_fnv << " vs " << cell.csv_fnv
            << " — two manifests claim different bytes for the same cell (rule 9 "
               "violation: mismatched binaries or corrupted outputs)\n";
        ++conflicts;
        continue;
      }
      // Prefer the producer's record ("ok"/"hit"/"cached") over an
      // observer's ("peer"): it carries the true compute time.
      if (slot.winner->status == "peer" && cell.status != "peer") slot.winner = &cell;
    }
  }
  if (conflicts > 0) return 1;

  std::size_t missing = 0, failed = 0, ok = 0;
  for (const RunManifest::Cell& cell : first.cells) {
    const Merged& slot = merged.at(cell.id);
    if (slot.winner != nullptr) {
      ++ok;
      if (opts.check_files) {
        const std::string on_disk = file_fnv16(out_dir + "/" + cell.id + ".csv");
        if (on_disk != slot.winner->csv_fnv) {
          log << "cr suite merge: cell \"" << cell.id << "\": CSV on disk "
              << (on_disk.empty() ? "is missing" : "hashes to " + on_disk)
              << " but the manifests record " << slot.winner->csv_fnv
              << " — outputs do not match the evidence being merged\n";
          ++conflicts;
        }
      }
    } else if (slot.any_failed) {
      ++failed;
      log << "cr suite merge: cell \"" << cell.id << "\" failed in every manifest that ran "
          << "it\n";
    } else {
      ++missing;
      log << "cr suite merge: cell \"" << cell.id << "\" was not completed by any input "
          << "manifest\n";
    }
  }
  if (conflicts > 0 || failed > 0 || missing > 0) {
    log << "cr suite merge: refusing to write an incomplete/conflicted manifest (" << ok
        << " ok, " << failed << " failed, " << missing << " missing, " << conflicts
        << " conflicts)\n";
    return 1;
  }

  // The merged record: the first input's header and expansion order, each
  // cell's winning record, shard "1/1", summed wall time, the earliest start
  // and latest finish, and the inputs it came from.
  RunManifest out = first;
  out.worker.reset();
  out.shard = "1/1";
  out.wall_seconds = 0.0;
  out.merged_from.emplace();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const RunManifest& input = inputs[i];
    // ISO-8601 UTC stamps compare correctly as strings.
    if (!input.started_utc.empty() &&
        (out.started_utc.empty() || input.started_utc < out.started_utc))
      out.started_utc = input.started_utc;
    if (input.finished_utc > out.finished_utc) out.finished_utc = input.finished_utc;
    if (input.git_sha != out.git_sha) out.git_sha = "mixed";
    out.wall_seconds += input.wall_seconds;
    out.merged_from->push_back(fs::path(paths[i]).filename().string());
  }
  for (RunManifest::Cell& cell : out.cells) cell = *merged.at(cell.id).winner;

  std::string error;
  if (!write_file_atomic(out_path, out.to_json(), &error)) {
    log << "cr suite merge: cannot write " << out_path << ": " << error << "\n";
    return 2;
  }
  log << "cr suite merge: " << inputs.size() << " manifests, " << ok
      << " cells unioned -> " << out_path << "\n";
  return 0;
}

}  // namespace cr
