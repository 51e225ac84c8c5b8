#include "dist/worker.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <thread>
#include <vector>

#include "common/file_io.hpp"
#include "common/file_lock.hpp"
#include "common/table.hpp"
#include "dist/cell_cache.hpp"

namespace cr {

namespace fs = std::filesystem;

int run_worker(const SuiteSpec& spec, const WorkerOptions& opts, std::ostream& log) {
  const std::vector<SuiteCell> cells = expand_suite(spec);
  const std::string outdir = opts.output_dir.empty() ? spec.output_dir : opts.output_dir;
  const std::string locks_dir = outdir + "/.locks";
  // `<host>-<pid>-<rand>`: unique across hosts, across concurrent processes,
  // and across PID reuse within one run directory.
  const std::string worker = sanitize_for_path(lease_hostname()) + "-" + unique_suffix();
  // Every cell starts "pending" (open); the loop ends when none is.
  RunManifest manifest = begin_run_manifest(spec, cells, opts.quick, ShardSpec{});
  manifest.worker = worker;
  const std::string& config_hash = manifest.config_hash;

  log << "worker " << worker << ": suite " << spec.name << ", " << cells.size()
      << " cells -> " << outdir << "  [config " << config_hash << "]\n";

  std::error_code ec;
  fs::create_directories(locks_dir, ec);
  if (ec) {
    log << "worker " << worker << ": cannot create " << locks_dir << ": " << ec.message()
        << "\n";
    return 1;
  }

  // Same stale-output guard as `cr suite run`: every manifest already in the
  // out dir (including other workers' — they carry this config_hash) must be
  // readable and describe this exact expansion and --quick mode.
  const PriorOutputs prior = scan_prior_outputs(outdir, config_hash, opts.quick);
  if (!prior.compatible) {
    log << "worker " << worker << ": " << prior.message
        << " — refusing to work over stale outputs; use a fresh --out\n";
    return 1;
  }

  CellCache cache(opts.cache_dir);
  const CellRunOptions cell_opts{.out_dir = outdir, .quick = opts.quick, .threads = opts.threads,
                                 .cache = opts.cache_dir.empty() ? nullptr : &cache,
                                 .config_hash = config_hash, .git_sha = manifest.git_sha};

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t ran = 0, hits = 0, failures = 0, peer_failures = 0;

  const auto all_terminal = [&] {
    for (const RunManifest::Cell& cell : manifest.cells)
      if (cell.status == "pending") return false;
    return true;
  };

  while (!all_terminal()) {
    bool progressed = false;
    for (const SuiteCell& cell : cells) {
      RunManifest::Cell& mine = manifest.cells[cell.index];
      if (mine.status != "pending") continue;
      const std::string csv_path = outdir + "/" + cell.id + ".csv";
      const std::string lease_path = locks_dir + "/" + cell.id + ".lease";
      const std::string failed_path = locks_dir + "/" + cell.id + ".failed";

      if (fs::exists(csv_path, ec)) {
        // Finished by a peer (or by us in an earlier run). CSVs appear only
        // via atomic rename, so the bytes are complete; hash them so our
        // manifest cross-validates against the producer's at merge time.
        mine.status = "peer";
        mine.csv_fnv = file_fnv16(csv_path);
        // The producer may have died between its rename and its lease
        // release; reclaim the orphaned lease so the dir ends clean.
        if (fs::exists(lease_path, ec) && lease_is_stale(lease_path, opts.stale_after_seconds))
          lease_release(lease_path);
        progressed = true;
        continue;
      }
      if (fs::exists(failed_path, ec)) {
        mine.status = "failed";
        ++peer_failures;
        progressed = true;
        continue;
      }

      if (!lease_try_acquire(lease_path, cell.id)) {
        // Held by someone. A dead holder's lease is taken over (unlinked);
        // the re-acquire happens on a later pass so a racing taker cannot
        // make us both think we won.
        if (lease_is_stale(lease_path, opts.stale_after_seconds)) {
          log << "worker " << worker << ": taking over stale lease for " << cell.id << "\n";
          lease_release(lease_path);
          progressed = true;
        }
        continue;
      }

      const std::string note = run_cell(cell, cell_opts, &mine);
      if (!note.empty()) log << "  [cache] " << note << "\n";
      if (mine.status == "failed") {
        ++failures;
        // Mark the cell terminally failed BEFORE releasing the lease, so no
        // other worker squeezes in and retries a deterministic error.
        std::ofstream failed(failed_path);
        failed << "worker " << worker << "\n";
      } else if (mine.status == "hit") {
        ++hits;
      } else {
        ++ran;
      }
      lease_release(lease_path);
      progressed = true;
      log << "  [" << cell.index + 1 << "/" << cells.size() << "] " << cell.id << ": "
          << mine.status << " (" << format_double(mine.seconds, 2) << "s)\n";
    }
    if (!progressed && !all_terminal())
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const std::string manifest_path = outdir + "/manifest.work-" + worker + ".json";
  manifest.finished_utc = utc_now();
  manifest.wall_seconds = wall;
  std::string error;
  const bool recorded = write_file_atomic(manifest_path, manifest.to_json(), &error);
  if (!recorded)
    log << "worker " << worker << ": cannot write " << manifest_path << ": " << error << "\n";

  log << "worker " << worker << ": " << ran << " ran, " << hits << " cache hits, "
      << failures + peer_failures << " failed (" << failures << " own) in "
      << format_double(wall, 2) << "s; manifest " << manifest_path << "\n";
  return failures + peer_failures == 0 && recorded ? 0 : 1;
}

}  // namespace cr
