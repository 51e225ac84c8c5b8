#include "cli/suite.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <ostream>
#include <set>

#include "cli/bench_registry.hpp"
#include "common/file_io.hpp"
#include "common/snapshot.hpp"
#include "common/source_digest.hpp"
#include "common/table.hpp"
#include "dist/cell_cache.hpp"

namespace cr {

namespace {

/// Flags the runner itself controls; a manifest naming one is a mistake.
/// --quick is reserved too: it is a run option (`cr suite run --quick`) and
/// the stale-resume guard tracks it, so a per-cell override would record
/// wrong provenance.
const std::set<std::string>& reserved_flags() {
  static const std::set<std::string> reserved = {"seed",    "csv",  "quiet",
                                                 "threads", "help", "quick"};
  return reserved;
}

bool is_standard_flag(const std::string& name) {
  for (const BenchFlag& flag : BenchDriver::standard_flags())
    if (flag.name == name) return true;
  return false;
}

bool bench_declares(const BenchSpec& spec, const std::string& name) {
  for (const BenchFlag& flag : spec.flags)
    if (flag.name == name) return true;
  return false;
}

/// A flag a manifest may set on `bench`: declared by it, accepted by its
/// dynamic-flag predicate (the workload bench's `arrival.*`/`jammer.*`
/// keys), or a standard flag that is not runner-reserved.
bool flag_allowed(const BenchSpec& spec, const std::string& name) {
  if (reserved_flags().count(name)) return false;
  if (spec.allows_flag != nullptr && spec.allows_flag(name)) return true;
  return bench_declares(spec, name) || is_standard_flag(name);
}

/// Manifest scalars become flag text: numbers keep their raw source bytes,
/// strings their decoded text, booleans "true"/"false".
bool scalar_flag_text(const JsonValue& value, std::string* out) {
  if (value.is_number() || value.is_string()) {
    *out = value.scalar_text();
    return true;
  }
  if (value.is_bool()) {
    *out = value.as_bool() ? "true" : "false";
    return true;
  }
  return false;
}

}  // namespace

std::string sanitize_for_path(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

std::string git_head_sha(const std::string& dir) {
  if (dir.empty()) return "unknown";
  // Shell-quote the directory: close the single-quoted span, emit an
  // escaped quote, reopen ('\'' idiom).
  std::string quoted = "'";
  for (const char c : dir)
    if (c == '\'')
      quoted += "'\\''";
    else
      quoted += c;
  quoted += "'";
  std::string out;
  const std::string cmd = "git -C " + quoted + " rev-parse --short HEAD 2>/dev/null";
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

namespace {

/// Execute one cell in a forked child so a bench that exits or aborts
/// (bad flag value hitting CR_CHECK, std::exit in a driver, a crash)
/// becomes a "failed" status for THAT cell instead of killing the whole
/// suite run. Cells run sequentially, so no other threads are live at fork
/// time. Returns the cell's exit code (128+signal on abnormal death,
/// 126 when fork itself fails).
int run_cell_isolated(const std::string& bench, const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  // fork failure (EAGAIN/ENOMEM under CI pressure): report the CELL as
  // failed rather than falling back to an in-process run, where a bench
  // abort would kill the whole suite — the exact failure mode this
  // function exists to contain.
  if (pid < 0) return 126;
  if (pid == 0) {
    const int rc = BenchRegistry::instance().run(bench, args);
    // _Exit: the CSV ofstream is already closed inside the bench, and the
    // child must not flush stdio buffers it inherited from the parent.
    std::_Exit(rc);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : 1;
}

}  // namespace

std::string file_fnv16(const std::string& path) {
  std::string bytes;
  return read_file(path, &bytes) ? fnv1a_hex16(bytes) : "";
}

std::string run_cell(const SuiteCell& cell, const CellRunOptions& opts, RunManifest::Cell* record) {
  std::string note;
  const std::string csv_path = opts.out_dir + "/" + cell.id + ".csv";
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  // Every CSV is published with write_file_atomic, so a concurrent reader (a
  // peer worker, a resuming run) never sees a partial one.
  std::string error;
  CellKey key;
  if (opts.cache != nullptr) {
    key = {opts.config_hash, cell.id, source_digest(), opts.quick};
    CacheLookup found = opts.cache->lookup(key);
    note = found.diagnostic;
    if (found.hit && write_file_atomic(csv_path, found.csv, &error)) {
      record->status = "hit";
      record->seconds = elapsed();
      record->csv_fnv = fnv1a_hex16(found.csv);
      return note;
    }
    if (found.hit)
      note = "cannot restore " + csv_path + " from the cache (" + error + "); recomputing";
  }

  // The bench writes a worker-unique scratch file: two workers running the
  // same cell never write into each other's output.
  const std::string scratch_path = csv_path + ".tmp-" + unique_suffix();
  std::vector<std::string> args;
  for (const auto& [flag, value] : cell.flags) args.push_back("--" + flag + "=" + value);
  if (cell.has_seed) args.push_back("--seed=" + std::to_string(cell.seed));
  if (opts.quick) args.push_back("--quick");
  if (opts.threads > 0) args.push_back("--threads=" + std::to_string(opts.threads));
  args.push_back("--quiet");
  args.push_back("--csv=" + scratch_path);

  const int rc = run_cell_isolated(cell.bench, args);
  record->seconds = elapsed();
  std::string csv_bytes;
  const bool published = rc == 0 && read_file(scratch_path, &csv_bytes) &&
                         write_file_atomic(csv_path, csv_bytes, &error);
  std::error_code ec;
  std::filesystem::remove(scratch_path, ec);
  record->status = published ? "ok" : "failed";
  record->csv_fnv = published ? fnv1a_hex16(csv_bytes) : "";
  std::string store_error;
  if (published && opts.cache != nullptr &&
      !opts.cache->store(key, csv_bytes, opts.git_sha, record->seconds, &store_error) &&
      note.empty())
    note = store_error;
  return note;
}

PriorOutputs scan_prior_outputs(const std::string& out_dir, const std::string& config_hash,
                                bool quick) {
  namespace fs = std::filesystem;
  PriorOutputs out;
  std::error_code ec;
  if (!fs::exists(out_dir, ec)) return out;
  for (const auto& entry : fs::directory_iterator(out_dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.rfind("manifest", 0) != 0 || entry.path().extension() != ".json") continue;
    // An unreadable manifest (say, one cut short by a kill) may have recorded
    // checksums that would have rejected the CSVs beside it: it vouches for
    // nothing, so it blocks resume like a foreign configuration does.
    const ManifestParse prior = RunManifest::load(entry.path().string());
    if (!prior.ok()) {
      out.compatible = false;
      out.message = "unreadable run manifest " + prior.error;
      return out;
    }
    const bool same_hash = prior.manifest.config_hash == config_hash;
    if (!same_hash || prior.manifest.quick != quick) {
      out.compatible = false;
      out.message = entry.path().string() + " records a different configuration" +
                    (same_hash ? " (--quick mode differs)" : " (config hash differs)");
      return out;
    }
    for (const RunManifest::Cell& cell : prior.manifest.cells)
      if (!cell.csv_fnv.empty()) out.cell_csv_fnv.emplace(cell.id, cell.csv_fnv);
  }
  return out;
}

SuiteLoadResult parse_suite(const JsonValue& root, const std::string& source) {
  SuiteLoadResult out;
  auto fail = [&](const std::string& msg) {
    out.error = source + ": " + msg;
    return out;
  };
  if (!root.is_object()) return fail("manifest must be a JSON object");

  const JsonValue* name = root.find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty())
    return fail("\"name\" (non-empty string) is required");
  out.spec.name = name->as_string();

  if (const JsonValue* desc = root.find("description")) {
    if (!desc->is_string()) return fail("\"description\" must be a string");
    out.spec.description = desc->as_string();
  }
  if (const JsonValue* dir = root.find("output_dir")) {
    if (!dir->is_string()) return fail("\"output_dir\" must be a string");
    out.spec.output_dir = dir->as_string();
  }
  if (out.spec.output_dir.empty()) out.spec.output_dir = "out/" + out.spec.name;

  const BenchRegistry& registry = BenchRegistry::instance();

  if (const JsonValue* defaults = root.find("defaults")) {
    if (!defaults->is_object()) return fail("\"defaults\" must be an object");
    for (const auto& [key, value] : defaults->members()) {
      if (reserved_flags().count(key))
        return fail("defaults: --" + key + " is controlled by the suite runner");
      std::string text;
      if (!scalar_flag_text(*value, &text))
        return fail("defaults: \"" + key + "\" must be a scalar");
      out.spec.defaults.emplace_back(key, std::move(text));
    }
  }

  const JsonValue* cells = root.find("cells");
  if (cells == nullptr || !cells->is_array() || cells->items().empty())
    return fail("\"cells\" (non-empty array) is required");
  for (const auto& item : cells->items()) {
    if (!item->is_object()) return fail("cells: every entry must be an object");
    SuiteSpec::Block block;
    const JsonValue* bench = item->find("bench");
    if (bench == nullptr || !bench->is_string())
      return fail("cells: \"bench\" (string) is required in every entry");
    block.bench = bench->as_string();
    const BenchSpec* bench_spec = registry.find(block.bench);
    if (bench_spec == nullptr) {
      std::string known;
      for (const auto& n : registry.names()) known += " " + n;
      std::string error = "unknown bench \"" + block.bench + "\"";
      const std::string hint = closest_match(block.bench, registry.names());
      if (!hint.empty()) error += " (did you mean \"" + hint + "\"?)";
      return fail(error + "; known benches:" + known);
    }
    if (const JsonValue* grid = item->find("grid")) {
      if (!grid->is_object()) return fail(block.bench + ": \"grid\" must be an object");
      for (const auto& [axis, values] : grid->members()) {
        if (!flag_allowed(*bench_spec, axis))
          return fail(block.bench + ": grid axis \"" + axis +
                      "\" is not a flag of this bench (seeds have their own \"seeds\" key; "
                      "--seed/--csv/--quiet/--threads/--quick are runner-controlled)");
        std::vector<std::string> texts;
        if (values->is_array()) {
          if (values->items().empty())
            return fail(block.bench + ": grid axis \"" + axis + "\" must not be empty");
          for (const auto& v : values->items()) {
            std::string text;
            if (!scalar_flag_text(*v, &text))
              return fail(block.bench + ": grid axis \"" + axis + "\" has a non-scalar value");
            texts.push_back(std::move(text));
          }
        } else {
          std::string text;
          if (!scalar_flag_text(*values, &text))
            return fail(block.bench + ": grid axis \"" + axis + "\" has a non-scalar value");
          texts.push_back(std::move(text));
        }
        block.grid.emplace_back(axis, std::move(texts));
      }
    }
    if (const JsonValue* seeds = item->find("seeds")) {
      if (!seeds->is_array() || seeds->items().empty())
        return fail(block.bench + ": \"seeds\" must be a non-empty array of integers");
      for (const auto& s : seeds->items()) {
        // Parse the RAW literal so 1.9 (fractional), -1, and values the
        // bench-side --seed parse (Cli::get_int, strtoll) could not hold are
        // rejected here instead of truncating through double or failing the
        // cell at run time.
        std::uint64_t seed = 0;
        if (!s->exact_u64(&seed) || seed > static_cast<std::uint64_t>(INT64_MAX))
          return fail(block.bench + ": \"seeds\" must contain integers in [0, 2^63), got " +
                      (s->is_number() ? s->raw_number() : "a non-number"));
        block.seeds.push_back(seed);
      }
    }
    // No "seeds" key: the block runs at the bench's own canonical base
    // seeds (no --seed is passed), reproducing the default tables exactly.
    out.spec.blocks.push_back(std::move(block));
  }

  // Every suite-wide default must mean something somewhere, or it is a typo.
  for (const auto& [key, value] : out.spec.defaults) {
    bool used = is_standard_flag(key);
    for (const auto& block : out.spec.blocks)
      used = used || bench_declares(*registry.find(block.bench), key);
    if (!used) return fail("defaults: \"" + key + "\" is not a flag of any bench in this suite");
  }

  // Expansion must be collision-free: two cells with one CSV path would
  // silently halve the intended coverage. Distinguish true duplicates from
  // distinct cells whose values merely sanitize to the same id, so the
  // error points at the actual problem.
  const std::vector<SuiteCell> expanded = expand_suite(out.spec);
  std::map<std::string, std::string> seen;  // id -> canonical cell text
  for (const SuiteCell& cell : expanded) {
    std::string canonical = cell.bench;
    for (const auto& [key, value] : cell.flags) canonical += "\x1f" + key + "=" + value;
    canonical += "\x1f" + (cell.has_seed ? std::to_string(cell.seed) : "default");
    const auto [it, inserted] = seen.emplace(cell.id, canonical);
    if (!inserted)
      return fail(it->second == canonical
                      ? "duplicate cell \"" + cell.id +
                            "\" — two blocks expand to the same (bench, params, seed)"
                      : "cell id collision: two DIFFERENT cells sanitize to \"" + cell.id +
                            "\" (values differing only in non-[A-Za-z0-9._-] characters); "
                            "rename the values to differ in filesystem-safe characters");
  }

  // Benches with semantic cell validation (the scenario preset's
  // consumed-param rule, the workload bench's component schemas) veto bad
  // cells last — an unconsumed parameter or unknown component in a manifest
  // axis fails the whole load with a message naming the key, BEFORE anything
  // runs.
  for (const SuiteCell& cell : expanded) {
    const BenchSpec& bench_spec = *registry.find(cell.bench);
    if (bench_spec.validate_cell == nullptr) continue;
    const std::string cell_error = bench_spec.validate_cell(cell.flags);
    if (!cell_error.empty()) return fail("cell \"" + cell.id + "\": " + cell_error);
  }
  return out;
}

SuiteLoadResult load_suite(const std::string& path) {
  const JsonParseResult parsed = JsonValue::parse_file(path);
  if (!parsed.ok()) {
    SuiteLoadResult out;
    out.error = parsed.error;
    return out;
  }
  SuiteLoadResult out = parse_suite(*parsed.value, path);
  if (out.ok()) {
    const std::string dir = std::filesystem::path(path).parent_path().string();
    out.spec.source_dir = dir.empty() ? "." : dir;  // bare filename = CWD
  }
  return out;
}

std::vector<SuiteCell> expand_suite(const SuiteSpec& spec) {
  const BenchRegistry& registry = BenchRegistry::instance();
  std::vector<SuiteCell> cells;
  for (const auto& block : spec.blocks) {
    const BenchSpec& bench_spec = registry.at(block.bench);
    // Suite-wide defaults apply where they mean something for this bench.
    std::vector<std::pair<std::string, std::string>> base;
    for (const auto& def : spec.defaults)
      if (flag_allowed(bench_spec, def.first)) base.push_back(def);

    // Row-major over the axes as written (rightmost fastest), like nested
    // loops in the manifest's own order.
    std::vector<std::size_t> cursor(block.grid.size(), 0);
    while (true) {
      std::vector<std::pair<std::string, std::string>> flags = base;
      std::string id = sanitize_for_path(block.bench);
      for (std::size_t a = 0; a < block.grid.size(); ++a) {
        const auto& [axis, values] = block.grid[a];
        flags.emplace_back(axis, values[cursor[a]]);
        id += "__" + sanitize_for_path(axis) + "-" + sanitize_for_path(values[cursor[a]]);
      }
      const auto emit = [&](bool has_seed, std::uint64_t seed) {
        SuiteCell cell;
        cell.index = cells.size();
        cell.bench = block.bench;
        cell.flags = flags;
        cell.has_seed = has_seed;
        cell.seed = seed;
        cell.id = id + "__seed-" + (has_seed ? std::to_string(seed) : "default");
        cells.push_back(std::move(cell));
      };
      if (block.seeds.empty())
        emit(false, 0);
      else
        for (const std::uint64_t seed : block.seeds) emit(true, seed);
      // Advance the rightmost axis; carry leftwards; done when all wrap.
      bool wrapped = true;
      for (std::size_t a = block.grid.size(); a-- > 0;) {
        if (++cursor[a] < block.grid[a].second.size()) {
          wrapped = false;
          break;
        }
        cursor[a] = 0;
      }
      if (wrapped) break;
    }
  }
  return cells;
}

bool parse_shard(const std::string& text, ShardSpec* out) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (i != slash && (text[i] < '0' || text[i] > '9')) return false;
  // Bound the digit count before converting so absurd inputs (including
  // anything that would overflow long long or truncate in the int cast)
  // are rejected instead of silently running the wrong cell subset.
  if (slash > 9 || text.size() - slash - 1 > 9) return false;
  const long index = std::strtol(text.substr(0, slash).c_str(), nullptr, 10);
  const long count = std::strtol(text.substr(slash + 1).c_str(), nullptr, 10);
  if (index < 1 || count < 1 || index > count) return false;
  out->index = static_cast<int>(index);
  out->count = static_cast<int>(count);
  return true;
}

bool cell_in_shard(std::size_t cell_index, const ShardSpec& shard) {
  return cell_index % static_cast<std::size_t>(shard.count) ==
         static_cast<std::size_t>(shard.index - 1);
}

std::string suite_config_hash(const std::vector<SuiteCell>& cells) {
  std::uint64_t hash = kFnv1a64Basis;
  auto mix = [&hash](const std::string& text) {
    static constexpr std::uint8_t kSeparator = 0xFF;
    hash = fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()), text.size(), hash);
    hash = fnv1a64(&kSeparator, 1, hash);
  };
  for (const SuiteCell& cell : cells) {
    mix(cell.bench);
    for (const auto& [key, value] : cell.flags) {
      mix(key);
      mix(value);
    }
    mix(cell.has_seed ? std::to_string(cell.seed) : "default");
  }
  return hex16(hash);
}

RunManifest begin_run_manifest(const SuiteSpec& spec, const std::vector<SuiteCell>& cells,
                               bool quick, const ShardSpec& shard) {
  RunManifest manifest;
  manifest.suite = spec.name;
  manifest.description = spec.description;
  manifest.git_sha = git_head_sha(spec.source_dir);
  manifest.config_hash = suite_config_hash(cells);
  manifest.shard = std::to_string(shard.index) + "/" + std::to_string(shard.count);
  manifest.quick = quick;
  manifest.started_utc = utc_now();
  for (const SuiteCell& cell : cells)
    manifest.cells.push_back({cell.id, cell.bench,
                              cell.has_seed ? std::optional(cell.seed) : std::nullopt,
                              cell_in_shard(cell.index, shard) ? "pending" : "shard", 0.0, ""});
  return manifest;
}

int run_suite(const SuiteSpec& spec, const SuiteRunOptions& opts, std::ostream& log) {
  namespace fs = std::filesystem;
  const std::vector<SuiteCell> cells = expand_suite(spec);
  const std::string outdir = opts.output_dir.empty() ? spec.output_dir : opts.output_dir;
  // Run manifest: provenance for the CSVs sitting next to it. Written once
  // up front (all in-shard cells "pending") so even a killed run leaves a
  // record of what configuration produced the outputs, and rewritten with
  // final statuses at the end. Sharded runs write distinct manifests (the
  // CSV set is the part that must be bit-identical to an unsharded run;
  // manifests record each shard's view). Each finished cell records its CSV
  // checksum (csv_fnv) so resume and `cr suite merge` can validate outputs
  // instead of trusting any same-named file.
  RunManifest manifest = begin_run_manifest(spec, cells, opts.quick, opts.shard);
  const std::string& config_hash = manifest.config_hash;

  log << "suite " << spec.name << ": " << cells.size() << " cells";
  if (opts.shard.count > 1)
    log << " (shard " << opts.shard.index << "/" << opts.shard.count << ")";
  log << " -> " << outdir << "  [config " << config_hash << "]\n";

  std::string manifest_path = outdir + "/manifest.json";
  if (opts.shard.count > 1)
    manifest_path = outdir + "/manifest." + std::to_string(opts.shard.index) + "of" +
                    std::to_string(opts.shard.count) + ".json";
  const auto publish_manifest = [&](double wall) {
    manifest.finished_utc = utc_now();
    manifest.wall_seconds = wall;
    std::string error;
    if (write_file_atomic(manifest_path, manifest.to_json(), &error)) return true;
    log << "suite " << spec.name << ": cannot write " << manifest_path << ": " << error << "\n";
    return false;
  };

  PriorOutputs prior;
  if (!opts.dry_run) {
    fs::create_directories(outdir);
    // Stale-output guard: any manifest already in outdir must be readable
    // and describe the same expansion (config_hash) and the same --quick
    // mode. Otherwise the CSVs sitting there came from a DIFFERENT (or an
    // unknown) configuration — resuming over them would silently mix old and
    // new results (and restamp the new config_hash over the old data).
    // --force reruns every cell, so it may proceed regardless.
    if (!opts.force) {
      prior = scan_prior_outputs(outdir, config_hash, opts.quick);
      if (!prior.compatible) {
        log << "suite " << spec.name << ": " << prior.message
            << " — refusing to resume over stale outputs; rerun with --force or a fresh "
               "--out\n";
        return 1;
      }
    }
    if (!publish_manifest(0.0)) return 1;
  }
  CellCache cache(opts.cache_dir);
  const bool use_cache = !opts.cache_dir.empty() && !opts.dry_run;
  const CellRunOptions cell_opts{.out_dir = outdir, .quick = opts.quick, .threads = opts.threads,
                                 .cache = use_cache ? &cache : nullptr,
                                 .config_hash = config_hash, .git_sha = manifest.git_sha};

  const auto suite_t0 = std::chrono::steady_clock::now();
  int failures = 0;
  std::size_t ran = 0, resumed = 0, hits = 0;

  for (const SuiteCell& cell : cells) {
    RunManifest::Cell& outcome = manifest.cells[cell.index];
    const std::string csv_path = outdir + "/" + cell.id + ".csv";
    if (!cell_in_shard(cell.index, opts.shard)) continue;

    if (opts.dry_run) {
      outcome.status = "planned";
      log << "  [" << cell.index + 1 << "/" << cells.size() << "] " << cell.id << ": "
          << cell.bench;
      for (const auto& [key, value] : cell.flags) log << " --" << key << "=" << value;
      if (cell.has_seed) log << " --seed=" << cell.seed;
      if (opts.quick) log << " --quick";
      if (opts.threads > 0) log << " --threads=" << opts.threads;
      log << " --quiet --csv=" << csv_path << "\n";
      continue;
    }

    if (!opts.force && fs::exists(csv_path)) {
      // Resume path: do not trust a same-named CSV blindly. When a prior
      // manifest recorded this cell's checksum, the bytes on disk must
      // still match it — a truncated or hand-edited file reruns instead of
      // poisoning the result set.
      const std::string on_disk = file_fnv16(csv_path);
      const auto recorded = prior.cell_csv_fnv.find(cell.id);
      const bool valid =
          !on_disk.empty() &&
          (recorded == prior.cell_csv_fnv.end() || recorded->second == on_disk);
      if (valid) {
        outcome.status = "cached";
        outcome.csv_fnv = on_disk;
        ++resumed;
        log << "  [" << cell.index + 1 << "/" << cells.size() << "] " << cell.id
            << ": cached\n";
        continue;
      }
      log << "  [" << cell.index + 1 << "/" << cells.size() << "] " << cell.id
          << ": existing CSV fails its recorded checksum — rerunning\n";
      std::error_code ec;
      fs::remove(csv_path, ec);
    }

    const std::string note = run_cell(cell, cell_opts, &outcome);
    if (!note.empty()) log << "  [cache] " << note << "\n";
    if (outcome.status == "failed") {
      ++failures;
    } else if (outcome.status == "hit") {
      ++hits;
    } else {
      ++ran;
    }
    log << "  [" << cell.index + 1 << "/" << cells.size() << "] " << cell.id << ": "
        << outcome.status << " (" << format_double(outcome.seconds, 2) << "s" << ")\n";
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_t0).count();
  if (opts.dry_run) {
    log << "dry run: nothing executed\n";
    return 0;
  }
  const bool recorded = publish_manifest(wall);

  log << "suite " << spec.name << ": " << ran << " ran, " << resumed << " cached, " << hits
      << " cache hits, " << failures << " failed in " << format_double(wall, 2) << "s"
      << "; manifest " << manifest_path << "\n";
  if (use_cache)
    log << "cache " << opts.cache_dir << ": " << hits << " hits, " << ran + failures
        << " misses\n";
  return failures == 0 && recorded ? 0 : 1;
}

}  // namespace cr
