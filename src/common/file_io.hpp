/// \file
/// File helpers for the artifacts the suite, dist and verify layers publish
/// (CSVs, run manifests, CellCache entries, the verify report, `cr stream`
/// checkpoints).
#pragma once

#include <string>
#include <string_view>

namespace cr {

/// Read a whole file; false when it cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

/// Publish `bytes` at `path`: write `<path>.tmp-<unique_suffix()>`, then
/// rename it over `path`, so a reader sees the old bytes or the new ones,
/// never a prefix. This guards against a killed process, not power loss
/// (there is no fsync). The suffix follows the full name, so a
/// `manifest*.json` scan never matches a tmp file. A path that fails
/// check_publishable is refused before anything is created. On failure the
/// tmp file is removed, `path` is untouched and `*error` names the failed
/// step and the OS reason.
bool write_file_atomic(const std::string& path, std::string_view bytes, std::string* error);

/// What write_file_atomic checks before it creates anything: the path's
/// directory exists, and whatever already stands at the path is a regular
/// file (renaming over a symlink, FIFO, device or directory would replace
/// it and leave what it led to untouched). False, with `*error` naming the
/// reason, otherwise.
bool check_publishable(const std::string& path, std::string* error);

/// `<pid>-<8 hex>`, freshly seeded on every call: unique across concurrent
/// processes (forked ones too) and PID reuse. It names tmp files and
/// CellCache tmp dirs.
std::string unique_suffix();

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, which sorts as a string.
std::string utc_now();

}  // namespace cr
