/// \file
/// Source digest: the cache-key component that ties a result to the code
/// that produced it.
///
/// The digest is FNV-1a 64 over the bytes of the RUNNING EXECUTABLE
/// (/proc/self/exe), hex-formatted. Hashing the binary rather than the
/// source tree is deliberate:
///
///   * it is exact — any code change that can change behaviour changes the
///     binary, including uncommitted edits a git-SHA digest would miss;
///   * it needs no VCS at run time, so runs on a bare CI image or an
///     ssh host with only the binary still key the cache correctly;
///   * it is conservative — a rebuild that happens to produce different
///     bytes (new compiler, flags) misses the cache instead of serving
///     results from code that may differ.
///
/// Two different binaries (e.g. `cr` vs a test executable) therefore never
/// share CellCache entries, which is exactly the isolation the determinism
/// contract needs. The digest is computed once per process and cached.
#pragma once

#include <string>

namespace cr {

/// 16-hex-digit FNV-1a 64 digest of the running executable's bytes.
/// Computed on first call, cached for the process lifetime. Returns
/// "unknown" only if /proc/self/exe cannot be read.
const std::string& source_digest();

/// `cr version --json`: a single JSON object, schema "cr-version/1", with
/// the provenance fields a cache key or a bug report needs. `git_sha`/`build_type` are passed in
/// (they are CLI-layer facts); `source_digest` and the C++ standard are
/// added here. The output parses with cr::JsonValue (round-trip tested).
std::string version_json(const std::string& git_sha, const std::string& build_type);

}  // namespace cr
