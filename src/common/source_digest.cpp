#include "common/source_digest.hpp"

#include <cstdio>
#include <sstream>

#include "common/json.hpp"
#include "common/snapshot.hpp"

namespace cr {

namespace {

std::string compute_source_digest() {
  std::FILE* exe = std::fopen("/proc/self/exe", "rb");
  if (exe == nullptr) return "unknown";
  // Chunked FNV-1a so Debug/sanitizer binaries (hundreds of MB) never get
  // slurped into one allocation.
  std::uint64_t hash = kFnv1a64Basis;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, exe)) > 0) hash = fnv1a64(buf, got, hash);
  const bool failed = std::ferror(exe) != 0;
  std::fclose(exe);
  return failed ? "unknown" : hex16(hash);
}

}  // namespace

const std::string& source_digest() {
  static const std::string digest = compute_source_digest();
  return digest;
}

std::string version_json(const std::string& git_sha, const std::string& build_type) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"cr-version/1\",\n"
     << "  \"git_sha\": " << json_quote(git_sha) << ",\n"
     << "  \"build\": " << json_quote(build_type.empty() ? "unspecified" : build_type)
     << ",\n"
     << "  \"source_digest\": " << json_quote(source_digest()) << ",\n"
     << "  \"cxx\": " << static_cast<long>(__cplusplus) << "\n"
     << "}\n";
  return os.str();
}

}  // namespace cr
