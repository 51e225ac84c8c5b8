#include "common/file_io.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <random>
#include <sstream>

namespace cr {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  *out = buf.str();
  return true;
}

bool write_file_atomic(const std::string& path, std::string_view bytes, std::string* error) {
  const std::string tmp = path + ".tmp-" + unique_suffix();
  std::FILE* out = std::fopen(tmp.c_str(), "wbx");  // x: O_EXCL
  if (out == nullptr) {
    *error = std::string("cannot create a temporary file: ") + std::strerror(errno);
    return false;
  }
  // fclose() flushes, so it also reports a short write such as a full disk.
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  int reason = errno;
  const char* failed = nullptr;
  if (std::fclose(out) != 0 || !written) {
    failed = "cannot write";
    reason = written ? errno : reason;
  } else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    failed = "cannot rename into place";
    reason = errno;
  }
  if (failed == nullptr) return true;
  std::remove(tmp.c_str());
  *error = std::string(failed) + ": " + std::strerror(reason);
  return false;
}

std::string unique_suffix() {
  // A fresh generator per call, never a process-wide one: forked workers
  // would otherwise inherit the same state and draw the same value.
  std::mt19937_64 gen(std::random_device{}() ^ (static_cast<std::uint64_t>(::getpid()) << 32) ^
                      static_cast<std::uint64_t>(
                          std::chrono::steady_clock::now().time_since_epoch().count()));
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08llx",
                static_cast<unsigned long long>(gen() & 0xFFFFFFFFull));
  return std::to_string(::getpid()) + "-" + hex;
}

std::string utc_now() {
  const std::time_t now = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace cr
