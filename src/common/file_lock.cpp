#include "common/file_lock.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "common/file_io.hpp"

namespace cr {

const std::string& lease_hostname() {
  static const std::string host = [] {
    char buf[256] = {};
    if (::gethostname(buf, sizeof buf - 1) != 0 || buf[0] == '\0')
      return std::string("unknown-host");
    return std::string(buf);
  }();
  return host;
}

bool process_alive(std::int64_t pid) {
  if (pid <= 0) return false;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
  // EPERM: the process exists but is not ours — still alive.
  return errno == EPERM;
}

bool lease_try_acquire(const std::string& path, const std::string& name) {
  std::FILE* lease = std::fopen(path.c_str(), "wx");  // x: O_CREAT|O_EXCL
  if (lease == nullptr) return false;  // EEXIST (held) or I/O error — either way, no lease
  // A short write leaves a malformed lease, which reads as stale — safe:
  // some worker (possibly this one) will take it over.
  std::fprintf(lease, "pid %lld\nhost %s\nname %s\nstarted_utc %s\n",
               static_cast<long long>(::getpid()), lease_hostname().c_str(), name.c_str(),
               utc_now().c_str());
  std::fclose(lease);
  return true;
}

bool lease_read(const std::string& path, LeaseInfo* out) {
  std::ifstream in(path);
  if (!in) return false;
  *out = LeaseInfo{};
  bool have_pid = false, have_host = false;
  std::string key;
  while (in >> key) {
    std::string value;
    std::getline(in, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "pid") {
      char* end = nullptr;
      out->pid = std::strtoll(value.c_str(), &end, 10);
      have_pid = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "host") {
      out->host = value;
      have_host = !value.empty();
    } else if (key == "name") {
      out->name = value;
    } else if (key == "started_utc") {
      out->started_utc = value;
    }
  }
  return have_pid && have_host;
}

bool lease_is_stale(const std::string& path, double stale_after_seconds) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;  // gone: nothing to take over
  LeaseInfo info;
  if (!lease_read(path, &info)) return true;  // malformed body: reclaim it
  if (info.host == lease_hostname()) return !process_alive(info.pid);
  // Foreign host: PIDs mean nothing here. Only an explicit age threshold
  // can declare it dead.
  if (stale_after_seconds <= 0.0) return false;
  const std::time_t now = std::time(nullptr);
  return std::difftime(now, st.st_mtime) > stale_after_seconds;
}

void lease_release(const std::string& path) { ::unlink(path.c_str()); }

}  // namespace cr
