#include "common/file_io.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
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

namespace {

/// What stands at a path that is not a regular file, for the diagnostic.
const char* file_kind(mode_t mode) {
  if (S_ISLNK(mode)) return "a symbolic link";
  if (S_ISDIR(mode)) return "a directory";
  if (S_ISFIFO(mode)) return "a FIFO";
  if (S_ISCHR(mode) || S_ISBLK(mode)) return "a device";
  if (S_ISSOCK(mode)) return "a socket";
  return "a special file";
}

}  // namespace

bool check_publishable(const std::string& path, std::string* error) {
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (S_ISREG(st.st_mode)) return true;
    *error = std::string("not a regular file (") + file_kind(st.st_mode) + ")";
    return false;
  }
  const std::string parent = std::filesystem::path(path).parent_path().string();
  const std::string dir = parent.empty() ? "." : parent;
  const int reason = ::stat(dir.c_str(), &st) != 0 ? errno : S_ISDIR(st.st_mode) ? 0 : ENOTDIR;
  if (reason == 0) return true;
  *error = "cannot use directory " + dir + ": " + std::strerror(reason);
  return false;
}

bool write_file_atomic(const std::string& path, std::string_view bytes, std::string* error) {
  if (!check_publishable(path, error)) return false;
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
  // A fresh generator per call, never a process-wide one: forked processes
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

LineReader::LineReader(const std::string& path) : buf_(std::size_t{1} << 16) {
  if (path == "-") {
    fd_ = STDIN_FILENO;
  } else {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    owned_ = fd_ >= 0;
    if (!owned_) {
      error_ = std::strerror(errno);
      return;
    }
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    error_ = std::strerror(errno);  // e.g. standard input is closed
    return;
  }
  if (S_ISREG(st.st_mode)) return;
  if (::pipe2(wake_, O_CLOEXEC) != 0) error_ = std::strerror(errno);
}

LineReader::~LineReader() {
  if (owned_) ::close(fd_);
  for (const int fd : wake_)
    if (fd >= 0) ::close(fd);
}

void LineReader::cancel() {
  // The byte is never read, so the pipe stays readable: every later poll
  // sees the cancellation too.
  const char byte = 1;
  if (wake_[1] >= 0) (void)!::write(wake_[1], &byte, 1);
}

bool LineReader::wait_for_input() {
  if (wake_[0] < 0) return true;
  pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_[0], POLLIN, 0}};
  while (::poll(fds, 2, -1) < 0) {
    if (errno != EINTR) {
      error_ = std::strerror(errno);
      return false;
    }
  }
  return fds[1].revents == 0;
}

bool LineReader::next(std::string_view* line) {
  while (ok()) {
    const char* first = buf_.data() + begin_;
    if (const void* nl = std::memchr(first, '\n', end_ - begin_)) {
      const auto len = static_cast<std::size_t>(static_cast<const char*>(nl) - first);
      *line = std::string_view(first, len);
      begin_ += len + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      *line = std::string_view(first, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Move the partial line to the front, grow a full block, read more.
    std::memmove(buf_.data(), first, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    if (!wait_for_input()) return false;
    const ssize_t n = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (n > 0)
      end_ += static_cast<std::size_t>(n);
    else if (n == 0)
      eof_ = true;
    else if (errno != EINTR)
      error_ = std::strerror(errno);
  }
  return false;
}

}  // namespace cr
