/// \file
/// File helpers for the artifacts the suite, dist and verify layers publish
/// (CSVs, run manifests, CellCache entries, the verify report, `cr stream`
/// checkpoints), and the line reader `cr stream` reads its feed with.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

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

/// The lines of a file or of standard input, read a block at a time with
/// read(2) and handed out in place: no stdio, no per-line allocation, and
/// standard input reads as fast as a file. A last line without a newline is
/// still a line; a line longer than the block grows it.
///
/// Input that can block (a pipe, a FIFO, a terminal) is waited for with
/// poll(2) together with a wake-up pipe, once per block, so cancel() from
/// another thread stops a reader whose writer keeps the input open and
/// sends nothing.
class LineReader {
 public:
  /// Reads `path`, or standard input for "-". ok() is false, with error()
  /// naming the reason, when the path cannot be opened.
  explicit LineReader(const std::string& path);
  ~LineReader();
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// The next line, without its '\n', valid until the next call. False at
  /// the end of the input, on a read error (ok() then turns false), or
  /// once cancel() has been called and the buffered lines are spent.
  bool next(std::string_view* line);

  /// Stop reading: a next() waiting for input returns false, and so does
  /// every later one that would wait. Safe to call from another thread
  /// while next() runs.
  void cancel();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  /// Whether input is ready to read: false once cancel() was called (or
  /// poll fails, which sets error_).
  bool wait_for_input();

  int fd_ = -1;
  bool owned_ = false;
  bool eof_ = false;
  /// Read and write ends of the wake-up pipe; -1 for a regular file,
  /// whose reads never wait.
  int wake_[2] = {-1, -1};
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< first byte not yet handed out
  std::size_t end_ = 0;    ///< one past the last byte read
  std::string error_;
};

}  // namespace cr
