/// \file
/// Versioned, checksummed binary snapshot framing for checkpoint/restore.
///
/// A snapshot is a little-endian byte blob with a fixed header:
///
///     offset  size  field
///     0       6     magic "CRSNAP"
///     6       2     reserved (zero)
///     8       4     schema version (u32)
///     12      4     reserved (zero)
///     16      8     payload size in bytes (u64)
///     24      8     FNV-1a 64 checksum of the payload (u64)
///     32      ...   payload
///
/// SnapshotWriter appends primitives to the payload and seal() prepends the
/// header. SnapshotReader validates the header first (magic, version, size,
/// checksum) and then serves bounds-checked reads. Every failure mode —
/// wrong magic, version mismatch, truncation, checksum mismatch, a count
/// field larger than the remaining bytes — sets a named, sticky diagnostic
/// (`error()`); after a failure all reads return zero values and never touch
/// out-of-bounds memory. Corrupt input is a reported error, never UB: this
/// is what lets `cr stream --restore` and the snapshot tests feed arbitrary
/// garbage through the reader under ASan/UBSan.
///
/// Determinism contract (rule 8 in docs/ARCHITECTURE.md): restoring a
/// snapshot and continuing must be bit-identical to never having stopped.
/// Writers therefore serialize every piece of state a later draw or output
/// can depend on, and in a canonical order where only the set matters (the
/// calendar writes its pending events sorted, not its wheel's layout).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cr {

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over a byte range (snapshot payload checksum); pass a
/// previous result as `hash` to continue it over more bytes.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                      std::uint64_t hash = kFnv1a64Basis);
/// 16 lower-case hex digits, the printed form of every recorded FNV hash.
std::string hex16(std::uint64_t value);
/// hex16(fnv1a64(bytes)): the `csv_fnv` of run manifests and CellCache entries.
std::string fnv1a_hex16(std::string_view bytes);

/// Append-only payload builder. All integers little-endian; doubles are
/// bit-copied IEEE-754 words (exactness matters: restored state must be
/// bit-identical, not merely close).
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  std::size_t payload_size() const { return buf_.size(); }

  /// The finished blob: header (with `version`) + payload.
  std::vector<std::uint8_t> seal(std::uint32_t version) const;

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload reader with sticky named diagnostics.
class SnapshotReader {
 public:
  /// Validates the header against `expected_version`. On any header problem
  /// the reader starts in the failed state (ok() == false) and every read
  /// returns zero.
  SnapshotReader(const std::uint8_t* data, std::size_t size, std::uint32_t expected_version);
  SnapshotReader(const std::vector<std::uint8_t>& blob, std::uint32_t expected_version)
      : SnapshotReader(blob.data(), blob.size(), expected_version) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Record a reader-side failure (e.g. a semantic mismatch the caller
  /// detects). First failure wins; later reads are no-ops.
  void fail(const std::string& message);

  std::uint8_t u8(const char* field);
  std::uint32_t u32(const char* field);
  std::uint64_t u64(const char* field);
  double f64(const char* field);

  /// Guard for count-prefixed arrays: fails (and returns false) unless at
  /// least `count * elem_size` payload bytes remain — a corrupted count can
  /// never trigger a huge allocation or an out-of-bounds loop.
  bool check_count(std::uint64_t count, std::size_t elem_size, const char* field);

  /// Fails unless the payload was consumed exactly (trailing garbage is a
  /// framing error, not ignorable padding).
  void expect_end();

 private:
  bool take(void* out, std::size_t n, const char* field);

  const std::uint8_t* payload_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace cr
